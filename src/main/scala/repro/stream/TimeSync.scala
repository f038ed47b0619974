package repro.stream

import repro.core.Gps
import scala.collection.mutable

/** Time synchronization for snapshot assembly (paper §4).
  *
  * The stream engine does not deliver records of different trajectories in
  * time order, but pattern detection must process snapshots in ascending
  * time order. Each record carries its trajectory's "last time" (previous
  * report time); a record is *releasable* once its predecessor has been
  * released, so gaps in a trajectory's own sequence are provably absent
  * rather than merely late (the paper's r1/r3/r5 example). Snapshot t is
  * emitted once every known trajectory's released frontier has passed t —
  * at that point membership of every trajectory in snapshot t is decided.
  *
  * Records that could never be released are dropped on arrival and counted
  * in [[dropped]] (DESIGN.md §2): non-finite coordinates, a `lastTime` not
  * before `time`, a predecessor the trajectory's frontier has already passed
  * (a duplicate of a released record, or a stale one), and a second record
  * waiting for the same predecessor. A first record whose snapshot was
  * already emitted (an unregistered trajectory joining late) advances the
  * trajectory's frontier but is itself dropped as stale; `close()` drops the
  * records still waiting for a lost predecessor as unresolved.
  *
  * Trajectories that stop reporting would stall the frontier; `close()`
  * flushes everything at stream end (a deployment would use punctuation or
  * a timeout, which the paper leaves implicit).
  *
  * `expected` guards the cold start: trajectories listed there are waited
  * for even before their first record arrives (otherwise the first reporter
  * would release early snapshots that miss the still-unknown trajectories —
  * an inherent limitation the paper does not discuss; a deployment would
  * register trajectories or bound disorder with watermarks).
  */
final class TimeSync(expected: Set[Long] = Set.empty) {

  /** Per-trajectory records waiting for their predecessor, keyed by lastTime. */
  private val pending = mutable.HashMap.empty[Long, mutable.HashMap[Int, Gps]]
  /** Per-trajectory frontier: discrete time of the last released record, -1
    * before the first (expected trajectories start there).
    */
  private val frontier = mutable.HashMap.from(expected.iterator.map(_ -> -1))
  /** Released records buffered per snapshot time, not yet emitted. */
  private val buffered = mutable.TreeMap.empty[Int, mutable.ArrayBuffer[Gps]]
  private var emittedUpTo = -1
  private var nonFinite, badLastTime, stale, duplicate, unresolved = 0L

  /** Records dropped so far, by reason. */
  def dropped: TimeSync.Drops = TimeSync.Drops(nonFinite, badLastTime, stale, duplicate, unresolved)

  /** Records accepted but not yet emitted in a snapshot: waiting for their
    * predecessor, or released into a snapshot that is not yet complete.
    * Counted from the maps, at O(trajectories + buffered snapshots) cost.
    */
  def heldRecords: Long = pendingRecords + buffered.valuesIterator.map(_.length.toLong).sum

  private def pendingRecords: Long = pending.valuesIterator.map(_.size.toLong).sum

  /** Offer one record (any arrival order across trajectories); returns the
    * snapshots (time, records) that became complete, in ascending time
    * order. A snapshot in a time slot where no trajectory reported is
    * emitted empty so the time axis stays dense for downstream state.
    */
  def add(r: Gps): Seq[(Int, Seq[Gps])] = addAll(Seq(r))

  /** Offer a whole micro-batch, then check emission once — avoids releasing
    * a snapshot mid-batch before its remaining records are ingested.
    */
  def addAll(rs: Iterable[Gps]): Seq[(Int, Seq[Gps])] = {
    rs.foreach { r =>
      if (!r.x.isFinite || !r.y.isFinite) nonFinite += 1
      else if (r.lastTime >= r.time || r.lastTime < -1) badLastTime += 1
      else if (r.lastTime < frontier.getOrElse(r.id, -1)) stale += 1
      else {
        val waiting = pending.getOrElseUpdate(r.id, mutable.HashMap.empty)
        if (waiting.contains(r.lastTime)) duplicate += 1
        else {
          waiting(r.lastTime) = r
          release(r.id, waiting)
        }
      }
    }
    emitComplete()
  }

  private def release(id: Long, waiting: mutable.HashMap[Int, Gps]): Unit = {
    var f = frontier.getOrElse(id, -1)
    var next = waiting.remove(f)
    while (next.isDefined) {
      val g = next.get
      if (g.time <= emittedUpTo) stale += 1
      else buffered.getOrElseUpdate(g.time, mutable.ArrayBuffer.empty) += g
      f = g.time
      next = waiting.remove(f)
    }
    frontier(id) = f
    // Records whose predecessor lies behind the new frontier contradict the
    // released chain and can never be released.
    if (waiting.nonEmpty) {
      val before = waiting.size
      waiting.filterInPlace((last, _) => last >= f)
      stale += before - waiting.size
    }
  }

  // Membership is decided for every t up to the smallest frontier: all known
  // trajectories have released their records up to their frontier, and
  // expected-but-unseen ones hold it at -1.
  private def emitComplete(): Seq[(Int, Seq[Gps])] =
    if (frontier.isEmpty) Nil else emitUpTo(frontier.values.min)

  private def emitUpTo(limit: Int): Seq[(Int, Seq[Gps])] = {
    if (limit <= emittedUpTo) return Nil
    val out = ((emittedUpTo + 1) to limit).map { t =>
      t -> buffered.remove(t).map(_.toSeq).getOrElse(Nil)
    }
    emittedUpTo = limit
    out
  }

  /** Flush every remaining complete-able snapshot at stream end. Records
    * still waiting for a lost predecessor are dropped and counted as
    * `unresolved` (their gap can never be resolved).
    */
  def close(): Seq[(Int, Seq[Gps])] = {
    unresolved += pendingRecords
    pending.clear()
    val maxBuffered = if (buffered.isEmpty) emittedUpTo else buffered.lastKey
    emitUpTo(maxBuffered)
  }
}

object TimeSync {

  /** Counts of rejected records, by reason. */
  final case class Drops(nonFinite: Long = 0, badLastTime: Long = 0, stale: Long = 0,
                         duplicate: Long = 0, unresolved: Long = 0) {
    def total: Long = nonFinite + badLastTime + stale + duplicate + unresolved
    def -(o: Drops): Drops = Drops(nonFinite - o.nonFinite, badLastTime - o.badLastTime,
      stale - o.stale, duplicate - o.duplicate, unresolved - o.unresolved)
  }
}
