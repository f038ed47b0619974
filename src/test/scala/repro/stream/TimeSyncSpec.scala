package repro.stream

import org.scalatest.funsuite.AnyFunSuite
import repro.core.Gps
import scala.util.Random

/** Time-synchronization tests (§4): snapshots must come out complete and in
  * ascending time order regardless of cross-trajectory arrival order,
  * using the "last time" annotations — including the paper's r1/r3/r5
  * waiting example.
  */
class TimeSyncSpec extends AnyFunSuite {

  private def gps(id: Long, t: Int, last: Int): Gps = Gps(id, t, t.toDouble, id.toDouble, last)

  test("single trajectory, in-order arrival, snapshots emitted immediately") {
    val sync = new TimeSync
    assert(sync.add(gps(1, 0, -1)).map(_._1) == Seq(0))
    assert(sync.add(gps(1, 1, 0)).map(_._1) == Seq(1))
  }

  test("paper §4: having r1 and r3 the system waits for r2") {
    val sync = new TimeSync
    sync.add(gps(1, 1, -1))
    // r3 says lastTime = 2: snapshot 2 and 3 must wait for r2.
    val out = sync.add(gps(1, 3, 2))
    assert(out.isEmpty)
    // r2 arrives: snapshots 2 and 3 release (snapshot 2 contains r2).
    val released = sync.add(gps(1, 2, 1))
    assert(released.map(_._1) == Seq(2, 3))
  }

  test("paper §4: with r1,r2,r3,r5 present there is no wait for r4") {
    val sync = new TimeSync
    sync.add(gps(1, 1, -1)); sync.add(gps(1, 2, 1)); sync.add(gps(1, 3, 2))
    // r5's lastTime = 3 proves nothing was reported at time 4.
    val out = sync.add(gps(1, 5, 3))
    assert(out.map(_._1) == Seq(4, 5))
    assert(out.find(_._1 == 4).get._2.isEmpty) // snapshot 4 is empty
  }

  test("expected trajectories are waited for before their first record") {
    val sync = new TimeSync(expected = Set(1L, 2L))
    assert(sync.add(gps(1, 0, -1)).isEmpty) // trajectory 2 never seen yet
    val out = sync.add(gps(2, 0, -1))
    assert(out.map(_._1) == Seq(0))
    assert(out.head._2.map(_.id).sorted == Seq(1L, 2L))
  }

  test("slow trajectory holds back the snapshot until it reports") {
    val sync = new TimeSync(expected = Set(1L, 2L))
    sync.add(gps(1, 0, -1))
    sync.add(gps(2, 0, -1)) // both frontiers at 0 -> snapshot 0 out
    assert(sync.add(gps(1, 1, 0)).isEmpty) // trajectory 2 not yet at 1
    val out = sync.add(gps(2, 1, 0))
    assert(out.map(_._1) == Seq(1))
    assert(out.head._2.map(_.id).sorted == Seq(1L, 2L))
  }

  test("out-of-order across trajectories is fine") {
    val sync = new TimeSync(expected = Set(1L, 2L))
    sync.add(gps(1, 0, -1))
    sync.add(gps(1, 1, 0))
    sync.add(gps(2, 1, 0)) // trajectory 2's own record 0 still missing
    val out = sync.add(gps(2, 0, -1))
    assert(out.map(_._1) == Seq(0, 1))
    assert(out.map(_._2.size) == Seq(2, 2))
  }

  test("close() flushes pending complete snapshots") {
    val sync = new TimeSync(expected = Set(1L, 2L))
    sync.add(gps(1, 0, -1))
    sync.add(gps(1, 1, 0))
    sync.add(gps(2, 0, -1)) // emits snapshot 0; snapshot 1 waits for traj 2
    val out = sync.close()
    assert(out.map(_._1) == Seq(1))
    assert(out.head._2.map(_.id) == Seq(1L))
  }

  test("random arrival order reconstructs the exact snapshot sequence") {
    val rng = new Random(3)
    val n = 5; val times = 12
    val all = for (id <- 1 to n; t <- 0 until times) yield gps(id, t, t - 1)
    val sync = new TimeSync(expected = (1L to n).toSet)
    val emitted = rng.shuffle(all.toVector).flatMap(sync.add) ++ sync.close()
    assert(emitted.map(_._1) == (0 until times))
    emitted.foreach { case (t, recs) =>
      assert(recs.map(_.id).sorted == (1L to n))
      assert(recs.forall(_.time == t))
    }
  }

  test("addAll defers emission to the end of the batch") {
    val sync = new TimeSync
    val out = sync.addAll(Seq(gps(1, 0, -1), gps(2, 0, -1)))
    assert(out.map(_._1) == Seq(0))
    assert(out.head._2.map(_.id).sorted == Seq(1L, 2L))
  }

  test("gaps in individual trajectories do not stall others") {
    val sync = new TimeSync(expected = Set(1L, 2L))
    sync.add(gps(1, 0, -1)); sync.add(gps(2, 0, -1))
    sync.add(gps(1, 1, 0))
    // Trajectory 2 skips time 1 and reports at 2 with lastTime 0.
    val out = sync.add(gps(2, 2, 0))
    assert(out.map(_._1) == Seq(1)) // snapshot 1 decidable: traj 2 absent
    assert(out.head._2.map(_.id) == Seq(1L))
  }

  test("duplicate, stale, malformed and non-finite records are dropped and counted") {
    val sync = new TimeSync(expected = Set(1L, 2L))
    sync.add(gps(1, 0, -1)); sync.add(gps(2, 0, -1)) // snapshot 0 out
    assert(sync.add(gps(1, 0, -1)).isEmpty)           // resent after release: stale
    sync.add(gps(1, 2, 1))                             // waits for time 1
    sync.add(gps(1, 2, 1))                             // second copy waiting: duplicate
    sync.add(Gps(2, 1, Double.NaN, 2.0, 0))
    sync.add(Gps(2, 1, 1.0, Double.NegativeInfinity, 0))
    sync.add(gps(2, 1, 1))                             // lastTime not before time
    assert(sync.dropped == TimeSync.Drops(nonFinite = 2, badLastTime = 1, stale = 1, duplicate = 1))
    assert(sync.heldRecords == 1) // trajectory 1's record at time 2
    val out = sync.add(gps(1, 1, 0)) ++ sync.add(gps(2, 1, 0)) ++ sync.add(gps(2, 2, 1))
    assert(out.map(_._1) == Seq(1, 2))
    assert(out.map(_._2.map(_.id).sorted) == Seq(Seq(1L, 2L), Seq(1L, 2L)))
    assert(out.forall(_._2.forall(r => r.x.isFinite && r.y.isFinite)))
    assert(sync.heldRecords == 0)
    assert(sync.dropped.total == 5)
  }

  test("a waiting record that contradicts the released chain is dropped as stale") {
    val sync = new TimeSync
    sync.add(gps(1, 0, -1))
    sync.add(gps(1, 3, 1)) // claims a report at 1
    assert(sync.heldRecords == 1)
    // The report after 0 is at 2, so nothing was reported at 1.
    assert(sync.add(gps(1, 2, 0)).map(_._1) == Seq(1, 2))
    assert(sync.dropped == TimeSync.Drops(stale = 1))
    assert(sync.heldRecords == 0)
  }

  test("an unregistered trajectory whose first snapshot was released joins later") {
    val sync = new TimeSync
    sync.add(gps(1, 0, -1)); sync.add(gps(1, 1, 0)) // snapshots 0, 1 out
    assert(sync.add(gps(2, 0, -1)).isEmpty) // snapshot 0 is gone: dropped
    assert(sync.dropped == TimeSync.Drops(stale = 1))
    sync.add(gps(2, 2, 0))
    val out = sync.add(gps(1, 2, 1))
    assert(out.map(_._1) == Seq(2))
    assert(out.head._2.map(_.id).sorted == Seq(1L, 2L))
    assert(sync.heldRecords == 0)
  }

  test("close() counts records waiting for a lost predecessor as unresolved") {
    val sync = new TimeSync
    sync.add(gps(1, 0, -1))
    sync.add(gps(1, 5, 3)) // the report at 3 never arrives
    assert(sync.close().isEmpty)
    assert(sync.dropped == TimeSync.Drops(unresolved = 1))
    assert(sync.heldRecords == 0)
  }

  test("a record lost or sent only non-finite stalls every later snapshot until close()") {
    val sync = new TimeSync(expected = Set(1L, 2L))
    sync.add(gps(1, 0, -1)); sync.add(gps(2, 0, -1)) // snapshot 0 out
    sync.add(Gps(2, 1, Double.NaN, 2.0, 0))           // trajectory 2's only report at 1
    val stalled = (1 to 5).flatMap { t =>
      sync.add(gps(1, t, t - 1)) ++ (if (t >= 2) sync.add(gps(2, t, t - 1)) else Nil)
    }
    assert(stalled.isEmpty) // trajectory 2's report at 2 waits for the one at 1
    val out = sync.close()
    assert(out.map(_._1) == (1 to 5))
    assert(out.forall(_._2.map(_.id) == Seq(1L)))
    assert(sync.dropped == TimeSync.Drops(nonFinite = 1, unresolved = 4))
  }

  test("held records stay bounded on a long stream with faulty records") {
    val rng = new Random(11)
    val n = 5; val times = 2000
    val sync = new TimeSync(expected = (1L to n).toSet)
    var injectedResends, injectedNonFinite, maxHeld = 0L
    val emitted = scala.collection.mutable.ArrayBuffer.empty[(Int, Seq[Gps])]
    var sent, late = Vector.empty[Gps]
    // Batches of three snapshots, shuffled, with ~5% of the records held
    // back one batch (disorder within and across trajectories), plus resent
    // copies and non-finite records.
    for (t0 <- 0 until times by 3) {
      val fresh = for (id <- 1 to n; t <- t0 until math.min(t0 + 3, times)) yield gps(id, t, t - 1)
      val (delayed, onTime) = fresh.partition(_ => rng.nextDouble() < 0.05)
      val pool = sent ++ fresh
      val resent = Vector.fill(rng.nextInt(3))(pool(rng.nextInt(pool.length)))
      val broken = Vector.fill(rng.nextInt(2))(fresh(rng.nextInt(fresh.length)).copy(x = Double.NaN))
      injectedResends += resent.length
      injectedNonFinite += broken.length
      sent ++= fresh
      emitted ++= sync.addAll(rng.shuffle(late ++ onTime ++ resent ++ broken))
      late = delayed.toVector
      maxHeld = math.max(maxHeld, sync.heldRecords)
    }
    emitted ++= sync.addAll(late)
    assert(injectedResends > 100 && injectedNonFinite > 100)
    assert(emitted.map(_._1) == (0 until times))
    emitted.foreach { case (t, recs) =>
      assert(recs.map(_.id).sorted == (1L to n))
      assert(recs.forall(r => r.time == t && r.x.isFinite))
    }
    val d = sync.dropped
    assert(d.stale + d.duplicate == injectedResends)
    assert(d.nonFinite == injectedNonFinite)
    assert(d.badLastTime == 0 && d.unresolved == 0)
    assert(sync.heldRecords == 0)
    // A record held back blocks at most the snapshots of its own batch.
    assert(maxHeld > 0 && maxHeld <= 3 * n, s"held records: $maxHeld")
  }
}
