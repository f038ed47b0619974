package repro.enumeration

import repro.core.{Constraints, Pattern, TimeSeq, VarBits, Bits}
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** A pattern together with the snapshot time whose processing emitted it —
  * the benchmarks derive the emission delay (latency component) from it.
  */
final case class Emitted(pattern: Pattern, emitTime: Int)

/** Mutable per-subtask state of VBA: the global hashmap H of open variable
  * length bit strings and the global candidate list C of Algorithm 5.
  */
final class VbaState(val anchor: Long) {
  /** H: trajectory id -> open entry ⟨st, et, B⟩, stored as its set bits:
    * the co-cluster times from the start `st` (the head) on.
    */
  val open = mutable.LinkedHashMap.empty[Long, ArrayBuffer[Int]]
  /** C: finalized maximal pattern time sequences (Lemma 7 components). */
  val cands = ArrayBuffer.empty[VarBits]
  /** Last processed snapshot time; Int.MinValue before the first one. */
  var lastTime: Int = Int.MinValue
}

/** **VBA** — Variable Length Bit Compression based Algorithm (paper §6.3,
  * Algorithm 5).
  *
  * Instead of re-verifying eta-windows per start time like FBA, each
  * trajectory assigned to the subtask of o keeps ONE growing bit string
  * ⟨st, et, B⟩ over all times (Definition 14). When G+1 consecutive zeros
  * arrive, the entry is finalized (Lemma 7): its (K,L,G)-valid maximal
  * components become candidates, invalid entries are deleted. Patterns are
  * enumerated only at finalization, against the global candidate list C
  * filtered by Lemma 8 (time-span overlap of at least K snapshots), so every
  * snapshot is verified once — higher throughput at the price of delayed
  * emission (latency), exactly the trade-off of §6.3.
  */
object VBA {

  /** Feed the cluster partition of snapshot `t` (empty set when the anchor's
    * cluster was too small or absent). Skipped times in (lastTime, t) are
    * zero-filled. Returns the patterns emitted by entries finalized here.
    */
  def onSnapshot(state: VbaState, t: Int, members: Set[Long], c: Constraints): Seq[Emitted] = {
    require(state.lastTime == Int.MinValue || t > state.lastTime,
      s"snapshots must arrive in increasing time order: $t after ${state.lastTime}")
    val out = ArrayBuffer.empty[Emitted]
    val from = if (state.lastTime == Int.MinValue) t else state.lastTime + 1
    for (tt <- from to t)
      step(state, tt, if (tt == t) members else Set.empty, c, out)
    out.toSeq
  }

  /** Finalize every open entry at stream end by feeding G+1 empty snapshots
    * (the streaming deployment does the same with punctuation ticks).
    */
  def flush(state: VbaState, c: Constraints): Seq[Emitted] =
    if (state.lastTime == Int.MinValue) Nil
    else onSnapshot(state, state.lastTime + c.g + 1, Set.empty, c)

  private def step(state: VbaState, t: Int, members: Set[Long], c: Constraints,
                   out: ArrayBuffer[Emitted]): Unit = {
    evict(state, t, c)
    val completed = ArrayBuffer.empty[VarBits] // Cl, the local candidate list
    // Update open entries (Alg 5, lines 2-12).
    for ((oi, times) <- state.open.toVector) {
      if (members.contains(oi)) times += t
      else if (t - times.last == c.g + 1) { // Lemma 7: G+1 zeros, no extension
        state.open.remove(oi)
        completed ++= finalizeEntry(oi, times, c) // tag=1 components; tag=-1 drops
      }
    }
    // Open new entries for first-time co-occurrences (Alg 5, lines 13-14).
    for (oi <- members.toVector.sorted if !state.open.contains(oi))
      state.open(oi) = ArrayBuffer(t)
    // Enumerate patterns for each completed candidate (Alg 5, lines 15-20).
    // Each candidate is added to C before the next is processed so that two
    // sequences finalizing at the same snapshot can still pair up.
    for (cand <- completed.sortBy(v => (v.id, v.st))) {
      enumerate(state, cand, t, c, out)
      state.cands += cand
    }
    state.lastTime = t
  }

  /** Bounds C before snapshot `t`: every candidate finalized from now on
    * starts at or after S, the earliest start of an open entry (or `t` if
    * none is open), so a retained candidate ending before S + K - 1 can never
    * again share K snapshots with a new one (Lemma 8) and is dropped. Doing
    * this at the start of a step leaves the candidates of the last step
    * visible until the next one.
    */
  private def evict(state: VbaState, t: Int, c: Constraints): Unit = {
    val s = state.open.valuesIterator.foldLeft(t)((m, times) => math.min(m, times.head))
    state.cands.filterInPlace(v => v.et - s + 1 >= c.k)
  }

  /** Valid maximal components of a closed entry. Dropping sub-L runs and
    * splitting at super-G gaps is safe for pattern completeness: any valid
    * pattern sequence involving this trajectory lies pointwise inside one
    * component (see TimeSeq.maximalValid).
    */
  private def finalizeEntry(oi: Long, times: ArrayBuffer[Int], c: Constraints): Seq[VarBits] =
    TimeSeq.maximalValid(times.toVector, c).map { comp =>
      VarBits(oi, comp.head, comp.last,
        Bits.fromPositions(comp.last - comp.head + 1, comp.map(_ - comp.head)))
    }

  /** Candidate-based enumeration anchored on the just-finalized `cand`:
    * FBA's growth loop over the Lemma 8-filtered candidate list. Every
    * combination contains `cand`, so each candidate's string is cut once to
    * cand's span [st, et] and AND-ed there.
    */
  private def enumerate(state: VbaState, cand: VarBits, emitTime: Int, c: Constraints,
                        out: ArrayBuffer[Emitted]): Unit = {
    // Lemma 8 (span form): a combination whose common span holds fewer than
    // K snapshots cannot satisfy the duration constraint.
    val items = state.cands.iterator
      .filter(o => o.id != cand.id && math.min(o.et, cand.et) - math.max(o.st, cand.st) + 1 >= c.k)
      .toVector
      .sortBy(v => (v.id, v.st))
      .map(o => o.id -> o.cut(cand.st, cand.et))
    // Growth starts from `cand` alone; the object set adds `cand` and the
    // subtask anchor, so a combination emits from M-2 items on.
    Enumeration.grow(Seq(Vector.empty[Long] -> cand.bits), items, c).foreach { case (ids, b) =>
      if (ids.length >= c.m - 2) {
        val objs = (state.anchor +: cand.id +: ids).sorted
        Bits.maximalValid(b, cand.st, c).foreach(seq => out += Emitted(Pattern(objs, seq), emitTime))
      }
    }
  }
}
