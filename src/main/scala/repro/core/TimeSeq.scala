package repro.core

import scala.collection.mutable.ArrayBuffer

/** Operations on discretized time sequences (paper §3.1, Definitions 1–4).
  *
  * A time sequence is a strictly increasing `Seq[Int]`. A *segment* is a
  * maximal consecutive run. A sequence is L-consecutive when every segment
  * has length >= L (Definition 2) and G-connected when every gap between
  * neighboring times is <= G (Definition 3).
  */
object TimeSeq {

  /** Split a strictly increasing sequence into its maximal consecutive
    * segments, e.g. ⟨1,2,4,5,6⟩ -> ⟨⟨1,2⟩, ⟨4,5,6⟩⟩.
    */
  def segments(times: Seq[Int]): Seq[Seq[Int]] = {
    requireIncreasing(times)
    if (times.isEmpty) return Nil
    val out = ArrayBuffer.empty[Seq[Int]]
    val cur = ArrayBuffer(times.head)
    for (t <- times.tail) {
      if (t == cur.last + 1) cur += t
      else { out += cur.toVector; cur.clear(); cur += t }
    }
    out += cur.toVector
    out.toVector
  }

  /** Definition 2: every maximal segment has length >= L. */
  def isLConsecutive(times: Seq[Int], l: Int): Boolean =
    segments(times).forall(_.length >= l)

  /** Definition 3: every gap between neighboring times is <= G. */
  def isGConnected(times: Seq[Int], g: Int): Boolean = {
    requireIncreasing(times)
    times.lazyZip(times.drop(1)).forall { case (a, b) => b - a <= g }
  }

  /** Definition 4 constraints (iii)-(v): |T| >= K, L-consecutive, G-connected. */
  def isValid(times: Seq[Int], c: Constraints): Boolean =
    times.length >= c.k && isLConsecutive(times, c.l) && isGConnected(times, c.g)

  /** All maximal (K,L,G)-valid sub-sequences of `times`, in order.
    *
    * Construction: drop every maximal segment shorter than L (such times can
    * never appear in a valid sequence built from `times`), then split where
    * the resulting gaps exceed G, and keep components with >= K times. Each
    * returned component is a *maximal pattern time sequence* in the sense of
    * Definition 15: valid, and not extendable with further times of `times`.
    */
  def maximalValid(times: Seq[Int], c: Constraints): Seq[Seq[Int]] = {
    val kept = segments(times).filter(_.length >= c.l)
    if (kept.isEmpty) return Nil
    // Group the surviving segments into G-connected components.
    val comps = ArrayBuffer.empty[ArrayBuffer[Int]]
    for (seg <- kept) {
      if (comps.nonEmpty && seg.head - comps.last.last <= c.g) comps.last ++= seg
      else comps += ArrayBuffer.from(seg)
    }
    comps.iterator.map(_.toVector).filter(_.length >= c.k).toVector
  }

  private def requireIncreasing(times: Seq[Int]): Unit =
    require(times.isEmpty || times.lazyZip(times.drop(1)).forall { case (a, b) => a < b },
      s"time sequence must be strictly increasing: $times")
}
