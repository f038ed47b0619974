package repro.enumeration

import repro.core.{Bits, Constraints, Pattern}
import scala.collection.immutable.TreeMap
import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** **FBA** — Fixed Length Bit Compression based Algorithm (paper §6.2,
  * Algorithm 4).
  *
  * For every window start t, each trajectory o_i in P_t(o) is compressed to
  * an eta-bit string B[o_i] (Definition 13: bit j = 1 iff o and o_i share a
  * cluster at time t+j), shrinking storage from O(2^|P_t(o)|) to
  * O(eta * |P_t(o)|). Enumeration is candidate based: only trajectories
  * whose own bit string contains a (K,L,G)-valid sequence enter the
  * candidate set C; subsets are grown apriori-style from cardinality M-1
  * (SubSet(C, M-2) x C), and a subset is extended only while its AND-ed bit
  * string stays valid — validity is anti-monotone, so no valid superset is
  * missed. Cost drops to O(|R| * |C| + C(|C|, M-1)).
  */
object FBA {

  def detect(anchor: Long, parts: TreeMap[Int, Set[Long]], c: Constraints): Seq[Emitted] = {
    if (parts.isEmpty) return Nil
    // Each member's string over the anchor's whole span, built once; every
    // eta-window string B[o_i] is a slice of it (Alg 4, lines 2-8).
    val t0 = parts.firstKey
    val span = parts.lastKey - t0 + 1
    val whole: Map[Long, Bits] = parts.toSeq
      .flatMap { case (t, p) => p.iterator.map(oi => oi -> (t - t0)) }
      .groupMap(_._1)(_._2)
      .map { case (oi, pos) => oi -> Bits.fromPositions(span, pos) }
    // Per object set, the last time of its latest window witness.
    val lastEnd = mutable.HashMap.empty[Vector[Long], Int]
    val out = ArrayBuffer.empty[Emitted]
    for ((t, p0) <- parts if p0.size >= c.m - 1) {
      val members = p0.toVector.sorted
      val bits: Map[Long, Bits] = members.map(oi => oi -> whole(oi).slice(t - t0, c.eta)).toMap
      val cands = members.filter(oi => Bits.containsValid(bits(oi), c))

      // Candidate-based apriori enumeration (Alg 4, lines 9-17).
      // A "pattern" here is the candidate subset O; the anchor o is implicit.
      val level0 = cands.combinations(c.m - 1).map(combo => (combo, Bits.andAll(combo.map(bits)))).toSeq
      Enumeration.grow(level0, cands.map(oi => oi -> bits(oi)), c).foreach { case (objs, b) =>
        // Only sequences starting at the window start count: a later start
        // is another window's witness. A witness that starts within G of the
        // set's previous one continues the same maximal sequence and is not
        // emitted again, so each set's first row is its earliest. Rows are
        // available once the window's last partition t+eta-1 is processed.
        Bits.maximalValid(b, t, c).find(_.head == t).foreach { ts =>
          val prev = lastEnd.get(objs)
          if (prev.forall(t - _ > c.g))
            out += Emitted(Pattern((anchor +: objs).sorted, ts), t + c.eta - 1)
          lastEnd(objs) = prev.fold(ts.last)(math.max(_, ts.last))
        }
      }
    }
    out.toSeq
  }
}
