package repro.enumeration

import repro.core.{Bits, Constraints, Pattern}
import scala.collection.immutable.TreeMap
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
    val out = ArrayBuffer.empty[Emitted]
    for ((t, p0) <- parts if p0.size >= c.m - 1) {
      // Build fixed-length bit strings over the eta window (Alg 4, lines 2-8).
      val window = parts.range(t, t + c.eta) // [t, t+eta-1]
      val members = p0.toVector.sorted
      val bits: Map[Long, Bits] = members.map { oi =>
        oi -> Bits.fromPositions(c.eta,
          window.collect { case (j, pj) if pj.contains(oi) => j - t })
      }.toMap
      val cands = members.filter(oi => Bits.containsValid(bits(oi), c))

      // Candidate-based apriori enumeration (Alg 4, lines 9-17).
      // A "pattern" here is the candidate subset O; the anchor o is implicit.
      val level0 = cands.combinations(c.m - 1).map(combo => (combo, Bits.andAll(combo.map(bits)))).toSeq
      Enumeration.grow(level0, cands.map(oi => oi -> bits(oi)), c).foreach { case (objs, b) =>
        // Emit only sequences starting at the window start — the same
        // pattern re-appears in every later window otherwise.
        // Available once the window's last partition t+eta-1 is processed.
        Bits.maximalValid(b, t, c).find(_.head == t).foreach { ts =>
          out += Emitted(Pattern((anchor +: objs).sorted, ts), t + c.eta - 1)
        }
      }
    }
    out.toSeq
  }
}
