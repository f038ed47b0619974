package repro.enumeration

import repro.core.{Constraints, Pattern, TimeSeq}
import scala.collection.immutable.TreeMap
import scala.collection.mutable.ArrayBuffer

/** Thrown when Baseline enumeration meets a partition of more than
  * `BA.MaxPartitionSize` (14) objects — models the paper's observation that
  * "for a large |P_t(o)|, Baseline cannot run due to the storage cost"
  * (Fig. 12: B only completes for Or <= 60%).
  */
final class BaselineBlowupException(partitionSize: Int)
  extends RuntimeException(s"Baseline cannot enumerate 2^$partitionSize subsets")

/** **Baseline** pattern enumeration (paper §6.1, Algorithm 3): SPARE [10]
  * adapted to streams via id-based partitioning.
  *
  * For every window start t it materializes *all* subsets O of P_t(o) with
  * |O| >= M-1 (O(2^|P_t(o)|) storage — the exponential cost FBA/VBA remove)
  * and verifies each against the eta following partitions.
  *
  * Verification semantics: the subset's occurrence times within the window
  * are collected (with Lemma 6's early termination: once a gap between
  * occurrences exceeds G nothing later can join a sequence anchored in the
  * prefix) and checked for a (K,L,G)-valid sub-sequence. This is the same
  * maximal-sequence semantics FBA and VBA use; Algorithm 3's literal greedy
  * extension can discard a candidate that a non-greedy time choice would
  * keep (e.g. occurrences ⟨1,2,3,5,7,8,9⟩ with L=3, G=4, K=6: greedily
  * absorbing time 5 kills the valid ⟨1,2,3,7,8,9⟩), so we verify with the
  * exact semantics while keeping Baseline's enumeration cost — the quantity
  * the paper benchmarks — untouched.
  */
object BA {

  /** Largest partition whose 2^n subsets Baseline materializes (and Fig 12 runs B on). */
  private[repro] val MaxPartitionSize = 14

  def detect(anchor: Long, parts: TreeMap[Int, Set[Long]], c: Constraints): Seq[Emitted] = {
    val out = ArrayBuffer.empty[Emitted]
    for ((t, p0) <- parts) {
      if (p0.size > MaxPartitionSize) throw new BaselineBlowupException(p0.size)
      if (p0.size >= c.m - 1) {
        val sorted = p0.toVector.sorted
        for (size <- (c.m - 1) to sorted.length; objs <- sorted.combinations(size)) {
          val objSet = objs.toSet
          // Occurrence times of O within the eta window, Lemma 6 early stop.
          val occ = ArrayBuffer(t)
          var i = t + 1
          var alive = true
          while (alive && i <= t + c.eta - 1) {
            if (parts.get(i).exists(objSet.subsetOf)) {
              if (i - occ.last > c.g) alive = false // Lemma 6
              else occ += i
            }
            i += 1
          }
          val valid = TimeSeq.maximalValid(occ.toSeq, c)
          // The window's results become available once partition t+eta-1 has
          // been processed — that is the emission time for latency purposes.
          valid.find(_.head == t).foreach { ts =>
            out += Emitted(Pattern((anchor +: objs).sorted, ts), t + c.eta - 1)
          }
        }
      }
    }
    out.toSeq
  }
}
