package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

/** Unit + property tests for time-sequence semantics (Definitions 1-4,
  * Lemma 4's eta) including every worked example in the paper's §3.1.
  */
class TimeSeqSpec extends AnyFunSuite with PropSupport {

  test("segments of empty sequence") { assert(TimeSeq.segments(Nil) == Nil) }

  test("segments of single element") {
    assert(TimeSeq.segments(Seq(5)) == Seq(Seq(5)))
  }

  test("segments splits at non-consecutive steps") {
    assert(TimeSeq.segments(Seq(1, 2, 4, 5, 6)) == Seq(Seq(1, 2), Seq(4, 5, 6)))
  }

  test("segments of fully consecutive run") {
    assert(TimeSeq.segments(1 to 6) == Seq(1 to 6))
  }

  test("segments of fully scattered times") {
    assert(TimeSeq.segments(Seq(1, 3, 5)) == Seq(Seq(1), Seq(3), Seq(5)))
  }

  test("segments rejects non-increasing input") {
    intercept[IllegalArgumentException](TimeSeq.segments(Seq(2, 2)))
    intercept[IllegalArgumentException](TimeSeq.segments(Seq(3, 1)))
  }

  test("paper: T1=<1,2,3,4> is a segment, T2=<1,2,4,5> is not") {
    assert(TimeSeq.segments(Seq(1, 2, 3, 4)).length == 1)
    assert(TimeSeq.segments(Seq(1, 2, 4, 5)).length == 2)
  }

  test("paper: <1,2,4,5,6> is 2-consecutive and 2-connected") {
    val t = Seq(1, 2, 4, 5, 6)
    assert(TimeSeq.isLConsecutive(t, 2))
    assert(TimeSeq.isGConnected(t, 2))
  }

  test("<1,2,4,5,6> is not 3-consecutive") {
    assert(!TimeSeq.isLConsecutive(Seq(1, 2, 4, 5, 6), 3))
  }

  test("<1,2,5> is not 2-connected (gap of 3)") {
    assert(!TimeSeq.isGConnected(Seq(1, 2, 5), 2))
  }

  test("empty sequence is trivially L-consecutive and G-connected") {
    assert(TimeSeq.isLConsecutive(Nil, 3))
    assert(TimeSeq.isGConnected(Nil, 1))
  }

  test("paper: T=<3,4,6,7> is valid for CP(·,4,2,2)") {
    assert(TimeSeq.isValid(Seq(3, 4, 6, 7), Constraints(2, 4, 2, 2)))
  }

  test("T=<3,4,7,8> violates G=2 (gap 3)") {
    assert(!TimeSeq.isValid(Seq(3, 4, 7, 8), Constraints(2, 4, 2, 2)))
  }

  test("duration constraint |T| >= K") {
    assert(!TimeSeq.isValid(Seq(1, 2, 3), Constraints(2, 4, 2, 2)))
    assert(TimeSeq.isValid(Seq(1, 2, 3, 4), Constraints(2, 4, 2, 2)))
  }

  test("paper: eta = 6 for K=4, L=2, G=2") {
    assert(Constraints(2, 4, 2, 2).eta == 6)
  }

  test("paper defaults: eta = 351 for K=180, L=20, G=20") {
    assert(Constraints(15, 180, 20, 20).eta == (9 - 1) * 19 + 180 + 20 - 1)
    assert(Constraints(15, 180, 20, 20).eta == 351)
  }

  test("eta is at least K + L - 1") {
    for (k <- 2 to 12; l <- 1 to k; g <- 1 to 5)
      assert(Constraints(2, k, l, g).eta >= k + l - 1)
  }

  test("maximalValid drops sub-L runs then splits at super-G gaps") {
    // <1> is dropped; <3,4> and <6,7,8> merge (gap 2 <= G).
    val c = Constraints(2, 4, 2, 2)
    assert(TimeSeq.maximalValid(Seq(1, 3, 4, 6, 7, 8), c) == Seq(Seq(3, 4, 6, 7, 8)))
  }

  test("maximalValid: dropping a short run can split a component") {
    // <5> dropped; gap 3->7 becomes 4 > G=2: both halves too short for K=4.
    val c = Constraints(2, 4, 2, 2)
    assert(TimeSeq.maximalValid(Seq(2, 3, 5, 7, 8), c) == Nil)
  }

  test("maximalValid keeps the non-greedy witness Algorithm 3's greedy misses") {
    // Occurrences <1,2,3,5,7,8,9> with L=3, G=4, K=6 (see BA.scala comment).
    val c = Constraints(2, 6, 3, 4)
    assert(TimeSeq.maximalValid(Seq(1, 2, 3, 5, 7, 8, 9), c)
      == Seq(Seq(1, 2, 3, 7, 8, 9)))
  }

  test("maximalValid can return several components") {
    val c = Constraints(2, 2, 2, 1)
    assert(TimeSeq.maximalValid(Seq(1, 2, 5, 6), c) == Seq(Seq(1, 2), Seq(5, 6)))
  }

  test("maximalValid of empty input") {
    assert(TimeSeq.maximalValid(Nil, Constraints(2, 2, 1, 1)) == Nil)
  }

  test("containsValid consistent with maximalValid") {
    val c = Constraints(2, 4, 2, 2)
    assert(Bits.containsValid(Bits.fromPositions(9, Seq(3, 4, 6, 7, 8)), c))
    assert(!Bits.containsValid(Bits.fromPositions(9, Seq(3, 4, 7, 8)), c))
  }

  private val timesGen: Gen[Seq[Int]] =
    Gen.someOf(0 until 40).map(_.toSeq.sorted)
  private val cGen: Gen[Constraints] = for {
    k <- Gen.choose(2, 8); l <- Gen.choose(1, math.min(4, k)); g <- Gen.choose(1, 4)
  } yield Constraints(2, k, l, g)

  test("property: every maximal component is itself valid") {
    forAllG2(timesGen, cGen) { (ts, c) =>
      TimeSeq.maximalValid(ts, c).foreach(comp => assert(TimeSeq.isValid(comp, c)))
    }
  }

  test("property: maximal components are subsets of the input, disjoint, ordered") {
    forAllG2(timesGen, cGen) { (ts, c) =>
      val comps = TimeSeq.maximalValid(ts, c)
      val flat = comps.flatten
      assert(flat.toSet.subsetOf(ts.toSet))
      assert(flat == flat.sorted && flat.distinct == flat)
    }
  }

  test("property: validity is anti-monotone under intersection") {
    // If no valid subsequence exists in ts, none exists in any subset.
    forAllG2(timesGen, cGen) { (ts, c) =>
      if (!Bits.containsValid(Bits.fromPositions(40, ts), c)) {
        val sub = ts.zipWithIndex.collect { case (t, i) if i % 2 == 0 => t }
        assert(!Bits.containsValid(Bits.fromPositions(40, sub), c))
      }
    }
  }

  test("property: a valid sequence is its own single maximal component") {
    forAllG2(timesGen, cGen) { (ts, c) =>
      if (TimeSeq.isValid(ts, c) && ts.nonEmpty) {
        assert(TimeSeq.maximalValid(ts, c) == Seq(ts))
      }
    }
  }
}
