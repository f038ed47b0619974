package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

/** Tests for the fixed/variable length bit-string substrate (§6.2–6.3),
  * including the exact strings of the paper's Fig. 8/9.
  */
class BitsSpec extends AnyFunSuite with PropSupport {

  test("parse/toString round trip") {
    val s = "110111"
    assert(Bits.parse(s).toString == s)
  }

  test("apply reads individual bits; out-of-range is 0") {
    val b = Bits.parse("101")
    assert(b(0) && !b(1) && b(2))
    assert(!b(-1) && !b(3) && !b(100))
  }

  test("onesPositions across word boundaries") {
    val pos = Seq(0, 1, 63, 64, 65, 127, 128)
    val b = Bits.fromPositions(130, pos)
    assert(b.onesPositions == pos)
  }

  test("fromPositions rejects out-of-range bits") {
    intercept[IllegalArgumentException](Bits.fromPositions(4, Seq(4)))
    intercept[IllegalArgumentException](Bits.fromPositions(4, Seq(-1)))
  }

  test("paper Fig 8: B[{o5,o6}] = B[o5] & B[o6] = 110111") {
    val b = Bits.parse("111111").and(Bits.parse("110111"))
    assert(b.toString == "110111")
  }

  test("paper Fig 8: B[{o5,o6,o7}] = 110011") {
    val b = Bits.andAll(Seq("111111", "110111", "110011").map(Bits.parse))
    assert(b.toString == "110011")
  }

  test("and requires equal lengths") {
    intercept[IllegalArgumentException](Bits.parse("10").and(Bits.parse("100")))
  }

  test("andAll over singleton") {
    assert(Bits.andAll(Seq(Bits.parse("0110"))).toString == "0110")
  }

  test("equality is by length and positions") {
    assert(Bits.parse("0101") == Bits.fromPositions(4, Seq(1, 3)))
    assert(Bits.parse("0101") != Bits.parse("01010"))
  }

  private val c422 = Constraints(2, 4, 2, 2)

  test("paper Fig 8 validity under (K,L,G)=(4,2,2): o5 and o6 qualify") {
    assert(Bits.containsValid(Bits.parse("111111"), c422))
    assert(Bits.containsValid(Bits.parse("110111"), c422))
  }

  test("B[o8]=100000 does not satisfy (4,2,2) — paper Fig 8") {
    assert(!Bits.containsValid(Bits.parse("100000"), c422))
  }

  test("B[o7]=110011 is not valid under Definition 3 (gap 3 > G=2)") {
    // The paper's Fig 8/9 prose includes o7 in the candidate set, but its
    // time set {3,4,7,8} has adjacent difference 3 > G = 2; Definition 3 and
    // the Lemma 6 worked example both use the difference semantics, which we
    // follow (see DESIGN.md).
    assert(!Bits.containsValid(Bits.parse("110011"), c422))
  }

  test("maximalValid of a window bit string, offset applied") {
    // Window start 3: 110111 -> times {3,4,6,7,8}, one merged component.
    assert(Bits.maximalValid(Bits.parse("110111"), 3, c422) == Seq(Seq(3, 4, 6, 7, 8)))
  }

  test("VarBits validates span vs bits length") {
    intercept[IllegalArgumentException](VarBits(1L, 2, 8, Bits.parse("111")))
    val v = VarBits(5L, 2, 8, Bits.parse("1111111"))
    assert(v.cut(2, 8) == v.bits)
    assert(v.cut(0, 4).toString == "00111")
    assert(v.cut(6, 10).toString == "11100")
  }

  test("slice reads 0 outside the string and masks its last word") {
    val b = Bits.fromPositions(130, Seq(0, 1, 63, 64, 65, 127, 128, 129))
    assert(b.slice(-2, 5).toString == "00110")
    assert(b.slice(62, 5).toString == "01110")
    assert(b.slice(127, 6).toString == "111000")
    assert(b.slice(1, 129) == Bits.fromPositions(129, Seq(0, 62, 63, 64, 126, 127, 128)))
    assert(b.slice(0, 64) == Bits.fromPositions(64, Seq(0, 1, 63)))
    assert(b.slice(200, 3) == Bits.fromPositions(3, Nil))
    assert(b.slice(5, 0) == Bits.fromPositions(0, Nil))
  }

  test("maximalValid across a word edge: short runs dropped, split at a long gap") {
    // Runs [60,66) and [67,71) form one component (67 - 65 <= G); the lone
    // bit 75 is shorter than L; [130,135) starts more than G after 70.
    val b = Bits.fromPositions(140, (60 until 66) ++ (67 until 71) ++ Seq(75) ++ (130 until 135))
    val c = Constraints(2, 5, 2, 2)
    assert(Bits.maximalValid(b, 1, c) == Seq((61 until 67) ++ (68 until 72), 131 until 136))
    assert(Bits.containsValid(b, c))
    assert(!Bits.containsValid(b, Constraints(2, 11, 2, 2)))
  }

  private val bitsGen: Gen[Bits] = for {
    len <- Gen.choose(1, 150)
    pos <- Gen.someOf(0 until len)
  } yield Bits.fromPositions(len, pos.toSeq)

  test("property: parse(toString) is identity") {
    forAllG(bitsGen) { b => assert(Bits.parse(b.toString) == b) }
  }

  test("property: AND equals set intersection of positions") {
    forAllG(Gen.zip(bitsGen, bitsGen), 100) { case (a0, b0) =>
      val len = math.max(a0.length, b0.length)
      val a = Bits.fromPositions(len, a0.onesPositions)
      val b = Bits.fromPositions(len, b0.onesPositions)
      assert(a.and(b).onesPositions.toSet ==
        (a0.onesPositions.toSet intersect b0.onesPositions.toSet))
    }
  }

  /** Strings of 1–200 bits made of alternating runs, short (1–4) or long
    * (5–80), so that runs and gaps cross 64-bit word edges.
    */
  private val runBitsGen: Gen[Bits] = for {
    len   <- Gen.choose(1, 200)
    first <- Gen.oneOf(true, false)
    runs  <- Gen.listOfN(len, Gen.frequency(3 -> Gen.choose(1, 4), 1 -> Gen.choose(5, 80)))
  } yield {
    val starts = runs.scanLeft(0)(_ + _)
    val pos = starts.lazyZip(runs).zipWithIndex.flatMap { case ((s, n), i) =>
      if ((i % 2 == 0) == first) s until s + n else Nil
    }
    Bits.fromPositions(len, pos.filter(_ < len))
  }

  private val cGen: Gen[Constraints] = for {
    k <- Gen.choose(1, 60); l <- Gen.choose(1, math.min(k, 20)); g <- Gen.choose(1, 70)
  } yield Constraints(2, k, l, g)

  test("property: the run scan equals TimeSeq on the set positions") {
    forAllG(Gen.zip(runBitsGen, cGen, Gen.choose(-100, 100)), 500) { case (b, c, offset) =>
      val ts = b.onesPositions
      assert(Bits.containsValid(b, c) == TimeSeq.maximalValid(ts, c).nonEmpty)
      assert(Bits.maximalValid(b, offset, c) == TimeSeq.maximalValid(ts.map(_ + offset), c))
    }
  }

  test("property: slice and VarBits.cut equal the positions filter") {
    forAllG(Gen.zip(runBitsGen, Gen.choose(-80, 220), Gen.choose(0, 200), Gen.choose(-50, 50)), 500) {
      case (b, from, len, st) =>
        def filtered(lo: Int) =
          Bits.fromPositions(len, b.onesPositions.map(_ - lo).filter(j => j >= 0 && j < len))
        val s = b.slice(from, len)
        assert(s == filtered(from) && s.hashCode == filtered(from).hashCode)
        val v = VarBits(1L, st, st + b.length - 1, b)
        assert(v.cut(st + from, st + from + len - 1) == filtered(from))
    }
  }
}
