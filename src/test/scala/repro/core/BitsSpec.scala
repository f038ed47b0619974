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
    assert(b.cardinality == pos.length)
  }

  test("times applies the window offset") {
    assert(Bits.parse("1011").times(3) == Seq(3, 5, 6))
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
    assert(v.times == (2 to 8))
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

  test("property: cardinality equals onesPositions size") {
    forAllG(bitsGen) { b => assert(b.cardinality == b.onesPositions.length) }
  }
}
