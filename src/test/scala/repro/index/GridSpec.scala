package repro.index

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport

/** Tests for the GR-index global grid math, in particular Lemma 1's
  * duplicate-avoiding replication key set.
  */
class GridSpec extends AnyFunSuite with PropSupport {

  test("paper §5.1: o5=(4,8), lg=3 lies in cell <1,2>") {
    assert(Grid.key(4.0, 8.0, 3.0) == Grid.pack(1, 2))
  }

  test("cell uses true floor for negative coordinates") {
    assert(Grid.cell(-0.1, 1.0) == -1)
    assert(Grid.cell(-1.0, 1.0) == -1)
    assert(Grid.cell(-1.5, 1.0) == -2)
    assert(Grid.cell(0.0, 1.0) == 0)
  }

  test("pack keeps distinct cells distinct, negative cells included") {
    val cells = for (x <- -3 to 3; y <- -3 to 3) yield (x, y)
    val extremes = Seq((1 << 20, -(1 << 20)), (-(1 << 20), 1 << 20), (Int.MinValue, Int.MaxValue))
    val all = cells ++ extremes
    assert(all.map { case (x, y) => Grid.pack(x, y) }.distinct.length == all.length)
    all.foreach { case (x, y) => assert(cellOf(Grid.pack(x, y)) == ((x, y))) }
  }

  test("cellsIn(upperRegion) excludes the home cell") {
    val keys = lemma1Keys(5.0, 5.0, 10.0, 3.0)
    assert(!keys.contains(Grid.key(5.0, 5.0, 10.0)))
  }

  test("cellsIn(upperRegion) covers only the upper half in y") {
    // eps < distance to cell floor: nothing below the home row is probed.
    val keys = lemma1Keys(15.0, 15.0, 10.0, 3.0).map(cellOf)
    assert(keys.forall(_._2 >= 1))
  }

  test("paper §5.2 example: o9 spans four cells under full replication") {
    // A point near a cell corner: the full range region intersects 4 cells,
    // the Lemma 1 upper half only 2 (minus home = 1 or 3 depending on side).
    val (x, y, lg, eps) = (10.5, 10.5, 10.0, 1.0)
    assert(fullKeys(x, y, lg, eps).length == 3) // 4 cells minus home
    assert(lemma1Keys(x, y, lg, eps).length == 1) // upper-right only
  }

  test("cellsIn(fullRegion) is a superset of cellsIn(upperRegion)") {
    forAllG(pointGen) { case (x, y, lg, eps) =>
      val l1 = lemma1Keys(x, y, lg, eps).toSet
      val full = fullKeys(x, y, lg, eps).toSet
      assert(l1.subsetOf(full))
    }
  }

  test("property: lemma1 keys = cells intersecting the upper half region, minus home") {
    forAllG(pointGen) { case (x, y, lg, eps) =>
      val expected = (for {
        cx <- Grid.cell(x - eps, lg) to Grid.cell(x + eps, lg)
        cy <- Grid.cell(y, lg) to Grid.cell(y + eps, lg)
      } yield Grid.pack(cx, cy)).toSet - Grid.key(x, y, lg)
      assert(lemma1Keys(x, y, lg, eps).toSet == expected)
    }
  }

  test("property: no duplicate keys in either replication set") {
    forAllG(pointGen) { case (x, y, lg, eps) =>
      val a = lemma1Keys(x, y, lg, eps)
      val b = fullKeys(x, y, lg, eps)
      assert(a.distinct == a && b.distinct == b)
    }
  }

  test("property (Lemma 1 completeness): for any two points within eps, one " +
       "point's home cell is reachable from the other's probe set") {
    forAllG(pairGen) { case (x1, y1, x2, y2, lg, eps) =>
      if (math.abs(x1 - x2) <= eps && math.abs(y1 - y2) <= eps) {
        val home1 = Grid.key(x1, y1, lg); val home2 = Grid.key(x2, y2, lg)
        val probe1 = lemma1Keys(x1, y1, lg, eps).toSet + home1
        val probe2 = lemma1Keys(x2, y2, lg, eps).toSet + home2
        // The pair is found if they share a home cell, or the lower point's
        // probe set contains the upper point's home cell.
        val found = home1 == home2 ||
          (y1 <= y2 && probe1.contains(home2)) || (y2 <= y1 && probe2.contains(home1))
        assert(found, s"pair ($x1,$y1)-($x2,$y2) not covered")
      }
    }
  }

  /** Lemma 1's replication keys for a query object at (x, y). */
  private def lemma1Keys(x: Double, y: Double, lg: Double, eps: Double): Seq[Long] =
    Grid.cellsIn(Grid.upperRegion(x, y, eps), lg, Grid.key(x, y, lg))

  /** SRJ's replication keys: every cell the full range region intersects. */
  private def fullKeys(x: Double, y: Double, lg: Double, eps: Double): Seq[Long] =
    Grid.cellsIn(Grid.fullRegion(x, y, eps), lg, Grid.key(x, y, lg))

  /** The (x, y) cell indices a packed key encodes. */
  private def cellOf(key: Long): (Int, Int) = ((key >> 32).toInt, key.toInt)

  private def pointGen: Gen[(Double, Double, Double, Double)] = for {
    x <- Gen.choose(-50.0, 50.0); y <- Gen.choose(-50.0, 50.0)
    lg <- Gen.choose(0.5, 20.0); eps <- Gen.choose(0.01, 8.0)
  } yield (x, y, lg, eps)

  private def pairGen: Gen[(Double, Double, Double, Double, Double, Double)] = for {
    x1 <- Gen.choose(0.0, 30.0); y1 <- Gen.choose(0.0, 30.0)
    dx <- Gen.choose(-3.0, 3.0); dy <- Gen.choose(-3.0, 3.0)
    lg <- Gen.choose(0.5, 10.0); eps <- Gen.choose(0.1, 4.0)
  } yield (x1, y1, x1 + dx, y1 + dy, lg, eps)
}
