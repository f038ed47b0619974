package repro.index

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport
import scala.util.Random

/** R-tree local index tests: structural unit tests plus randomized
  * equivalence with a brute-force scan, including interleaved insert/query
  * (the access pattern Lemma 2 requires).
  */
class RTreeSpec extends AnyFunSuite with PropSupport {

  test("empty tree answers empty") {
    val rt = new RTree()
    assert(rt.size == 0)
    assert(rt.query(Rect.range(0, 0, 100)) == Nil)
  }

  test("single point hit and miss") {
    val rt = new RTree()
    rt.insert(7L, 1.0, 2.0)
    assert(rt.query(Rect.range(1.5, 2.5, 1.0)).toSet == Set(7L))
    assert(rt.query(Rect.range(5.0, 5.0, 1.0)).isEmpty)
  }

  test("query region boundaries are closed") {
    val rt = new RTree()
    rt.insert(1L, 1.0, 1.0)
    assert(rt.query(Rect(1.0, 1.0, 2.0, 2.0)).toSet == Set(1L))
    assert(rt.query(Rect(0.0, 0.0, 1.0, 1.0)).toSet == Set(1L))
  }

  test("duplicate coordinates with different ids are all kept") {
    val rt = new RTree(maxEntries = 4)
    (1L to 20L).foreach(i => rt.insert(i, 3.0, 3.0))
    assert(rt.query(Rect.range(3.0, 3.0, 0.0)).toSet == (1L to 20L).toSet)
  }

  test("splits preserve all entries (sequential grid insert)") {
    val rt = new RTree(maxEntries = 5)
    val pts = for (i <- 0 until 20; j <- 0 until 20) yield (i * 20L + j, i.toDouble, j.toDouble)
    pts.foreach { case (id, x, y) => rt.insert(id, x, y) }
    assert(rt.size == 400)
    assert(rt.query(Rect(-1, -1, 100, 100)).toSet == pts.map(_._1).toSet)
  }

  test("upperRange region is the Lemma 1 half square") {
    assert(Rect.upperRange(5, 5, 2) == Rect(3, 5, 7, 7))
    assert(Rect.range(5, 5, 2) == Rect(3, 3, 7, 7))
  }

  test("rect intersects/contains basics") {
    val r = Rect(0, 0, 2, 2)
    assert(r.intersects(Rect(2, 2, 3, 3)))
    assert(!r.intersects(Rect(2.1, 0, 3, 1)))
    assert(r.contains(0, 2) && !r.contains(2.01, 1))
  }

  test("randomized: matches brute force on clustered data") {
    val rng = new Random(1)
    val rt = new RTree(maxEntries = 8)
    val pts = (0 until 500).map { i =>
      val cx = rng.nextInt(5) * 100.0
      (i.toLong, cx + rng.nextGaussian() * 10, cx + rng.nextGaussian() * 10)
    }
    pts.foreach { case (id, x, y) => rt.insert(id, x, y) }
    for (_ <- 0 until 50) {
      val (qx, qy, eps) = (rng.nextDouble() * 500, rng.nextDouble() * 500, rng.nextDouble() * 30)
      val expected = pts.filter { case (_, x, y) =>
        math.abs(x - qx) <= eps && math.abs(y - qy) <= eps
      }.map(_._1).toSet
      assert(rt.query(Rect.range(qx, qy, eps)).toSet == expected)
    }
  }

  test("property: interleaved insert/query equals brute force (Lemma 2 pattern)") {
    val ptsGen = Gen.listOfN(120, Gen.zip(Gen.choose(0.0, 50.0), Gen.choose(0.0, 50.0)))
    forAllG(ptsGen, n = 25) { pts =>
      val rt = new RTree(maxEntries = 4)
      val eps = 4.0
      val inserted = scala.collection.mutable.ArrayBuffer.empty[(Long, Double, Double)]
      var pairCountTree = 0
      var pairCountBrute = 0
      pts.zipWithIndex.foreach { case ((x, y), i) =>
        pairCountTree += rt.query(Rect.range(x, y, eps)).length
        pairCountBrute += inserted.count { case (_, px, py) =>
          math.abs(px - x) <= eps && math.abs(py - y) <= eps
        }
        rt.insert(i.toLong, x, y)
        inserted += ((i.toLong, x, y))
      }
      assert(pairCountTree == pairCountBrute)
      assert(rt.size == pts.length)
    }
  }

  test("property: query results equal brute force for random query rectangles") {
    val caseGen = for {
      pts <- Gen.listOfN(80, Gen.zip(Gen.choose(0.0, 40.0), Gen.choose(0.0, 40.0)))
      qx <- Gen.choose(0.0, 40.0); qy <- Gen.choose(0.0, 40.0)
      w <- Gen.choose(0.0, 15.0); h <- Gen.choose(0.0, 15.0)
    } yield (pts, Rect(qx, qy, qx + w, qy + h))
    forAllG(caseGen, n = 40) { case (pts, r) =>
      val rt = new RTree(maxEntries = 6)
      pts.zipWithIndex.foreach { case ((x, y), i) => rt.insert(i.toLong, x, y) }
      val expected = pts.zipWithIndex.collect {
        case ((x, y), i) if r.contains(x, y) => i.toLong
      }.toSet
      assert(rt.query(r).toSet == expected)
    }
  }
}
