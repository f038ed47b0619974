package repro.core

import org.scalacheck.Gen
import repro.{PropSupport, SparkSpec, TestData}
import scala.util.Random

/** DBSCAN semantics tests (Definitions 8-9), incl. the paper's §3.2 worked
  * example and equivalence between the distributed and naive paths.
  */
class DbscanSpec extends SparkSpec with PropSupport {

  import spark.implicits._

  private def rows(pts: (Long, Double, Double)*): Seq[SnapshotRow] =
    pts.map { case (id, x, y) => SnapshotRow(1, id, x, y) }

  /** Definitions 8-9 read breadth-first, independent of the union-find
    * kernel: each core not yet reached seeds a cluster (in ascending id
    * order, so the id is the cluster's smallest core) that grows over
    * eps-edges through cores only; a border joins the smallest cluster id
    * among its core neighbors.
    */
  private def bfsDbscan(ids: Seq[Long], pairs: Seq[NeighborPair], minPts: Int): Map[Long, Set[Long]] = {
    val nbrs = (pairs.map(p => p.a -> p.b) ++ pairs.map(p => p.b -> p.a))
      .groupMap(_._1)(_._2).withDefaultValue(Nil)
    val cores = ids.filter(i => 1 + nbrs(i).length >= minPts).toSet
    val clusterOf = scala.collection.mutable.HashMap.empty[Long, Long]
    for (seed <- cores.toSeq.sorted if !clusterOf.contains(seed)) {
      clusterOf(seed) = seed
      val queue = scala.collection.mutable.Queue(seed)
      while (queue.nonEmpty)
        for (n <- nbrs(queue.dequeue()) if cores.contains(n) && !clusterOf.contains(n)) {
          clusterOf(n) = seed
          queue.enqueue(n)
        }
    }
    val borders = for {
      b <- ids if !cores.contains(b)
      cids = nbrs(b).flatMap(clusterOf.get) if cids.nonEmpty
    } yield b -> cids.min
    (clusterOf.toSeq ++ borders).groupMap(_._2)(_._1).view.mapValues(_.toSet).toMap
  }

  test("paper §3.2: chain o2..o8 with minPts=3 forms one cluster") {
    // o2..o8 spaced 0.9*eps on a line: o3..o7 are cores (2 neighbors + self),
    // o2 and o8 are density reachable borders; o1 is far away noise.
    val eps = 1.0
    val data = rows((2L to 8L).map(i => (i, 0.9 * i, 0.0)): _*) ++ rows((1L, 100.0, 0.0))
    val got = Reference.dbscan(data, eps, minPts = 3)
    assert(got == Seq(ClusterRow(1, 3L, (2L to 8L).toVector)))
  }

  test("chain endpoints are borders, not cores (cluster id = min core)") {
    val data = rows((1L, 0.0, 0.0), (2L, 0.9, 0.0), (3L, 1.8, 0.0))
    val got = Reference.dbscan(data, 1.0, minPts = 3)
    assert(got == Seq(ClusterRow(1, 2L, Vector(1L, 2L, 3L))))
  }

  test("minPts=2: connected components of the eps-graph") {
    val data = rows((1L, 0.0, 0.0), (2L, 0.5, 0.0), (3L, 10.0, 0.0), (4L, 10.5, 0.0),
                    (5L, 50.0, 50.0))
    val got = Reference.dbscan(data, 1.0, minPts = 2)
    assert(got == Seq(ClusterRow(1, 1L, Vector(1L, 2L)), ClusterRow(1, 3L, Vector(3L, 4L))))
  }

  test("noise points belong to no cluster") {
    val data = rows((1L, 0.0, 0.0), (2L, 50.0, 0.0))
    assert(Reference.dbscan(data, 1.0, minPts = 2).isEmpty)
  }

  test("minPts=1 makes every point its own (or a merged) cluster") {
    val data = rows((1L, 0.0, 0.0), (2L, 90.0, 0.0))
    val got = Reference.dbscan(data, 1.0, minPts = 1)
    assert(got == Seq(ClusterRow(1, 1L, Vector(1L)), ClusterRow(1, 2L, Vector(2L))))
  }

  test("two dense blobs bridged by a single non-core point stay separate") {
    // minPts=6: blob members have 5 blob neighbors + self = 6 (cores); the
    // bridge reaches only the innermost point of each blob (2 + self = 3).
    val blob1 = (1L to 6L).map(i => (i, (i - 1) * 0.1, 0.0))
    val blob2 = (11L to 16L).map(i => (i, 4.4 + (i - 11) * 0.1, 0.0))
    val bridge = Seq((20L, 2.45, 0.0))
    val got = Reference.dbscan(rows(blob1 ++ blob2 ++ bridge: _*), 2.0, minPts = 6)
    assert(got.length == 2)
    assert(got.map(_.members.toSet).toSet ==
      Set((1L to 6L).toSet + 20L, (11L to 16L).toSet))
  }

  test("border point reachable from two clusters goes to the smaller cluster id") {
    // Cores around x=0 (cluster A) and x=4.2+ (cluster B); the border at
    // x=2.25 touches one core of each; deterministic min-id assignment.
    val a = Seq((1L, 0.0, 0.0), (2L, 0.1, 0.0), (3L, 0.2, 0.0), (4L, 0.3, 0.0))
    val b = Seq((11L, 4.2, 0.0), (12L, 4.3, 0.0), (13L, 4.4, 0.0), (14L, 4.5, 0.0))
    val border = Seq((20L, 2.25, 0.0))
    val got = Reference.dbscan(rows(a ++ b ++ border: _*), 2.0, minPts = 4)
    assert(got.map(c => c.clusterId -> c.members.toSet).toMap ==
      Map(1L -> Set(1L, 2L, 3L, 4L, 20L), 11L -> Set(11L, 12L, 13L, 14L)))
  }

  test("clusterLocal tolerates pairs without points listed (defensive)") {
    val got = Dbscan.clusterLocal(1, Nil, Seq(NeighborPair(1, 1L, 2L)), 2)
    assert(got == Seq(ClusterRow(1, 1L, Vector(1L, 2L))))
  }

  test("property: clusterLocal equals a breadth-first DBSCAN, with or without the point list") {
    val caseGen = for {
      seed <- Gen.choose(0L, 99999L); n <- Gen.choose(1, 60)
      minPts <- Gen.choose(1, 6); side <- Gen.choose(1.0, 12.0)
    } yield (seed, n, minPts, side)
    forAllG(caseGen, n = 300) { case (seed, n, minPts, side) =>
      val rng = new Random(seed)
      val ids = rng.shuffle((0L until 4L * n).toVector).take(n)
      val data = ids.map(id => SnapshotRow(3, id, rng.nextDouble() * side, rng.nextDouble() * side))
      val pairs = rng.shuffle(Reference.rangeJoin(data, 1.0))
      val got = Dbscan.clusterLocal(3, ids, pairs, minPts)
      assert(got.map(c => c.clusterId -> c.members.toSet).toMap == bfsDbscan(ids, pairs, minPts))
      assert(got.forall(c => c.time == 3 && c.members == c.members.distinct.sorted))
      assert(got.map(_.clusterId) == got.map(_.clusterId).distinct.sorted)
      if (minPts >= 2) assert(Dbscan.clusterLocal(3, Nil, pairs, minPts) == got)
    }
  }

  test("distributed cluster() equals Reference.dbscan on golden geometry") {
    val eps = 1.0
    val data = TestData.goldenGeometry(eps)
    val ds = spark.createDataset(data)
    val got = Dbscan.cluster(ds, RangeJoin.rjc(ds, eps, 3.0), minPts = 2)
      .collect().toSeq.sortBy(c => (c.time, c.clusterId))
    assert(got == Reference.dbscan(data, eps, 2))
  }

  test("golden geometry recovers the golden cluster sets exactly") {
    val eps = 1.0
    val ds = spark.createDataset(TestData.goldenGeometry(eps))
    val got = Dbscan.cluster(ds, RangeJoin.rjc(ds, eps, 3.0), minPts = 2)
      .collect().toSeq.groupBy(_.time)
      .view.mapValues(_.map(_.members).sortBy(_.head)).toMap
    val expected = TestData.goldenClusterSets.view
      .mapValues(_.map(_.toVector.sorted).sortBy(_.head)).toMap
    assert(got == expected)
  }

  test("minPts = 1 is rejected by ClusterParams and distributed cluster()") {
    intercept[IllegalArgumentException](ClusterParams(eps = 1.0, minPts = 1, lg = 3.0))
    val ds = spark.createDataset(rows((1L, 0.0, 0.0), (2L, 0.5, 0.0)))
    intercept[IllegalArgumentException](Dbscan.cluster(ds, RangeJoin.rjc(ds, 1.0, 3.0), 1))
  }

  test("distributed cluster() equals Reference.dbscan with isolated points") {
    val eps = 1.0
    val isolated = rows((1L, 0.0, 0.0), (2L, 10.0, 0.0), (3L, 20.0, 5.0))
    val mixed = rows((1L, 0.0, 0.0), (2L, 0.5, 0.0), (3L, 1.2, 0.0), (4L, 10.0, 0.0),
                     (5L, 30.0, 30.0), (6L, 30.4, 30.9), (7L, 50.0, 0.0))
      .map(_.copy(time = 2))
    assert(Reference.dbscan(mixed, eps, 2).map(_.members) == Seq(Vector(1L, 2L, 3L), Vector(5L, 6L)))
    for (data <- Seq(isolated, mixed); minPts <- 2 to 3) {
      val ds = spark.createDataset(data)
      val got = Dbscan.cluster(ds, RangeJoin.rjc(ds, eps, 3.0), minPts)
        .collect().toSeq.sortBy(c => (c.time, c.clusterId))
      assert(got == Reference.dbscan(data, eps, minPts))
    }
  }

  test("property: distributed DBSCAN equals naive DBSCAN") {
    val caseGen = for {
      seed <- Gen.choose(0L, 9999L); n <- Gen.choose(20, 80)
      minPts <- Gen.choose(2, 5); eps <- Gen.choose(0.5, 3.0)
    } yield (seed, n, minPts, eps)
    forAllG(caseGen, n = 6) { case (seed, n, minPts, eps) =>
      val rng = new Random(seed)
      val data = for (t <- 1 to 2; i <- 0 until n) yield {
        val hub = (i % 3) * 10.0
        SnapshotRow(t, i.toLong, hub + rng.nextGaussian() * 2, hub + rng.nextGaussian() * 2)
      }
      val ds = spark.createDataset(data)
      val got = Dbscan.cluster(ds, RangeJoin.rjc(ds, eps, 4.0), minPts)
        .collect().toSeq.sortBy(c => (c.time, c.clusterId))
      assert(got == Reference.dbscan(data, eps, minPts))
    }
  }
}
