package repro.core

import repro.{SparkSpec, TestData}
import repro.enumeration._
import repro.index.Grid
import repro.traj.{Brinkhoff, BrinkhoffConfig}

/** End-to-end ICPE pipeline tests: geometry in, patterns out — through the
  * distributed range join, DBSCAN, id-partitioning and every enumeration
  * method.
  */
class IcpeSpec extends SparkSpec {

  import spark.implicits._

  private val eps = 1.0
  private val params = ClusterParams(eps, minPts = 2, lg = 3.0)

  private def runGolden(method: EnumMethod, m: Int): Set[Seq[Long]] = {
    val ds = spark.createDataset(TestData.goldenGeometry(eps))
    val emitted = ICPE.run(ds, params, TestData.goldenConstraints(m), method).collect()
    Reference.distinctObjectSets(emitted.map(_.pattern).toSeq)
  }

  test("ICPE + FBA reproduces the golden patterns end to end (M=2)") {
    assert(runGolden(FbaMethod, 2) == TestData.goldenPatternsM2)
  }

  test("ICPE + FBA reproduces the golden patterns end to end (M=3)") {
    assert(runGolden(FbaMethod, 3) == TestData.goldenPatternsM3)
  }

  test("ICPE + VBA reproduces the golden patterns end to end") {
    assert(runGolden(VbaMethod, 2) == TestData.goldenPatternsM2)
    assert(runGolden(VbaMethod, 3) == TestData.goldenPatternsM3)
  }

  test("ICPE + BA reproduces the golden patterns end to end") {
    assert(runGolden(BaselineMethod, 2) == TestData.goldenPatternsM2)
    assert(runGolden(BaselineMethod, 3) == TestData.goldenPatternsM3)
  }

  test("clusterSnapshots output matches Reference.dbscan") {
    val rows = TestData.goldenGeometry(eps)
    val got = ICPE.clusterSnapshots(spark.createDataset(rows), params)
      .collect().toSeq.sortBy(c => (c.time, c.clusterId))
    assert(got == Reference.dbscan(rows, eps, 2))
  }

  test("clusterLocal per snapshot equals clusterSnapshots and Reference.dbscan") {
    // A road lattice: walkers on the same horizontal road share y exactly,
    // and roads (every 40) cross cell borders (every 10) — Lemma 1's ties.
    val lattice = BrinkhoffConfig(nObjects = 300, nSnapshots = 6, nodes = 6, edge = 40.0,
      nGroups = 10, seed = 11L)
    val latticeRows = (0L until lattice.nObjects.toLong).flatMap(Brinkhoff.genObject(lattice, _))
    val latticeParams = ClusterParams(eps = 4.0, minPts = 3, lg = 10.0)
    val byId = latticeRows.map(r => (r.time, r.id) -> r).toMap
    val crossCellTies = Reference.rangeJoin(latticeRows, latticeParams.eps).count { pr =>
      val (a, b) = (byId((pr.time, pr.a)), byId((pr.time, pr.b)))
      a.y == b.y && Grid.key(a.x, a.y, latticeParams.lg) != Grid.key(b.x, b.y, latticeParams.lg)
    }
    assert(crossCellTies > 0, "the lattice input must have equal-y pairs across cell borders")

    for ((name, rows, p) <- Seq(("golden", TestData.goldenGeometry(eps), params),
                                ("brinkhoff lattice", latticeRows, latticeParams))) {
      val local = rows.groupBy(_.time).toSeq.sortBy(_._1)
        .flatMap { case (t, rs) => ICPE.clusterLocal(t, rs, p) }
      val distributed = ICPE.clusterSnapshots(spark.createDataset(rows), p)
        .collect().toSeq.sortBy(c => (c.time, c.clusterId))
      assert(local.nonEmpty, name)
      assert(local == distributed, name)
      assert(local == Reference.dbscan(rows, p.eps, p.minPts), name)
    }
  }

  test("pipeline on a generated trajectory stream matches the reference") {
    val cfg = repro.traj.TrajConfig(nObjects = 60, nSnapshots = 40, world = 600.0,
      nGroups = 4, groupSizeMin = 3, groupSizeMax = 4, nHubs = 3, hubSigma = 8,
      speed = 2.0, dropout = 0.02, seed = 5L)
    val rows = repro.traj.StreamGen.generate(cfg).toSeq
    val p = ClusterParams(eps = 4.0, minPts = 3, lg = 30.0)
    val c = Constraints(3, 6, 2, 2)

    val clusters = ICPE.clusterSnapshots(spark.createDataset(rows), p).collect().toSeq
    assert(clusters.sortBy(x => (x.time, x.clusterId)) == Reference.dbscan(rows, p.eps, p.minPts))

    val expected = Reference.distinctObjectSets(Reference.patterns(clusters, c))
    for (m <- Seq[EnumMethod](FbaMethod, VbaMethod)) {
      val emitted = ICPE.detectPatterns(spark.createDataset(clusters), c, m).collect()
      assert(Reference.distinctObjectSets(emitted.map(_.pattern).toSeq) == expected,
        s"method $m")
    }
    // Planted groups should actually produce patterns (non-vacuous test).
    assert(expected.nonEmpty, "expected the generator to plant detectable patterns")
  }

  test("pipeline is deterministic across runs") {
    val ds1 = spark.createDataset(TestData.goldenGeometry(eps))
    val r1 = ICPE.run(ds1, params, TestData.goldenConstraints(2), FbaMethod).collect().toSet
    val r2 = ICPE.run(ds1, params, TestData.goldenConstraints(2), FbaMethod).collect().toSet
    assert(r1 == r2)
  }
}
