package repro.cluster

import org.scalacheck.Gen
import repro.{Oracle, PropSupport, SparkSpec, TestData}
import repro.core.{RangeJoin, Reference, SnapshotRow}
import scala.util.Random

/** The SRJ and GDC clustering baselines must compute exactly the same
  * neighbor pairs as RJC — they differ in cost, not in semantics.
  */
class BaselineJoinsSpec extends SparkSpec with PropSupport {

  import spark.implicits._

  private def randomRows(seed: Long, n: Int, times: Int): Seq[SnapshotRow] = {
    val rng = new Random(seed)
    for (t <- 1 to times; i <- 0 until n) yield
      SnapshotRow(t, i.toLong, rng.nextDouble() * 40, rng.nextDouble() * 40)
  }

  test("SRJ allocate replicates to the full range region") {
    val objs = SRJ.allocate(SnapshotRow(1, 1L, 10.5, 10.5), 1.0, 10.0).toSeq
    assert(objs.count(_.isQuery) == 3) // 4 intersecting cells minus home
    assert(objs.count(!_.isQuery) == 1)
  }

  test("SRJ allocate never replicates less than RJC's Lemma 1 set") {
    val row = SnapshotRow(1, 1L, 7.3, 2.9)
    val srj = SRJ.allocate(row, 2.0, 5.0).filter(_.isQuery).map(_.cellKey).toSet
    val rjc = RangeJoin.gridAllocate(row, 2.0, 5.0).filter(_.isQuery).map(_.cellKey).toSet
    assert(rjc.subsetOf(srj))
  }

  test("SRJ join equals naive join (after dedup)") {
    val rows = randomRows(3, 120, 2)
    val got = SRJ.join(spark.createDataset(rows), 2.0, 5.0)
      .collect().toSeq.sortBy(p => (p.time, p.a, p.b))
    assert(got == Reference.rangeJoin(rows, 2.0))
  }

  test("GDC allocate uses eps-wide cells and the 3x3 neighborhood") {
    val objs = GDC.allocate(SnapshotRow(1, 1L, 5.0, 5.0), 2.0).toSeq
    assert(objs.length == 9)
    assert(objs.count(!_.isQuery) == 1)
  }

  test("GDC join equals naive join") {
    val rows = randomRows(4, 120, 2)
    val got = GDC.join(spark.createDataset(rows), 2.0)
      .collect().toSeq.sortBy(p => (p.time, p.a, p.b))
    assert(got == Reference.rangeJoin(rows, 2.0))
  }

  test("all three joins agree on a dense clustered workload") {
    val rng = new Random(9)
    val rows = for (t <- 1 to 2; i <- 0 until 200) yield {
      val hub = (i % 4) * 30.0
      SnapshotRow(t, i.toLong, hub + rng.nextGaussian() * 3, hub + rng.nextGaussian() * 3)
    }
    val ds = spark.createDataset(rows)
    val expected = Reference.rangeJoin(rows, 1.5)
    assert(RangeJoin.rjc(ds, 1.5, 4.0).collect().toSeq.sortBy(p => (p.time, p.a, p.b)) == expected)
    assert(SRJ.join(ds, 1.5, 4.0).collect().toSeq.sortBy(p => (p.time, p.a, p.b)) == expected)
    assert(GDC.join(ds, 1.5).collect().toSeq.sortBy(p => (p.time, p.a, p.b)) == expected)
  }

  test("property: SRJ/GDC/RJC equal the naive join") {
    val randomCase = for {
      seed <- Gen.choose(0L, 9999L); n <- Gen.choose(10, 60)
      eps <- Gen.choose(0.5, 4.0); lg <- Gen.choose(2.0, 10.0)
    } yield (randomRows(seed, n, 1), eps, lg)
    // Lattice steps of 0.1 put many pairs eps apart up to rounding, and
    // many points share y across cell borders.
    val latticeCase = for {
      seed <- Gen.choose(0L, 9999L); gap <- Gen.oneOf(0.5, 1.0, 1.5, 3.0)
      eps <- Gen.oneOf(0.3, 0.5, 1.0, 1.5); lg <- Gen.oneOf(1.0, 2.0, 3.0, 4.5)
    } yield (TestData.lattice(seed, n = 120, times = 1, step = 0.1, gap, extent = 15.0), eps, lg)
    forAllG(Gen.oneOf(randomCase, latticeCase), n = 12) { case (rows, eps, lg) =>
      val ds = spark.createDataset(rows)
      val expected = Reference.rangeJoin(rows, eps)
      assert(RangeJoin.rjc(ds, eps, lg).collect().toSeq.sortBy(p => (p.a, p.b)) == expected)
      assert(SRJ.join(ds, eps, lg).collect().toSeq.sortBy(p => (p.a, p.b)) == expected)
      assert(GDC.join(ds, eps).collect().toSeq.sortBy(p => (p.a, p.b)) == expected)
    }
  }

  test("SRJ matches DuckDB oracle") {
    val rows = randomRows(13, 100, 1)
    val joined = SRJ.join(spark.createDataset(rows), 3.0, 6.0).toDF()
    Oracle.assertEquivalent(joined,
      TestData.rangeJoinSql(3.0),
      "snap" -> spark.createDataset(rows).toDF())
  }

  test("GDC matches DuckDB oracle") {
    val rows = randomRows(17, 100, 1)
    val joined = GDC.join(spark.createDataset(rows), 2.5).toDF()
    Oracle.assertEquivalent(joined,
      TestData.rangeJoinSql(2.5),
      "snap" -> spark.createDataset(rows).toDF())
  }
}
