package repro.core

import org.apache.spark.sql.functions.{avg, col, count, lit, round}
import org.scalacheck.Gen
import repro.{Oracle, PropSupport, SparkSpec, TestData}
import repro.traj.{StreamGen, TrajConfig}
import scala.util.Random

/** RJC range join tests: GridAllocate/GridQuery unit behavior, Lemma 1/2
  * duplicate avoidance, equivalence with the naive join, the DuckDB SQL
  * oracle on the distributed result, and the oracle's own negative controls.
  */
class RangeJoinSpec extends SparkSpec with PropSupport {

  import spark.implicits._

  /** Run the full join locally (no Spark) — used to inspect the raw pair
    * stream the cells report.
    */
  private def localJoin(rows: Seq[SnapshotRow], eps: Double, lg: Double): Seq[NeighborPair] =
    rows.iterator
      .flatMap(RangeJoin.gridAllocate(_, eps, lg))
      .toSeq.groupBy(o => (o.time, o.cellKey))
      .iterator
      .flatMap { case (_, objs) => RangeJoin.gridQuery(objs.iterator, eps) }
      .toSeq

  test("gridAllocate emits exactly one data object at the home cell") {
    val objs = RangeJoin.gridAllocate(SnapshotRow(1, 9L, 4.0, 8.0), 1.0, 3.0).toSeq
    val data = objs.filter(!_.isQuery)
    assert(data.length == 1)
    assert(data.head.cellKey == repro.index.Grid.pack(1, 2)) // paper §5.1
    assert(objs.filter(_.isQuery).forall(_.cellKey != data.head.cellKey))
  }

  test("gridQuery finds in-cell pairs exactly once (Lemma 2)") {
    val objs = Seq(
      GridObject(1, 0L, isQuery = false, 1L, 0.0, 0.0),
      GridObject(1, 0L, isQuery = false, 2L, 0.5, 0.5),
      GridObject(1, 0L, isQuery = false, 3L, 0.9, 0.1),
      GridObject(1, 0L, isQuery = false, 4L, 9.0, 9.0),
    )
    val pairs = RangeJoin.gridQuery(objs.iterator, 1.0).toSeq
    assert(pairs.sortBy(p => (p.a, p.b)) ==
      Seq(NeighborPair(1, 1, 2), NeighborPair(1, 1, 3), NeighborPair(1, 2, 3)))
    assert(pairs.distinct == pairs)
  }

  test("gridQuery with only query objects emits nothing") {
    val objs = Seq(GridObject(1, 0L, isQuery = true, 1L, 0.0, 0.0))
    assert(RangeJoin.gridQuery(objs.iterator, 1.0).isEmpty)
  }

  test("cross-cell pair found exactly once via upper-half query region") {
    // Two points in horizontally adjacent cells, same y: both probe each
    // other's cell but the half-open-in-spirit region plus canonical pair
    // representation yields one logical pair (possibly reported from the
    // lower/upper side only when ys differ).
    val rows = Seq(SnapshotRow(1, 1L, 2.9, 1.0), SnapshotRow(1, 2L, 3.1, 1.4))
    val pairs = localJoin(rows, 1.0, 3.0)
    assert(pairs == Seq(NeighborPair(1, 1, 2)))
  }

  test("vertical cross-cell pair found once, from the lower point's probe") {
    val rows = Seq(SnapshotRow(1, 1L, 1.0, 2.9), SnapshotRow(1, 2L, 1.0, 3.1))
    val pairs = localJoin(rows, 1.0, 3.0)
    assert(pairs == Seq(NeighborPair(1, 1, 2)))
  }

  test("no duplicates in the raw pair stream for generic coordinates") {
    val rng = new Random(5)
    val rows = (0 until 300).map(i =>
      SnapshotRow(1, i.toLong, rng.nextDouble() * 40, rng.nextDouble() * 40))
    val pairs = localJoin(rows, 2.0, 5.0)
    assert(pairs.distinct.length == pairs.length,
      "Lemmas 1+2 should prevent duplicate pair reports")
  }

  test("localJoin equals naive join on random snapshots") {
    val rng = new Random(7)
    val rows = for (t <- 1 to 3; i <- 0 until 150) yield
      SnapshotRow(t, i.toLong, rng.nextDouble() * 50, rng.nextDouble() * 50)
    val got = localJoin(rows, 2.5, 4.0).sortBy(p => (p.time, p.a, p.b))
    assert(got == Reference.rangeJoin(rows, 2.5))
  }

  test("property: localJoin equals naive join across eps/lg settings") {
    val caseGen = for {
      n <- Gen.choose(5, 80)
      eps <- Gen.choose(0.2, 5.0)
      lg <- Gen.choose(1.0, 12.0)
      seed <- Gen.choose(0L, 10000L)
    } yield (n, eps, lg, seed)
    forAllG(caseGen, n = 30) { case (n, eps, lg, seed) =>
      val rng = new Random(seed)
      val rows = (0 until n).map(i =>
        SnapshotRow(1, i.toLong, rng.nextDouble() * 30 - 5, rng.nextDouble() * 30 - 5))
      val got = localJoin(rows, eps, lg).sortBy(p => (p.a, p.b))
      assert(got == Reference.rangeJoin(rows, eps))
    }
  }

  test("equal y across a cell border: one report, from the smaller id's probe") {
    // Both points probe each other's cell; the tie-break keeps one report.
    for ((a, b) <- Seq((1L, 2L), (2L, 1L))) {
      val rows = Seq(SnapshotRow(1, a, 2.9, 1.0), SnapshotRow(1, b, 3.1, 1.0))
      assert(localJoin(rows, 1.0, 3.0) == Seq(NeighborPair(1, 1, 2)))
    }
  }

  test("Lemma 1 replication reaches a neighbour one ulp past the unwidened region") {
    // q.y + eps rounds to 0.09999999999999998, one ulp below d's cell border
    // at y = 0.1, while the exact test makes q and d neighbours: only the
    // widened upper region replicates q to d's cell.
    val (eps, lg) = (0.4, 0.1)
    val q = SnapshotRow(1, 1L, 0.0, -3 * 0.1)
    val d = SnapshotRow(1, 2L, 0.0, 0.1)
    assert(repro.index.Grid.cell(q.y + eps, lg) < repro.index.Grid.cell(d.y, lg))
    val expected = Reference.rangeJoin(Seq(q, d), eps)
    assert(expected == Seq(NeighborPair(1, 1, 2)))
    assert(localJoin(Seq(q, d), eps, lg) == expected)
  }

  test("property: no duplicates in the raw pair stream on tie-heavy lattices") {
    val caseGen = for {
      step <- Gen.oneOf(0.1, 0.25, 0.5, 1.0)
      gap <- Gen.oneOf(0.5, 1.0, 1.5, 3.0)
      eps <- Gen.oneOf(0.3, 0.5, 1.0, 1.5)
      lg <- Gen.oneOf(1.0, 2.0, 3.0, 4.5)
      seed <- Gen.choose(0L, 10000L)
    } yield (step, gap, eps, lg, seed)
    forAllG(caseGen, n = 40) { case (step, gap, eps, lg, seed) =>
      val rows = TestData.lattice(seed, n = 120, times = 2, step, gap, extent = 15.0)
      val got = localJoin(rows, eps, lg)
      assert(got.distinct.length == got.length, "Lemma 1 with the y/id tie-break reports each pair once")
      // Lattice steps such as 0.1 put neighbours exactly eps apart up to
      // rounding: the join must decide them as the reference does.
      assert(got.sortBy(p => (p.time, p.a, p.b)) == Reference.rangeJoin(rows, eps))
    }
  }

  test("points with identical coordinates join pairwise") {
    val rows = (1L to 5L).map(i => SnapshotRow(1, i, 10.0, 10.0))
    val got = localJoin(rows, 1.0, 3.0).distinct
    assert(got.length == 10) // C(5,2); exact ties may duplicate pre-distinct
  }

  test("distributed rjc equals naive join on the golden geometry") {
    val rows = TestData.goldenGeometry(eps = 1.0)
    val got = RangeJoin.rjc(spark.createDataset(rows), 1.0, 3.0)
      .collect().toSeq.sortBy(p => (p.time, p.a, p.b))
    assert(got == Reference.rangeJoin(rows, 1.0))
  }

  test("distributed rjc matches DuckDB oracle") {
    val rng = new Random(11)
    val random = for (t <- 1 to 2; i <- 0 until 120) yield
      SnapshotRow(t, i.toLong, rng.nextDouble() * 30, rng.nextDouble() * 30)
    // Tie-heavy: many points share y across cell borders, and steps of 0.1
    // put many pairs eps apart up to rounding.
    val tied = TestData.lattice(seed = 3, n = 200, times = 2, step = 0.1, gap = 1.5, extent = 24.0)
    val byId = tied.map(r => (r.time, r.id) -> r).toMap
    assert(Reference.rangeJoin(tied, 1.0).exists { pr =>
      val (a, b) = (byId((pr.time, pr.a)), byId((pr.time, pr.b)))
      a.y == b.y && repro.index.Grid.key(a.x, a.y, 3.0) != repro.index.Grid.key(b.x, b.y, 3.0)
    })
    for ((rows, eps, lg) <- Seq((random, 2.5, 6.0), (tied, 1.0, 3.0))) {
      val snapDf = spark.createDataset(rows).toDF()
      val joined = RangeJoin.rjc(spark.createDataset(rows), eps, lg)
      assert(joined.collect().toSeq.sortBy(p => (p.time, p.a, p.b)) == Reference.rangeJoin(rows, eps))
      Oracle.assertEquivalent(joined.toDF(), TestData.rangeJoinSql(eps), "snap" -> snapDf)
    }
  }

  /** A small generated trajectory stream for the oracle's own checks. */
  private lazy val trajRows: Seq[SnapshotRow] =
    StreamGen.generate(TrajConfig(nObjects = 60, nSnapshots = 8, world = 2000.0,
      nGroups = 4, groupSizeMin = 4, groupSizeMax = 6, nHubs = 3, hubSigma = 10,
      speed = 2.0, dropout = 0.05, seed = 11L)).toSeq

  /** Negative control: the oracle throws on a range join with a pair dropped,
    * a pair added or a column misnamed.
    */
  test("oracle catches wrong results (negative control)") {
    val eps = 4.0
    val snap = spark.createDataset(trajRows).toDF()
    val pairs = RangeJoin.rjc(spark.createDataset(trajRows), eps, 40.0).collect().toSeq
    assert(pairs.nonEmpty)
    Oracle.assertEquivalent(pairs.toDF(), TestData.rangeJoinSql(eps), "snap" -> snap)
    val found = pairs.toSet
    val extra = trajRows.iterator.flatMap { a =>
      trajRows.iterator.filter(b => b.time == a.time && a.id < b.id)
        .map(b => NeighborPair(a.time, a.id, b.id))
    }.find(!found(_)).get
    for (wrong <- Seq(pairs.tail.toDF(), (pairs :+ extra).toDF(),
                      pairs.toDF().withColumnRenamed("b", "other")))
      intercept[IllegalArgumentException] {
        Oracle.assertEquivalent(wrong, TestData.rangeJoinSql(eps), "snap" -> snap)
      }
  }

  test("oracle: count and average x per snapshot match DuckDB") {
    val snap = spark.createDataset(trajRows).toDF()
    val got = snap.groupBy("time").agg(count(lit(1)).as("cnt"), round(avg(col("x")), 2).as("avg_x"))
    Oracle.assertEquivalent(got,
      """SELECT CAST(time AS INT) AS time, COUNT(*) AS cnt,
        |       ROUND(AVG(CAST(x AS DOUBLE)), 2) AS avg_x
        |FROM snap GROUP BY CAST(time AS INT)""".stripMargin,
      "snap" -> snap)
  }

  test("oracle: join of snapshot rows with a per-object table matches DuckDB") {
    val snap = spark.createDataset(trajRows).toDF()
    val objects = trajRows.map(_.id).distinct.map(id => (id, s"g${id % 3}")).toDF("oid", "grp")
    val got = snap.join(objects, col("id") === col("oid"))
      .groupBy("grp").agg(count(lit(1)).as("cnt"))
    assert(got.count() == 3)
    Oracle.assertEquivalent(got,
      """SELECT grp, COUNT(*) AS cnt
        |FROM snap JOIN objects ON CAST(id AS BIGINT) = CAST(oid AS BIGINT)
        |GROUP BY grp""".stripMargin,
      "snap" -> snap, "objects" -> objects)
  }

  test("rjc on an empty snapshot set") {
    val got = RangeJoin.rjc(spark.emptyDataset[SnapshotRow], 1.0, 3.0).collect()
    assert(got.isEmpty)
  }

  test("rjc respects snapshot boundaries (no cross-time pairs)") {
    val rows = Seq(SnapshotRow(1, 1L, 0.0, 0.0), SnapshotRow(2, 2L, 0.0, 0.0))
    assert(RangeJoin.rjc(spark.createDataset(rows), 5.0, 10.0).collect().isEmpty)
  }
}
