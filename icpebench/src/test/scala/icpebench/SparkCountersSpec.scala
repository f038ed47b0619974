package icpebench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.{RangeJoin, SnapshotRow}
import repro.traj.{TrajConfig, TrajGen}

/** Cross-checks the benchmark's listener against counts the benchmark
  * computes itself.
  */
class SparkCountersSpec extends AnyFunSuite with BeforeAndAfterAll {

  private lazy val spark = SparkSession.builder
    .master("local[2]")
    .appName("icpebench-test")
    .config("spark.sql.shuffle.partitions", "8")
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  private val (eps, lg) = (6.0, 40.0)
  private val rows: Seq[SnapshotRow] = {
    val cfg = TrajConfig(nObjects = 200, nSnapshots = 5, world = 1000.0, seed = 3L)
    (0L until cfg.nObjects.toLong).flatMap(TrajGen.genObject(cfg, _))
  }

  test("records shuffled after GridAllocate equal the number of gridAllocate outputs") {
    import spark.implicits._
    val counters = SparkCounters.attach(spark.sparkContext)
    val allocated = rows.iterator.map(RangeJoin.gridAllocate(_, eps, lg).size.toLong).sum
    assert(allocated > rows.length) // some points are replicated

    spark.sparkContext.setJobGroup("rjc-test", "rjc")
    val pairs = try RangeJoin.rjc(spark.createDataset(rows), eps, lg).collect()
                finally spark.sparkContext.clearJobGroup()
    assert(pairs.nonEmpty)

    val stages = counters.stages("rjc-test")
    assert(stages.nonEmpty)
    // The first stage of the join is the map side of the grouping by cell.
    assert(stages.head._2.shuffleRecords == allocated)
    val all = counters.totals()
    assert(all.jobs >= 1 && all.tasks >= 2 && all.shuffleBytes > 0)
    assert(all.shuffleRecords == stages.map(_._2.shuffleRecords).sum)
  }

  test("counts outside the job group are not attributed to it") {
    import spark.implicits._
    val counters = SparkCounters.attach(spark.sparkContext)
    RangeJoin.rjc(spark.createDataset(rows), eps, lg).collect()
    assert(counters.stages("rjc-test").isEmpty)
    assert(counters.stages("").map(_._2.shuffleRecords).sum == counters.totals().shuffleRecords)
    assert(counters.totals().shuffleRecords > 0)
  }
}
