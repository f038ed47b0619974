package repro

import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * The driver heap is `-Xmx` from SPARK_DRIVER_MEM (``Test / javaOptions`` in
  * build.sbt). ROADMAP.md's tier-1 command and `tools/verify.sh` set it to
  * half of MemTotal, clamped to 2–8 g; when it is unset, build.sbt falls back
  * to 48g (8g for the bench suites). Broadcast joins are off, so the tests'
  * one Spark join (`RangeJoinSpec`'s DuckDB check) shuffles, as the
  * benchmark's session does. The streaming demo
  * ([[repro.stream.StreamingDemo]]) runs on this session too.
  */
trait SparkSpec extends AnyFunSuite {
  lazy val spark: SparkSession = SparkSpec.shared
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder
      .master("local[*]")
      .appName("repro")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    // One line in the test output that records the heap and the parallelism
    // a run had, so timings from different machines can be told apart.
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
