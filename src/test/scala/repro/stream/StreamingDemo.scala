package repro.stream

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.{SparkSpec, TestData}
import repro.bench.Params
import repro.core.Gps
import repro.enumeration.Enumeration
import repro.traj.StreamGen

/** End-to-end Structured Streaming demo: a generated trajectory stream is
  * fed snapshot-by-snapshot through a MemoryStream into the streaming ICPE
  * pipeline (time sync -> in-process GR-index clustering per snapshot -> VBA),
  * printing the detected co-movement patterns. Run it with
  * `sbt "Test/runMain repro.stream.StreamingDemo"`.
  */
object StreamingDemo {
  def main(args: Array[String]): Unit = {
    val spark = SparkSpec.shared
    try {
      val cfg = Params.geolife.copy(nObjects = 200, nSnapshots = 80)
      val icpe = new StreamingICPE(spark,
        Params.clusterParams(cfg.world), Params.defaultConstraints)
      replay(spark, icpe, TestData.gpsBatches(StreamGen.generate(cfg).toSeq))
      icpe.finish()

      val distinct = Enumeration.distinctPatterns(icpe.patterns)
      println(s"detected ${distinct.size} distinct co-movement patterns:")
      distinct.take(50).foreach { e =>
        println(s"  objects=${e.pattern.objects.mkString("{", ",", "}")} " +
                s"T=${e.pattern.times.mkString("<", ",", ">")} emitted@${e.emitTime}")
      }
    } finally spark.stop()
  }

  /** Feeds `batches` to `icpe` through a MemoryStream, one micro-batch each,
    * and returns each batch's progress; the query is stopped on return.
    */
  def replay(spark: SparkSession, icpe: StreamingICPE,
             batches: Seq[Seq[Gps]]): Seq[BatchProgress] = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val source = MemoryStream[Gps]
    val query = icpe.start(source.toDS())
    try batches.map { batch =>
      source.addData(batch)
      query.processAllAvailable()
      icpe.lastProgress.get
    } finally query.stop()
  }
}
