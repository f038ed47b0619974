package repro.jobs

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.bench.Params
import repro.core.{ClusterParams, Gps, SnapshotRow}
import repro.enumeration.Enumeration
import repro.stream.StreamingICPE
import repro.traj.StreamGen

/** End-to-end Structured Streaming demo: a generated trajectory stream is
  * fed snapshot-by-snapshot through a MemoryStream into the streaming ICPE
  * pipeline (time sync -> in-process GR-index clustering per snapshot -> VBA),
  * printing the detected co-movement patterns.
  */
object StreamingDemoJob {
  def main(args: Array[String]): Unit = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("streaming-demo")
      .getOrCreate()
    import spark.implicits._
    try {
      val cfg = Params.geolife.copy(nObjects = 200, nSnapshots = 80)
      val rows = StreamGen.generate(cfg)
      val icpe = new StreamingICPE(spark,
        Params.clusterParams(cfg.world), Params.defaultConstraints)

      implicit val sqlCtx = spark.sqlContext
      val source = MemoryStream[Gps]
      val query = icpe.start(source.toDS())

      val byTime = rows.groupBy(_.time).toSeq.sortBy(_._1)
      val lastSeen = scala.collection.mutable.HashMap.empty[Long, Int]
      for ((t, rs) <- byTime) {
        source.addData(rs.toSeq.map { r: SnapshotRow =>
          val last = lastSeen.getOrElse(r.id, -1)
          lastSeen(r.id) = t
          Gps(r.id, t, r.x, r.y, last)
        })
        query.processAllAvailable()
      }
      query.stop()
      icpe.finish()

      val distinct = Enumeration.distinctPatterns(icpe.patterns)
      println(s"detected ${distinct.size} distinct co-movement patterns:")
      distinct.take(50).foreach { e =>
        println(s"  objects=${e.pattern.objects.mkString("{", ",", "}")} " +
                s"T=${e.pattern.times.mkString("<", ",", ">")} emitted@${e.emitTime}")
      }
    } finally spark.stop()
  }
}
