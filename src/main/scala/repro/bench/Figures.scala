package repro.bench

import org.apache.spark.sql.SparkSession
import repro.core._
import repro.enumeration._
import repro.traj.{StreamConfig, StreamGen}
import scala.collection.mutable

/** One reproduction routine per evaluation exhibit of the paper (§7).
  * Each returns the printed table rows so bench suites can assert on them;
  * tables are mirrored to bench_results/&lt;name&gt;.tsv (see Runner.emitTable).
  */
object Figures {

  /** Generated streams are cached per config so figures can share them. */
  private val cache = mutable.HashMap.empty[StreamConfig, Array[SnapshotRow]]

  def stream(spark: SparkSession, cfg: StreamConfig): Array[SnapshotRow] =
    cache.getOrElseUpdate(cfg, Runner.collectStream(StreamGen.generate(spark, cfg)))

  private def subsample(rows: Array[SnapshotRow], or: Double): Array[SnapshotRow] =
    if (or >= 1.0) rows else rows.filter(_.id % 10 < math.round(or * 10))

  /** Datasets of the scaled evaluation: name, world extent, rows. */
  def datasets(spark: SparkSession): Seq[(String, Double, Array[SnapshotRow])] = Seq(
    ("geolife", Params.geolife.world, stream(spark, Params.geolife)),
    ("taxi", Params.taxi.world, stream(spark, Params.taxi)),
    ("brinkhoff", Params.brinkhoff.world, stream(spark, Params.brinkhoff)),
  )

  /** Fig 12/13/14 use Taxi and Brinkhoff only, like the paper. */
  def detectionDatasets(spark: SparkSession): Seq[(String, Double, Array[SnapshotRow])] =
    datasets(spark).filter(d => d._1 == "taxi" || d._1 == "brinkhoff")

  /** JIT/Spark warmup so the first measured run is not penalized: one
    * full-size clustering pass per method plus one enumeration pass per
    * method on a real dataset prefix.
    */
  private def warmup(spark: SparkSession): Unit = {
    if (warmedUp) return
    val (_, world, data) = datasets(spark).head
    val rows = data.filter(_.time < 40)
    val p = Params.clusterParams(world)
    for (m <- Seq(SrjJoin, GdcJoin, RjcJoin)) Runner.runClustering(spark, rows, p, m)
    val (cl, _, _) = Runner.runClustering(spark, rows, p, RjcJoin)
    for (m <- Seq[EnumMethod](FbaMethod, VbaMethod))
      Runner.runEnumeration(spark, cl, Params.defaultConstraints, m)
    warmedUp = true
  }
  private var warmedUp = false

  // ----- Table 2: dataset statistics -----

  def table2(spark: SparkSession): Seq[Seq[String]] = {
    val rows = datasets(spark).map { case (name, _, data) =>
      val nTraj = data.map(_.id).distinct.length
      val nLoc = data.length
      val nSnap = data.map(_.time).distinct.length
      val mb = nLoc * 28L / 1e6 // id(8) + time(4) + x(8) + y(8) bytes
      Seq(name, nTraj.toString, nLoc.toString, nSnap.toString, f"$mb%.1f MB")
    }
    Runner.emitTable("table2_datasets",
      Seq("dataset", "trajectories", "locations", "snapshots", "storage"), rows)
    rows
  }

  // ----- Fig 10/11: clustering vs eps / l_g -----

  private def clusteringSweep(spark: SparkSession, figure: String,
                              points: Seq[(String, Double, Double)]): Seq[Seq[String]] = {
    warmup(spark)
    val out = mutable.ArrayBuffer.empty[Seq[String]]
    for ((name, world, data) <- datasets(spark)) {
      // Warm all three methods on THIS dataset once, unmeasured — the JIT
      // profile is dataset-shaped and would otherwise inflate the first
      // sweep points.
      val pWarm = Params.clusterParams(world)
      for (m <- Seq(SrjJoin, GdcJoin, RjcJoin))
        Runner.runClustering(spark, data, pWarm, m)
      // GDC ignores l_g entirely, so its measurement is keyed by eps only
      // (re-measuring it per l_g point would just add timing noise).
      val gdcCache = mutable.HashMap.empty[Double, (Seq[ClusterRow], Double, Int)]
      // Per (dataset, parameter point): run the three methods and
      // cross-check that they found identical clusterings.
      for ((label, epsPct, lgPct) <- points) {
        val p = Params.clusterParams(world, epsPct, lgPct)
        val sizes = mutable.ArrayBuffer.empty[(String, Long, Long)]
        for (m <- Seq(SrjJoin, GdcJoin, RjcJoin)) {
          val (clusters, wall, n) = m match {
            case GdcJoin =>
              gdcCache.getOrElseUpdate(epsPct, Runner.clusteringMedian(spark, data, p, m))
            case _ => Runner.clusteringMedian(spark, data, p, m)
          }
          sizes += ((m.name, clusters.size.toLong, clusters.map(_.members.size.toLong).sum))
          out += Seq(figure, name, label, m.name,
            Runner.f2(wall / n), Runner.f1(n * 1000.0 / wall))
        }
        require(sizes.map(s => (s._2, s._3)).distinct.size == 1,
          s"clustering methods disagree at $name $label: $sizes")
      }
    }
    Runner.emitTable(figure,
      Seq("figure", "dataset", "param", "method", "latency_ms", "throughput_tps"), out.toSeq)
    out.toSeq
  }

  def fig10(spark: SparkSession): Seq[Seq[String]] =
    clusteringSweep(spark, "fig10_clustering_vs_eps",
      Params.epsPcts.map(e => (s"eps=${Params.pct(e)}", e, Params.lgPctDefault)))

  def fig11(spark: SparkSession): Seq[Seq[String]] =
    clusteringSweep(spark, "fig11_clustering_vs_lg",
      Params.lgPcts.map(lg => (s"lg=${Params.pct(lg)}", Params.epsPctDefault, lg)))

  // ----- Fig 12: detection vs object ratio Or (B, F, V) -----

  def fig12(spark: SparkSession): Seq[Seq[String]] = {
    warmup(spark)
    val c = Params.defaultConstraints
    val out = mutable.ArrayBuffer.empty[Seq[String]]
    for ((name, world, data) <- detectionDatasets(spark); or <- Params.ors) {
      val rows = subsample(data, or)
      val p = Params.clusterParams(world)
      val (clusters, clusterMs, n) = Runner.clusteringMedian(spark, rows, p, RjcJoin)
      val avgSize = Runner.f1(Runner.avgClusterSize(clusters))
      val maxPart = clusters.map(_.members.length).maxOption.getOrElse(0) - 1
      for (m <- Seq[EnumMethod](BaselineMethod, FbaMethod, VbaMethod)) {
        // The paper's B cannot run once 2^|P_t(o)| explodes (Fig 12 shows B
        // only for Or <= 60%). B is skipped here once some partition could
        // hold more than 14 objects (largest cluster minus its anchor),
        // below the 22 objects at which BA.detect itself gives up.
        if (m == BaselineMethod && maxPart > 14) {
          out += Seq("fig12", name, s"Or=${(or * 100).toInt}%", m.name,
            "n/a (2^n blow-up)", "n/a", avgSize, "-")
        } else {
          val (emitted, enumMs) = Runner.enumerationMedian(spark, clusters, c, m)
          val metrics = Runner.metricsOf(clusterMs, enumMs, n, emitted, c)
          out += Seq("fig12", name, s"Or=${(or * 100).toInt}%", m.name,
            Runner.f2(metrics.latencyMs), Runner.f1(metrics.throughputTps),
            avgSize, metrics.nPatterns.toString)
        }
      }
    }
    Runner.emitTable("fig12_detection_vs_or",
      Seq("figure", "dataset", "param", "method", "latency_ms", "throughput_tps",
          "avg_cluster_size", "patterns"), out.toSeq)
    out.toSeq
  }

  // ----- Fig 13/14: detection vs eps / node count N (F, V) -----

  /** Rows are labelled `figure` and written to the table `table`. */
  private def detectionSweep(spark: SparkSession, table: String, figure: String,
                             paramName: String,
                             datasets: => Seq[(String, Double, Array[SnapshotRow])],
                             sweep: Seq[(String, Double, Option[Int])]): Seq[Seq[String]] = {
    warmup(spark)
    val c = Params.defaultConstraints
    val out = mutable.ArrayBuffer.empty[Seq[String]]
    for ((name, world, data) <- datasets; (label, epsPct, slots) <- sweep) {
      val p = Params.clusterParams(world, epsPct)
      // Cluster once per sweep point (identical for F and V), then measure
      // each enumeration method on the shared cluster stream.
      val (clusters, clusterMs, n) = Runner.clusteringMedian(spark, data, p, RjcJoin, slots)
      for (m <- Seq[EnumMethod](FbaMethod, VbaMethod)) {
        val (emitted, enumMs) = Runner.enumerationMedian(spark, clusters, c, m, slots)
        val metrics = Runner.metricsOf(clusterMs, enumMs, n, emitted, c)
        out += Seq(figure, name, label, m.name,
          Runner.f2(metrics.latencyMs), Runner.f1(metrics.throughputTps),
          metrics.nPatterns.toString)
      }
    }
    Runner.emitTable(table,
      Seq("figure", "dataset", paramName, "method", "latency_ms", "throughput_tps",
          "patterns"), out.toSeq)
    out.toSeq
  }

  def fig13(spark: SparkSession): Seq[Seq[String]] =
    detectionSweep(spark, "fig13_detection_vs_eps", "fig13_detection_vs_eps", "eps",
      detectionDatasets(spark), Params.epsPcts.map(e => (s"eps=${Params.pct(e)}", e, None)))

  /** Fig 14 runs on denser streams, one shuffle slot per emulated node. */
  def fig14(spark: SparkSession): Seq[Seq[String]] =
    detectionSweep(spark, "fig14_detection_vs_n", "fig14", "N",
      Seq(("taxi", Params.fig14Taxi.world, stream(spark, Params.fig14Taxi)),
          ("brinkhoff", Params.fig14Brinkhoff.world, stream(spark, Params.fig14Brinkhoff))),
      Params.nodes.map(n => (s"N=$n", Params.epsPctDefault, Some(n))))

  // ----- Fig 15: enumeration vs M, K, L, G (FBA, VBA on Brinkhoff) -----

  def fig15(spark: SparkSession): Seq[Seq[String]] = {
    warmup(spark)
    val cfg = Params.brinkhoff
    val data = stream(spark, cfg)
    val p = Params.clusterParams(cfg.world)
    val (clusters, _, n) = Runner.runClustering(spark, data, p, RjcJoin)
    // Pre-warm both enumeration methods on this cluster stream.
    Runner.runEnumeration(spark, clusters, Params.defaultConstraints, FbaMethod)
    Runner.runEnumeration(spark, clusters, Params.defaultConstraints, VbaMethod)

    val sweeps: Seq[(String, Seq[Constraints])] = Seq(
      ("M" -> Params.ms.map(m => Params.defaultConstraints.copy(m = m))),
      ("K" -> Params.ks.map(k => Params.defaultConstraints.copy(k = k))),
      ("L" -> Params.ls.map(l => Params.defaultConstraints.copy(l = l))),
      ("G" -> Params.gs.map(g => Params.defaultConstraints.copy(g = g))),
    )
    val out = mutable.ArrayBuffer.empty[Seq[String]]
    for ((axis, cs) <- sweeps; c <- cs; m <- Seq[EnumMethod](FbaMethod, VbaMethod)) {
      val (emitted, wall) = Runner.enumerationMedian(spark, clusters, c, m)
      val value = axis match {
        case "M" => c.m case "K" => c.k case "L" => c.l case _ => c.g
      }
      val metrics = Runner.metricsOf(0, wall, n, emitted, c)
      out += Seq("fig15", "brinkhoff", s"$axis=$value", m.name,
        Runner.f2(metrics.latencyMs), Runner.f1(metrics.throughputTps),
        metrics.nPatterns.toString)
    }
    Runner.emitTable("fig15_enumeration_constraints",
      Seq("figure", "dataset", "param", "method", "latency_ms", "throughput_tps",
          "patterns"), out.toSeq)
    out.toSeq
  }
}
