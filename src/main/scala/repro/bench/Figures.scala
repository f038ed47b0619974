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

  def stream(cfg: StreamConfig): Array[SnapshotRow] =
    cache.getOrElseUpdate(cfg, StreamGen.generate(cfg))

  private def subsample(rows: Array[SnapshotRow], or: Double): Array[SnapshotRow] =
    if (or >= 1.0) rows else rows.filter(_.id % 10 < math.round(or * 10))

  /** Datasets of the scaled evaluation: name, world extent, rows. */
  def datasets: Seq[(String, Double, Array[SnapshotRow])] = Seq(
    ("geolife", Params.geolife.world, stream(Params.geolife)),
    ("taxi", Params.taxi.world, stream(Params.taxi)),
    ("brinkhoff", Params.brinkhoff.world, stream(Params.brinkhoff)),
  )

  /** Fig 12/13/14 use Taxi and Brinkhoff only, like the paper. */
  def detectionDatasets: Seq[(String, Double, Array[SnapshotRow])] =
    datasets.filter(d => d._1 == "taxi" || d._1 == "brinkhoff")

  /** Unmeasured passes over a stream before its first measured point, so that
    * no point of a sweep is measured cold: every join of `Runner.joins`, then
    * FBA and VBA over the RJC clusters, `warmPasses` times. BA is left out: it
    * gives up on large partitions. Runs once per stream in a JVM.
    */
  private def warm(spark: SparkSession, data: Array[SnapshotRow], world: Double): Unit =
    if (warmed.add(data)) {
      val p = Params.clusterParams(world)
      for (_ <- 1 to warmPasses) {
        val clusters =
          Runner.joins.keys.map(j => j -> Runner.runClustering(spark, data, p, j)._1).toMap
        for (m <- Seq[EnumMethod](FbaMethod, VbaMethod))
          Runner.runEnumeration(spark, clusters("RJC"), Params.defaultConstraints, m)
      }
    }
  // One pass left the first point of a descending Fig 14 sweep measurably slow.
  private val warmPasses = 3
  // Streams are arrays, so they are told apart by reference.
  private val warmed = mutable.HashSet.empty[Array[SnapshotRow]]

  /** A measured clustering point: the clusters of `rows` under `join`, and
    * the lower-median wall of `reps` runs.
    */
  private def clustering(spark: SparkSession, rows: Array[SnapshotRow], p: ClusterParams,
                         join: String): (Seq[ClusterRow], Double) =
    Runner.median(Runner.reps)(Runner.runClustering(spark, rows, p, join))

  /** A measured detection row of Figs 12-15: `key` (figure, dataset, param),
    * the method, latency and throughput, `extra` cells, and the distinct
    * pattern count. The processing time over `n` snapshots is `clusterMs`
    * plus the lower-median wall of `m` enumerating `clusters`.
    */
  private def detectionRow(spark: SparkSession, key: Seq[String], clusters: Seq[ClusterRow],
                           clusterMs: Double, n: Int, c: Constraints, m: EnumMethod,
                           extra: Seq[String] = Nil): Seq[String] = {
    val (emitted, enumMs) = Runner.median(Runner.reps)(Runner.runEnumeration(spark, clusters, c, m))
    val r = Runner.metricsOf(clusterMs, enumMs, n, emitted, c)
    (key :+ m.name :+ Runner.f2(r.latencyMs) :+ Runner.f1(r.throughputTps)) ++ extra :+
      r.nPatterns.toString
  }

  private val figureHeader =
    Seq("figure", "dataset", "param", "method", "latency_ms", "throughput_tps")

  // ----- Table 2: dataset statistics -----

  def table2(spark: SparkSession): Seq[Seq[String]] =
    Runner.emitTable("table2_datasets",
      Seq("dataset", "trajectories", "locations", "snapshots", "storage"),
      datasets.map { case (name, _, data) =>
        val nLoc = data.length
        val mb = nLoc * 28L / 1e6 // id(8) + time(4) + x(8) + y(8) bytes
        Seq(name, data.map(_.id).distinct.length.toString, nLoc.toString,
          Runner.snapshots(data).toString, f"$mb%.1f MB")
      })

  // ----- Fig 10/11: clustering vs eps / l_g -----

  private def clusteringSweep(spark: SparkSession, figure: String,
                              points: Seq[(String, Double, Double)]): Seq[Seq[String]] = {
    val out = mutable.ArrayBuffer.empty[Seq[String]]
    for ((name, world, data) <- datasets) {
      warm(spark, data, world)
      val n = Runner.snapshots(data)
      // Per (dataset, parameter point): run the three methods and
      // cross-check that they found identical clusterings.
      for ((label, epsPct, lgPct) <- points) {
        val p = Params.clusterParams(world, epsPct, lgPct)
        val sizes = mutable.ArrayBuffer.empty[(String, Long, Long)]
        for (j <- Runner.joins.keys) {
          val (clusters, wall) = clustering(spark, data, p, j)
          sizes += ((j, clusters.size.toLong, clusters.map(_.members.size.toLong).sum))
          out += Seq(figure, name, label, j, Runner.f2(wall / n), Runner.f1(n * 1000.0 / wall))
        }
        require(sizes.map(s => (s._2, s._3)).distinct.size == 1,
          s"clustering methods disagree at $name $label: $sizes")
      }
    }
    Runner.emitTable(figure, figureHeader, out.toSeq)
  }

  def fig10(spark: SparkSession): Seq[Seq[String]] =
    clusteringSweep(spark, "fig10_clustering_vs_eps",
      Params.epsPcts.map(e => (s"eps=${Params.pct(e)}", e, Params.lgPctDefault)))

  def fig11(spark: SparkSession): Seq[Seq[String]] =
    clusteringSweep(spark, "fig11_clustering_vs_lg",
      Params.lgPcts.map(lg => (s"lg=${Params.pct(lg)}", Params.epsPctDefault, lg)))

  // ----- Fig 12: detection vs object ratio Or (B, F, V) -----

  def fig12(spark: SparkSession): Seq[Seq[String]] = {
    val c = Params.defaultConstraints
    val out = mutable.ArrayBuffer.empty[Seq[String]]
    for ((name, world, data) <- detectionDatasets) {
      warm(spark, data, world)
      for (or <- Params.ors) {
        val rows = subsample(data, or)
        val (clusters, clusterMs) = clustering(spark, rows, Params.clusterParams(world), "RJC")
        val n = Runner.snapshots(rows)
        val key = Seq("fig12", name, s"Or=${(or * 100).toInt}%")
        val avgSize = Runner.f1(Runner.avgClusterSize(clusters))
        val maxPart = clusters.map(_.members.length).maxOption.getOrElse(0) - 1
        for (m <- Seq[EnumMethod](BaselineMethod, FbaMethod, VbaMethod)) {
          // The paper's B cannot run once 2^|P_t(o)| explodes (Fig 12 shows B
          // only for Or <= 60%). B is skipped here once some partition could
          // hold more than BA.MaxPartitionSize objects (largest cluster minus
          // its anchor), the size at which BA.detect itself gives up.
          out += (if (m == BaselineMethod && maxPart > BA.MaxPartitionSize)
            key ++ Seq(m.name, "n/a (2^n blow-up)", "n/a", avgSize, "-")
          else detectionRow(spark, key, clusters, clusterMs, n, c, m, extra = Seq(avgSize)))
        }
      }
    }
    Runner.emitTable("fig12_detection_vs_or",
      figureHeader ++ Seq("avg_cluster_size", "patterns"), out.toSeq)
  }

  // ----- Fig 13/14: detection vs eps / node count N (F, V) -----

  /** Rows are labelled `figure` and written to the table `table`. A sweep
    * point with a node count runs whole inside [[Runner.onNodes]].
    */
  private def detectionSweep(spark: SparkSession, table: String, figure: String,
                             paramName: String,
                             datasets: => Seq[(String, Double, Array[SnapshotRow])],
                             sweep: Seq[(String, Double, Option[Int])]): Seq[Seq[String]] = {
    val c = Params.defaultConstraints
    val out = mutable.ArrayBuffer.empty[Seq[String]]
    for ((name, world, data) <- datasets) {
      warm(spark, data, world)
      val n = Runner.snapshots(data)
      for ((label, epsPct, nodes) <- sweep) {
        // Cluster once per sweep point (identical for F and V), then measure
        // each enumeration method on the shared cluster stream.
        def point(): Seq[Seq[String]] = {
          val (clusters, clusterMs) =
            clustering(spark, data, Params.clusterParams(world, epsPct), "RJC")
          Seq[EnumMethod](FbaMethod, VbaMethod).map(m =>
            detectionRow(spark, Seq(figure, name, label), clusters, clusterMs, n, c, m))
        }
        out ++= nodes.fold(point())(Runner.onNodes(spark, _)(point()))
      }
    }
    Runner.emitTable(table, figureHeader.updated(2, paramName) :+ "patterns", out.toSeq)
  }

  def fig13(spark: SparkSession): Seq[Seq[String]] =
    detectionSweep(spark, "fig13_detection_vs_eps", "fig13_detection_vs_eps", "eps",
      detectionDatasets, Params.epsPcts.map(e => (s"eps=${Params.pct(e)}", e, None)))

  /** Fig 14 runs on denser streams, one task per keyed stage and emulated node. */
  def fig14(spark: SparkSession): Seq[Seq[String]] =
    detectionSweep(spark, "fig14_detection_vs_n", "fig14", "N",
      Seq(("taxi", Params.fig14Taxi.world, stream(Params.fig14Taxi)),
          ("brinkhoff", Params.fig14Brinkhoff.world, stream(Params.fig14Brinkhoff))),
      Params.nodes.map(n => (s"N=$n", Params.epsPctDefault, Some(n))))

  // ----- Fig 15: enumeration vs M, K, L, G (FBA, VBA on Brinkhoff) -----

  def fig15(spark: SparkSession): Seq[Seq[String]] = {
    val cfg = Params.brinkhoff
    val data = stream(cfg)
    warm(spark, data, cfg.world)
    val (clusters, _) = Runner.runClustering(spark, data, Params.clusterParams(cfg.world), "RJC")

    val n = Runner.snapshots(data)
    val d = Params.defaultConstraints
    val sweeps: Seq[(String, Seq[(Int, Constraints)])] = Seq(
      "M" -> Params.ms.map(m => m -> d.copy(m = m)),
      "K" -> Params.ks.map(k => k -> d.copy(k = k)),
      "L" -> Params.ls.map(l => l -> d.copy(l = l)),
      "G" -> Params.gs.map(g => g -> d.copy(g = g)))
    // Enumeration alone: no clustering time enters these rows.
    val out = for ((axis, cs) <- sweeps; (value, c) <- cs;
                   m <- Seq[EnumMethod](FbaMethod, VbaMethod))
      yield detectionRow(spark, Seq("fig15", "brinkhoff", s"$axis=$value"), clusters, 0, n, c, m)
    Runner.emitTable("fig15_enumeration_constraints", figureHeader :+ "patterns", out)
  }
}
