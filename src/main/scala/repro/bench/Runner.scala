package repro.bench

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._
import repro.enumeration._
import repro.cluster.{GDC, SRJ}
import java.io.{File, PrintWriter}
import scala.collection.immutable.ListMap
import scala.collection.mutable.ArrayBuffer

/** Metrics of one benchmark run (one parameter point, one method). */
final case class RunMetrics(
  clusterMsPerSnap: Double,     // clustering processing time per snapshot
  enumMsPerSnap: Double,        // enumeration processing time per snapshot
  meanDelaySnaps: Double,       // mean pattern emission delay (snapshots)
  nPatterns: Int,
) {
  def procMsPerSnap: Double = clusterMsPerSnap + enumMsPerSnap
  /** Paper-style latency: per-snapshot response time. Processing cost plus
    * the emission delay converted to time via the per-snapshot period of a
    * saturated stream (see DESIGN.md "Metrics").
    */
  def latencyMs: Double = procMsPerSnap * (1.0 + meanDelaySnaps)
  /** Snapshots processed per second. */
  def throughputTps: Double = if (procMsPerSnap == 0) 0 else 1000.0 / procMsPerSnap
}

/** Shared benchmark machinery: timed micro-batched clustering, full
  * detection runs, emission-delay accounting, and table output.
  */
object Runner {

  /** Snapshots per micro-batch: Structured-Streaming-style processing that
    * amortizes per-job overhead the same way for every compared method.
    */
  val batchSnapshots: Int = 50

  /** Repetitions per measured point (the best wall time is reported) — the
    * algorithms are deterministic, so only the timing varies.
    */
  val reps: Int = 2

  def nowMs(): Double = System.nanoTime() / 1e6

  /** Run `body` n times; return its (identical) result with the lower-median
    * wall (= min for n = 2), which is robust against one-off GC stalls.
    */
  def median[A](n: Int)(body: => (A, Double)): (A, Double) = {
    val runs = Seq.fill(math.max(1, n))(body)
    val walls = runs.map(_._2).sorted
    (runs.head._1, walls((walls.length - 1) / 2))
  }

  /** The range joins that Figs 10/11 compare, by name, in measuring order. */
  val joins: ListMap[String, (Dataset[SnapshotRow], ClusterParams) => Dataset[NeighborPair]] =
    ListMap(
      "SRJ" -> ((s, p) => SRJ.join(s, p.eps, p.lg)),
      "GDC" -> ((s, p) => GDC.join(s, p.eps)),
      "RJC" -> ((s, p) => RangeJoin.rjc(s, p.eps, p.lg)))

  /** Number of distinct snapshots in `rows`. */
  def snapshots(rows: Array[SnapshotRow]): Int = rows.map(_.time).distinct.length

  private def batches(rows: Array[SnapshotRow]): Seq[Array[SnapshotRow]] = {
    val times = rows.map(_.time).distinct.sorted
    times.grouped(batchSnapshots).map { ts =>
      val set = ts.toSet
      rows.filter(r => set.contains(r.time))
    }.toSeq
  }

  /** Timed clustering (range join `join` + DBSCAN) over the whole stream in
    * micro-batches. Returns (clusterRows, wallMs).
    */
  def runClustering(spark: SparkSession, rows: Array[SnapshotRow], p: ClusterParams,
                    join: String): (Seq[ClusterRow], Double) = {
    import spark.implicits._
    val all = ArrayBuffer.empty[ClusterRow]
    val t0 = nowMs()
    for (b <- batches(rows)) {
      val ds = spark.createDataset(b.toIndexedSeq)
      all ++= Dbscan.cluster(ds, joins(join)(ds, p), p.minPts).collect()
    }
    (all.toSeq, nowMs() - t0)
  }

  /** Timed pattern enumeration over pre-computed cluster snapshots.
    * Returns (emitted patterns, wallMs).
    */
  def runEnumeration(spark: SparkSession, clusters: Seq[ClusterRow], c: Constraints,
                     method: EnumMethod): (Seq[Emitted], Double) = {
    import spark.implicits._
    val t0 = nowMs()
    val ds = spark.createDataset(clusters.toIndexedSeq)
    val emitted = ICPE.detectPatterns(ds, c, method).collect().toSeq
    (emitted, nowMs() - t0)
  }

  /** Runs `body` as on `n` nodes (Fig 14): every keyed stage (the GridQuery
    * cells, DBSCAN per snapshot, enumeration per anchor) runs exactly `n`
    * tasks. Adaptive coalescing, which would fold the small shuffles back to
    * about one task, is off. Both settings are restored, also if `body` throws.
    */
  def onNodes[A](spark: SparkSession, n: Int)(body: => A): A = {
    val settings = Seq("spark.sql.shuffle.partitions" -> n.toString,
      "spark.sql.adaptive.coalescePartitions.enabled" -> "false")
    val prev = settings.map { case (k, _) => k -> spark.conf.get(k) }
    settings.foreach { case (k, v) => spark.conf.set(k, v) }
    try body finally prev.foreach { case (k, v) => spark.conf.set(k, v) }
  }

  /** Mean emission delay over distinct patterns: snapshots between the
    * earliest time a pattern's constraints were decidable and the snapshot
    * whose processing emitted it.
    */
  def meanEmissionDelay(emitted: Seq[Emitted], c: Constraints): Double = {
    val distinct = Enumeration.distinctPatterns(emitted)
    if (distinct.isEmpty) return 0.0
    val delays = distinct.map { e =>
      val t = earliestDecidable(e.pattern.times, c)
      math.max(0, e.emitTime - t)
    }
    delays.sum.toDouble / delays.length
  }

  /** First time at which some prefix of `times` satisfies (K, L, G). */
  def earliestDecidable(times: Seq[Int], c: Constraints): Int = {
    for (i <- (c.k - 1) until times.length) {
      val prefix = times.take(i + 1)
      if (TimeSeq.isValid(prefix, c)) return times(i)
    }
    times.last
  }

  /** Metrics from one clustering + one enumeration measurement over `n`
    * snapshots.
    */
  def metricsOf(clusterMs: Double, enumMs: Double, n: Int, emitted: Seq[Emitted],
                c: Constraints): RunMetrics =
    RunMetrics(
      clusterMsPerSnap = clusterMs / n,
      enumMsPerSnap = enumMs / n,
      meanDelaySnaps = meanEmissionDelay(emitted, c),
      nPatterns = Enumeration.distinctPatterns(emitted).size,
    )

  /** Mean members per cluster (Fig 12's `avg_cluster_size`). */
  def avgClusterSize(clusters: Seq[ClusterRow]): Double =
    if (clusters.isEmpty) 0.0 else clusters.map(_.members.length).sum.toDouble / clusters.length

  // ----- table output -----

  private val resultsDir = new File(sys.env.getOrElse("BENCH_RESULTS_DIR", "bench_results"))

  /** Print a table to stdout, mirror it to bench_results/<name>.tsv and
    * return its rows.
    */
  def emitTable(name: String, header: Seq[String],
                tableRows: Seq[Seq[String]]): Seq[Seq[String]] = {
    val widths = (header +: tableRows).transpose.map(col => col.map(_.length).max)
    def fmt(r: Seq[String]) =
      r.lazyZip(widths).map((cell, w) => cell.padTo(w, ' ')).mkString("| ", " | ", " |")
    val lines = Seq(s"== $name ==", fmt(header),
      fmt(widths.map("-" * _))) ++ tableRows.map(fmt)
    lines.foreach(println)
    resultsDir.mkdirs()
    val pw = new PrintWriter(new File(resultsDir, s"$name.tsv"))
    try {
      pw.println(header.mkString("\t"))
      tableRows.foreach(r => pw.println(r.mkString("\t")))
    } finally pw.close()
    tableRows
  }

  def f1(v: Double): String = f"$v%.1f"
  def f2(v: Double): String = f"$v%.2f"
}
