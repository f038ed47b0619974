package icpebench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.{Dataset, SQLContext, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.core._
import repro.enumeration.{Emitted, EnumMethod, FbaMethod, VbaMethod}
import repro.stream.StreamingICPE
import scala.collection.mutable.ArrayBuffer
import scala.util.hashing.MurmurHash3

/** Command line of one benchmark run (one workload, one fresh JVM). */
final case class Opts(workload: String, seed: Long, seconds: Int, trace: Boolean,
                      out: Option[String], traceOut: Option[String])

object Opts {
  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"--$k is required"))
    Opts(need("workload"), need("seed").toLong, need("seconds").toInt,
      need("trace") == "1", kv.get("out"), kv.get("trace-out"))
  }
}

/** Runs one workload and prints its result as the last line of stdout.
  *
  * Set-up (untimed): SparkSession, input generation from the seed, and a
  * warm-up of batch detection and of the streaming replay on a prefix of the
  * stream. Timed: the streaming replay (one snapshot per micro-batch, closed
  * loop, a fixed number of batches) with FBA and VBA batch passes spread
  * evenly between its micro-batches, one FBA + VBA pair per five seconds of
  * `--seconds`, so that both uses are measured over the same window. The
  * timings are reported scaled to a reference machine speed ([[Probe]]).
  * Afterwards the outputs are checked against computations made apart from
  * the program ([[Checks]]).
  * With `--trace 1` the run instead times each layer's public functions from
  * the outside and prints per-layer metrics.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = Opts.parse(args)
    val spark = session()
    val result =
      try new Bench(spark, opts).run()
      finally spark.stop()
    val line = result.json
    opts.out.foreach(f => Files.writeString(Paths.get(f), line + "\n"))
    println(line)
  }

  /** Task slots: the processors this JVM may use, at most 4. */
  val slots: Int = math.max(1, math.min(4, Runtime.getRuntime.availableProcessors))

  def session(): SparkSession = {
    val s = SparkSession.builder
      .master(s"local[$slots]")
      .appName("icpebench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.sql.autoBroadcastJoinThreshold", "-1")
      // Keep the status store small so live heap does not track how many
      // jobs ran before it was measured.
      .config("spark.ui.retainedJobs", "20")
      .config("spark.ui.retainedStages", "20")
      .config("spark.ui.retainedTasks", "200")
      .config("spark.sql.ui.retainedExecutions", "5")
      .config("spark.sql.streaming.ui.retainedQueries", "2")
      .config("spark.sql.streaming.numRecentProgressUpdates", "5")
      .getOrCreate()
    s.sparkContext.setLogLevel("WARN")
    s
  }
}

final class Bench(spark: SparkSession, opts: Opts) {
  import spark.implicits._

  /** Leading micro-batches of each replay that only warm up; not timed.
    * They include the cold start of time sync, which releases nothing until
    * every registered trajectory has reported and then several snapshots.
    */
  private val WarmBatches = 4
  /** FBA + VBA pass pairs timed per run: one per `PairSeconds` of
    * `--seconds`, at least `MinPairs` and at most one per timed
    * micro-batch. The count depends on `--seconds` alone, so every run with
    * the same `--seconds` attempts the same operations.
    */
  private val PairSeconds = 5
  private val MinPairs = 3
  /** Micro-batches of the untimed warm-up replay, on a streaming query of
    * its own, so that the JIT has compiled the streaming path before the
    * timed window. Without it a run's micro-batches still got faster by
    * about a third over the window.
    */
  private val WarmReplay = 8

  private val sc = spark.sparkContext
  private val counters = SparkCounters.attach(sc)
  private var attempted = 0L
  private var failed = 0L

  private def say(s: String): Unit = println(s"[icpebench] $s")

  /** One operation whose output is checked; failures are counted, not thrown. */
  private def op(label: String)(failures: => Seq[String]): Unit = {
    attempted += 1
    val f = failures
    if (f.nonEmpty) {
      failed += 1
      f.foreach(m => say(s"FAILED $label: $m"))
    }
  }

  private def uptimeS: Double = ManagementFactory.getRuntimeMXBean.getUptime / 1000.0

  /** Heap in use after full collections, with pauses between them so that
    * Spark's cleaner can drop what the first one made unreachable.
    */
  private def liveHeapMb(): Double = {
    for (_ <- 1 to 3) { System.gc(); Thread.sleep(100) }
    ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed / (1024.0 * 1024.0)
  }

  private def detect(ds: Dataset[SnapshotRow], in: Input, m: EnumMethod): Array[Emitted] =
    ICPE.run(ds, in.p, in.c, m).collect()

  final case class Replay(latMs: Vector[Double], heapMb: Double, patterns: Seq[Pattern])

  /** Closed-loop replay: each batch is handed to the source only after the
    * previous one has been fully processed. The first `WarmBatches` batches
    * are not timed; `warmedUp` runs after them, and `afterBatch(i)` after
    * the i-th timed batch (1-based), outside its timing. Live heap is taken
    * after the last batch, before its `afterBatch`.
    */
  private def replay(in: Input, batches: Seq[Seq[Gps]], name: String)(warmedUp: => Unit)
                    (afterBatch: Int => Unit): Replay = {
    val icpe = new StreamingICPE(spark, in.p, in.c, expectedIds = in.ids)
    implicit val ctx: SQLContext = spark.sqlContext
    val source = MemoryStream[Gps]
    val query = icpe.start(source.toDS(), name)
    def feed(b: Seq[Gps]): Double = {
      val t0 = Stats.nowMs()
      source.addData(b)
      query.processAllAvailable()
      Stats.nowMs() - t0
    }
    val (lat, heap) =
      try {
        batches.take(WarmBatches).foreach(feed)
        warmedUp
        val timed = batches.drop(WarmBatches)
        var heap = 0.0
        val lat = timed.zipWithIndex.map { case (b, i) =>
          val ms = feed(b)
          if (i == timed.length - 1) heap = liveHeapMb()
          afterBatch(i + 1)
          ms
        }.toVector
        (lat, heap)
      } finally query.stop()
    icpe.finish()
    Replay(lat, heap, icpe.patterns.map(_.pattern))
  }

  def run(): Result = {
    val (in, genMs) = Stats.timed(Workloads.input(opts.workload, opts.seed))
    val sessionS = uptimeS - genMs / 1000
    val batches = Workloads.replayBatches(in.rows, in.seed)
    val ds = spark.createDataset(in.rows)
    say(f"workload ${in.name} seed ${in.seed}: ${in.objects} objects, ${in.snapshots} snapshots, " +
      f"${in.rows.length} points, eps ${in.p.eps}%.1f, l_g ${in.p.lg}%.1f, minPts ${in.p.minPts}, " +
      s"${in.c}, ${batches.length} micro-batches, ${Main.slots} task slots")
    say(f"set-up: session ready at $sessionS%.2f s, generation $genMs%.0f ms")
    val clustering = warmUp(in, ds)
    val (_, warmReplayMs) = Stats.timed(replay(in, batches.take(WarmReplay), "icpebench-warm")(())(_ => ()))
    say(f"warm-up: replay of the first $WarmReplay micro-batches $warmReplayMs%.0f ms")
    if (opts.trace) traced(in, ds, batches, genMs, clustering)
    else untraced(in, ds, batches, clustering)
  }

  // ----- untraced run: the end-to-end metrics -----

  private def untraced(in: Input, ds: Dataset[SnapshotRow], batches: Seq[Seq[Gps]],
                       clustering: Clustering): Result = {
    val timed = batches.length - WarmBatches
    val pairs = math.min(timed, math.max(MinPairs, opts.seconds / PairSeconds))
    val ms = Map[EnumMethod, ArrayBuffer[Double]](FbaMethod -> ArrayBuffer.empty, VbaMethod -> ArrayBuffer.empty)
    // Each pass is compared with the first of its method by digest; only the
    // last pair's output is kept whole, for the checks, so that the live heap
    // taken before that pair holds no pass output.
    val first = scala.collection.mutable.Map.empty[EnumMethod, Digest]
    val kept = scala.collection.mutable.Map.empty[EnumMethod, Array[Emitted]]
    var shuffleBytes = -1L
    // The machine probe runs after every timed micro-batch and pass, so its
    // samples span the same window as the timings it scales.
    val probe = ArrayBuffer.empty[Double]
    def pass(m: EnumMethod, keep: Boolean): Unit = {
      val before = counters.totals()
      val (out, t) = Stats.timed(detect(ds, in, m))
      ms(m) += t
      probe += Probe.sortMs()
      if (m == FbaMethod && shuffleBytes < 0) shuffleBytes = (counters.totals() - before).shuffleBytes
      val d = first.getOrElseUpdate(m, digest(out))
      op(s"${m.name} pass")(samePass(m.name, d, out))
      if (keep) kept(m) = out
    }
    // Pairs whose order alternates (FBA VBA, VBA FBA, ...), spread evenly
    // over the timed micro-batches: after batch i, as many as are due by
    // i / timed of the whole; the last pair after the last batch.
    var done = 0
    var setupS, start = 0.0
    val stream = replay(in, batches, "icpebench") { setupS = uptimeS; start = Stats.nowMs() } { i =>
      probe += Probe.sortMs()
      while (done < i * pairs / timed) {
        val order = if (done % 2 == 0) Seq(FbaMethod, VbaMethod) else Seq(VbaMethod, FbaMethod)
        order.foreach(pass(_, keep = done == pairs - 1))
        done += 1
      }
    }
    val (fbaMs, vbaMs, fba, vba) = (ms(FbaMethod), ms(VbaMethod), kept(FbaMethod), kept(VbaMethod))
    attempted += stream.latMs.length
    val windowS = (Stats.nowMs() - start) / 1000.0
    say(s"FBA passes ${fbaMs.map(v => f"$v%.0f").mkString("/")} ms, " +
      s"VBA passes ${vbaMs.map(v => f"$v%.0f").mkString("/")} ms")

    checks(in, clustering, fba.map(_.pattern), vba.map(_.pattern), stream.patterns)

    val n = in.snapshots.toDouble
    val lat = stream.latMs
    val (fbaRaw, vbaRaw, p50Raw) = (Stats.median(fbaMs.toSeq) / n, Stats.median(vbaMs.toSeq) / n, Stats.median(lat))
    val probeMs = Stats.median(probe.toSeq)
    val scale = Probe.ReferenceMs / probeMs
    say(f"set-up $setupS%.2f s; timed window $windowS%.1f s: ${lat.length} stream samples, $pairs FBA+VBA pass pairs")
    say(f"wall time: FBA $fbaRaw%.2f ms/snapshot, VBA $vbaRaw%.2f ms/snapshot, stream p50 $p50Raw%.1f ms, " +
      f"p90 ${Stats.quantile(lat, 0.9)}%.1f ms (n=${lat.length}); machine probe $probeMs%.2f ms " +
      f"(median of ${probe.length}), scale to the ${Probe.ReferenceMs}%.0f ms reference $scale%.4f")
    say(s"patterns: FBA ${fba.length} emitted / ${distinctSets(fba)} object sets, " +
      s"VBA ${vba.length} / ${distinctSets(vba)}, stream ${stream.patterns.length} / " +
      s"${stream.patterns.map(_.objects).distinct.length}")
    Result(failed == 0, attempted, failed, Seq(
      Metric("setup_s", setupS, "s"),
      Metric("detect_fba_ms_per_snap", fbaRaw * scale, "ms"),
      Metric("detect_vba_ms_per_snap", vbaRaw * scale, "ms"),
      Metric("stream_lat_p50_ms", p50Raw * scale, "ms"),
      Metric("heap_live_mb", stream.heapMb, "MB"),
      Metric("shuffle_kb_per_snap", shuffleBytes / 1024.0 / n, "KB"),
    ))
  }

  /** The program's clustering output, kept for the checks. */
  final case class Clustering(pairs: Seq[NeighborPair], clusters: Seq[ClusterRow])

  /** Untimed warm-up of the batch path and of the machine probe: the range
    * join and the clustering are collected (the checks need both), and FBA
    * and VBA enumerate the collected clusters once each.
    */
  private def warmUp(in: Input, ds: Dataset[SnapshotRow]): Clustering = {
    val (cl, clMs) = Stats.timed(Clustering(
      RangeJoin.rjc(ds, in.p.eps, in.p.lg).collect().toSeq,
      ICPE.clusterSnapshots(ds, in.p).collect().toSeq))
    val clDs = spark.createDataset(cl.clusters)
    val enumMs = Seq(FbaMethod, VbaMethod).map(m =>
      Stats.timed(ICPE.detectPatterns(clDs, in.c, m).collect())._2)
    (1 to 20).foreach(_ => Probe.sortMs())
    say(f"warm-up: join and clustering $clMs%.0f ms, enumeration ${enumMs.map(v => f"$v%.0f").mkString("/")} ms")
    cl
  }

  private def distinctSets(es: Array[Emitted]): Int = es.iterator.map(_.pattern.objects).distinct.size

  /** A pass's output as its length and an order-free hash of its patterns. */
  type Digest = (Int, Int)
  private def digest(es: Array[Emitted]): Digest =
    (es.length, MurmurHash3.unorderedHash(es.iterator.map(e => (e.pattern.objects, e.pattern.times)).toSet))

  /** A repeated pass must give the same output as the first. */
  private def samePass(label: String, first: Digest, again: Array[Emitted]): Seq[String] =
    if (digest(again) == first) Nil
    else Seq(s"$label pass output differs from the first pass")

  /** Largest cluster handed to `Reference.patterns`, whose cost is
    * exponential in cluster size.
    */
  private val ReferenceMaxMembers = 12

  private def checks(in: Input, cl: Clustering, fba: Seq[Pattern], vba: Seq[Pattern],
                     stream: Seq[Pattern]): Unit = {
    val (brute, bruteMs) = Stats.timed(Checks.bruteForcePairs(in.rows, in.p.eps))
    op("range join")(Checks.rangeJoin(brute, cl.pairs))
    val clusters = cl.clusters
    op("dbscan")(Checks.dbscan(in.rows, brute, in.p.minPts, clusters))
    op("FBA soundness")(Checks.patterns("FBA", fba, clusters, in.c))
    op("VBA soundness")(Checks.patterns("VBA", vba, clusters, in.c))
    op("FBA = VBA")(Checks.sameObjectSets("FBA vs VBA", fba, vba))
    op("stream = batch VBA")(Checks.sameObjectSets("stream vs batch VBA", stream, vba))
    val small = clusters.filter(_.members.length <= ReferenceMaxMembers)
    val (_, refMs) = Stats.timed(op("reference")(Checks.referenceContained(small, in.c, fba)))
    say(f"checks: ${brute.size} brute-force pairs ($bruteMs%.0f ms), ${clusters.length} clusters, " +
      f"reference on ${small.length} clusters of <= $ReferenceMaxMembers members ($refMs%.0f ms)")
  }

  // ----- traced run: the per-layer metrics -----

  private def traced(in: Input, ds: Dataset[SnapshotRow], batches: Seq[Seq[Gps]],
                     genMs: Double, clustering: Clustering): Result = {
    val tr = new Tracer(s"${in.name}-${in.seed}-${System.currentTimeMillis()}")
    val n = in.snapshots.toDouble
    val m = ArrayBuffer.empty[Metric]

    // Streaming: the replay with Spark counters, then time sync alone.
    val sBefore = counters.totals()
    val stream = tr.span("stream.replay")(replay(in, batches, "icpebench-traced")(())(_ => ()))
    attempted += stream.latMs.length
    val st = counters.totals() - sBefore
    val b = batches.length.toDouble
    m += Metric("stream.jobs_per_batch", st.jobs / b, "count")
    m += Metric("stream.tasks_per_batch", st.tasks / b, "count")
    m += Metric("stream.shuffle_kb_per_batch", st.shuffleBytes / 1024.0 / b, "KB")
    val sync = Layers.timeSync(in.ids, batches, tr)
    m += Metric("timesync.add_us_per_batch", Stats.median(sync.addMs) * 1000, "us")
    m += Metric("timesync.lag_snaps_p50", Stats.median(sync.lag), "snapshots")
    m += Metric("timesync.lag_snaps_max", sync.lag.max, "snapshots")
    m += Metric("timesync.held_records_max", sync.heldMax.toDouble, "count")

    // Driver-side, single-threaded pass over every layer; the first pass
    // only warms up the JIT.
    Layers.driverChain(in, new Tracer(tr.runId))
    val chain = Layers.driverChain(in, tr)
    val clusterMs = Seq("grid_allocate", "group_by_cell", "grid_query", "grid_sync", "dbscan",
      "partition").map(tr.ms).sum
    m += Metric("traj.generate_ms", genMs, "ms")
    m += Metric("grid_allocate.ms", tr.ms("grid_allocate"), "ms")
    m += Metric("grid_allocate.replicas_per_point", chain.replicas.toDouble / chain.points, "ratio")
    m += Metric("grid_query.ms", tr.ms("group_by_cell") + tr.ms("grid_query"), "ms")
    m += Metric("grid_query.pairs", chain.rawPairs.toDouble, "count")
    m += Metric("grid_query.max_cell_objects", chain.maxCellObjects.toDouble, "count")
    m += Metric("grid_sync.ms", tr.ms("grid_sync"), "ms")
    m += Metric("grid_sync.dup_pairs", chain.dupPairs.toDouble, "count")
    m += Metric("dbscan.ms", tr.ms("dbscan"), "ms")
    m += Metric("dbscan.clusters", chain.clusters.length.toDouble, "count")
    m += Metric("dbscan.clustered_points", chain.clusteredPoints.toDouble, "count")
    m += Metric("partition.ms", tr.ms("partition"), "ms")
    m += Metric("partition.rows", chain.partitions.length.toDouble, "count")
    m += Metric("partition.lemma3_dropped", chain.lemma3Dropped.toDouble, "count")
    m += Metric("fba.ms", tr.ms("fba"), "ms")
    m += Metric("fba.emitted", chain.fba.length.toDouble, "count")
    m += Metric("fba.emitted_per_pattern", chain.fba.length.toDouble / math.max(1, chain.fbaPatterns), "ratio")
    m += Metric("vba.ms", tr.ms("vba"), "ms")
    m += Metric("vba.emitted", chain.vba.length.toDouble, "count")
    m += Metric("vba.open_entries_end", chain.vbaOpenEnd.toDouble, "count")
    m += Metric("vba.cands_retained_end", chain.vbaCandsEnd.toDouble, "count")
    m += Metric("single_thread.detect_fba_ms_per_snap", (clusterMs + tr.ms("fba")) / n, "ms")
    m += Metric("single_thread.detect_vba_ms_per_snap", (clusterMs + tr.ms("vba")) / n, "ms")

    val strings = Layers.windowStrings(chain.partitions, in.c, limit = 20000)
    m += Metric("bits.contains_valid_ns", Layers.containsValidNs(strings, in.c, minMs = 300), "ns")

    // Spark: one plain FBA pass, then every layer in its own job group.
    val before = counters.totals()
    val (plain, plainMs) = Stats.timed(detect(ds, in, FbaMethod))
    val pass = counters.totals() - before
    m += Metric("spark.shuffle_records_per_snap", pass.shuffleRecords / n, "count")
    m += Metric("spark.tasks_per_snap", pass.tasks / n, "count")
    m += Metric("spark.jobs_per_snap", pass.jobs / n, "count")

    var staged: (Array[Emitted], Array[Emitted], Map[String, Double]) = null
    for (round <- 1 to 2) staged = stagedPass(in, ds, tr, round)
    val (fba, vba, groupMs) = staged
    op("staged FBA = plain FBA")(samePass("staged FBA", digest(plain), fba))
    m += Metric("spark.rjc_ms_per_snap", groupMs("rjc") / n, "ms")
    m += Metric("spark.dbscan_ms_per_snap", groupMs("dbscan") / n, "ms")
    m += Metric("spark.enum_fba_ms_per_snap", groupMs("enum_fba") / n, "ms")
    m += Metric("spark.enum_vba_ms_per_snap", groupMs("enum_vba") / n, "ms")
    m += Metric("spark.cell_task_skew", cellTaskSkew("rjc#2"), "ratio")
    // Tracing overhead: the traced (staged) FBA path against the plain pass,
    // both in this JVM, since two runs in fresh JVMs differ by more than the
    // overhead. The staged groups persist and count each layer's output, so
    // their timings include that materialization.
    val stagedFbaMs = groupMs("rjc") + groupMs("dbscan") + groupMs("enum_fba")
    m += Metric("trace.overhead_pct", (stagedFbaMs - plainMs) / plainMs * 100, "%")

    checks(in, clustering, fba.map(_.pattern), vba.map(_.pattern), stream.patterns)
    opts.traceOut.foreach(tr.write)
    say(s"traced: ${chain.points} points, ${chain.fbaPatterns} FBA object sets, " +
      s"${stream.latMs.length} stream samples")
    Result(failed == 0, attempted, failed, m.toSeq)
  }

  /** The batch path with every layer materialized in its own job group, so
    * the listener attributes tasks and shuffle to it. Returns FBA and VBA
    * output and each group's wall time.
    */
  private def stagedPass(in: Input, ds: Dataset[SnapshotRow], tr: Tracer, round: Int)
      : (Array[Emitted], Array[Emitted], Map[String, Double]) = {
    val times = scala.collection.mutable.LinkedHashMap.empty[String, Double]
    def group[A](name: String)(body: => A): A = {
      sc.setJobGroup(s"$name#$round", name)
      try {
        val (a, ms) = Stats.timed(tr.span(s"spark.$name")(body))
        times(name) = ms
        a
      } finally sc.clearJobGroup()
    }
    val pairs = group("rjc") {
      val d = RangeJoin.rjc(ds, in.p.eps, in.p.lg).persist()
      d.count()
      d
    }
    val clusters = group("dbscan") {
      val d = Dbscan.cluster(ds, pairs, in.p.minPts).persist()
      d.count()
      d
    }
    val fba = group("enum_fba")(ICPE.detectPatterns(clusters, in.c, FbaMethod).collect())
    val vba = group("enum_vba")(ICPE.detectPatterns(clusters, in.c, VbaMethod).collect())
    clusters.unpersist()
    pairs.unpersist()
    attempted += 2
    (fba, vba, times.toMap)
  }

  /** Max over mean shuffle records read per task in the GridQuery stage: the
    * first stage of the range-join group that reads a shuffle.
    */
  private def cellTaskSkew(group: String): Double =
    counters.stages(group).map(_._2).find(_.readRecordsPerTask.exists(_ > 0)) match {
      case Some(s) =>
        val r = s.readRecordsPerTask.map(_.toDouble)
        r.max / (r.sum / r.length)
      case None => 0.0
    }
}
