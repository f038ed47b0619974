package repro.bench

import repro.SparkSpec
import repro.core.{ClusterParams, ClusterRow, Constraints, Pattern, Reference}
import repro.enumeration.Emitted
import repro.traj.{StreamGen, TrajConfig}

/** Unit tests for the benchmark harness (micro-batched clustering, metrics,
  * emission delay, median-of-reps) — the numbers EXPERIMENTS.md is built
  * from.
  */
class RunnerSpec extends SparkSpec {

  private val c = Constraints(2, 4, 2, 2)

  test("earliestDecidable: immediately valid prefix") {
    // <1,2,3,4> is valid at its 4th time.
    assert(Runner.earliestDecidable(Seq(1, 2, 3, 4, 5), c) == 4)
  }

  test("earliestDecidable: waits for the last segment to reach L") {
    // <1,2,3,5>: prefix of length 4 has last run <5> shorter than L; the
    // 5-long prefix <1,2,3,5,6> is the first valid one.
    assert(Runner.earliestDecidable(Seq(1, 2, 3, 5, 6), c) == 6)
  }

  test("earliestDecidable falls back to the last time") {
    // No prefix is valid (gap 3 > G); detectors would not emit this, but the
    // helper must still terminate.
    assert(Runner.earliestDecidable(Seq(1, 2, 6, 7), c) == 7)
  }

  test("meanEmissionDelay averages over distinct patterns only") {
    val p1 = Pattern(Seq(1L, 2L), Seq(1, 2, 3, 4)) // decidable at 4
    val p2 = Pattern(Seq(1L, 3L), Seq(2, 3, 4, 5)) // decidable at 5
    val emitted = Seq(
      Emitted(p1, 9),  // delay 5
      Emitted(p1, 12), // duplicate re-detection, ignored (later emit)
      Emitted(p2, 7),  // delay 2
    )
    assert(Runner.meanEmissionDelay(emitted, c) == (5 + 2) / 2.0)
  }

  test("meanEmissionDelay of no patterns is zero") {
    assert(Runner.meanEmissionDelay(Nil, c) == 0.0)
  }

  test("median takes the lower median wall") {
    var i = 0
    val walls = Seq(50.0, 10.0, 30.0)
    val (_, w) = Runner.median(3) { i += 1; ((), walls(i - 1)) }
    assert(w == 30.0)
    var j = 0
    val (_, w2) = Runner.median(2) { j += 1; ((), Seq(40.0, 20.0)(j - 1)) }
    assert(w2 == 20.0) // min for n = 2
  }

  test("metricsOf composes latency from processing and emission delay") {
    val cl = Seq(ClusterRow(1, 1L, Seq(1L, 2L, 3L)))
    val emitted = Seq(Emitted(Pattern(Seq(1L, 2L), Seq(1, 2, 3, 4)), 8)) // delay 4
    val m = Runner.metricsOf(clusterMs = 100, enumMs = 50, n = 10, emitted, c)
    assert(m.procMsPerSnap == 15.0)
    assert(m.meanDelaySnaps == 4.0)
    assert(m.latencyMs == 15.0 * 5)
    assert(m.throughputTps == 1000.0 / 15.0)
    assert(Runner.avgClusterSize(cl) == 3.0 && m.nPatterns == 1)
  }

  test("runClustering's micro-batches equal Reference.dbscan for every join") {
    val rows = StreamGen.generate(TrajConfig(nObjects = 40, nSnapshots = 120, world = 600.0,
      nGroups = 4, groupSizeMin = 3, groupSizeMax = 4, nHubs = 3, hubSigma = 8,
      speed = 2.0, dropout = 0.02, seed = 5L))
    assert(Runner.snapshots(rows) > 2 * Runner.batchSnapshots) // at least 3 micro-batches
    val p = ClusterParams(eps = 4.0, minPts = 3, lg = 30.0)
    val expected = Reference.dbscan(rows.toSeq, p.eps, p.minPts)
    // Non-vacuous: clusters form in the last micro-batch too.
    assert(expected.exists(_.time >= 2 * Runner.batchSnapshots))
    for (join <- Runner.joins.keys) {
      val (clusters, _) = Runner.runClustering(spark, rows, p, join)
      assert(clusters.sortBy(r => (r.time, r.clusterId)) == expected, join)
    }
  }

  test("constraints sweep ranges preserve the paper's Table 3 spread") {
    assert(Params.epsPcts == Seq(0.0002, 0.0004, 0.0006, 0.0008, 0.0010, 0.0012))
    assert(Params.lgPcts.last / Params.lgPcts.head == 32.0) // 0.2% .. 6.4%
    assert(Params.ms.length == 5 && Params.ks.length == 5)
    assert(Params.nodes == Seq(1, 2, 4, 6, 8, 10))
  }

  test("default constraints are a valid CP parameterization") {
    val d = Params.defaultConstraints
    assert(d.m >= 2 && d.l <= d.k && d.eta > d.k)
  }
}
