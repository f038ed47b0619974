package repro.traj

import repro.SparkSpec
import repro.bench.Params
import repro.core.{ClusterParams, Constraints, Reference, ICPE}

/** Generator sanity: determinism, bounds, planted structure that actually
  * produces clusters and patterns at the benchmark parameters.
  */
class TrajGenSpec extends SparkSpec {

  import spark.implicits._

  private val cfg = TrajConfig(nObjects = 120, nSnapshots = 50, world = 2000.0,
    nGroups = 6, groupSizeMin = 4, groupSizeMax = 7, nHubs = 4, hubSigma = 10,
    speed = 2.0, dropout = 0.05, seed = 11L)

  test("generation is deterministic in (config, seed)") {
    val a = StreamGen.generate(cfg)
    val b = StreamGen.generate(cfg)
    assert(a.toSeq == b.toSeq)
  }

  test("different seeds give different data") {
    val a = StreamGen.generate(cfg).toSeq
    val b = StreamGen.generate(cfg.copy(seed = 12L)).toSeq
    assert(a != b)
  }

  test("row counts: every object reports almost every snapshot") {
    val rows = StreamGen.generate(cfg).toSeq
    val expected = cfg.nObjects.toLong * cfg.nSnapshots
    assert(rows.length > expected * (1 - 3 * cfg.dropout))
    assert(rows.length <= expected)
    assert(rows.map(_.id).distinct.length == cfg.nObjects)
    assert(rows.map(_.time).distinct.sorted == (0 until cfg.nSnapshots))
  }

  test("positions stay within a sane envelope of the world") {
    val rows = StreamGen.generate(cfg).toSeq
    assert(rows.forall(r => r.x > -cfg.world && r.x < 2 * cfg.world &&
                            r.y > -cfg.world && r.y < 2 * cfg.world))
  }

  test("group sizes respect the configured bounds") {
    val sizes = StreamGen.groupSizes(cfg)
    assert(sizes.length == cfg.nGroups)
    assert(sizes.forall(s => s >= cfg.groupSizeMin && s <= cfg.groupSizeMax))
  }

  test("groupOf maps the leading id range onto groups consistently") {
    val sizes = StreamGen.groupSizes(cfg)
    val total = sizes.sum
    val assigned = (0L until total).flatMap(id => StreamGen.groupOf(cfg, id))
    assert(assigned.length == total)
    assert(assigned.groupBy(identity).view.mapValues(_.size).toMap ==
      sizes.indices.map(g => g -> sizes(g)).toMap)
    assert(StreamGen.groupOf(cfg, total).isEmpty)
  }

  test("group members co-locate during on-episodes (clusters form)") {
    val rows = StreamGen.generate(cfg).toSeq
    val eps = 4.0
    val clusters = Reference.dbscan(rows.filter(_.time < 10), eps, 3)
    assert(clusters.nonEmpty, "expected planted groups to form clusters")
  }

  test("benchmark-scale config plants detectable patterns") {
    val small = TrajConfig(nObjects = 100, nSnapshots = 60, world = 2000.0,
      nGroups = 6, groupSizeMin = 4, groupSizeMax = 7, nHubs = 4, hubSigma = 10,
      speed = 2.0, dropout = 0.03, seed = 21L)
    val ds = spark.createDataset(StreamGen.generate(small).toSeq)
    val p = ClusterParams(eps = 2000.0 * 0.002, minPts = 3, lg = 2000.0 * 0.02)
    val clusters = ICPE.clusterSnapshots(ds, p).collect().toSeq
    val pats = Reference.patterns(clusters, Constraints(3, 8, 2, 2))
    assert(pats.nonEmpty, "expected co-movement patterns from planted groups")
  }

  test("episodes produce both on and off stretches") {
    val ep = StreamGen.episodes(new scala.util.Random(1), 500)
    assert(ep.count(identity) > 250 && ep.count(!_) > 10)
  }

  test("the benchmark's free-space streams are pinned record for record") {
    // Full-size copies, so the digests do not depend on BENCH_SCALE.
    val pinned = Seq(
      ("geolife", Params.geolife.copy(nObjects = 2000, nSnapshots = 100), 194022,
        "2ceb3c6e88b4c07326104ea13c3187901d118acf0e89a0055c100d478b3dee63"),
      ("taxi", Params.taxi.copy(nObjects = 2400, nSnapshots = 100), 225604,
        "ad16f0f2fe146d5a811a88cf3cfe43efa1d02cfef05593b8747b24843eda8188"),
      ("fig14Taxi", Params.fig14Taxi.copy(nObjects = 5000, nSnapshots = 30), 141276,
        "1a696d423d5c5778d7e3bb2199b01b09d1ffed6aac8664ebf5f3089801a3c2e7"))
    val got = pinned.map { case (name, cfg, _, _) =>
      (name, StreamDigest.of(cfg.nObjects)(TrajGen.genObject(cfg, _))) }
    assert(got == pinned.map { case (name, _, count, sha) => (name, (count, sha)) })
  }
}
