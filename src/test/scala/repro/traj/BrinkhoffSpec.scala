package repro.traj

import org.scalatest.funsuite.AnyFunSuite
import repro.bench.Params

/** Network-based generator sanity: determinism, on-network positions,
  * speed bounds, planted groups.
  */
class BrinkhoffSpec extends AnyFunSuite {

  private val cfg = BrinkhoffConfig(nObjects = 80, nSnapshots = 40, nodes = 10,
    edge = 100.0, nGroups = 4, seed = 3L)

  test("generation is deterministic") {
    val a = StreamGen.generate(cfg)
    val b = StreamGen.generate(cfg)
    assert(a.toSeq == b.toSeq)
  }

  test("world extent follows the lattice") {
    assert(cfg.world == 1000.0)
    val rows = StreamGen.generate(cfg).toSeq
    assert(rows.forall(r => r.x >= -cfg.edge && r.x <= cfg.world + cfg.edge &&
                            r.y >= -cfg.edge && r.y <= cfg.world + cfg.edge))
  }

  test("non-group objects move along lattice edges (one axis-aligned coordinate)") {
    val free = StreamGen.generate(cfg).toSeq
      .filter(r => StreamGen.groupOf(cfg, r.id).isEmpty)
    free.foreach { r =>
      val onX = math.abs(r.x / cfg.edge - math.round(r.x / cfg.edge)) < 1e-6
      val onY = math.abs(r.y / cfg.edge - math.round(r.y / cfg.edge)) < 1e-6
      assert(onX || onY, s"off-network position $r")
    }
  }

  test("per-step displacement is bounded by the maximum speed") {
    val rows = StreamGen.generate(cfg).toSeq
      .filter(r => StreamGen.groupOf(cfg, r.id).isEmpty)
    rows.groupBy(_.id).foreach { case (_, rs) =>
      rs.sortBy(_.time).sliding(2).foreach {
        case Seq(a, b) if b.time == a.time + 1 =>
          val d = math.abs(a.x - b.x) + math.abs(a.y - b.y)
          assert(d <= Brinkhoff.SpeedMax + 1e-6, s"jump of $d between $a and $b")
        case _ =>
      }
    }
  }

  test("group members stay close to their leader during on-episodes") {
    // With episodes mostly on, group members must be mutually near for most
    // of the stream: check that a substantial fraction of snapshots has the
    // whole first group within a tight box.
    val rows = StreamGen.generate(cfg).toSeq
    val g0 = (0L until StreamGen.groupSizes(cfg)(0).toLong)
    val box = 4 * StreamGen.GroupJitter
    val together = (0 until cfg.nSnapshots).count { t =>
      val pos = rows.filter(r => r.time == t && g0.contains(r.id))
      pos.length == g0.size && {
        val xs = pos.map(_.x); val ys = pos.map(_.y)
        (xs.max - xs.min) <= box && (ys.max - ys.min) <= box
      }
    }
    assert(together > cfg.nSnapshots / 3, s"group together only $together snapshots")
  }

  test("group sizes and id mapping are consistent") {
    val sizes = StreamGen.groupSizes(cfg)
    assert(sizes.length == cfg.nGroups)
    val total = sizes.sum
    assert((0L until total).forall(id => StreamGen.groupOf(cfg, id).isDefined))
    assert(StreamGen.groupOf(cfg, total).isEmpty)
  }

  test("the benchmark's lattice streams are pinned record for record") {
    // Full-size copies, so the digests do not depend on BENCH_SCALE.
    val pinned = Seq(
      ("brinkhoff", Params.brinkhoff.copy(nObjects = 2000, nSnapshots = 100), 195925,
        "5dbc96a0ae671a619335ee05de01c552e184ae43154b663d1dd663e1d4c699d2"),
      ("fig14Brinkhoff", Params.fig14Brinkhoff.copy(nObjects = 6000, nSnapshots = 30), 176365,
        "2fb73c55ac06fbcfb3592f40eb8bc1221de77172b861ddeb63dcc4bb901a335e"))
    val got = pinned.map { case (name, cfg, _, _) =>
      (name, StreamDigest.of(cfg.nObjects)(Brinkhoff.genObject(cfg, _))) }
    assert(got == pinned.map { case (name, _, count, sha) => (name, (count, sha)) })
  }
}
