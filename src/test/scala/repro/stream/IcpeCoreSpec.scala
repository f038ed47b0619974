package repro.stream

import org.scalatest.funsuite.AnyFunSuite
import repro.TestData
import repro.bench.Params
import repro.core._
import repro.enumeration._
import repro.traj.StreamGen
import scala.collection.mutable
import scala.util.Random

/** The streaming pipeline without a stream engine: time sync, per-snapshot
  * clustering and per-anchor VBA, checked against independently computed
  * clusters and VBA states, and on a long stream with faulty records.
  */
class IcpeCoreSpec extends AnyFunSuite {

  test("IcpeCore per-batch counters match Reference.dbscan and replayed VBA states") {
    val eps = 1.0
    val c = TestData.goldenConstraints(2)
    val rows = TestData.goldenStreamRows(eps, c)
    val p = ClusterParams(eps, minPts = 2, lg = 3.0)
    val core = new IcpeCore(p, c, expectedIds = (1L to 8L).toSet)
    val batches = TestData.gpsBatches(rows)
    val progress = batches.zipWithIndex.map { case (b, i) => core.ingest(i.toLong, b) }
    assert(core.lastProgress.contains(progress.last))
    core.finish()

    // Progress counters against independently computed results: the
    // clusters of Reference.dbscan, and VBA states replayed per anchor up to
    // each batch's snapshot.
    val clusters = Reference.dbscan(rows, eps, p.minPts)
    val parts = clusters.flatMap(IdPartitioner.partitionsLocal(_, c.m))
    assert(progress.map(_.batchId) == batches.indices.map(_.toLong))
    assert(progress.map(_.recordsIn) == batches.map(_.length.toLong))
    assert(progress.forall(_.dropped.total == 0))
    // Every snapshot fed is released, on the dense time axis from 0 (the
    // golden stream starts at 1, so snapshot 0 is released empty).
    val snapshotsFed = rows.map(_.time).max + 1
    assert(progress.map(_.snapshotsReleased).sum == snapshotsFed)
    assert(progress.map(_.clusters).sum == clusters.length)
    for ((pr, t) <- progress.zip(batches.map(_.head.time))) {
      val states = parts.filter(_.time <= t).groupBy(_.anchor).toSeq.map { case (a, ps) =>
        val st = new VbaState(a)
        ps.sortBy(_.time).foreach(r => VBA.onSnapshot(st, r.time, r.others.toSet, c))
        if (st.lastTime < t) VBA.onSnapshot(st, t, Set.empty, c)
        st
      }.filter(st => st.open.nonEmpty || st.cands.nonEmpty)
      assert(pr.liveAnchors == states.length, s"live anchors after snapshot $t")
      assert(pr.openEntries == states.map(_.open.size).sum, s"open entries after snapshot $t")
      assert(pr.retainedCandidates == states.map(_.cands.length).sum, s"candidates after snapshot $t")
      assert(pr.heldRecords == 0)
    }
    assert(progress.exists(_.openEntries > 0) && progress.exists(_.retainedCandidates > 0))
    assert(progress.last.liveAnchors < progress.map(_.liveAnchors).max) // states are dropped
    assert(Reference.distinctObjectSets(core.patterns.map(_.pattern)) ==
      TestData.goldenPatternsM2)
  }

  test("IcpeCore tolerates multi-snapshot batches") {
    val eps = 1.0
    val rows = TestData.goldenGeometry(eps)
    val c = TestData.goldenConstraints(3)
    val core = new IcpeCore(ClusterParams(eps, minPts = 2, lg = 3.0), c,
      expectedIds = (1L to 8L).toSet)
    val released = TestData.gpsBatches(rows).grouped(3).zipWithIndex
      .map { case (bs, i) => core.ingest(i.toLong, bs.flatten).snapshotsReleased }.sum
    core.finish()
    assert(released == rows.map(_.time).max + 1) // dense time axis from 0
    assert(Reference.distinctObjectSets(core.patterns.map(_.pattern)) ==
      TestData.goldenPatternsM3)
  }

  test("IcpeCore with no registered trajectories equals per-anchor VBA over Reference.dbscan") {
    // The streaming demo's setting: no trajectory is registered, so each one
    // is known from its first record on, and dropout makes some first
    // reports late.
    val cfg = Params.geolife.copy(nObjects = 120, nSnapshots = 60, dropout = 0.1)
    val rows = StreamGen.generate(cfg).toSeq
    val p = Params.clusterParams(cfg.world)
    val c = Params.defaultConstraints
    val core = new IcpeCore(p, c)
    val progress = TestData.gpsBatches(rows).zipWithIndex
      .map { case (b, i) => core.ingest(i.toLong, b) }
    core.finish()
    assert(rows.groupBy(_.id).values.exists(_.map(_.time).min > 0), "no late first report")

    // Fed in time order, no record is dropped, and every snapshot released
    // before the stream's end holds the clusters of all its records.
    val clusters = Reference.dbscan(rows, p.eps, p.minPts)
    val released = progress.map(_.snapshotsReleased).sum
    assert(progress.forall(_.dropped.total == 0))
    assert(progress.map(_.clusters).sum == clusters.count(_.time < released))

    assertPerAnchorVba(core, clusters, c)
  }

  test("soak: 10k snapshots with late, resent and NaN records keep state bounded") {
    val rng = new Random(5)
    val n = 8; val times = 10000
    val group = Seq(1L, 2L, 3L)
    val p = ClusterParams(eps = 1.0, minPts = 2, lg = 4.0)
    val c = Constraints(m = 2, k = 4, l = 2, g = 2)
    // One planted group: during its episodes each member sits on a chain
    // within eps of the next with probability 0.85; everyone else, and
    // every member outside an episode, is alone.
    var together = false
    val rows = (0 until times).flatMap { t =>
      if (rng.nextDouble() < 0.1) together = !together
      (1L to n).map { id =>
        if (together && group.contains(id) && rng.nextDouble() < 0.85)
          SnapshotRow(t, id, 0.9 * id, 0.0)
        else SnapshotRow(t, id, 100.0 * id, 50.0 + rng.nextDouble())
      }
    }
    val clean = TestData.gpsBatches(rows)

    // Batches of 1-3 snapshots, shuffled, with 5% of the records held back
    // one batch, plus resent copies of sent records and NaN copies.
    val core = new IcpeCore(p, c, expectedIds = (1L to n).toSet)
    var injectedResends, injectedNonFinite = 0L
    var sent, late = Vector.empty[Gps]
    val progress = mutable.ArrayBuffer.empty[BatchProgress]
    var rest = clean
    while (rest.nonEmpty) {
      val (now, after) = rest.splitAt(1 + rng.nextInt(3))
      rest = after
      val fresh = now.flatten
      val (delayed, onTime) = fresh.partition(_ => rng.nextDouble() < 0.05)
      val pool = sent ++ fresh
      val resent = Vector.fill(rng.nextInt(3))(pool(rng.nextInt(pool.length)))
      val broken = Vector.fill(rng.nextInt(2))(fresh(rng.nextInt(fresh.length)).copy(x = Double.NaN))
      injectedResends += resent.length
      injectedNonFinite += broken.length
      sent ++= fresh
      progress += core.ingest(progress.length, rng.shuffle(late ++ onTime ++ resent ++ broken))
      late = delayed.toVector
    }
    progress += core.ingest(progress.length, late)
    core.finish()

    assert(injectedResends > 1000 && injectedNonFinite > 1000)
    def dropped(reason: TimeSync.Drops => Long) = progress.map(pr => reason(pr.dropped)).sum
    assert(dropped(_.stale) + dropped(_.duplicate) == injectedResends)
    assert(dropped(_.nonFinite) == injectedNonFinite)
    assert(dropped(_.badLastTime) == 0 && dropped(_.unresolved) == 0)
    assert(progress.map(_.snapshotsReleased).sum == times)
    // State stays bounded by the planted group, not by the stream length:
    // only anchors 1 and 2 have larger-id partners, each open entry is one
    // of the group's three pairs, and late records hold back a few batches.
    assert(progress.last.heldRecords == 0)
    assert(progress.map(_.liveAnchors).max == 2)
    assert(progress.map(_.openEntries).max == 3)
    val maxCands = progress.map(_.retainedCandidates).max
    val maxHeld = progress.map(_.heldRecords).max
    assert(maxCands > 0 && maxCands <= 20, s"retained candidates: $maxCands")
    assert(maxHeld > 0 && maxHeld <= 6 * n, s"held records: $maxHeld")

    // The patterns are those of the fault-free stream.
    assertPerAnchorVba(core, Reference.dbscan(rows, p.eps, p.minPts), c)
  }

  /** `core`'s patterns are those of VBA run over each anchor's partitions of
    * `clusters`, row for row, and there is at least one.
    */
  private def assertPerAnchorVba(core: IcpeCore, clusters: Seq[ClusterRow], c: Constraints): Unit = {
    val parts = clusters.flatMap(IdPartitioner.partitionsLocal(_, c.m))
    val expected = parts.groupBy(_.anchor).toSeq.sortBy(_._1).flatMap { case (a, ps) =>
      Enumeration.detectLocal(a, ps.iterator, c, VbaMethod)
    }
    assert(expected.nonEmpty)
    assert(core.patterns.groupBy(_.pattern.objects.head) == expected.groupBy(_.pattern.objects.head))
  }
}
