package repro.stream

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import repro.{SparkSpec, TestData}
import repro.core._
import repro.enumeration._
import scala.collection.mutable

/** Structured Streaming integration: the foreachBatch ICPE pipeline must
  * match the batch results.
  */
class StreamingSpec extends SparkSpec {

  import spark.implicits._

  private def toGpsStream(rows: Seq[SnapshotRow]): Seq[Seq[Gps]] = {
    val lastSeen = mutable.HashMap.empty[Long, Int]
    rows.groupBy(_.time).toSeq.sortBy(_._1).map { case (t, rs) =>
      rs.sortBy(_.id).map { r =>
        val last = lastSeen.getOrElse(r.id, -1)
        lastSeen(r.id) = t
        Gps(r.id, t, r.x, r.y, last)
      }
    }
  }

  test("StreamingICPE (foreachBatch) equals the batch pipeline on the golden stream") {
    val eps = 1.0
    val c = TestData.goldenConstraints(2)
    // G+1 trailing snapshots with every object alone finalize the open VBA
    // entries while the stream runs, not only at finish().
    val quietTail = for (t <- 9 to 9 + c.g; id <- 1L to 8L)
      yield SnapshotRow(t, id, 100.0 * eps * id, -500.0 * eps)
    val rows = TestData.goldenGeometry(eps) ++ quietTail
    val p = ClusterParams(eps, minPts = 2, lg = 3.0)

    val icpe = new StreamingICPE(spark, p, c, expectedIds = (1L to 8L).toSet)
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val source = MemoryStream[Gps]
    val query = icpe.start(source.toDS(), "golden-stream")
    val batches = toGpsStream(rows)
    val progress = mutable.ArrayBuffer.empty[BatchProgress]
    try {
      batches.foreach { batch =>
        source.addData(batch)
        query.processAllAvailable()
        progress += icpe.lastProgress.get
      }
    } finally query.stop()
    icpe.finish()

    // Progress counters against independently computed results: the
    // clusters of Reference.dbscan, and VBA states replayed per anchor up to
    // each batch's snapshot.
    val clusters = Reference.dbscan(rows, eps, p.minPts)
    val parts = clusters.flatMap(IdPartitioner.partitionsLocal(_, c.m))
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

    val batchResult = ICPE.run(spark.createDataset(rows), p, c, VbaMethod).collect()
    assert(Reference.distinctObjectSets(icpe.patterns.map(_.pattern)) ==
      Reference.distinctObjectSets(batchResult.map(_.pattern).toSeq))
    assert(Reference.distinctObjectSets(icpe.patterns.map(_.pattern)) ==
      TestData.goldenPatternsM2)
  }

  test("StreamingICPE tolerates multi-snapshot batches") {
    val eps = 1.0
    val rows = TestData.goldenGeometry(eps)
    val c = TestData.goldenConstraints(3)
    val p = ClusterParams(eps, minPts = 2, lg = 3.0)
    val icpe = new StreamingICPE(spark, p, c, expectedIds = (1L to 8L).toSet)
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val source = MemoryStream[Gps]
    val query = icpe.start(source.toDS(), "golden-stream-2")
    var released = 0
    try {
      toGpsStream(rows).grouped(3).foreach { batches =>
        source.addData(batches.flatten)
        query.processAllAvailable()
        released += icpe.lastProgress.get.snapshotsReleased
      }
    } finally query.stop()
    icpe.finish()
    assert(released == rows.map(_.time).max + 1) // dense time axis from 0
    assert(Reference.distinctObjectSets(icpe.patterns.map(_.pattern)) ==
      TestData.goldenPatternsM3)
  }

  test("BatchProgress renders as one JSON line") {
    val pr = BatchProgress(3, 10, TimeSync.Drops(nonFinite = 1, stale = 2), 1, 4, 5, 6, 7, 8)
    assert(pr.toJson ==
      """{"batchId":3,"recordsIn":10,"dropped":{"nonFinite":1,"badLastTime":0,"stale":2,""" +
      """"duplicate":0,"unresolved":0},"snapshotsReleased":1,"clusters":4,"liveAnchors":5,""" +
      """"openEntries":6,"retainedCandidates":7,"heldRecords":8}""")
  }
}
