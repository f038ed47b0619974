package repro.stream

import repro.core._
import repro.enumeration._
import scala.collection.mutable

/** The streaming ICPE pipeline after record delivery (paper §4), with no
  * stream engine in it: each batch of GPS records passes through
  * [[TimeSync]] (snapshot assembly is inherently sequential). Every snapshot
  * it releases is clustered in-process with the GR-index range join + DBSCAN
  * functions ([[ICPE.clusterLocal]]): one snapshot of a few thousand points
  * costs milliseconds on one thread, while a distributed plan per snapshot
  * costs several jobs and shuffles. The resulting id-based partitions advance
  * one VBA state per live anchor; an anchor's state is dropped once it holds
  * no open entry and no candidate, so state stays bounded on a long stream.
  * Results accumulate in `patterns`; [[lastProgress]] describes the latest
  * batch. [[StreamingICPE]] feeds it from Structured Streaming.
  */
class IcpeCore(p: ClusterParams, c: Constraints, expectedIds: Set[Long] = Set.empty) {

  private val sync = new TimeSync(expectedIds)
  private val vba = mutable.HashMap.empty[Long, VbaState]
  private val results = mutable.ArrayBuffer.empty[Emitted]
  @volatile private var progress: Option[BatchProgress] = None

  def patterns: Seq[Emitted] = results.synchronized(results.toVector)

  /** Counters of the latest batch (only the last one is kept). */
  def lastProgress: Option[BatchProgress] = progress

  /** Time-syncs one batch of records, clusters and enumerates every snapshot
    * it completes, and returns the batch's counters.
    */
  def ingest(batchId: Long, records: Iterable[Gps]): BatchProgress = {
    val dropsBefore = sync.dropped
    val snaps = sync.addAll(records)
    val clusters = processSnapshots(snaps)
    val pr = BatchProgress(batchId, records.size, sync.dropped - dropsBefore, snaps.length,
      clusters, vba.size, vba.valuesIterator.map(_.open.size.toLong).sum,
      vba.valuesIterator.map(_.cands.length.toLong).sum, sync.heldRecords)
    progress = Some(pr)
    pr
  }

  /** Clusters each snapshot and ticks every live anchor (zero fill for
    * anchors absent from it); returns the number of clusters found.
    */
  private def processSnapshots(snaps: Seq[(Int, Seq[Gps])]): Int = {
    var clusters = 0
    for ((t, rs) <- snaps) {
      val cls = ICPE.clusterLocal(t, rs.map(r => SnapshotRow(t, r.id, r.x, r.y)), p)
      clusters += cls.length
      val parts = cls.iterator.flatMap(IdPartitioner.partitionsLocal(_, c.m))
        .map(pr => pr.anchor -> pr.others.toSet).toMap
      for (a <- (vba.keySet ++ parts.keySet).toSeq.sorted) {
        val st = vba.getOrElseUpdate(a, new VbaState(a))
        val emitted = VBA.onSnapshot(st, t, parts.getOrElse(a, Set.empty), c)
        results.synchronized(results ++= emitted)
        // A fresh state is equivalent: zero-filling an empty one emits nothing.
        if (st.open.isEmpty && st.cands.isEmpty) vba.remove(a)
      }
    }
    clusters
  }

  /** Drain the time-sync buffer and finalize all VBA states (stream end). */
  def finish(): Unit = {
    processSnapshots(sync.close())
    for ((_, st) <- vba.toSeq.sortBy(_._1)) {
      val emitted = VBA.flush(st, c)
      results.synchronized(results ++= emitted)
    }
  }
}

/** Progress of one [[IcpeCore]] batch: what came in, what [[TimeSync]]
  * rejected, what was released and clustered, and the state held afterwards
  * (live VBA anchors, their open entries and retained candidates, records
  * held by time sync).
  */
final case class BatchProgress(batchId: Long, recordsIn: Long, dropped: TimeSync.Drops,
                               snapshotsReleased: Int, clusters: Int, liveAnchors: Int,
                               openEntries: Long, retainedCandidates: Long,
                               heldRecords: Long) {
  /** One JSON line. */
  def toJson: String = {
    val d = dropped
    s"""{"batchId":$batchId,"recordsIn":$recordsIn,"dropped":{"nonFinite":${d.nonFinite},""" +
      s""""badLastTime":${d.badLastTime},"stale":${d.stale},"duplicate":${d.duplicate},""" +
      s""""unresolved":${d.unresolved}},"snapshotsReleased":$snapshotsReleased,""" +
      s""""clusters":$clusters,"liveAnchors":$liveAnchors,"openEntries":$openEntries,""" +
      s""""retainedCandidates":$retainedCandidates,"heldRecords":$heldRecords}"""
  }
}
