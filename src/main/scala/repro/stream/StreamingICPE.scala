package repro.stream

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.streaming.{OutputMode, StreamingQuery}
import org.slf4j.LoggerFactory
import repro.core._
import repro.enumeration._
import scala.collection.mutable

/** Structured Streaming deployment of ICPE (paper §4, ported from Flink).
  *
  * Each micro-batch of GPS records is collected to the driver — the batch's
  * only Spark job — and passes through [[TimeSync]] (snapshot assembly is
  * inherently sequential). Every snapshot it releases is clustered in-process
  * with the GR-index range join + DBSCAN functions ([[ICPE.clusterLocal]]):
  * one snapshot of a few thousand points costs milliseconds on one thread,
  * while a distributed plan per snapshot costs several jobs and shuffles.
  * The resulting id-based partitions advance one VBA state per live anchor;
  * an anchor's state is dropped once it holds no open entry and no
  * candidate, so state stays bounded on a long stream. Results accumulate in
  * `patterns`; [[lastProgress]] describes the latest micro-batch.
  */
final class StreamingICPE(spark: SparkSession, p: ClusterParams, c: Constraints,
                          expectedIds: Set[Long] = Set.empty) {

  private val sync = new TimeSync(expectedIds)
  private val vba = mutable.HashMap.empty[Long, VbaState]
  private val results = mutable.ArrayBuffer.empty[Emitted]
  @volatile private var progress: Option[BatchProgress] = None

  def patterns: Seq[Emitted] = results.synchronized(results.toVector)

  /** Counters of the latest micro-batch (only the last one is kept). */
  def lastProgress: Option[BatchProgress] = progress

  /** `foreachBatch` body. */
  def processBatch(batch: Dataset[Gps], batchId: Long): Unit = {
    val records = batch.collect()
    val dropsBefore = sync.dropped
    val snaps = sync.addAll(records)
    val clusters = processSnapshots(snaps)
    val pr = BatchProgress(batchId, records.length, sync.dropped - dropsBefore, snaps.length,
      clusters, vba.size, vba.valuesIterator.map(_.open.size.toLong).sum,
      vba.valuesIterator.map(_.cands.length.toLong).sum, sync.heldRecords)
    progress = Some(pr)
    if (StreamingICPE.log.isInfoEnabled) StreamingICPE.log.info(pr.toJson)
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

  /** Attach to a streaming Dataset of GPS records. */
  def start(records: Dataset[Gps], queryName: String = "icpe"): StreamingQuery =
    records.writeStream
      .queryName(queryName)
      .outputMode(OutputMode.Update())
      .foreachBatch(processBatch _)
      .start()
}

object StreamingICPE {
  private val log = LoggerFactory.getLogger(classOf[StreamingICPE])
}

/** Progress of one `StreamingICPE` micro-batch: what came in, what
  * [[TimeSync]] rejected, what was released and clustered, and the state
  * held afterwards (live VBA anchors, their open entries and retained
  * candidates, records held by time sync).
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
