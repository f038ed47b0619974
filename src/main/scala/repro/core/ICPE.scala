package repro.core

import org.apache.spark.sql.Dataset
import repro.enumeration.{Emitted, EnumMethod, Enumeration, FbaMethod, IdPartitioner}

/** The end-to-end ICPE pipeline (paper §4, Fig. 3): snapshots → GR-index
  * range join → DBSCAN cluster snapshots → id-based partitions → pattern
  * enumeration. Each stage is a Dataset transformation so the same code runs
  * in batch benchmarks and inside Structured Streaming `foreachBatch`.
  */
object ICPE {

  /** Phase 1 — indexed clustering: RJC (GridAllocate/GridQuery/GridSync) then
    * DBSCAN on the neighbor stream.
    */
  def clusterSnapshots(snapshots: Dataset[SnapshotRow], p: ClusterParams): Dataset[ClusterRow] = {
    val neighbors = RangeJoin.rjc(snapshots, p.eps, p.lg)
    Dbscan.cluster(snapshots, neighbors, p.minPts)
  }

  /** Phase 1 for one snapshot, in-process: the same GridAllocate → GridQuery
    * per cell → DBSCAN functions as [[clusterSnapshots]], without Spark. The
    * streaming path clusters each released snapshot this way, so a
    * micro-batch costs one Spark job (its `collect`) and no shuffle; the
    * cell-distributed plan is kept for batches of many snapshots.
    * All `rows` must belong to snapshot `time`.
    */
  def clusterLocal(time: Int, rows: Seq[SnapshotRow], p: ClusterParams): Seq[ClusterRow] = {
    val pairs = rows.flatMap(RangeJoin.gridAllocate(_, p.eps, p.lg))
      .groupBy(_.cellKey).valuesIterator
      .flatMap(cell => RangeJoin.gridQuery(cell.iterator, p.eps))
      .toVector
    Dbscan.clusterLocal(time, Nil, pairs, p.minPts)
  }

  /** Phase 2 — pattern enumeration: id-based partitions (§6.1) of the
    * cluster snapshots, shuffled to their anchor's subtask.
    */
  def detectPatterns(clusters: Dataset[ClusterRow], c: Constraints,
                     method: EnumMethod = FbaMethod): Dataset[Emitted] = {
    val spark = clusters.sparkSession
    import spark.implicits._
    clusters.flatMap(IdPartitioner.partitionsLocal(_, c.m))
      .groupByKey(_.anchor)
      .flatMapGroups((anchor, rows) => Enumeration.detectLocal(anchor, rows, c, method).iterator)
  }

  /** Full pipeline for a (finite prefix of a) snapshot stream. */
  def run(snapshots: Dataset[SnapshotRow], p: ClusterParams, c: Constraints,
          method: EnumMethod = FbaMethod): Dataset[Emitted] =
    detectPatterns(clusterSnapshots(snapshots, p), c, method)
}
