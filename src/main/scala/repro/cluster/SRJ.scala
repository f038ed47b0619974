package repro.cluster

import org.apache.spark.sql.Dataset
import repro.core.{GridObject, NeighborPair, RangeJoin, SnapshotRow}
import repro.index.{Grid, RTree}

/** Clustering baseline **SRJ** — the streaming range join of Zhang et al.
  * [36] (Storm), extended with DBSCAN like RJC (paper §7, "Comparison
  * Methods").
  *
  * It differs from RJC exactly in the two optimizations the paper proves as
  * Lemmas 1–2:
  *  - every location is replicated to *all* cells intersecting the full
  *    square range region (no upper-half pruning), and
  *  - each cell first builds its complete R-tree and only then runs a full
  *    square range query for every data and query object (no
  *    query-while-building).
  * Both data-data pairs and cross-cell pairs are therefore found twice and
  * must be de-duplicated in the sync step — the redundancy RJC removes.
  * Region edges are decided as in RJC: replication and R-tree probe use the
  * one widened `Grid.fullRegion`, and each hit passes the exact neighbour
  * test.
  */
object SRJ {

  def allocate(p: SnapshotRow, eps: Double, lg: Double): Iterator[GridObject] =
    RangeJoin.allocate(p, lg, Grid.fullRegion(p.x, p.y, eps))

  def gridQuery(objects: Iterator[GridObject], eps: Double): Iterator[NeighborPair] =
    RangeJoin.scanCell(objects) { (data, queries, emit) =>
      val rt = new RTree() // payload: the data object's index in `data`
      data.indices.foreach(i => rt.insert(i, data(i).x, data(i).y))
      (data.iterator ++ queries.iterator).foreach { o =>
        rt.query(Grid.fullRegion(o.x, o.y, eps)).foreach { j =>
          val v = data(j.toInt)
          if (v.id != o.id && RangeJoin.within(o, v, eps)) emit(o.id, v.id)
        }
      }
    }

  /** Full join: duplicates survive until the final `distinct` — the cost the
    * paper's lemmas eliminate in RJC.
    */
  def join(snapshots: Dataset[SnapshotRow], eps: Double, lg: Double): Dataset[NeighborPair] =
    RangeJoin.byCell(snapshots)(allocate(_, eps, lg))(gridQuery(_, eps)).distinct()
}
