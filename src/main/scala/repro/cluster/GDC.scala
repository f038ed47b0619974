package repro.cluster

import org.apache.spark.sql.Dataset
import repro.core.{GridObject, NeighborPair, RangeJoin, SnapshotRow}
import repro.index.Grid

/** Clustering baseline **GDC** — grid-based DBSCAN [14] adapted to the
  * distributed setting (paper §7, "Comparison Methods").
  *
  * GDC partitions space into cells of width eps (NOT the tunable l_g — its
  * performance is flat in Fig. 11), replicates each location to the 3x3
  * neighborhood, and scans candidates by brute force without any local index.
  * The small cell width yields very many partitions, which is why the paper
  * finds it slower than RJC.
  */
object GDC {

  def allocate(p: SnapshotRow, eps: Double): Iterator[GridObject] = {
    val cx = Grid.cell(p.x, eps)
    val cy = Grid.cell(p.y, eps)
    val out = for {
      dx <- -1 to 1
      dy <- -1 to 1
    } yield GridObject(p.time, Grid.pack(cx + dx, cy + dy),
                       isQuery = !(dx == 0 && dy == 0), p.id, p.x, p.y)
    out.iterator
  }

  /** Per-cell brute force: all data-data pairs (each found once here, but
    * cross-cell pairs are found from both sides) and data-query pairs.
    */
  def cellScan(objects: Iterator[GridObject], eps: Double): Iterator[NeighborPair] =
    RangeJoin.scanCell(objects) { (data, queries, emit) =>
      var i = 0
      while (i < data.length) {
        var j = i + 1
        while (j < data.length) {
          if (RangeJoin.within(data(i), data(j), eps)) emit(data(i).id, data(j).id)
          j += 1
        }
        queries.foreach { q =>
          if (q.id != data(i).id && RangeJoin.within(q, data(i), eps)) emit(q.id, data(i).id)
        }
        i += 1
      }
    }

  def join(snapshots: Dataset[SnapshotRow], eps: Double): Dataset[NeighborPair] =
    RangeJoin.byCell(snapshots)(allocate(_, eps))(cellScan(_, eps)).distinct()
}
