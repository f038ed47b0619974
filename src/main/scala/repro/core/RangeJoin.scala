package repro.core

import org.apache.spark.sql.Dataset
import repro.index.{Grid, RTree, Rect}
import scala.collection.mutable.ArrayBuffer

/** A replicated location flowing into a grid-cell partition (Definition 12).
  * `isQuery = false` marks a data object (inserted into the cell's R-tree),
  * `isQuery = true` a query object (probes the cell's R-tree only).
  */
final case class GridObject(time: Int, cellKey: Long, isQuery: Boolean,
                            id: Long, x: Double, y: Double)

/** GR-index based range join **RJC** (paper §5.2): GridAllocate (Algorithm 1,
  * Lemma 1 upper-half replication), GridQuery (Algorithm 2, Lemma 2
  * query-while-building), GridSync (result collection).
  *
  * The join is computed per snapshot; cells of different snapshots are
  * independent partitions, which is how ICPE parallelizes across both space
  * and time ("we achieve the parallelism by clustering snapshots separately").
  */
object RangeJoin {

  /** Algorithm 1 (GridAllocate) for a single location: one data object for
    * the home cell plus query objects for every other cell intersecting the
    * upper half of the range region (Lemma 1).
    */
  def gridAllocate(p: SnapshotRow, eps: Double, lg: Double): Iterator[GridObject] =
    allocate(p, lg, Grid.upperRegion(p.x, p.y, eps))

  /** One data object for the home cell plus one query object for every
    * other cell `region` intersects. Shared by RJC and the SRJ baseline.
    */
  private[repro] def allocate(p: SnapshotRow, lg: Double, region: Rect): Iterator[GridObject] = {
    val home = Grid.key(p.x, p.y, lg)
    val data = GridObject(p.time, home, isQuery = false, p.id, p.x, p.y)
    val queries = Grid.cellsIn(region, lg, home)
      .iterator.map(k => GridObject(p.time, k, isQuery = true, p.id, p.x, p.y))
    Iterator.single(data) ++ queries
  }

  /** Algorithm 2 (GridQuery) for one (time, cell) partition.
    *
    * Data objects are processed incrementally: query the R-tree built so far
    * with the full square region, then insert (Lemma 2 — each in-cell pair is
    * reported exactly once). Query objects then probe the complete R-tree
    * with the *upper-half* region only, matching Lemma 1's replication, and
    * accept a data object only if it lies strictly above the query object,
    * or at the same y with a larger id. Two locations with equal y in
    * horizontally adjacent cells probe each other's cell; the id tie-break
    * keeps exactly one of the two reports, so every pair of the snapshot is
    * emitted exactly once across all cells. The probe regions are the
    * widened `Grid` regions GridAllocate replicates by, and each hit is
    * checked with the exact `|Δ| <= eps` test.
    * Pairs are emitted canonicalized (small id first).
    */
  def gridQuery(objects: Iterator[GridObject], eps: Double): Iterator[NeighborPair] =
    scanCell(objects) { (data, queries, emit) =>
      val rt = new RTree() // payload: the data object's index in `data`
      data.indices.foreach { i =>
        val o = data(i)
        rt.query(Grid.fullRegion(o.x, o.y, eps)).foreach { j =>
          val v = data(j.toInt)
          if (v.id != o.id && within(o, v, eps)) emit(o.id, v.id)
        }
        rt.insert(i, o.x, o.y)
      }
      queries.foreach { q =>
        rt.query(Grid.upperRegion(q.x, q.y, eps)).foreach { j =>
          val d = data(j.toInt)
          if (d.id != q.id && (d.y > q.y || d.id > q.id) && within(q, d, eps)) emit(q.id, d.id)
        }
      }
    }

  /** One (time, cell) partition split into its data and query objects for
    * `scan`, which reports each neighbour pair with `emit(a, b)`; the pairs
    * come out canonicalized (smaller id first). A cell without data objects
    * reports nothing. Shared by RJC and the SRJ/GDC baselines.
    */
  private[repro] def scanCell(objects: Iterator[GridObject])(
      scan: (ArrayBuffer[GridObject], ArrayBuffer[GridObject], (Long, Long) => Unit) => Unit)
      : Iterator[NeighborPair] = {
    val data    = new ArrayBuffer[GridObject]()
    val queries = new ArrayBuffer[GridObject]()
    objects.foreach(o => if (o.isQuery) queries += o else data += o)
    if (data.isEmpty) return Iterator.empty
    val time = data.head.time
    val out  = new ArrayBuffer[NeighborPair]()
    scan(data, queries, (a, b) => out += NeighborPair(time, math.min(a, b), math.max(a, b)))
    out.iterator
  }

  /** The neighbour test, with the same arithmetic as `Reference.rangeJoin`
    * and the SQL oracle; shared by RJC and the SRJ/GDC baselines.
    */
  private[repro] def within(a: GridObject, b: GridObject, eps: Double): Boolean =
    math.abs(a.x - b.x) <= eps && math.abs(a.y - b.y) <= eps

  /** The full distributed join: allocate, shuffle by (time, cell), query per
    * cell (GridSync collects the per-cell results). Lemmas 1–2 with the
    * y/id tie-break of `gridQuery` report every pair exactly once, so no
    * de-duplication pass is needed.
    */
  def rjc(snapshots: Dataset[SnapshotRow], eps: Double, lg: Double): Dataset[NeighborPair] =
    byCell(snapshots)(gridAllocate(_, eps, lg))(gridQuery(_, eps))

  /** The (time, cell) dataflow shared by RJC and the SRJ/GDC baselines:
    * `allocate` replicates each location to grid cells, the objects are
    * shuffled by (time, cell), and `scan` reports each cell's pairs.
    */
  private[repro] def byCell(snapshots: Dataset[SnapshotRow])(
      allocate: SnapshotRow => Iterator[GridObject])(
      scan: Iterator[GridObject] => Iterator[NeighborPair]): Dataset[NeighborPair] = {
    val spark = snapshots.sparkSession
    import spark.implicits._
    snapshots
      .flatMap(allocate)
      .groupByKey(o => (o.time, o.cellKey))
      .flatMapGroups((_, it) => scan(it))
  }
}
