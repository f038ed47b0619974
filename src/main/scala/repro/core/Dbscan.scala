package repro.core

import org.apache.spark.sql.Dataset
import scala.collection.mutable

/** DBSCAN over the neighbor stream produced by the range join (paper §3.2 and
  * §5.3). The O(n) per-snapshot pass identifies core points from neighbor
  * counts, unions cores connected by an eps-edge, and attaches density
  * reachable border points; noise belongs to no cluster.
  *
  * Cluster ids are the smallest core id of each cluster and border points
  * reachable from several clusters go to the smallest cluster id, so results
  * are deterministic (important for the pattern-detection golden tests).
  */
object Dbscan {

  /** Cluster one snapshot given its eps-neighbor pairs. The point set is
    * `points` together with the pairs' endpoints; with `minPts >= 2` a point
    * without a neighbor is noise, so callers may pass `Nil` for `points`.
    *
    * `minPts` counts the point itself (standard DBSCAN, consistent with the
    * paper's Fig. 2 example at time 3: a chain o2..o8 with minPts = 3 has
    * cores o3..o7 and borders o2, o8).
    */
  def clusterLocal(time: Int, points: Iterable[Long], pairs: Iterable[NeighborPair],
                   minPts: Int): Seq[ClusterRow] = {
    val degree = mutable.HashMap.empty[Long, Int]
    points.foreach(degree.getOrElseUpdate(_, 0))
    def touch(x: Long): Unit = degree(x) = degree.getOrElse(x, 0) + 1
    pairs.foreach { p => touch(p.a); touch(p.b) }

    // Union-find over the cores: the larger root is linked under the smaller,
    // so a component's root is its smallest core id, the cluster id.
    val parent = mutable.HashMap.empty[Long, Long]
    degree.foreach { case (x, d) => if (1 + d >= minPts) parent(x) = x }
    def find(x: Long): Long = {
      var r = x
      while (parent(r) != r) r = parent(r)
      var c = x
      while (parent(c) != r) { val n = parent(c); parent(c) = r; c = n }
      r
    }
    pairs.foreach { p =>
      if (parent.contains(p.a) && parent.contains(p.b)) {
        val (ra, rb) = (find(p.a), find(p.b))
        if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
      }
    }

    // Border points: a non-core next to a core joins the smallest such root.
    val border = mutable.HashMap.empty[Long, Long]
    def attach(b: Long, core: Long): Unit =
      if (parent.contains(core) && !parent.contains(b))
        border(b) = math.min(find(core), border.getOrElse(b, Long.MaxValue))
    pairs.foreach { p => attach(p.b, p.a); attach(p.a, p.b) }

    degree.keysIterator
      .flatMap(x => if (parent.contains(x)) Some(find(x) -> x) else border.get(x).map(_ -> x))
      .toVector.groupMap(_._1)(_._2).toVector.sortBy(_._1)
      .map { case (cid, ms) => ClusterRow(time, cid, ms.sorted) }
  }

  /** Distributed clustering: group the range join's neighbor pairs by time
    * and run the linear local pass over each group — one group per snapshot,
    * ICPE's snapshot-level parallelism; the session's shuffle settings decide
    * how many tasks run the groups. With `minPts >= 2` a point without a
    * neighbor is noise, so the pairs alone decide every cluster; `snapshots`
    * is unused and kept for callers that pass the join's input alongside its
    * output.
    */
  def cluster(snapshots: Dataset[SnapshotRow], neighbors: Dataset[NeighborPair],
              minPts: Int): Dataset[ClusterRow] = {
    require(minPts >= 2, s"distributed DBSCAN needs minPts >= 2, got $minPts")
    val spark = neighbors.sparkSession
    import spark.implicits._
    neighbors.groupByKey(_.time).flatMapGroups { (time, prs) =>
      clusterLocal(time, Nil, prs.toVector, minPts).iterator
    }
  }
}
