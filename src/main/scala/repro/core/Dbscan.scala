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

  /** Cluster one snapshot given its points and eps-neighbor pairs.
    *
    * `minPts` counts the point itself (standard DBSCAN, consistent with the
    * paper's Fig. 2 example at time 3: a chain o2..o8 with minPts = 3 has
    * cores o3..o7 and borders o2, o8).
    */
  def clusterLocal(time: Int, points: Iterable[Long], pairs: Iterable[NeighborPair],
                   minPts: Int): Seq[ClusterRow] = {
    val adj = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]
    def edge(a: Long, b: Long): Unit =
      adj.getOrElseUpdate(a, new mutable.ArrayBuffer[Long]()) += b
    pairs.foreach { p => edge(p.a, p.b); edge(p.b, p.a) }

    val isCore = mutable.HashSet.empty[Long]
    val allPoints = points.toSeq
    allPoints.foreach { p =>
      if (1 + adj.get(p).map(_.length).getOrElse(0) >= minPts) isCore += p
    }
    if (isCore.isEmpty) return Nil

    // Union-find over core points; components connected by core-core edges.
    val parent = mutable.HashMap.empty[Long, Long]
    def find(x: Long): Long = {
      var r = x
      while (parent(r) != r) r = parent(r)
      var c = x
      while (parent(c) != r) { val n = parent(c); parent(c) = r; c = n }
      r
    }
    isCore.foreach(c => parent(c) = c)
    pairs.foreach { p =>
      if (isCore(p.a) && isCore(p.b)) {
        val (ra, rb) = (find(p.a), find(p.b))
        if (ra != rb) parent(math.max(ra, rb)) = math.min(ra, rb)
      }
    }

    // The larger root is linked under the smaller, so a component's root is
    // its smallest core id: the cluster id.
    val members = mutable.HashMap.empty[Long, mutable.TreeSet[Long]]
    isCore.foreach { c =>
      members.getOrElseUpdate(find(c), mutable.TreeSet.empty[Long]) += c
    }
    // Border points: density reachable from a core; deterministic assignment
    // to the smallest eligible cluster id.
    allPoints.foreach { p =>
      if (!isCore(p)) {
        val coreNbrs = adj.get(p).iterator.flatten.filter(isCore)
        if (coreNbrs.nonEmpty) {
          val cid = coreNbrs.map(find).min
          members(cid) += p
        }
      }
    }
    members.iterator.map { case (cid, ms) => ClusterRow(time, cid, ms.toVector) }
      .toVector.sortBy(_.clusterId)
  }

  /** Distributed clustering: group the range join's neighbor pairs by time
    * and run the linear local pass over each group's distinct endpoints —
    * one task per snapshot, mirroring ICPE's snapshot-level parallelism.
    * With `minPts >= 2` a point without a neighbor is noise, so the pairs
    * alone decide every cluster; `snapshots` is unused and kept for callers
    * that pass the join's input alongside its output.
    */
  def cluster(snapshots: Dataset[SnapshotRow], neighbors: Dataset[NeighborPair],
              minPts: Int): Dataset[ClusterRow] = {
    require(minPts >= 2, s"distributed DBSCAN needs minPts >= 2, got $minPts")
    val spark = neighbors.sparkSession
    import spark.implicits._
    neighbors.groupByKey(_.time).flatMapGroups { (time, prs) =>
      val pairs = prs.toVector
      clusterLocal(time, (pairs.map(_.a) ++ pairs.map(_.b)).distinct, pairs, minPts).iterator
    }
  }
}
