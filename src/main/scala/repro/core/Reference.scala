package repro.core

import scala.collection.mutable

/** Naive reference implementations used by the test suites (alongside the
  * DuckDB SQL oracle). `rangeJoin` and `patterns` are exhaustive, obviously
  * correct definitions; `dbscan` runs [[Dbscan.clusterLocal]] over the naive
  * join, so it checks the join and the grouping, while the breadth-first
  * property in `DbscanSpec` checks the kernel. All are quadratic or
  * exponential — use on small inputs only.
  */
object Reference {

  /** O(n^2) range join of one or more snapshots (square region semantics). */
  def rangeJoin(points: Seq[SnapshotRow], eps: Double): Seq[NeighborPair] = {
    val byTime = points.groupBy(_.time)
    byTime.toSeq.flatMap { case (time, ps) =>
      for {
        i <- ps.indices
        j <- (i + 1) until ps.length
        if math.abs(ps(i).x - ps(j).x) <= eps && math.abs(ps(i).y - ps(j).y) <= eps
      } yield {
        val (a, b) = (ps(i).id, ps(j).id)
        if (a < b) NeighborPair(time, a, b) else NeighborPair(time, b, a)
      }
    }.sortBy(p => (p.time, p.a, p.b))
  }

  /** [[Dbscan.clusterLocal]] over the naive join per snapshot, every point
    * listed so that minPts = 1 yields singleton clusters.
    */
  def dbscan(points: Seq[SnapshotRow], eps: Double, minPts: Int): Seq[ClusterRow] =
    points.groupBy(_.time).toSeq.sortBy(_._1).flatMap { case (time, ps) =>
      Dbscan.clusterLocal(time, ps.map(_.id), rangeJoin(ps, eps), minPts)
    }

  /** Exhaustive co-movement pattern mining over a finite cluster-snapshot
    * stream (Definition 7 semantics, with the maximal-sequence validity of
    * `TimeSeq.maximalValid`).
    *
    * Enumerates every subset (size >= M) of every qualifying cluster, then
    * computes its full co-cluster time set and keeps subsets with at least
    * one (K,L,G)-valid sub-sequence. One [[Pattern]] is returned per
    * (object set, maximal valid sequence) pair; `distinctObjectSets` reduces
    * this for comparisons.
    */
  def patterns(clusters: Seq[ClusterRow], c: Constraints): Seq[Pattern] = {
    // Times each object pair/subset shares a cluster: index clusters by time.
    val byTime: Map[Int, Seq[ClusterRow]] = clusters.groupBy(_.time)
    val allTimes = byTime.keys.toSeq.sorted

    // Candidate object sets: subsets of clusters that satisfy Lemma 3.
    val candidates = mutable.HashSet.empty[Vector[Long]]
    for (cl <- clusters if cl.members.length >= c.m) {
      val ms = cl.members.toVector
      require(ms.length <= 24, s"reference explodes beyond 24 members, got ${ms.length}")
      for (size <- c.m to ms.length; combo <- ms.combinations(size))
        candidates += combo
    }

    // Membership map: time -> object -> clusterId (clusters are disjoint).
    val memberOf: Map[Int, Map[Long, Long]] = byTime.map { case (t, cls) =>
      t -> cls.flatMap(cl => cl.members.map(_ -> cl.clusterId)).toMap
    }

    candidates.toSeq.sorted(Ordering.Implicits.seqOrdering[Vector, Long]).flatMap { objs =>
      val coTimes = allTimes.filter { t =>
        val m = memberOf(t)
        m.get(objs.head) match {
          case Some(cid) => objs.forall(o => m.get(o).contains(cid))
          case None      => false
        }
      }
      TimeSeq.maximalValid(coTimes, c).map(ts => Pattern(objs, ts))
    }
  }

  /** Canonicalize detector output for comparison: distinct sorted object
    * sets.
    */
  def distinctObjectSets(ps: Seq[Pattern]): Set[Seq[Long]] =
    ps.map(_.objects).toSet
}
