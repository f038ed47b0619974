package icpebench

import repro.core.{ClusterRow, Constraints, NeighborPair, Pattern, Reference, SnapshotRow}
import scala.collection.mutable

/** Output checks computed apart from the program.
  *
  * Each check returns the list of its failures (empty = passed). Nothing here
  * calls the program's join, clustering, time-sequence or bit-string code:
  * the range join is brute force, DBSCAN is re-derived with this file's own
  * union-find and the (K, L, G) validity test is written out from
  * Definition 4. `Reference.patterns` is used only as a second, exhaustive
  * detector whose object sets must be contained in FBA's.
  */
object Checks {

  /** Brute-force square range join (|dx| <= eps and |dy| <= eps) of every
    * snapshot, canonicalized with the smaller id first.
    */
  def bruteForcePairs(rows: Seq[SnapshotRow], eps: Double): Set[NeighborPair] = {
    val out = Set.newBuilder[NeighborPair]
    rows.groupBy(_.time).foreach { case (t, rs) =>
      val ids = rs.map(_.id).toArray
      val xs  = rs.map(_.x).toArray
      val ys  = rs.map(_.y).toArray
      var i = 0
      while (i < ids.length) {
        var j = i + 1
        while (j < ids.length) {
          if (math.abs(xs(i) - xs(j)) <= eps && math.abs(ys(i) - ys(j)) <= eps)
            out += (if (ids(i) < ids(j)) NeighborPair(t, ids(i), ids(j))
                    else NeighborPair(t, ids(j), ids(i)))
          j += 1
        }
        i += 1
      }
    }
    out.result()
  }

  /** The range join returns exactly the brute-force pair set, once each. */
  def rangeJoin(expected: Set[NeighborPair], got: Seq[NeighborPair]): Seq[String] = {
    val gotSet = got.toSet
    val dups = got.length - gotSet.size
    val missing = expected.diff(gotSet).size
    val extra = gotSet.diff(expected).size
    Seq(
      Option.when(dups > 0)(s"range join: $dups duplicate pairs"),
      Option.when(missing > 0)(s"range join: $missing pairs missing"),
      Option.when(extra > 0)(s"range join: $extra pairs not within eps"),
    ).flatten
  }

  /** DBSCAN output agrees with an independent computation on the
    * brute-force neighbour graph: cores from neighbour counts (the point
    * itself counted), clusters' cores are the connected components of the
    * core graph, every border point sits in the cluster of one of its core
    * neighbours, noise is in no cluster and clusters are disjoint.
    */
  def dbscan(rows: Seq[SnapshotRow], pairs: Set[NeighborPair], minPts: Int,
             clusters: Seq[ClusterRow]): Seq[String] = {
    val fails = mutable.ArrayBuffer.empty[String]
    val pairsByTime = pairs.groupBy(_.time)
    val clustersByTime = clusters.groupBy(_.time)
    for (t <- clustersByTime.keySet -- rows.map(_.time).toSet)
      fails += s"dbscan: clusters at time $t, which has no points"
    for ((t, rs) <- rows.groupBy(_.time)) {
      val nbrs = mutable.HashMap.empty[Long, mutable.ArrayBuffer[Long]]
      for (p <- pairsByTime.getOrElse(t, Set.empty)) {
        nbrs.getOrElseUpdate(p.a, mutable.ArrayBuffer.empty) += p.b
        nbrs.getOrElseUpdate(p.b, mutable.ArrayBuffer.empty) += p.a
      }
      def neighbours(id: Long): Seq[Long] = nbrs.get(id).map(_.toSeq).getOrElse(Nil)
      val points = rs.map(_.id).toSet
      val core = points.filter(id => 1 + neighbours(id).length >= minPts)
      val uf = new UnionFind
      core.foreach(uf.add)
      for (a <- core; b <- neighbours(a) if core(b)) uf.union(a, b)
      val components: Set[Set[Long]] = core.groupBy(uf.find).values.toSet

      val cls = clustersByTime.getOrElse(t, Nil)
      val clusterOf = mutable.HashMap.empty[Long, Long]
      for (cl <- cls; m <- cl.members) {
        if (clusterOf.contains(m)) fails += s"dbscan: t=$t point $m is in two clusters"
        clusterOf(m) = cl.clusterId
        if (!points(m)) fails += s"dbscan: t=$t member $m is not a point of the snapshot"
      }
      val gotCores = cls.map(_.members.filter(core).toSet).toSet
      if (gotCores != components || cls.exists(_.members.forall(m => !core(m))))
        fails += s"dbscan: t=$t cluster cores differ from the core-graph components"
      for (p <- points if !core(p)) {
        val coreNbrs = neighbours(p).filter(core)
        clusterOf.get(p) match {
          case None if coreNbrs.nonEmpty =>
            fails += s"dbscan: t=$t border point $p is in no cluster"
          case Some(cid) if !coreNbrs.exists(c => clusterOf.get(c).contains(cid)) =>
            fails += s"dbscan: t=$t point $p is in a cluster none of its core neighbours is in"
          case _ =>
        }
      }
    }
    fails.take(20).toSeq
  }

  /** Definition 4 (iii)-(v) written out: strictly increasing, at least K
    * times, every maximal consecutive run at least L long, every gap at most G.
    */
  def validTimes(times: Seq[Int], c: Constraints): Boolean = {
    if (times.length < c.k) return false
    var run = 1
    var i = 1
    while (i < times.length) {
      val gap = times(i) - times(i - 1)
      if (gap <= 0 || gap > c.g) return false
      if (gap == 1) run += 1
      else { if (run < c.l) return false; run = 1 }
      i += 1
    }
    run >= c.l
  }

  /** Every pattern is sound: at least M distinct objects, a (K, L, G)-valid
    * witness sequence, and all objects in one cluster at each witness time.
    */
  def patterns(label: String, ps: Iterable[Pattern], clusters: Seq[ClusterRow],
               c: Constraints): Seq[String] = {
    val clusterOf = mutable.HashMap.empty[(Int, Long), Long]
    for (cl <- clusters; m <- cl.members) clusterOf((cl.time, m)) = cl.clusterId
    val fails = mutable.ArrayBuffer.empty[String]
    for (p <- ps.iterator.distinct) {
      if (p.objects.distinct.length < c.m)
        fails += s"$label: fewer than M objects in ${p.objects}"
      if (!validTimes(p.times, c))
        fails += s"$label: invalid time sequence ${p.times} for ${p.objects}"
      else if (!p.times.forall { t =>
          val cid = clusterOf.get((t, p.objects.head))
          cid.isDefined && p.objects.forall(o => clusterOf.get((t, o)) == cid)
        })
        fails += s"$label: ${p.objects} not in one cluster at every time of ${p.times}"
    }
    fails.take(20).toSeq
  }

  /** Two detectors find the same distinct object sets. */
  def sameObjectSets(label: String, a: Iterable[Pattern], b: Iterable[Pattern]): Seq[String] = {
    val (sa, sb) = (a.iterator.map(_.objects).toSet, b.iterator.map(_.objects).toSet)
    if (sa == sb) Nil
    else Seq(s"$label: ${sa.diff(sb).size} object sets only in the first, " +
             s"${sb.diff(sa).size} only in the second")
  }

  /** Every object set the exhaustive reference finds on `clusters`, any
    * subset of the stream's clusters, is among FBA's: a pattern whose objects
    * share clusters in the subset shares them in the whole stream too.
    */
  def referenceContained(clusters: Seq[ClusterRow], c: Constraints,
                         fba: Iterable[Pattern]): Seq[String] = {
    val ref = Reference.distinctObjectSets(Reference.patterns(clusters, c))
    val got = fba.iterator.map(_.objects).toSet
    val missed = ref.diff(got)
    if (missed.isEmpty) Nil
    else Seq(s"reference: ${missed.size} of ${ref.size} object sets missing from FBA")
  }

  final class UnionFind {
    private val parent = mutable.HashMap.empty[Long, Long]
    def add(x: Long): Unit = parent.getOrElseUpdate(x, x)
    def find(x: Long): Long = {
      var r = x
      while (parent(r) != r) r = parent(r)
      var n = x
      while (parent(n) != r) { val next = parent(n); parent(n) = r; n = next }
      r
    }
    def union(a: Long, b: Long): Unit = {
      val (ra, rb) = (find(a), find(b))
      if (ra != rb) parent(ra) = rb
    }
  }
}
