package icpebench

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import repro.traj.{TrajConfig, TrajGen}

/** Negative controls: every output check passes on the program's own output
  * and rejects a deliberately corrupted copy of it.
  */
class ChecksSpec extends AnyFunSuite {

  private val cfg = TrajConfig(nObjects = 240, nSnapshots = 30, world = 2000.0, nGroups = 12,
    nHubs = 4, speed = 3.0, seed = 5L)
  private val p = ClusterParams(eps = 6.0, minPts = 3, lg = 40.0)
  private val c = Constraints(3, 8, 2, 2)

  private val rows: Vector[SnapshotRow] =
    (0L until cfg.nObjects.toLong).flatMap(TrajGen.genObject(cfg, _)).toVector

  /** The program's output, computed on one thread without Spark. */
  private val chain = Layers.driverChain(
    Input("spec", cfg.seed, rows, cfg.nObjects, cfg.nSnapshots, p, c), new Tracer("spec"))
  private val pairs = chain.pairs
  private val clusters = chain.clusters
  private val fba = chain.fba.map(_.pattern)
  private val vba = chain.vba.map(_.pattern)
  private val brute = Checks.bruteForcePairs(rows, p.eps)

  test("the fixture has pairs, clusters with borders, and patterns") {
    assert(pairs.length > 100)
    assert(clusters.length > 50)
    assert(fba.nonEmpty && vba.nonEmpty)
  }

  test("the program's own output passes every check") {
    assert(Checks.rangeJoin(brute, pairs).isEmpty)
    assert(Checks.dbscan(rows, brute, p.minPts, clusters).isEmpty)
    assert(Checks.patterns("FBA", fba, clusters, c).isEmpty)
    assert(Checks.patterns("VBA", vba, clusters, c).isEmpty)
    assert(Checks.sameObjectSets("FBA vs VBA", fba, vba).isEmpty)
    val small = clusters.filter(_.members.length <= 12)
    assert(Checks.referenceContained(small, c, fba).isEmpty)
  }

  test("range join check rejects a dropped pair") {
    assert(Checks.rangeJoin(brute, pairs.tail).exists(_.contains("missing")))
  }

  test("range join check rejects a duplicated pair") {
    assert(Checks.rangeJoin(brute, pairs :+ pairs.head).exists(_.contains("duplicate")))
  }

  test("range join check rejects a pair farther apart than eps") {
    val far = rows.groupBy(_.time).values.head.sortBy(_.x)
    val bogus = NeighborPair(far.head.time, math.min(far.head.id, far.last.id),
      math.max(far.head.id, far.last.id))
    assert(Checks.rangeJoin(brute, pairs :+ bogus).exists(_.contains("not within eps")))
  }

  test("dbscan check rejects a member moved between clusters") {
    val t = clusters.groupBy(_.time).find(_._2.length >= 2).get._1
    val Seq(a, b) = clusters.filter(_.time == t).take(2)
    val moved = a.members.head
    val corrupted = clusters.map {
      case `a` => a.copy(members = a.members.tail)
      case `b` => b.copy(members = (b.members :+ moved).sorted)
      case other => other
    }
    assert(Checks.dbscan(rows, brute, p.minPts, corrupted).nonEmpty)
  }

  test("dbscan check rejects a border point dropped to noise and a noise point added") {
    val withBorder = clusters.find(cl => cl.members.exists(m =>
      1 + brute.count(pr => pr.time == cl.time && (pr.a == m || pr.b == m)) < p.minPts)).get
    val border = withBorder.members.find(m =>
      1 + brute.count(pr => pr.time == withBorder.time && (pr.a == m || pr.b == m)) < p.minPts).get
    val dropped = clusters.map(cl =>
      if (cl == withBorder) cl.copy(members = cl.members.filterNot(_ == border)) else cl)
    assert(Checks.dbscan(rows, brute, p.minPts, dropped).exists(_.contains("border")))

    val t = clusters.head.time
    val clustered = clusters.filter(_.time == t).flatMap(_.members).toSet
    val noise = rows.find(r => r.time == t && !clustered(r.id)).get.id
    val added = clusters.map(cl =>
      if (cl == clusters.head) cl.copy(members = (cl.members :+ noise).sorted) else cl)
    assert(Checks.dbscan(rows, brute, p.minPts, added).nonEmpty)
  }

  test("pattern check rejects an invalid time sequence") {
    val pt = fba.head
    val broken = pt.copy(times = pt.times.patch(1, Nil, 1)) // leaves a 1-long first segment
    assert(!Checks.validTimes(broken.times, c))
    assert(Checks.patterns("FBA", Seq(broken), clusters, c).exists(_.contains("invalid time")))
    val short = pt.copy(times = pt.times.take(c.k - 1))
    assert(Checks.patterns("FBA", Seq(short), clusters, c).exists(_.contains("invalid time")))
  }

  test("pattern check rejects objects that do not share a cluster, and too few objects") {
    val pt = fba.head
    val stranger = rows.map(_.id).distinct.find(id => !pt.objects.contains(id) &&
      !pt.times.forall(t => clusters.exists(cl => cl.time == t &&
        cl.members.contains(id) && cl.members.contains(pt.objects.head)))).get
    val mixed = Pattern((pt.objects.tail :+ stranger).sorted, pt.times)
    assert(Checks.patterns("FBA", Seq(mixed), clusters, c).exists(_.contains("one cluster")))
    val small = Pattern(pt.objects.take(c.m - 1), pt.times)
    assert(Checks.patterns("FBA", Seq(small), clusters, c).exists(_.contains("fewer than M")))
  }

  test("validity follows Definition 4") {
    val k4 = Constraints(2, 4, 2, 2)
    assert(Checks.validTimes(Seq(1, 2, 4, 5), k4))
    assert(!Checks.validTimes(Seq(1, 2, 5, 6), k4))    // gap 3 > G
    assert(!Checks.validTimes(Seq(1, 3, 4, 5), k4))    // first run shorter than L
    assert(!Checks.validTimes(Seq(1, 2, 3), k4))       // fewer than K
    assert(!Checks.validTimes(Seq(1, 2, 2, 3, 4), k4)) // not increasing
  }

  test("equality and reference checks reject a missing object set") {
    val dropped = vba.filterNot(_.objects == vba.head.objects)
    assert(Checks.sameObjectSets("FBA vs VBA", fba, dropped).nonEmpty)
    val small = clusters.filter(_.members.length <= 12)
    val found = Reference.distinctObjectSets(Reference.patterns(small, c))
    assert(found.nonEmpty)
    val missing = fba.filterNot(_.objects == found.head)
    assert(Checks.referenceContained(small, c, missing).nonEmpty)
  }
}
