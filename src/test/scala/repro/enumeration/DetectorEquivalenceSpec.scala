package repro.enumeration

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.Gen
import repro.PropSupport
import repro.core._
import scala.util.Random

/** Randomized equivalence: BA, FBA and VBA must all find exactly the pattern
  * object sets of the exhaustive reference, on arbitrary cluster streams;
  * VBA, which emits each maximal sequence once, its full patterns too.
  */
class DetectorEquivalenceSpec extends AnyFunSuite with PropSupport {

  /** Random cluster streams over a small object universe: at each time the
    * universe is shuffled and partitioned into runs; persistence is induced
    * by reusing the previous grouping with probability `sticky` — this
    * produces realistic mixtures of long and short co-cluster sequences.
    */
  private def randomClusters(seed: Long, nObjects: Int, nTimes: Int,
                             sticky: Double): Seq[ClusterRow] = {
    val rng = new Random(seed)
    var current: Seq[Seq[Long]] = Nil
    def regroup(): Seq[Seq[Long]] = {
      val ids = rng.shuffle((0L until nObjects).toVector)
      val out = scala.collection.mutable.ArrayBuffer.empty[Seq[Long]]
      var i = 0
      while (i < ids.length) {
        val size = 1 + rng.nextInt(math.min(5, ids.length - i))
        out += ids.slice(i, i + size).sorted
        i += size
      }
      out.toSeq
    }
    current = regroup()
    (1 to nTimes).flatMap { t =>
      if (rng.nextDouble() > sticky) current = regroup()
      // Drop some clusters entirely (objects absent from the snapshot).
      val present = current.filter(_ => rng.nextDouble() > 0.15)
      present.filter(_.length >= 2).map(ms => ClusterRow(t, ms.min, ms))
    }
  }

  private def emitted(clusters: Seq[ClusterRow], c: Constraints,
                      method: EnumMethod): Seq[Pattern] = {
    val parts = clusters.flatMap(IdPartitioner.partitionsLocal(_, c.m))
    val anchors = parts.map(_.anchor).distinct
    anchors.flatMap { a =>
      Enumeration.detectLocal(a, parts.filter(_.anchor == a).iterator, c, method)
        .map(_.pattern)
    }
  }

  private def detectAll(clusters: Seq[ClusterRow], c: Constraints,
                        method: EnumMethod): Set[Seq[Long]] =
    Reference.distinctObjectSets(emitted(clusters, c, method))

  /** Patterns in a canonical order, so that two lists compare row for row. */
  private def sortedRows(ps: Seq[Pattern]): Seq[Pattern] =
    ps.sortBy(p => (p.objects.mkString(","), p.times.mkString(",")))

  private val caseGen: Gen[(Long, Int, Int, Constraints, Double)] = for {
    seed <- Gen.choose(0L, 100000L)
    nObj <- Gen.choose(4, 9)
    nTimes <- Gen.choose(8, 30)
    m <- Gen.choose(2, 4)
    k <- Gen.choose(3, 6)
    l <- Gen.choose(1, 3)
    g <- Gen.choose(1, 3)
    sticky <- Gen.oneOf(0.5, 0.8, 0.95)
    if l <= k
  } yield (seed, nObj, nTimes, Constraints(m, k, l, g), sticky)

  test("property: FBA equals the exhaustive reference") {
    forAllG(caseGen, n = 40) { case (seed, nObj, nTimes, c, sticky) =>
      val cl = randomClusters(seed, nObj, nTimes, sticky)
      assert(detectAll(cl, c, FbaMethod) ==
        Reference.distinctObjectSets(Reference.patterns(cl, c)))
    }
  }

  test("property: VBA equals the exhaustive reference") {
    forAllG(caseGen, n = 40, seed0 = 0xBEEF) { case (seed, nObj, nTimes, c, sticky) =>
      val cl = randomClusters(seed, nObj, nTimes, sticky)
      assert(detectAll(cl, c, VbaMethod) ==
        Reference.distinctObjectSets(Reference.patterns(cl, c)))
    }
  }

  test("property: VBA emits the reference's patterns row for row, witness sequences included") {
    forAllG(caseGen, n = 60, seed0 = 0xCAFE) { case (seed, nObj, nTimes, c, sticky) =>
      val cl = randomClusters(seed, nObj, nTimes, sticky)
      assert(sortedRows(emitted(cl, c, VbaMethod)) == sortedRows(Reference.patterns(cl, c)))
    }
  }

  test("property: BA equals the exhaustive reference") {
    forAllG(caseGen, n = 25, seed0 = 0xF00D) { case (seed, nObj, nTimes, c, sticky) =>
      val cl = randomClusters(seed, nObj, nTimes, sticky)
      assert(detectAll(cl, c, BaselineMethod) ==
        Reference.distinctObjectSets(Reference.patterns(cl, c)))
    }
  }

  test("property: all three detectors agree on long sticky streams") {
    val gen = Gen.choose(0L, 5000L)
    forAllG(gen, n = 10) { seed =>
      val cl = randomClusters(seed, 6, 60, 0.97)
      val c = Constraints(2, 6, 2, 2)
      val f = detectAll(cl, c, FbaMethod)
      assert(detectAll(cl, c, VbaMethod) == f)
      assert(detectAll(cl, c, BaselineMethod) == f)
    }
  }

  test("empty cluster stream yields no patterns") {
    val c = Constraints(2, 4, 2, 2)
    assert(detectAll(Nil, c, FbaMethod).isEmpty)
    assert(detectAll(Nil, c, VbaMethod).isEmpty)
    assert(detectAll(Nil, c, BaselineMethod).isEmpty)
  }

  test("single long-lived pair is found by every method") {
    val c = Constraints(2, 5, 2, 2)
    val cl = (1 to 10).map(t => ClusterRow(t, 1L, Seq(1L, 2L)))
    for (m <- Seq[EnumMethod](BaselineMethod, FbaMethod, VbaMethod))
      assert(detectAll(cl, c, m) == Set(Seq(1L, 2L)), s"method $m")
  }

  test("pattern broken by a super-G gap is rejected by every method") {
    val c = Constraints(2, 5, 2, 2)
    val times = Seq(1, 2, 3, 7, 8, 9) // gap 4 > G = 2
    val cl = times.map(t => ClusterRow(t, 1L, Seq(1L, 2L)))
    for (m <- Seq[EnumMethod](BaselineMethod, FbaMethod, VbaMethod))
      assert(detectAll(cl, c, m).isEmpty, s"method $m")
  }

  test("BaselineBlowupException on oversized partitions") {
    val members = (0L to 25L).toSeq
    val cl = (1 to 3).map(t => ClusterRow(t, 0L, members))
    val parts = cl.flatMap(IdPartitioner.partitionsLocal(_, 2)).filter(_.anchor == 0L)
    intercept[BaselineBlowupException] {
      Enumeration.detectLocal(0L, parts.iterator, Constraints(2, 2, 1, 1), BaselineMethod)
    }
  }
}
