package repro.enumeration

import org.scalatest.funsuite.AnyFunSuite
import repro.core._
import scala.collection.immutable.TreeMap

/** White-box unit tests of FBA and VBA internals: candidate filtering,
  * apriori growth bounds, Lemma 7 finalization and Lemma 8 span pruning.
  */
class FbaVbaUnitSpec extends AnyFunSuite {

  private val c = Constraints(2, 4, 2, 2) // eta = 6

  private def parts(rows: (Int, Set[Long])*): TreeMap[Int, Set[Long]] = TreeMap(rows: _*)

  test("FBA: single persistent companion yields one pattern") {
    val p = parts((1 to 8).map(t => t -> Set(9L)): _*)
    val got = FBA.detect(1L, p, c)
    assert(Reference.distinctObjectSets(got.map(_.pattern)) == Set(Seq(1L, 9L)))
  }

  test("FBA: a companion persisting 8 snapshots is emitted once, at the first window's end") {
    val p = parts((1 to 8).map(t => t -> Set(9L)): _*)
    assert(FBA.detect(1L, p, c) == Seq(Emitted(Pattern(Seq(1L, 9L), 1 to 6), 6)))
  }

  test("FBA: a set that separates for more than G snapshots and re-forms emits two rows") {
    // Apart at 7-9 (3 > G = 2 snapshots): two maximal sequences, two rows.
    val apart = parts(((1 to 6) ++ (10 to 15)).map(t => t -> Set(9L)): _*)
    assert(FBA.detect(1L, apart, c) ==
      Seq(Emitted(Pattern(Seq(1L, 9L), 1 to 6), 6), Emitted(Pattern(Seq(1L, 9L), 10 to 15), 15)))
    // Apart at 7 only: 8 - 6 <= G, one maximal sequence, one row.
    val rejoined = parts(((1 to 6) ++ (8 to 13)).map(t => t -> Set(9L)): _*)
    assert(FBA.detect(1L, rejoined, c).map(_.emitTime) == Seq(6))
  }

  test("FBA: non-candidate members never appear in patterns") {
    val p = parts(
      1 -> Set(2L, 3L), 2 -> Set(2L, 3L), 3 -> Set(2L), 4 -> Set(2L),
      5 -> Set(2L), 6 -> Set(2L))
    // o3 co-occurs only at {1,2}: fails K=4; o2 has <1..6> valid.
    val got = FBA.detect(1L, p, c)
    assert(Reference.distinctObjectSets(got.map(_.pattern)) == Set(Seq(1L, 2L)))
  }

  test("FBA: M=3 requires two simultaneous companions") {
    val p = parts((1 to 8).map(t => t -> Set(5L, 6L)): _*)
    val got = FBA.detect(1L, p, Constraints(3, 4, 2, 2))
    assert(Reference.distinctObjectSets(got.map(_.pattern)) == Set(Seq(1L, 5L, 6L)))
  }

  test("FBA: apriori growth stops when the AND string dies") {
    // o2 on even times, o3 on odd times: each alone is dense enough only
    // jointly with L=1; their AND is empty.
    val cl = Constraints(2, 3, 1, 2)
    val p = parts((1 to 10).map(t => t -> (if (t % 2 == 0) Set(2L) else Set(3L))): _*)
    val got = FBA.detect(1L, p, cl)
    val sets = Reference.distinctObjectSets(got.map(_.pattern))
    assert(sets == Set(Seq(1L, 2L), Seq(1L, 3L)))
  }

  test("FBA patterns report a valid witness sequence") {
    val p = parts((1 to 8).map(t => t -> Set(9L)): _*)
    FBA.detect(1L, p, c).foreach(e => assert(TimeSeq.isValid(e.pattern.times, c)))
  }

  test("VBA: entry finalizes after exactly G+1 zeros (Lemma 7)") {
    val st = new VbaState(1L)
    VBA.onSnapshot(st, 1, Set(2L), c)
    (2 to 5).foreach(t => VBA.onSnapshot(st, t, Set(2L), c))
    assert(st.open.contains(2L))
    VBA.onSnapshot(st, 6, Set.empty, c)
    VBA.onSnapshot(st, 7, Set.empty, c)
    assert(st.open.contains(2L)) // only 2 zeros so far, G+1 = 3
    VBA.onSnapshot(st, 8, Set.empty, c)
    assert(!st.open.contains(2L)) // finalized
    assert(st.cands.map(v => (v.id, v.st, v.et)) == Seq((2L, 1, 5)))
  }

  test("VBA: invalid entry is deleted, not kept as candidate (tag = -1)") {
    val st = new VbaState(1L)
    (1 to 2).foreach(t => VBA.onSnapshot(st, t, Set(2L), c)) // only K=2 < 4
    (3 to 5).foreach(t => VBA.onSnapshot(st, t, Set.empty, c))
    assert(!st.open.contains(2L) && st.cands.isEmpty)
  }

  test("VBA: re-co-occurrence after finalization opens a fresh entry") {
    val st = new VbaState(1L)
    (1 to 5).foreach(t => VBA.onSnapshot(st, t, Set(2L), c))
    (6 to 8).foreach(t => VBA.onSnapshot(st, t, Set.empty, c))
    assert(st.cands.map(v => (v.id, v.st, v.et)) == Seq((2L, 1, 5)))
    VBA.onSnapshot(st, 9, Set(2L), c)
    assert(st.open(2L).head == 9)
    // Nothing open starts before 9, so <1,5> can never again share K = 4
    // snapshots with a new candidate (Lemma 8): evicted.
    assert(st.cands.isEmpty)
  }

  test("VBA: an episode with multiple valid components yields several candidates") {
    val cl = Constraints(2, 2, 2, 3) // K=2, L=2, G=3
    val st = new VbaState(1L)
    // times 1,2 then 5,6,7 co-clustered, then silence. Within the episode
    // (gaps <= G) but after dropping nothing, gap 5-2=3 <= G keeps one
    // component; use L=2 with a lone 1 at 4 to force a split: times
    // 1,2,4,8,9 -> runs <1,2>, <4>, <8,9>; dropping <4> makes gap 8-2=6 > 3.
    for (t <- Seq(1, 2, 4, 8, 9)) VBA.onSnapshot(st, t, Set(2L), cl)
    VBA.flush(st, cl)
    assert(st.cands.map(v => (v.id, v.st, v.et)).toSet == Set((2L, 1, 2), (2L, 8, 9)))
  }

  test("VBA: Lemma 8 span pruning blocks non-overlapping candidates") {
    val cl = Constraints(3, 4, 2, 2)
    val st = new VbaState(1L)
    // o2 co-moves during [1,6], o3 during [20,26]: both valid candidates but
    // their spans cannot overlap in K=4 common times — no triple pattern.
    (1 to 6).foreach(t => VBA.onSnapshot(st, t, Set(2L), cl))
    (7 to 9).foreach(t => VBA.onSnapshot(st, t, Set.empty, cl))
    assert(st.cands.map(v => (v.id, v.st, v.et)) == Seq((2L, 1, 6)))
    (10 to 19).foreach(t => VBA.onSnapshot(st, t, Set.empty, cl))
    val emitted = (20 to 26).flatMap(t => VBA.onSnapshot(st, t, Set(3L), cl)) ++
      VBA.flush(st, cl)
    assert(emitted.isEmpty)
    // o2's candidate was evicted once nothing open could overlap it by K.
    assert(st.cands.map(v => (v.id, v.st, v.et)) == Seq((3L, 20, 26)))
  }

  test("VBA: a long open entry keeps an overlapping candidate that pairs later") {
    val cl = Constraints(3, 4, 2, 2)
    val st = new VbaState(1L)
    // o2 co-moves throughout [1,12]; o3 only during [1,6]. o3's candidate
    // finalizes at 9 and must survive eviction while o2's entry is open.
    val emitted = (1 to 12).flatMap(t =>
      VBA.onSnapshot(st, t, if (t <= 6) Set(2L, 3L) else Set(2L), cl)) ++ VBA.flush(st, cl)
    assert(Reference.distinctObjectSets(emitted.map(_.pattern)) == Set(Seq(1L, 2L, 3L)))
  }

  test("VBA soak: retained candidates stay bounded over 10k snapshots, patterns equal FBA") {
    val cl = Constraints(3, 4, 2, 2)
    val rng = new scala.util.Random(17)
    val companions = (2L to 9L).toVector
    val st = new VbaState(1L)
    val vba = Vector.newBuilder[Emitted]
    var members = Set.empty[Long]
    var p = parts()
    var maxCands, maxOpen = 0
    for (t <- 1 to 10000) {
      // Churn: the anchor's cluster is re-drawn at ~30% of the snapshots.
      if (rng.nextDouble() < 0.3) members = companions.filter(_ => rng.nextDouble() < 0.4).toSet
      p += t -> members
      vba ++= VBA.onSnapshot(st, t, members, cl)
      maxCands = math.max(maxCands, st.cands.length)
      maxOpen = math.max(maxOpen, st.open.size)
    }
    vba ++= VBA.flush(st, cl)
    val vbaSets = Reference.distinctObjectSets(vba.result().map(_.pattern))
    assert(vbaSets.size > 10, "the stream must produce many distinct patterns")
    assert(vbaSets == Reference.distinctObjectSets(FBA.detect(1L, p, cl).map(_.pattern)))
    // One open entry per companion at most; candidates are evicted once no
    // open entry can overlap them by K, so they stay within a few per
    // companion instead of growing with the stream.
    assert(maxOpen <= companions.length)
    assert(maxCands <= 4 * companions.length, s"max retained candidates $maxCands")
  }

  test("VBA: same-snapshot finalizations can pair up") {
    val cl = Constraints(3, 4, 2, 2)
    val st = new VbaState(1L)
    (1 to 6).foreach(t => VBA.onSnapshot(st, t, Set(2L, 3L), cl))
    val emitted = VBA.flush(st, cl)
    assert(Reference.distinctObjectSets(emitted.map(_.pattern)) == Set(Seq(1L, 2L, 3L)))
  }

  test("VBA: onSnapshot rejects out-of-order times") {
    val st = new VbaState(1L)
    VBA.onSnapshot(st, 5, Set(2L), c)
    intercept[IllegalArgumentException](VBA.onSnapshot(st, 5, Set(2L), c))
    intercept[IllegalArgumentException](VBA.onSnapshot(st, 4, Set(2L), c))
  }

  test("VBA: flush on empty state is a no-op") {
    val st = new VbaState(1L)
    assert(VBA.flush(st, c).isEmpty)
  }

  test("Enumeration.distinctPatterns keeps the earliest emission per object set") {
    val p1 = Pattern(Seq(1L, 2L), Seq(1, 2, 3, 4))
    val p2 = Pattern(Seq(1L, 2L), Seq(2, 3, 4, 5))
    val got = Enumeration.distinctPatterns(Seq(Emitted(p2, 9), Emitted(p1, 6)))
    assert(got == Seq(Emitted(p1, 6)))
  }

  test("Pattern requires sorted object sets") {
    intercept[IllegalArgumentException](Pattern(Seq(2L, 1L), Seq(1)))
  }
}
