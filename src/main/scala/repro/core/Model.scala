package repro.core

/** Core data model for co-movement pattern detection (paper §3).
  *
  * Timestamps are discretized to `Int` snapshot indices (Definition 1);
  * trajectory ids are `Long`. All rows are flat case classes so Spark
  * derives product encoders for the typed Dataset operators.
  */

/** A raw GPS record of a streaming trajectory (Definition 5), after time
  * discretization. `lastTime` is the "last time" annotation of §4: the
  * discrete time of the trajectory's previous report, or -1 for the first
  * record. It lets the time-synchronization stage decide whether a snapshot
  * still has to wait for this trajectory.
  */
final case class Gps(id: Long, time: Int, x: Double, y: Double, lastTime: Int)

/** One location of one trajectory inside a snapshot (Definition 6). */
final case class SnapshotRow(time: Int, id: Long, x: Double, y: Double)

/** A neighbor pair produced by the range join: `d(a, b) <= eps` at `time`,
  * canonicalized so that `a < b` (the range join on a single set is
  * symmetric, Lemmas 1–2).
  */
final case class NeighborPair(time: Int, a: Long, b: Long)

/** One DBSCAN cluster of a snapshot: `clusterId` is the smallest core-point
  * id of the cluster (deterministic), `members` is sorted ascending.
  */
final case class ClusterRow(time: Int, clusterId: Long, members: Seq[Long])

/** Id-based partition P_t(o) (§6.1): the trajectories sharing a cluster with
  * anchor `o` at `time` whose ids are larger than `o` (duplicate avoidance).
  */
final case class PartitionRow(time: Int, anchor: Long, others: Seq[Long])

/** A detected co-movement pattern: a sorted object set and a witness time
  * sequence satisfying the (M, K, L, G) constraints of Definition 4.
  */
final case class Pattern(objects: Seq[Long], times: Seq[Int]) {
  require(objects == objects.sorted, s"pattern objects must be sorted: $objects")
}

/** The four constraints of a general co-movement pattern CP(M, K, L, G)
  * (Definition 4): significance M (minimum object-set size), duration K
  * (minimum sequence length), consecutiveness L (minimum segment length) and
  * connection G (maximum gap between neighboring times).
  */
final case class Constraints(m: Int, k: Int, l: Int, g: Int) {
  require(m >= 2, s"significance M must be >= 2, got $m")
  require(k >= 1 && l >= 1 && g >= 1, s"K, L, G must be >= 1, got ($k, $l, $g)")
  require(l <= k, s"L must be <= K, got L=$l K=$k")

  /** Window length guaranteeing no valid pattern is missed (Lemma 4 / [10]):
    * eta = (ceil(K/L) - 1) * (G - 1) + K + L - 1.
    */
  val eta: Int = (math.ceil(k.toDouble / l).toInt - 1) * (g - 1) + k + l - 1
}

/** Parameters of the clustering phase: DBSCAN's (eps, minPts) plus the grid
  * cell width l_g of the GR-index global grid (§5.1). `minPts >= 2`: every
  * cluster member then has a neighbor, so DBSCAN can run from the neighbor
  * stream alone (minPts = 1 would only add singleton clusters, which
  * Lemma 3 drops for any M >= 2).
  */
final case class ClusterParams(eps: Double, minPts: Int, lg: Double) {
  require(eps > 0 && lg > 0 && minPts >= 2, s"bad cluster params: $this")
}
