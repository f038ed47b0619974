package repro

import repro.core._
import scala.util.Random

/** Shared fixtures, most importantly the paper's running example (Fig. 2,
  * decoded through the worked examples of §3.1, §6.1–6.3 and Figs. 7–9).
  *
  * The reconstructed cluster snapshots are consistent with every concrete
  * statement in the paper:
  *  - t=1 clusters {o1,o2}, {o3,o4}, {o5,o6,o7} (partitions of Fig. 7);
  *  - t=3 cluster {o2,...,o8} (§3.2 DBSCAN example);
  *  - o1/o2 co-clustered at {1,2,5,7} (Lemma 5 example: T=⟨1,2,5⟩ before
  *    t'=7, O ⊆ P7(o1));
  *  - o3/o4 co-clustered at {1,2,3,6} (Lemma 6 example);
  *  - P3(o4) bit strings B[o5]=111111, B[o6]=110111, B[o7]=110011,
  *    B[o8]=100000 (Fig. 8);
  *  - {o4,o5} and {o6,o7} are CP(2,4,2,2) at time 5 with T ⊇ ⟨2,3,4,5⟩;
  *  - {o4,o5,o6} is the CP(3,4,2,2) at time 7 with T = ⟨3,4,6,7⟩ (§3.1);
  *  - VBA variable strings ⟨2,8,1111111⟩ for o5 and ⟨3,8,110111⟩ for o6
  *    (Fig. 9; o7's ⟨3,8,110011⟩ is NOT G-connected under Definition 3 —
  *    gap 7-4=3 > G=2 — an inconsistency in the paper's own example, see
  *    DESIGN.md; we follow Definition 3).
  */
object TestData {

  /** Cluster membership per time of the Fig. 2 running example. */
  val goldenClusterSets: Map[Int, Seq[Seq[Long]]] = Map(
    1 -> Seq(Seq(1L, 2L), Seq(3L, 4L), Seq(5L, 6L, 7L)),
    2 -> Seq(Seq(1L, 2L), Seq(3L, 4L, 5L), Seq(6L, 7L)),
    3 -> Seq(Seq(2L, 3L, 4L, 5L, 6L, 7L, 8L)),
    4 -> Seq(Seq(4L, 5L, 6L, 7L)),
    5 -> Seq(Seq(1L, 2L), Seq(4L, 5L), Seq(6L, 7L)),
    6 -> Seq(Seq(3L, 4L, 5L, 6L)),
    7 -> Seq(Seq(1L, 2L), Seq(4L, 5L, 6L, 7L)),
    8 -> Seq(Seq(4L, 5L, 6L, 7L)),
  )

  /** The same scenario as ClusterRows (cluster id = min member id). */
  val goldenClusters: Seq[ClusterRow] =
    goldenClusterSets.toSeq.sortBy(_._1).flatMap { case (t, sets) =>
      sets.map(ms => ClusterRow(t, ms.min, ms.sorted))
    }

  /** The paper's example constraints: CP(M, 4, 2, 2); eta = 6. */
  def goldenConstraints(m: Int): Constraints = Constraints(m, 4, 2, 2)

  /** Geometric realization of the golden scenario: members of each cluster
    * placed on a horizontal chain with spacing 0.9*eps (so consecutive
    * members are within the square eps-region but distinct clusters, 100*eps
    * apart, are not); non-members parked far away on their own row. With
    * minPts = 2 DBSCAN recovers exactly `goldenClusterSets`.
    */
  def goldenGeometry(eps: Double): Seq[SnapshotRow] = {
    val all = (1L to 8L)
    goldenClusterSets.toSeq.sortBy(_._1).flatMap { case (t, sets) =>
      val clustered = sets.flatten.toSet
      val inClusters = sets.zipWithIndex.flatMap { case (ms, ci) =>
        ms.zipWithIndex.map { case (id, pos) =>
          SnapshotRow(t, id, 100.0 * eps * (ci + 1) + 0.9 * eps * pos, 0.0)
        }
      }
      val loners = all.filterNot(clustered).map { id =>
        SnapshotRow(t, id, 5000.0 * eps + 100.0 * eps * id, 1000.0 * eps)
      }
      inClusters ++ loners
    }
  }

  /** The golden geometry followed by G+1 snapshots with every object alone,
    * which finalize the open VBA entries while a stream runs, not only at
    * its end.
    */
  def goldenStreamRows(eps: Double, c: Constraints): Seq[SnapshotRow] =
    goldenGeometry(eps) ++ (for (t <- 9 to 9 + c.g; id <- 1L to 8L)
      yield SnapshotRow(t, id, 100.0 * eps * id, -500.0 * eps))

  /** One batch of GPS records per snapshot of `rows`, in id order, each
    * annotated with its trajectory's previous report time.
    */
  def gpsBatches(rows: Seq[SnapshotRow]): Seq[Seq[Gps]] = {
    val lastSeen = scala.collection.mutable.HashMap.empty[Long, Int]
    rows.groupBy(_.time).toSeq.sortBy(_._1).map { case (t, rs) =>
      rs.sortBy(_.id).map { r =>
        val last = lastSeen.getOrElse(r.id, -1)
        lastSeen(r.id) = t
        Gps(r.id, t, r.x, r.y, last)
      }
    }
  }

  /** Expected distinct pattern object sets on the golden stream (derived by
    * exhaustive hand analysis; cross-checked by Reference in the tests).
    */
  val goldenPatternsM2: Set[Seq[Long]] = Set(
    Seq(4L, 5L), Seq(4L, 6L), Seq(5L, 6L), Seq(6L, 7L), Seq(4L, 5L, 6L))
  val goldenPatternsM3: Set[Seq[Long]] = Set(Seq(4L, 5L, 6L))

  /** Build cluster rows from (time, members…) shorthand. */
  def clusters(rows: (Int, Seq[Seq[Long]])*): Seq[ClusterRow] =
    rows.flatMap { case (t, sets) => sets.map(ms => ClusterRow(t, ms.min, ms.sorted)) }

  /** Road-lattice snapshots: every point sits on a horizontal or vertical
    * road (one coordinate a multiple of `gap`) at a position that is a
    * multiple of `step` along it, so many points share y across cell
    * borders, where both points' query objects probe each other's cell.
    */
  def lattice(seed: Long, n: Int, times: Int, step: Double, gap: Double,
              extent: Double): Seq[SnapshotRow] = {
    val rng = new Random(seed)
    for (t <- 1 to times; i <- 0 until n) yield {
      val along = rng.nextInt((extent / step).toInt) * step
      val road  = rng.nextInt((extent / gap).toInt) * gap
      if (rng.nextBoolean()) SnapshotRow(t, i.toLong, along, road)
      else SnapshotRow(t, i.toLong, road, along)
    }
  }

  /** The range join over table `snap` in SQL, for the DuckDB oracle. */
  def rangeJoinSql(eps: Double): String =
    s"""SELECT CAST(a.time AS INT) AS time,
       |       CAST(a.id AS BIGINT) AS a, CAST(b.id AS BIGINT) AS b
       |FROM snap a JOIN snap b
       |  ON a.time = b.time
       | AND CAST(a.id AS BIGINT) < CAST(b.id AS BIGINT)
       | AND abs(CAST(a.x AS DOUBLE) - CAST(b.x AS DOUBLE)) <= $eps
       | AND abs(CAST(a.y AS DOUBLE) - CAST(b.y AS DOUBLE)) <= $eps""".stripMargin
}
