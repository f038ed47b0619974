package icpebench

import repro.bench.Params
import repro.core.{ClusterParams, Constraints, Gps, SnapshotRow}
import repro.traj.{Brinkhoff, TrajGen}
import scala.collection.mutable
import scala.util.Random

/** One workload's inputs, generated from the benchmark seed. */
final case class Input(name: String, seed: Long, rows: Vector[SnapshotRow], objects: Int,
                       snapshots: Int, p: ClusterParams, c: Constraints) {
  def ids: Set[Long] = rows.iterator.map(_.id).toSet
}

/** The benchmark's workloads. All three use the program's own generators
  * with their default seeds (`Params`), the default constraints
  * CP(4, 16, 3, 3), l_g = 0.8 % of the world and minPts = 5.
  *
  * The benchmark seed does not reseed the generators: how many patterns a
  * stream holds, and so the enumeration work, varies several-fold from one
  * generator seed to the next, which would drown every timing in input
  * noise. Instead the seed relabels the trajectory ids at random and moves
  * the whole world by a random whole number of grid cells; it also orders
  * the streaming replay's records and picks its late records. Cell keys,
  * id partitions, task contents and arrival order change with the seed; the
  * co-movement in the stream does not.
  */
object Workloads {

  /** Snapshots per stream: the first 30 of the generators' 100. The
    * streaming replay hands over one snapshot per micro-batch at roughly
    * 0.5 s each, so this sets most of a run's length.
    */
  val Snapshots = 30

  /** Share of each snapshot's records that reaches the stream one batch late. */
  val HoldBack = 0.05

  val names: Seq[String] = Seq("taxi", "taxi-wide-eps", "brinkhoff")

  def input(name: String, seed: Long): Input = name match {
    case "taxi"          => taxi(name, seed, Params.epsPctDefault)
    case "taxi-wide-eps" => taxi(name, seed, 0.0008)
    case "brinkhoff" =>
      val cfg = Params.brinkhoff.copy(nObjects = 2000, nSnapshots = 100)
      val p = Params.clusterParams(cfg.world)
      Input(name, seed, generate(cfg.nObjects, seed, p.lg)(Brinkhoff.genObject(cfg, _)),
        cfg.nObjects, Snapshots, p, Params.defaultConstraints)
    case other =>
      throw new IllegalArgumentException(s"unknown workload '$other'; one of ${names.mkString(", ")}")
  }

  private def taxi(name: String, seed: Long, epsPct: Double): Input = {
    val cfg = Params.taxi.copy(nObjects = 2400, nSnapshots = 100)
    val p = Params.clusterParams(cfg.world, epsPct)
    Input(name, seed, generate(cfg.nObjects, seed, p.lg)(TrajGen.genObject(cfg, _)),
      cfg.nObjects, Snapshots, p, Params.defaultConstraints)
  }

  /** Generates objects 0 until n, then relabels and moves them by the seed. */
  private def generate(n: Int, seed: Long, lg: Double)(gen: Long => Seq[SnapshotRow]): Vector[SnapshotRow] = {
    val rng = new Random(seed)
    val label = rng.shuffle((0L until n.toLong).toVector)
    val (dx, dy) = (rng.nextInt(1000) * lg, rng.nextInt(1000) * lg)
    (0L until n.toLong).iterator.flatMap(gen).filter(_.time < Snapshots)
      .map(r => SnapshotRow(r.time, label(r.id.toInt), r.x + dx, r.y + dy))
      .toVector.sortBy(r => (r.time, r.id))
  }

  /** The streaming replay's micro-batches, one per snapshot. Each record
    * carries its trajectory's previous report time; record order within a
    * batch is shuffled, and a seeded `HoldBack` share of every snapshot but
    * the last arrives with the next batch instead.
    */
  def replayBatches(rows: Seq[SnapshotRow], seed: Long): Vector[Vector[Gps]] = {
    val rng = new Random(seed * 0x9E3779B97F4A7C15L + 17)
    val last = mutable.HashMap.empty[Long, Int]
    val byTime = rows.groupBy(_.time).toVector.sortBy(_._1)
    var late = Vector.empty[Gps]
    byTime.zipWithIndex.map { case ((t, rs), i) =>
      val gps = rs.sortBy(_.id).map { r =>
        val g = Gps(r.id, t, r.x, r.y, last.getOrElse(r.id, -1))
        last(r.id) = t
        g
      }.toVector
      val shuffled = rng.shuffle(gps)
      val held = if (i == byTime.length - 1) 0 else math.round(HoldBack * gps.length).toInt
      val batch = rng.shuffle(late ++ shuffled.drop(held))
      late = shuffled.take(held)
      batch
    }
  }
}
