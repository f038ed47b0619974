package repro.traj

import repro.core.SnapshotRow
import scala.util.Random

/** A simplified Brinkhoff-style network-based moving-objects generator
  * (substitute for the external Brinkhoff tool [5], see DESIGN.md).
  *
  * The road network is an n x n lattice with edge length `edge`; each object
  * walks the network with "random but reasonable direction and speed": it
  * moves along edges at a per-object speed, choosing the next edge at each
  * node while avoiding immediate backtracking. Planted groups
  * ([[StreamGen]]) follow a leader's network walk, exactly like [[TrajGen]].
  */
final case class BrinkhoffConfig(
  nObjects: Int = 800,
  nSnapshots: Int = 240,
  nodes: Int = 40,
  edge: Double = 250.0,
  nGroups: Int = 35,
  groupSizeMin: Int = 4,
  groupSizeMax: Int = 9,
  dropout: Double = 0.02,
  seed: Long = 7L,
) extends StreamConfig {
  /** World side length implied by the lattice. */
  def world: Double = nodes * edge

  def genObject(id: Long): Seq[SnapshotRow] = Brinkhoff.genObject(this, id)
}

object Brinkhoff {

  /** Range of the per-object speeds, in world units per snapshot. */
  val SpeedMin = 3.0
  val SpeedMax = 12.0

  /** One network walk: continuous positions along lattice edges. */
  def networkWalk(rng: Random, cfg: BrinkhoffConfig, speed: Double): StreamGen.Path = {
    val n = cfg.nodes
    var cur = (rng.nextInt(n), rng.nextInt(n))
    var prev = cur
    var next = pickNeighbor(rng, cur, prev, n)
    var progress = 0.0 // distance travelled along the current edge
    Array.fill(cfg.nSnapshots) {
      progress += speed
      while (progress >= cfg.edge) {
        progress -= cfg.edge
        prev = cur; cur = next
        next = pickNeighbor(rng, cur, prev, n)
      }
      val frac = progress / cfg.edge
      (cfg.edge * (cur._1 + (next._1 - cur._1) * frac),
       cfg.edge * (cur._2 + (next._2 - cur._2) * frac))
    }
  }

  private def pickNeighbor(rng: Random, cur: (Int, Int), prev: (Int, Int), n: Int): (Int, Int) = {
    val cands = Seq((cur._1 + 1, cur._2), (cur._1 - 1, cur._2),
                    (cur._1, cur._2 + 1), (cur._1, cur._2 - 1))
      .filter { case (i, j) => i >= 0 && i < n && j >= 0 && j < n }
    val forward = cands.filterNot(_ == prev)
    val pool = if (forward.nonEmpty) forward else cands
    pool(rng.nextInt(pool.length))
  }

  /** All records of one object. Its speed is its RNG's first draw; group
    * leaders walk at the middle speed.
    */
  def genObject(cfg: BrinkhoffConfig, id: Long): Seq[SnapshotRow] = {
    val rng = StreamGen.objectRng(cfg, id)
    val speed = SpeedMin + rng.nextDouble() * (SpeedMax - SpeedMin)
    StreamGen.records(cfg, id, rng)(networkWalk(_, cfg, (SpeedMin + SpeedMax) / 2))(
      networkWalk(rng, cfg, speed), networkWalk(rng, cfg, speed))
  }
}
