package repro.traj

import repro.core.SnapshotRow
import scala.collection.mutable.ArrayBuffer
import scala.util.Random

/** The settings both generators share; each config also names its generator. */
trait StreamConfig {
  def nObjects: Int; def nSnapshots: Int; def nGroups: Int
  def groupSizeMin: Int; def groupSizeMax: Int; def dropout: Double; def seed: Long

  /** All records of object `id`. */
  def genObject(id: Long): Seq[SnapshotRow]
}

/** The planted-group core of both stream generators ([[TrajGen]] in free
  * space, [[Brinkhoff]] on a road lattice); they supply only the walks.
  *
  * The leading ids form `nGroups` groups. A member follows its group's
  * leader walk with small jitter during on-episodes and its own walk during
  * off-episodes (wandered away); this plants co-movement patterns with the
  * L/G gap structure of Definition 4. Every record is then dropped with
  * probability `dropout`.
  *
  * Everything is deterministic in (config, seed): each object derives its
  * own RNG from the seed and its id, each leader from the seed and the
  * group id, so any object can be generated alone.
  */
object StreamGen {

  /** Jitter scale of a member around its leader, and the mean on- and
    * off-episode lengths in snapshots.
    */
  val GroupJitter = 2.0
  val EpisodeOnMean = 40
  val EpisodeOffMean = 3

  type Path = Array[(Double, Double)]

  private val GroupSalt = 0x9E3779B97F4A7C15L
  private val ObjSalt   = 0xC2B2AE3D27D4EB4FL

  /** Sizes of the planted groups (deterministic in the seed). */
  def groupSizes(cfg: StreamConfig): IndexedSeq[Int] = {
    val rng = new Random(cfg.seed)
    (0 until cfg.nGroups).map { _ =>
      cfg.groupSizeMin + rng.nextInt(cfg.groupSizeMax - cfg.groupSizeMin + 1)
    }
  }

  /** Group of object `id`, if it is a group member. */
  def groupOf(cfg: StreamConfig, id: Long): Option[Int] = {
    var off = 0L
    val sizes = groupSizes(cfg)
    var g = 0
    while (g < sizes.length) {
      if (id < off + sizes(g) && id >= off) return Some(g)
      off += sizes(g); g += 1
    }
    None
  }

  /** Per-time on/off episode flags with geometric on/off durations. */
  def episodes(rng: Random, n: Int): Array[Boolean] = {
    val out = new Array[Boolean](n)
    var i = 0
    var on = true
    while (i < n) {
      val mean = if (on) EpisodeOnMean else EpisodeOffMean
      val len = math.max(1, math.round(-mean * math.log(1 - rng.nextDouble())).toInt)
      var j = 0
      while (j < len && i < n) { out(i) = on; i += 1; j += 1 }
      on = !on
    }
    out
  }

  /** The RNG of object `id`. */
  def objectRng(cfg: StreamConfig, id: Long): Random = new Random(cfg.seed ^ (ObjSalt * (id + 1)))

  /** The records of object `id`, drawing from its RNG `rng`. A group member
    * draws its episodes, then its own walk `solo`, then the jitter around
    * `leader` (run on the group's RNG); any other object walks `alone`.
    * Dropout is drawn last, one draw per snapshot.
    */
  def records(cfg: StreamConfig, id: Long, rng: Random)(leader: Random => Path)
             (solo: => Path, alone: => Path): Seq[SnapshotRow] = {
    val positions: Path = groupOf(cfg, id) match {
      case Some(g) =>
        val lead = leader(new Random(cfg.seed ^ (GroupSalt * (g + 1))))
        val ep = episodes(rng, cfg.nSnapshots)
        val own = solo
        Array.tabulate(cfg.nSnapshots) { t =>
          if (ep(t)) (lead(t)._1 + rng.nextGaussian() * GroupJitter * 0.4,
                      lead(t)._2 + rng.nextGaussian() * GroupJitter * 0.4)
          else own(t)
        }
      case None => alone
    }
    val rows = new ArrayBuffer[SnapshotRow](cfg.nSnapshots)
    var t = 0
    while (t < cfg.nSnapshots) {
      if (rng.nextDouble() >= cfg.dropout)
        rows += SnapshotRow(t, id, positions(t)._1, positions(t)._2)
      t += 1
    }
    rows.toSeq
  }

  /** The whole stream of `cfg`, sorted by (time, id). */
  def generate(cfg: StreamConfig): Array[SnapshotRow] =
    (0L until cfg.nObjects.toLong).iterator.flatMap(cfg.genObject).toArray
      .sortBy(r => (r.time, r.id))
}
