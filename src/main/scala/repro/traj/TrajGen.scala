package repro.traj

import repro.core.SnapshotRow
import scala.util.Random

/** Configuration of the free-space synthetic trajectory stream generator.
  *
  * The generated population mixes three behaviours:
  *  - *group members*: planted co-movement groups ([[StreamGen]]) whose
  *    leaders walk like free walkers.
  *  - *hub dwellers*: loiter near one of `nHubs` hotspots for a limited
  *    dwell, then travel to another. They create the dense instantaneous
  *    clusters (average cluster size grows with the object ratio Or) that
  *    drive clustering cost, while their churn keeps persistent
  *    co-movement — and thus enumeration blow-up — bounded.
  *  - *free walkers*: independent random walks (background noise).
  */
final case class TrajConfig(
  nObjects: Int = 800,
  nSnapshots: Int = 240,
  world: Double = 10000.0,
  nGroups: Int = 40,
  groupSizeMin: Int = 4,
  groupSizeMax: Int = 9,
  speed: Double = 3.0,
  nHubs: Int = 20,
  hubSigma: Double = 15.0,
  hubFrac: Double = 0.5,
  hubDwellMean: Int = 14,
  dropout: Double = 0.03,
  seed: Long = 42L,
) extends StreamConfig {
  def genObject(id: Long): Seq[SnapshotRow] = TrajGen.genObject(this, id)
}

object TrajGen {

  private val HubSalt = 0x165667B19E3779F9L

  /** A smooth bounded random-walk path (waypointless heading walk). */
  def path(rng: Random, cfg: TrajConfig, speed: Double): StreamGen.Path = {
    var x = rng.nextDouble() * cfg.world
    var y = rng.nextDouble() * cfg.world
    var heading = rng.nextDouble() * 2 * math.Pi
    Array.fill(cfg.nSnapshots) {
      heading += rng.nextGaussian() * 0.3
      x += speed * math.cos(heading)
      y += speed * math.sin(heading)
      if (x < 0) { x = -x; heading = math.Pi - heading }
      if (x > cfg.world) { x = 2 * cfg.world - x; heading = math.Pi - heading }
      if (y < 0) { y = -y; heading = -heading }
      if (y > cfg.world) { y = 2 * cfg.world - y; heading = -heading }
      (x, y)
    }
  }

  /** Hub locations (deterministic in the seed). */
  def hubs(cfg: TrajConfig): IndexedSeq[(Double, Double)] = {
    val rng = new Random(cfg.seed ^ HubSalt)
    (0 until cfg.nHubs).map(_ => (rng.nextDouble() * cfg.world, rng.nextDouble() * cfg.world))
  }

  /** Generate all records of one object: group members and free walkers
    * walk `path`, the first non-members after the groups dwell at hubs.
    */
  def genObject(cfg: TrajConfig, id: Long): Seq[SnapshotRow] = {
    val rng = StreamGen.objectRng(cfg, id)
    StreamGen.records(cfg, id, rng)(path(_, cfg, cfg.speed))(path(rng, cfg, cfg.speed), {
      val grouped = StreamGen.groupSizes(cfg).sum
      val hubCount = math.round((cfg.nObjects - grouped) * cfg.hubFrac).toInt
      if (id < grouped + hubCount) hubDwellerPositions(cfg, rng)
      else path(rng, cfg, cfg.speed)
    })
  }

  private def hubDwellerPositions(cfg: TrajConfig, rng: Random): StreamGen.Path = {
    val hs = hubs(cfg)
    val travelSpeed = cfg.speed * 25
    val out = new Array[(Double, Double)](cfg.nSnapshots)
    var t = 0
    var hub = hs(rng.nextInt(hs.length))
    while (t < cfg.nSnapshots) {
      // Dwell near the hub with a clamped local random walk.
      val dwell = 4 + math.round(-cfg.hubDwellMean * math.log(1 - rng.nextDouble())).toInt
      var dx = rng.nextGaussian() * cfg.hubSigma
      var dy = rng.nextGaussian() * cfg.hubSigma
      var j = 0
      while (j < dwell && t < cfg.nSnapshots) {
        dx = clamp(dx + rng.nextGaussian() * cfg.hubSigma * 0.3, cfg.hubSigma * 2.5)
        dy = clamp(dy + rng.nextGaussian() * cfg.hubSigma * 0.3, cfg.hubSigma * 2.5)
        out(t) = (hub._1 + dx, hub._2 + dy)
        t += 1; j += 1
      }
      // Travel to the next hub at vehicle speed.
      val next = hs(rng.nextInt(hs.length))
      val (sx, sy) = (hub._1 + dx, hub._2 + dy)
      val dist = math.hypot(next._1 - sx, next._2 - sy)
      val steps = math.max(1, math.ceil(dist / travelSpeed).toInt)
      var k = 1
      while (k <= steps && t < cfg.nSnapshots) {
        out(t) = (sx + (next._1 - sx) * k / steps, sy + (next._2 - sy) * k / steps)
        t += 1; k += 1
      }
      hub = next
    }
    out
  }

  private def clamp(v: Double, bound: Double): Double =
    math.max(-bound, math.min(bound, v))
}
