package repro.bench

import repro.core.{ClusterParams, Constraints}
import repro.traj.{BrinkhoffConfig, TrajConfig}

/** Benchmark parameter grid — the scaled analogue of the paper's Table 3.
  *
  * The paper runs a 10-slave Flink cluster on datasets with 90k–500k
  * snapshots; we run one Spark local[*] JVM, so all absolute sizes are
  * scaled down ~100x while the *ratios* of Table 3 are preserved: eps and
  * l_g are the same percentages of the world extent, and (M, K, L, G) are
  * scaled ~1/4 .. 1/12 with the same sweep spread. minPts is fixed (paper:
  * 10; here 5, matching the smaller planted group sizes).
  */
object Params {

  /** Scale factor for bench workloads (BENCH_SCALE env, default 1.0). */
  val scale: Double = sys.env.get("BENCH_SCALE").map(_.toDouble).getOrElse(1.0)

  private def sc(n: Int): Int = math.max(8, math.round(n * scale).toInt)

  // ----- datasets (Table 2 substitutes; see DESIGN.md) -----

  /** GeoLife substitute: pedestrian-scale walkers. Snapshots are dense
    * (thousands of objects) so algorithmic cost, not per-micro-batch engine
    * overhead, dominates — matching the paper's regime.
    */
  def geolife: TrajConfig = TrajConfig(nObjects = sc(2000), nSnapshots = sc(100),
    world = 10000.0, speed = 1.5, nGroups = 50, nHubs = 20, hubSigma = 12,
    hubFrac = 0.55, seed = 42L)

  /** Hangzhou-Taxi substitute: vehicle-scale, larger & sparser world. */
  def taxi: TrajConfig = TrajConfig(nObjects = sc(2400), nSnapshots = sc(100),
    world = 20000.0, speed = 8.0, nGroups = 60, nHubs = 25, hubSigma = 12,
    hubFrac = 0.55, dropout = 0.06, seed = 101L)

  /** Fig 14 workloads: much denser snapshots (shorter streams), so executor
    * compute dominates the fixed engine overhead and N-node scaling is
    * observable on one machine. Hub dwell is shortened so the dense crowds
    * do not produce persistent co-movement (enumeration stays bounded).
    */
  def fig14Taxi: TrajConfig = taxi.copy(nObjects = sc(5000), nSnapshots = sc(30),
    nHubs = 50, hubFrac = 0.7, hubDwellMean = 6)
  def fig14Brinkhoff: BrinkhoffConfig = brinkhoff.copy(nObjects = sc(6000), nSnapshots = sc(30),
    nodes = 20, nGroups = 80)

  /** Brinkhoff substitute: network-constrained movement. */
  def brinkhoff: BrinkhoffConfig = BrinkhoffConfig(nObjects = sc(2000), nSnapshots = sc(100),
    nodes = 40, edge = 250.0, nGroups = 50, seed = 7L)

  // ----- default parameters (bold column of Table 3, scaled) -----

  val epsPctDefault = 0.0006  // 0.06% of the world extent (paper default)
  val lgPctDefault  = 0.008   // 0.8% of the world extent (paper default)
  val minPts        = 5       // fixed, like the paper fixes minPts = 10

  val mDefault = 4            // paper: 15
  val kDefault = 16           // paper: 180
  val lDefault = 3            // paper: 20
  val gDefault = 3            // paper: 20

  def defaultConstraints: Constraints = Constraints(mDefault, kDefault, lDefault, gDefault)

  def clusterParams(world: Double,
                    epsPct: Double = epsPctDefault,
                    lgPct: Double = lgPctDefault): ClusterParams =
    ClusterParams(eps = world * epsPct, minPts = minPts, lg = world * lgPct)

  // ----- sweep ranges (Table 3, same relative spread) -----

  val epsPcts: Seq[Double] = Seq(0.0002, 0.0004, 0.0006, 0.0008, 0.0010, 0.0012)
  val lgPcts:  Seq[Double] = Seq(0.002, 0.004, 0.008, 0.016, 0.032, 0.064)
  val ms: Seq[Int] = Seq(3, 4, 5, 6, 7)            // paper: 5..25
  val ks: Seq[Int] = Seq(10, 13, 16, 19, 22)       // paper: 120..240
  val ls: Seq[Int] = Seq(2, 3, 4, 5, 6)            // paper: 10..50
  val gs: Seq[Int] = Seq(2, 3, 4, 5, 6)            // paper: 10..50
  val ors: Seq[Double] = Seq(0.1, 0.2, 0.4, 0.6, 0.8, 1.0)
  val nodes: Seq[Int] = Seq(1, 2, 4, 6, 8, 10)

  def pct(p: Double): String = f"${p * 100}%.2f%%"
}
