package icpebench

/** Order statistics and the result line. */
object Stats {

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile (the "inclusive" method). */
  def quantile(xs: Seq[Double], q: Double): Double = {
    require(xs.nonEmpty, "quantile of no samples")
    val s = xs.sorted
    val pos = q * (s.length - 1)
    val lo = math.floor(pos).toInt
    val hi = math.min(lo + 1, s.length - 1)
    s(lo) + (s(hi) - s(lo)) * (pos - lo)
  }

  def nowMs(): Double = System.nanoTime() / 1e6

  /** Runs `body` and returns its result with its wall time in ms. */
  def timed[A](body: => A): (A, Double) = {
    val t0 = nowMs()
    val a = body
    (a, nowMs() - t0)
  }
}

/** Speed of the shared machine, probed in the run's own JVM: the time to
  * sort a copy of a fixed array of 200,000 pseudo-random ints, which runs no
  * program code. The host's speed moves by about 15 % from one minute to the
  * next, and all timings of a run move with it: over ten runs per workload
  * this probe's median correlated with every timing of the run at
  * r = 0.85-0.93. The end-to-end timings are therefore reported scaled to
  * the speed at which the probe takes `ReferenceMs`, i.e. multiplied by
  * `ReferenceMs` over the run's median probe time.
  */
object Probe {
  /** The probe's median time on the 4-vCPU machine the bounds were set on. */
  val ReferenceMs = 25.0

  private val base: Array[Int] = {
    val r = new scala.util.Random(3)
    Array.fill(200000)(r.nextInt())
  }

  def sortMs(): Double = {
    val a = base.clone()
    val t0 = Stats.nowMs()
    java.util.Arrays.sort(a)
    Stats.nowMs() - t0
  }
}

/** One named metric with its unit. */
final case class Metric(name: String, value: Double, unit: String)

/** The final result line the benchmark prints. */
final case class Result(correct: Boolean, attempted: Long, failed: Long, metrics: Seq[Metric]) {
  def json: String = {
    val ms = metrics.map { m =>
      require(!m.value.isNaN && !m.value.isInfinite, s"metric ${m.name} is ${m.value}")
      s""""${m.name}": {"value": ${BigDecimal(m.value).bigDecimal.toPlainString}, "unit": "${m.unit}"}"""
    }
    s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, "metrics": {${ms.mkString(", ")}}}"""
  }
}
