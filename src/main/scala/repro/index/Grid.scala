package repro.index

/** Global grid index math of the GR-index (paper §5.1–5.2).
  *
  * A location (x, y) belongs to the cell with key ⟨⌊x/l_g⌋, ⌊y/l_g⌋⟩; each
  * cell is one partition of the distributed range join. A query object is
  * replicated to the cells its probe region intersects (`cellsIn`), and the
  * cell's R-tree is probed with that same region, so replication and probe
  * agree on every edge: `upperRegion` is Lemma 1's duplicate-avoiding half,
  * `fullRegion` the whole range region.
  */
object Grid {

  /** Flat cell key; packed into a single Long so it can serve directly as a
    * Spark grouping key. Coordinates may be negative (floor semantics).
    */
  def key(x: Double, y: Double, lg: Double): Long =
    pack(cell(x, lg), cell(y, lg))

  /** Cell index along one axis: ⌊v / l_g⌋ with true floor. */
  def cell(v: Double, lg: Double): Int = math.floor(v / lg).toInt

  def pack(cx: Int, cy: Int): Long = (cx.toLong << 32) | (cy.toLong & 0xffffffffL)

  /** The range region RQ((x, y), eps), widened by the rounding slack. */
  def fullRegion(x: Double, y: Double, eps: Double): Rect =
    Rect.range(x, y, eps + slack(x, y, eps))

  /** The upper half ([x-eps, x+eps], [y, y+eps]) of the range region that
    * Lemma 1 replicates to and probes, widened by the rounding slack.
    */
  def upperRegion(x: Double, y: Double, eps: Double): Rect =
    Rect.upperRange(x, y, eps + slack(x, y, eps))

  /** `x ± eps` is rounded, and so is the `|Δx| <= eps` test that defines a
    * neighbour, so the two can disagree by an ulp at the region's edge.
    * Bounds widened by this much contain every neighbour; the exact test
    * then decides.
    */
  private def slack(x: Double, y: Double, eps: Double): Double =
    4 * Math.ulp(math.abs(x) + math.abs(y) + eps)

  /** Keys of the cells intersecting `region`, column by column, *excluding*
    * the `home` cell (its pairs come from the incremental data-object
    * processing of Lemma 2).
    */
  def cellsIn(region: Rect, lg: Double, home: Long): Seq[Long] =
    for {
      cx <- cell(region.xMin, lg) to cell(region.xMax, lg)
      cy <- cell(region.yMin, lg) to cell(region.yMax, lg)
      k = pack(cx, cy) if k != home
    } yield k
}
