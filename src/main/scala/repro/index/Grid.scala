package repro.index

/** Global grid index math of the GR-index (paper §5.1–5.2).
  *
  * A location (x, y) belongs to the cell with key ⟨⌊x/l_g⌋, ⌊y/l_g⌋⟩; each
  * cell is one partition of the distributed range join. `lemma1QueryKeys`
  * implements the duplicate-avoiding replication of Lemma 1: only the cells
  * intersecting the *upper half* of the range region are probed.
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

  /** Rounding slack for the bounds of the range region around (x, y):
    * `x ± eps` is rounded, and so is the `|Δx| <= eps` test that defines a
    * neighbour, so the two can disagree by an ulp at the region's edge.
    * Bounds widened by this much contain every neighbour; the exact test
    * then decides.
    */
  def slack(x: Double, y: Double, eps: Double): Double =
    4 * Math.ulp(math.abs(x) + math.abs(y) + eps)

  /** Lemma 1 replication keys for a query object at (x, y): all cells
    * intersecting the upper half-region ([x-eps, x+eps], [y, y+eps]) of the
    * range region (bounds widened by [[slack]]), *excluding* the home cell
    * (which is covered by the incremental data-object processing of
    * Lemma 2).
    */
  def lemma1QueryKeys(x: Double, y: Double, lg: Double, eps: Double): Seq[Long] = {
    val home = key(x, y, lg)
    val r = eps + slack(x, y, eps)
    val keys = for {
      cx <- cell(x - r, lg) to cell(x + r, lg)
      cy <- cell(y, lg) to cell(y + r, lg)
      k = pack(cx, cy) if k != home
    } yield k
    keys
  }

  /** All cells intersecting the *full* range region (bounds widened by
    * [[slack]]) — the replication used by the SRJ baseline (no Lemma 1),
    * again excluding the home cell.
    */
  def fullQueryKeys(x: Double, y: Double, lg: Double, eps: Double): Seq[Long] = {
    val home = key(x, y, lg)
    val r = eps + slack(x, y, eps)
    val keys = for {
      cx <- cell(x - r, lg) to cell(x + r, lg)
      cy <- cell(y - r, lg) to cell(y + r, lg)
      k = pack(cx, cy) if k != home
    } yield k
    keys
  }
}
