package repro.index

import scala.collection.mutable.ArrayBuffer

/** Axis-aligned query/bounding rectangle (closed on all sides). */
final case class Rect(xMin: Double, yMin: Double, xMax: Double, yMax: Double) {
  def contains(x: Double, y: Double): Boolean =
    x >= xMin && x <= xMax && y >= yMin && y <= yMax
  def intersects(o: Rect): Boolean =
    xMin <= o.xMax && o.xMin <= xMax && yMin <= o.yMax && o.yMin <= yMax
  def enlargedBy(x: Double, y: Double): Rect =
    Rect(math.min(xMin, x), math.min(yMin, y), math.max(xMax, x), math.max(yMax, y))
  def union(o: Rect): Rect =
    Rect(math.min(xMin, o.xMin), math.min(yMin, o.yMin),
         math.max(xMax, o.xMax), math.max(yMax, o.yMax))
  def area: Double = (xMax - xMin) * (yMax - yMin)
}

object Rect {
  def point(x: Double, y: Double): Rect = Rect(x, y, x, y)

  /** The square range region of a range query RQ(u, eps): the region the
    * paper's Fig. 2 draws (and Lemmas 1–2 reason about).
    */
  def range(x: Double, y: Double, eps: Double): Rect =
    Rect(x - eps, y - eps, x + eps, y + eps)

  /** The upper half of the range region, used by Lemma 1 query objects. */
  def upperRange(x: Double, y: Double, eps: Double): Rect =
    Rect(x - eps, y, x + eps, y + eps)
}

/** A mutable point R-tree — the per-cell local index of the GR-index (§5.1).
  *
  * Classic Guttman R-tree with quadratic split; entries are points carrying a
  * Long payload (the trajectory id). Supports interleaved insert / range
  * query, which Lemma 2's query-while-building processing requires.
  */
final class RTree(maxEntries: Int = 16) {
  require(maxEntries >= 4, "maxEntries must be >= 4")
  private val minEntries = math.max(2, maxEntries / 2)

  private sealed trait Node {
    var mbr: Rect
  }
  private final class Leaf(var mbr: Rect) extends Node {
    val ids = new ArrayBuffer[Long](maxEntries + 1)
    val xs  = new ArrayBuffer[Double](maxEntries + 1)
    val ys  = new ArrayBuffer[Double](maxEntries + 1)
    def size: Int = ids.length
  }
  private final class Branch(var mbr: Rect) extends Node {
    val children = new ArrayBuffer[Node](maxEntries + 1)
  }

  private var root: Node = new Leaf(Rect(0, 0, -1, -1)) // empty MBR sentinel
  private var count = 0

  /** Number of indexed points. */
  def size: Int = count

  /** Insert a point with payload `id`. */
  def insert(id: Long, x: Double, y: Double): Unit = {
    count += 1
    val split = insertInto(root, id, x, y)
    split.foreach { case (a, b) =>
      val nr = new Branch(a.mbr.union(b.mbr))
      nr.children += a += b
      root = nr
    }
  }

  /** All payloads whose point lies inside `r` (closed rectangle). */
  def query(r: Rect): Seq[Long] = {
    val out = new ArrayBuffer[Long]()
    if (count > 0) queryNode(root, r, out)
    out.toSeq
  }

  private def queryNode(n: Node, r: Rect, out: ArrayBuffer[Long]): Unit = n match {
    case l: Leaf =>
      var i = 0
      while (i < l.size) {
        if (r.contains(l.xs(i), l.ys(i))) out += l.ids(i)
        i += 1
      }
    case b: Branch =>
      b.children.foreach(c => if (c.mbr.intersects(r)) queryNode(c, r, out))
  }

  /** Insert, returning the two halves if `n` overflowed and split. */
  private def insertInto(n: Node, id: Long, x: Double, y: Double): Option[(Node, Node)] = n match {
    case l: Leaf =>
      l.ids += id; l.xs += x; l.ys += y
      l.mbr = if (l.size == 1) Rect.point(x, y) else l.mbr.enlargedBy(x, y)
      if (l.size > maxEntries) Some(splitLeaf(l)) else None
    case b: Branch =>
      val child = chooseChild(b, x, y)
      b.mbr = b.mbr.enlargedBy(x, y)
      insertInto(child, id, x, y) match {
        case Some((c1, c2)) =>
          b.children -= child
          b.children += c1 += c2
          if (b.children.length > maxEntries) Some(splitBranch(b)) else None
        case None => None
      }
  }

  private def chooseChild(b: Branch, x: Double, y: Double): Node =
    b.children.minBy { c =>
      val grown = c.mbr.enlargedBy(x, y).area - c.mbr.area
      (grown, c.mbr.area)
    }

  /** Quadratic split: the seeds are the pair wasting the most area together;
    * each further entry joins the group whose MBR it enlarges least (ties to
    * the smaller group), unless the other group needs every remaining entry
    * to reach `minEntries`. `node` builds each half from its MBR and its
    * entry indices, in entry order after its seed.
    */
  private def split(rects: IndexedSeq[Rect])(node: (Rect, ArrayBuffer[Int]) => Node): (Node, Node) = {
    var (s1, s2) = (0, 1); var worst = -1.0
    for (i <- rects.indices; j <- (i + 1) until rects.length) {
      val waste = rects(i).union(rects(j)).area - rects(i).area - rects(j).area
      if (waste > worst) { worst = waste; s1 = i; s2 = j }
    }
    val a = ArrayBuffer(s1); val b = ArrayBuffer(s2)
    var ra = rects(s1); var rb = rects(s2)
    for (i <- rects.indices if i != s1 && i != s2) {
      val remaining = rects.length - a.length - b.length
      val toA =
        if (a.length + remaining <= minEntries) true
        else if (b.length + remaining <= minEntries) false
        else {
          val da = ra.union(rects(i)).area - ra.area
          val db = rb.union(rects(i)).area - rb.area
          da < db || (da == db && a.length <= b.length)
        }
      if (toA) { a += i; ra = ra.union(rects(i)) } else { b += i; rb = rb.union(rects(i)) }
    }
    (node(ra, a), node(rb, b))
  }

  private def splitLeaf(l: Leaf): (Node, Node) =
    split(l.ids.indices.map(i => Rect.point(l.xs(i), l.ys(i)))) { (mbr, group) =>
      val t = new Leaf(mbr)
      group.foreach { i => t.ids += l.ids(i); t.xs += l.xs(i); t.ys += l.ys(i) }
      t
    }

  private def splitBranch(br: Branch): (Node, Node) =
    split(br.children.map(_.mbr).toIndexedSeq) { (mbr, group) =>
      val t = new Branch(mbr)
      t.children ++= group.map(br.children)
      t
    }
}
