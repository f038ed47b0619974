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
    def isLeaf: Boolean
  }
  private final class Leaf(var mbr: Rect) extends Node {
    val ids = new ArrayBuffer[Long](maxEntries + 1)
    val xs  = new ArrayBuffer[Double](maxEntries + 1)
    val ys  = new ArrayBuffer[Double](maxEntries + 1)
    def isLeaf = true
    def size: Int = ids.length
  }
  private final class Branch(var mbr: Rect) extends Node {
    val children = new ArrayBuffer[Node](maxEntries + 1)
    def isLeaf = false
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

  /** Quadratic-split seed pick: the pair wasting the most area together. */
  private def pickSeeds(rects: IndexedSeq[Rect]): (Int, Int) = {
    var best = (0, 1); var worst = -1.0
    for (i <- rects.indices; j <- (i + 1) until rects.length) {
      val waste = rects(i).union(rects(j)).area - rects(i).area - rects(j).area
      if (waste > worst) { worst = waste; best = (i, j) }
    }
    best
  }

  private def splitLeaf(l: Leaf): (Node, Node) = {
    val rects = l.ids.indices.map(i => Rect.point(l.xs(i), l.ys(i)))
    val (s1, s2) = pickSeeds(rects)
    val a = new Leaf(rects(s1)); val b = new Leaf(rects(s2))
    def add(t: Leaf, i: Int): Unit = {
      t.ids += l.ids(i); t.xs += l.xs(i); t.ys += l.ys(i)
      t.mbr = if (t.size == 1) rects(i) else t.mbr.union(rects(i))
    }
    add(a, s1); add(b, s2)
    for (i <- l.ids.indices if i != s1 && i != s2) {
      val remaining = l.size - 2 - (a.size + b.size - 2)
      val t =
        if (a.size + remaining <= minEntries) a
        else if (b.size + remaining <= minEntries) b
        else {
          val da = a.mbr.union(rects(i)).area - a.mbr.area
          val db = b.mbr.union(rects(i)).area - b.mbr.area
          if (da < db || (da == db && a.size <= b.size)) a else b
        }
      add(t, i)
    }
    (a, b)
  }

  private def splitBranch(br: Branch): (Node, Node) = {
    val rects = br.children.map(_.mbr).toIndexedSeq
    val (s1, s2) = pickSeeds(rects)
    val a = new Branch(rects(s1)); val b = new Branch(rects(s2))
    a.children += br.children(s1); b.children += br.children(s2)
    for (i <- br.children.indices if i != s1 && i != s2) {
      val remaining = br.children.length - 2 - (a.children.length + b.children.length - 2)
      val t =
        if (a.children.length + remaining <= minEntries) a
        else if (b.children.length + remaining <= minEntries) b
        else {
          val da = a.mbr.union(rects(i)).area - a.mbr.area
          val db = b.mbr.union(rects(i)).area - b.mbr.area
          if (da < db || (da == db && a.children.length <= b.children.length)) a else b
        }
      t.children += br.children(i)
      t.mbr = t.mbr.union(rects(i))
    }
    (a, b)
  }
}
