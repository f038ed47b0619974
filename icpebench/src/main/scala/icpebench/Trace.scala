package icpebench

import java.io.PrintWriter
import java.nio.file.{Files, Paths}
import repro.core._
import repro.enumeration._
import repro.stream.TimeSync
import scala.collection.immutable.TreeMap
import scala.collection.mutable.ArrayBuffer

/** One timed call into a layer. `parent` is the id of the enclosing span,
  * 0 at the top level; all spans of one run share `runId`.
  */
final case class Span(id: Int, name: String, parent: Int, startNs: Long, endNs: Long, runId: String) {
  def ms: Double = (endNs - startNs) / 1e6
}

/** In-memory span recorder; spans are written out once, when the run ends. */
final class Tracer(val runId: String) {
  private val spans = ArrayBuffer.empty[Span]
  private var open = List(0)
  private var nextId = 1

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.head
    open = id :: open
    val start = System.nanoTime()
    try body
    finally {
      open = open.tail
      spans += Span(id, name, parent, start, System.nanoTime(), runId)
    }
  }

  /** Total time of all spans called `name`. */
  def ms(name: String): Double = spans.iterator.filter(_.name == name).map(_.ms).sum

  def write(path: String): Unit = {
    Option(Paths.get(path).getParent).foreach(Files.createDirectories(_))
    val w = new PrintWriter(path)
    try spans.sortBy(_.id).foreach { s =>
      w.println(s"""{"id": ${s.id}, "name": "${s.name}", "parent": ${s.parent}, """ +
        s""""start_ns": ${s.startNs}, "end_ns": ${s.endNs}, "run": "${s.runId}"}""")
    } finally w.close()
  }
}

/** Outputs and counts of the single-threaded, driver-side pass over the
  * layers. `rawPairs` counts GridQuery's pairs before GridSync's `distinct`;
  * `pairs` and `clusters` are the de-duplicated pairs and DBSCAN's clusters.
  */
final case class Chain(points: Long, replicas: Long, rawPairs: Long, maxCellObjects: Long,
                       lemma3Dropped: Long, pairs: Seq[NeighborPair], clusters: Seq[ClusterRow],
                       partitions: Seq[PartitionRow], fba: Seq[Emitted], vba: Seq[Emitted],
                       vbaOpenEnd: Long, vbaCandsEnd: Long) {
  def dupPairs: Long = rawPairs - pairs.length
  def clusteredPoints: Long = clusters.iterator.map(_.members.length.toLong).sum
  def fbaPatterns: Int = fba.iterator.map(_.pattern.objects).distinct.size
}

/** Calls each layer's public functions directly, on one driver thread, with
  * a span around every call: GridAllocate, the grouping by cell, GridQuery,
  * GridSync's de-duplication, DBSCAN and id-partitioning per snapshot, then
  * FBA and VBA per anchor.
  */
object Layers {

  def driverChain(in: Input, tr: Tracer): Chain = {
    val (eps, lg, c) = (in.p.eps, in.p.lg, in.c)
    var replicas, rawPairs, maxCell, dropped = 0L
    val pairs = ArrayBuffer.empty[NeighborPair]
    val clusters = ArrayBuffer.empty[ClusterRow]
    val parts = ArrayBuffer.empty[PartitionRow]
    tr.span("cluster") {
      for ((t, rs) <- in.rows.groupBy(_.time).toSeq.sortBy(_._1)) tr.span("snapshot") {
        val objs = tr.span("grid_allocate")(rs.flatMap(RangeJoin.gridAllocate(_, eps, lg)))
        val cells = tr.span("group_by_cell")(objs.groupBy(_.cellKey).values.toVector)
        val raw = tr.span("grid_query")(cells.flatMap(cell => RangeJoin.gridQuery(cell.iterator, eps)))
        val unique = tr.span("grid_sync")(raw.distinct)
        val cls = tr.span("dbscan")(Dbscan.clusterLocal(t, rs.map(_.id), unique, in.p.minPts))
        parts ++= tr.span("partition")(cls.flatMap(IdPartitioner.partitionsLocal(_, c.m)))
        replicas += objs.length
        rawPairs += raw.length
        pairs ++= unique
        clusters ++= cls
        maxCell = math.max(maxCell, cells.iterator.map(_.length.toLong).max)
        dropped += cls.count(_.members.length < c.m)
      }
    }
    val byAnchor = parts.groupBy(_.anchor).toVector.sortBy(_._1).map { case (a, rs) => a -> rs.sortBy(_.time) }
    val fba = tr.span("enumerate_fba") {
      byAnchor.flatMap { case (a, rs) => tr.span("fba")(Enumeration.detectLocal(a, rs.iterator, c, FbaMethod)) }
    }
    var open, cands = 0L
    val vba = tr.span("enumerate_vba") {
      byAnchor.flatMap { case (a, rs) =>
        tr.span("vba") {
          val st = new VbaState(a)
          val out = ArrayBuffer.empty[Emitted]
          rs.foreach(r => out ++= VBA.onSnapshot(st, r.time, r.others.toSet, c))
          open += st.open.size
          cands += st.cands.size
          out ++= VBA.flush(st, c)
          out
        }
      }
    }
    Chain(in.rows.length, replicas, rawPairs, maxCell, dropped, pairs.toVector, clusters.toVector,
      parts.toVector, fba, vba, open, cands)
  }

  /** The eta-bit window strings FBA builds (one per anchor, window start and
    * partition member), capped at `limit`, in anchor and time order.
    */
  def windowStrings(parts: Seq[PartitionRow], c: Constraints, limit: Int): Vector[Bits] = {
    val out = Vector.newBuilder[Bits]
    var n = 0
    val byAnchor = parts.groupBy(_.anchor).toVector.sortBy(_._1)
    for ((_, rs) <- byAnchor if n < limit) {
      val byTime = TreeMap.from(rs.map(r => r.time -> r.others.toSet))
      for ((t, p0) <- byTime if p0.size >= c.m - 1 && n < limit) {
        val window = byTime.range(t, t + c.eta)
        for (oi <- p0.toVector.sorted if n < limit) {
          out += Bits.fromPositions(c.eta, window.collect { case (j, pj) if pj.contains(oi) => j - t })
          n += 1
        }
      }
    }
    out.result()
  }

  /** Mean ns per `Bits.containsValid` call over `strings`, timed over at
    * least `minMs` after one untimed sweep.
    */
  def containsValidNs(strings: Vector[Bits], c: Constraints, minMs: Double): Double = {
    require(strings.nonEmpty, "no window strings to time")
    var sink = 0L
    def sweep(): Unit = strings.foreach(b => if (Bits.containsValid(b, c)) sink += 1)
    sweep()
    var calls = 0L
    val t0 = System.nanoTime()
    while ((System.nanoTime() - t0) / 1e6 < minMs) { sweep(); calls += strings.length }
    val ns = (System.nanoTime() - t0).toDouble / calls
    if (sink < 0) println(sink) // keeps the calls live
    ns
  }

  /** Time sync alone, fed the replay's batches: median ms per `addAll`, the
    * lag in snapshots between the newest record fed and the newest snapshot
    * released, and the records fed but not yet released.
    */
  final case class SyncStats(addMs: Seq[Double], lag: Seq[Double], heldMax: Long)

  def timeSync(ids: Set[Long], batches: Seq[Seq[Gps]], tr: Tracer): SyncStats = {
    val sync = new TimeSync(ids)
    var fed, released = 0L
    var newest, lastOut = -1
    val addMs, lag = ArrayBuffer.empty[Double]
    var heldMax = 0L
    for (b <- batches) {
      val t0 = System.nanoTime()
      val out = tr.span("timesync.add_all")(sync.addAll(b))
      addMs += (System.nanoTime() - t0) / 1e6
      fed += b.length
      released += out.iterator.map(_._2.length.toLong).sum
      newest = math.max(newest, b.iterator.map(_.time).max)
      out.lastOption.foreach(o => lastOut = o._1)
      lag += (newest - lastOut).toDouble
      heldMax = math.max(heldMax, fed - released)
    }
    SyncStats(addMs.toSeq, lag.toSeq, heldMax)
  }
}
