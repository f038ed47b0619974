package repro.enumeration

import repro.core.{Bits, Constraints, PartitionRow}
import scala.collection.immutable.TreeMap

/** The three pattern-enumeration methods of §6 as selectable strategies. */
sealed trait EnumMethod { def name: String }
case object BaselineMethod extends EnumMethod { val name = "BA" }
case object FbaMethod      extends EnumMethod { val name = "FBA" }
case object VbaMethod      extends EnumMethod { val name = "VBA" }

/** Pattern enumeration per subtask (§6.1): `ICPE.detectPatterns` shuffles
  * partitions to their anchor's subtask (`groupByKey(_.anchor)` — the Spark
  * analogue of Flink's keyBy on the trajectory id) and each subtask runs the
  * chosen detector over its time-ordered partition stream.
  */
object Enumeration {

  /** Run one subtask's whole partition stream through a detector. */
  def detectLocal(anchor: Long, rows: Iterator[PartitionRow], c: Constraints,
                  method: EnumMethod): Seq[Emitted] = {
    val parts = TreeMap.from(rows.map(r => r.time -> r.others.toSet))
    if (parts.isEmpty) return Nil
    method match {
      case BaselineMethod => BA.detect(anchor, parts, c)
      case FbaMethod      => FBA.detect(anchor, parts, c)
      case VbaMethod =>
        val st = new VbaState(anchor)
        val out = Seq.newBuilder[Emitted]
        parts.foreach { case (t, members) => out ++= VBA.onSnapshot(st, t, members, c) }
        out ++= VBA.flush(st, c)
        out.result()
    }
  }

  /** The apriori growth loop FBA and VBA share (§6.2–6.3): the combinations
    * of `level0` whose AND-ed string contains a (K,L,G)-valid sequence, then
    * each of those extended by every item with a larger id, level by level
    * until none stays valid. Validity is anti-monotone under AND, so no valid
    * superset is missed; ids grow along a combination, so each object set is
    * grown once and holds no id twice. `items` are in ascending id order.
    */
  private[enumeration] def grow(level0: Seq[(Vector[Long], Bits)], items: Seq[(Long, Bits)],
                                c: Constraints): Iterator[(Vector[Long], Bits)] = {
    def valid(level: Seq[(Vector[Long], Bits)]) = level.filter { case (_, b) => Bits.containsValid(b, c) }
    Iterator.iterate(valid(level0)) { level =>
      valid(level.flatMap { case (ids, b) =>
        items.collect { case (id, nb) if ids.isEmpty || id > ids.last => (ids :+ id, b.and(nb)) }
      })
    }.takeWhile(_.nonEmpty).flatten
  }

  /** Canonical de-duplicated result: one row per distinct object set, with
    * the earliest emission time (BA's sliding windows re-detect patterns, and
    * FBA and VBA emit a set once per maximal sequence).
    */
  def distinctPatterns(emitted: Seq[Emitted]): Seq[Emitted] =
    emitted.groupBy(_.pattern.objects).toSeq
      .map { case (_, es) => es.minBy(e => (e.emitTime, e.pattern.times.head)) }
      .sortBy(_.pattern.objects.mkString(","))
}
