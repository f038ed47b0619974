package repro.core

import scala.collection.mutable.ArrayBuffer

/** A compact immutable bit string over 64-bit words (paper §6.2–6.3).
  *
  * Bit j of `B[o_i]` records whether the anchor trajectory o and o_i belong
  * to the same cluster at time `offset + j` (Definitions 13–14). The fixed
  * length variant uses `offset = window start` and `length = eta`; the
  * variable length variant uses `offset = st_i` and grows over time.
  *
  * The bitwise AND of member strings yields the co-cluster times of a whole
  * candidate object set: `B[O] = & B[o_x]` (§6.2 "Bit Operation").
  */
final class Bits private (private val words: Array[Long], val length: Int) {

  /** Bit at position `i` (0-based). Positions outside [0, length) are 0. */
  def apply(i: Int): Boolean =
    i >= 0 && i < length && ((words(i >> 6) >>> (i & 63)) & 1L) == 1L

  /** Number of set bits. */
  def cardinality: Int = words.map(java.lang.Long.bitCount).sum

  /** 0-based positions of the set bits, ascending. */
  def onesPositions: Seq[Int] = {
    val out = new ArrayBuffer[Int](cardinality)
    var w = 0
    while (w < words.length) {
      var word = words(w)
      while (word != 0L) {
        val b = java.lang.Long.numberOfTrailingZeros(word)
        out += (w << 6) + b
        word &= word - 1
      }
      w += 1
    }
    out.toVector
  }

  /** Set-bit positions shifted by `offset` — the actual snapshot times. */
  def times(offset: Int): Seq[Int] = onesPositions.map(_ + offset)

  /** Bitwise AND with another string of the same length and offset. */
  def and(other: Bits): Bits = {
    require(other.length == length, s"length mismatch: $length vs ${other.length}")
    val out = new Array[Long](words.length)
    var i = 0
    while (i < words.length) { out(i) = words(i) & other.words(i); i += 1 }
    new Bits(out, length)
  }

  override def equals(o: Any): Boolean = o match {
    case b: Bits => b.length == length && b.onesPositions == onesPositions
    case _       => false
  }
  override def hashCode: Int = (length, onesPositions).hashCode
  override def toString: String = (0 until length).map(i => if (apply(i)) '1' else '0').mkString
}

object Bits {

  /** Build from set-bit positions (0-based, each < length). */
  def fromPositions(length: Int, positions: Iterable[Int]): Bits = {
    val words = new Array[Long](((length + 63) >> 6) max 1)
    positions.foreach { i =>
      require(i >= 0 && i < length, s"bit $i out of [0, $length)")
      words(i >> 6) |= 1L << (i & 63)
    }
    new Bits(words, length)
  }

  /** Parse a '0'/'1' string, index 0 first — mirrors the paper's figures,
    * e.g. `Bits.parse("110111")`.
    */
  def parse(s: String): Bits =
    fromPositions(s.length, s.zipWithIndex.collect { case ('1', i) => i })

  /** AND over a non-empty collection (B[O] of §6.2). */
  def andAll(bs: Iterable[Bits]): Bits = bs.reduce(_ and _)

  /** Whether the string (anchored at `offset`) contains a (K,L,G)-valid
    * time sequence — the validity test used by FBA/VBA enumeration.
    */
  def containsValid(b: Bits, c: Constraints): Boolean =
    TimeSeq.containsValid(b.onesPositions, c)

  /** Maximal valid time sequences encoded in the string, as snapshot times. */
  def maximalValid(b: Bits, offset: Int, c: Constraints): Seq[Seq[Int]] =
    TimeSeq.maximalValid(b.times(offset), c)
}

/** A variable-length bit string entry of VBA (Definition 14): trajectory
  * `id`'s co-cluster history with the subtask anchor over `[st, et]`.
  */
final case class VarBits(id: Long, st: Int, et: Int, bits: Bits) {
  require(et - st + 1 == bits.length, s"span [$st,$et] vs ${bits.length} bits")
  def times: Seq[Int] = bits.times(st)

  /** The string cut to the span [from, to] and anchored at `from`, so that
    * it ANDs with any other string cut to the same span (Lemma 8).
    */
  def cut(from: Int, to: Int): Bits =
    Bits.fromPositions(to - from + 1, times.filter(t => t >= from && t <= to).map(_ - from))
}
