package repro.core

import scala.collection.mutable.ArrayBuilder

/** A compact immutable bit string over 64-bit words (paper §6.2–6.3).
  *
  * Bit j of `B[o_i]` records whether the anchor trajectory o and o_i belong
  * to the same cluster at time `offset + j` (Definitions 13–14). The fixed
  * length variant uses `offset = window start` and `length = eta`; the
  * variable length variant uses `offset = st_i` and grows over time.
  *
  * The bitwise AND of member strings yields the co-cluster times of a whole
  * candidate object set: `B[O] = & B[o_x]` (§6.2 "Bit Operation").
  *
  * Every bit at or past `length` is 0; each constructor keeps it so, which
  * lets equality compare words and the run scans stop at the last word.
  */
final class Bits private (private val words: Array[Long], val length: Int) {

  /** Bit at position `i` (0-based). Positions outside [0, length) are 0. */
  def apply(i: Int): Boolean =
    i >= 0 && i < length && ((words(i >> 6) >>> (i & 63)) & 1L) == 1L

  /** 0-based positions of the set bits, ascending. */
  def onesPositions: Seq[Int] = (0 until length).filter(apply)

  /** Bitwise AND with another string of the same length and offset. */
  def and(other: Bits): Bits = {
    require(other.length == length, s"length mismatch: $length vs ${other.length}")
    val out = new Array[Long](words.length)
    var i = 0
    while (i < words.length) { out(i) = words(i) & other.words(i); i += 1 }
    new Bits(out, length)
  }

  /** The `len` bits from position `from` on as a string of their own: bit j
    * is bit `from + j` of this string, 0 where that lies outside
    * [0, length). Whole words are shifted, and the last one is masked.
    */
  def slice(from: Int, len: Int): Bits = {
    require(len >= 0, s"negative slice length $len")
    val n = (len + 63) >> 6
    val out = new Array[Long](n max 1)
    val q = Math.floorDiv(from, 64)
    val r = Math.floorMod(from, 64)
    var i = 0
    while (i < n) {
      val lo = wordAt(q + i) >>> r
      out(i) = if (r == 0) lo else lo | (wordAt(q + i + 1) << (64 - r))
      i += 1
    }
    if ((len & 63) != 0) out(n - 1) &= (1L << (len & 63)) - 1
    new Bits(out, len)
  }

  private def wordAt(k: Int): Long = if (k >= 0 && k < words.length) words(k) else 0L

  /** First position at or after `from` (>= 0) whose bit equals `bit`, or
    * `length` if there is none. Since the bits past `length` are 0, a search
    * for a 0 from a set bit ends at `length` at the latest.
    */
  private def next(from: Int, bit: Boolean): Int = {
    val flip = if (bit) 0L else -1L
    var w = from >> 6
    if (w >= words.length) return length
    var word = (words(w) ^ flip) & (-1L << (from & 63))
    while (word == 0L) {
      w += 1
      if (w == words.length) return length
      word = words(w) ^ flip
    }
    (w << 6) + java.lang.Long.numberOfTrailingZeros(word)
  }

  /** Whether the string holds a (K,L,G)-valid sequence, by a scan over its
    * runs of set bits: a run shorter than L is skipped, a kept run starting
    * more than G after the current component's last time opens a new
    * component, and the scan stops once a component holds K times.
    */
  private def hasValid(c: Constraints): Boolean = {
    var ones = 0
    var w = 0
    while (w < words.length) { ones += java.lang.Long.bitCount(words(w)); w += 1 }
    if (ones < c.k) return false
    var count = 0 // times in the current component
    var last = 0  // the current component's last time
    var s = next(0, bit = true)
    while (s < length) {
      val e = next(s, bit = false) // the run [s, e)
      if (e - s >= c.l) {
        if (count > 0 && s - last > c.g) count = 0
        count += e - s
        if (count >= c.k) return true
        last = e - 1
      }
      s = next(e, bit = true)
    }
    false
  }

  /** The components of `hasValid`'s scan that hold at least K times, each as
    * its times shifted by `offset`; times are built for these only.
    */
  private def validComponents(c: Constraints, offset: Int): Seq[Seq[Int]] = {
    val out = Vector.newBuilder[Seq[Int]]
    val runs = new ArrayBuilder.ofInt // the current component's runs, start and end
    var count = 0
    var last = 0
    def close(): Unit = {
      if (count >= c.k) {
        val rs = runs.result()
        out += rs.grouped(2).flatMap(r => (r(0) until r(1)).map(_ + offset)).toVector
      }
      runs.clear()
      count = 0
    }
    var s = next(0, bit = true)
    while (s < length) {
      val e = next(s, bit = false)
      if (e - s >= c.l) {
        if (count > 0 && s - last > c.g) close()
        count += e - s
        last = e - 1
        runs += s
        runs += e
      }
      s = next(e, bit = true)
    }
    close()
    out.result()
  }

  override def equals(o: Any): Boolean = o match {
    case b: Bits => b.length == length && java.util.Arrays.equals(b.words, words)
    case _       => false
  }
  override def hashCode: Int = 31 * java.util.Arrays.hashCode(words) + length
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

  /** Whether the string contains a (K,L,G)-valid time sequence — the
    * validity test used by FBA/VBA enumeration. It agrees with
    * `TimeSeq.maximalValid(b.onesPositions, c).nonEmpty`.
    */
  def containsValid(b: Bits, c: Constraints): Boolean = b.hasValid(c)

  /** Maximal valid time sequences encoded in the string, as snapshot times
    * (bit j is time `offset + j`); equal to `TimeSeq.maximalValid` of those
    * times.
    */
  def maximalValid(b: Bits, offset: Int, c: Constraints): Seq[Seq[Int]] =
    b.validComponents(c, offset)
}

/** A variable-length bit string entry of VBA (Definition 14): trajectory
  * `id`'s co-cluster history with the subtask anchor over `[st, et]`.
  */
final case class VarBits(id: Long, st: Int, et: Int, bits: Bits) {
  require(et - st + 1 == bits.length, s"span [$st,$et] vs ${bits.length} bits")

  /** The string cut to the span [from, to] and anchored at `from`, so that
    * it ANDs with any other string cut to the same span (Lemma 8).
    */
  def cut(from: Int, to: Int): Bits = bits.slice(from - st, to - from + 1)
}
