package repro.enumeration

import repro.SparkSpec
import repro.core.{ClusterRow, PartitionRow}

/** Id-based partitioning tests (§6.1): larger-id membership, Lemma 3
  * filtering, and the same partitions from a Dataset `flatMap`.
  */
class PartitionerSpec extends SparkSpec {

  import spark.implicits._

  test("partition contains only larger ids, per member") {
    val got = IdPartitioner.partitionsLocal(ClusterRow(4, 2L, Seq(2L, 5L, 9L)), 2).toSeq
    assert(got == Seq(
      PartitionRow(4, 2L, Seq(5L, 9L)),
      PartitionRow(4, 5L, Seq(9L))))
  }

  test("largest member's empty partition is dropped") {
    val got = IdPartitioner.partitionsLocal(ClusterRow(1, 1L, Seq(1L, 2L)), 2).toSeq
    assert(got.map(_.anchor) == Seq(1L))
  }

  test("Lemma 3: cluster smaller than M emits nothing") {
    assert(IdPartitioner.partitionsLocal(ClusterRow(1, 1L, Seq(1L, 2L)), 3).isEmpty)
  }

  test("cluster of exactly M members is kept") {
    val got = IdPartitioner.partitionsLocal(ClusterRow(1, 1L, Seq(1L, 2L, 3L)), 3).toSeq
    assert(got.nonEmpty)
  }

  test("members are emitted sorted even from unsorted input") {
    val got = IdPartitioner.partitionsLocal(ClusterRow(1, 7L, Seq(9L, 7L, 8L)), 2).toSeq
    assert(got == Seq(
      PartitionRow(1, 7L, Seq(8L, 9L)),
      PartitionRow(1, 8L, Seq(9L))))
  }

  test("total partition membership count is C(n,2) per cluster") {
    val n = 6
    val got = IdPartitioner.partitionsLocal(ClusterRow(1, 0L, (0L until n).toSeq), 2).toSeq
    assert(got.map(_.others.length).sum == n * (n - 1) / 2)
  }

  test("distributed partitions equal local partitions") {
    val clusters = repro.TestData.goldenClusters
    val got = spark.createDataset(clusters).flatMap(IdPartitioner.partitionsLocal(_, 2))
      .collect().toSeq.sortBy(p => (p.time, p.anchor))
    val expected = clusters.flatMap(IdPartitioner.partitionsLocal(_, 2))
      .sortBy(p => (p.time, p.anchor))
    assert(got == expected)
  }

  test("distributed partitions honor Lemma 3") {
    val clusters = repro.TestData.goldenClusters
    val got = spark.createDataset(clusters).flatMap(IdPartitioner.partitionsLocal(_, 4))
      .collect().toSeq
    // Only clusters with >= 4 members survive: t3 {2..8}, t4 {3..7},
    // t6 {3,4,5,6}, t7/t8 {4,5,6,7}.
    assert(got.map(_.time).distinct.sorted == Seq(3, 4, 6, 7, 8))
  }
}
