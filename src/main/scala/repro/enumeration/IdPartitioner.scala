package repro.enumeration

import repro.core.{ClusterRow, PartitionRow}

/** Id-based partitioning of cluster snapshots (paper §6.1).
  *
  * A subtask exists per trajectory id o; the partition P_t(o) holds the
  * other members of o's cluster at time t whose ids are larger than o
  * (duplicate avoidance: pattern {4,5,6} is found only at anchor 4).
  *
  * Lemma 3: clusters smaller than the significance constraint M cannot
  * contribute to any pattern at that time and are dropped before
  * partitioning. Partitions with no larger-id members carry no information
  * and are dropped too.
  */
object IdPartitioner {

  def partitionsLocal(cluster: ClusterRow, m: Int): Iterator[PartitionRow] = {
    if (cluster.members.length < m) return Iterator.empty // Lemma 3
    val ms = cluster.members.sorted
    ms.indices.iterator.flatMap { i =>
      val others = ms.drop(i + 1)
      if (others.nonEmpty) Iterator.single(PartitionRow(cluster.time, ms(i), others))
      else Iterator.empty
    }
  }
}
