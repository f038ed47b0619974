package repro.stream

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.streaming.{OutputMode, StreamingQuery}
import org.slf4j.LoggerFactory
import repro.core._

/** Structured Streaming deployment of ICPE (paper §4, ported from Flink):
  * each micro-batch of GPS records is collected to the driver — the batch's
  * only Spark job — and handed to [[IcpeCore]], which does the rest. Each
  * batch's [[BatchProgress]] is logged as one JSON line.
  */
final class StreamingICPE(spark: SparkSession, p: ClusterParams, c: Constraints,
                          expectedIds: Set[Long] = Set.empty)
    extends IcpeCore(p, c, expectedIds) {

  /** `foreachBatch` body. */
  def processBatch(batch: Dataset[Gps], batchId: Long): Unit = {
    val pr = ingest(batchId, batch.collect())
    if (StreamingICPE.log.isInfoEnabled) StreamingICPE.log.info(pr.toJson)
  }

  /** Attach to a streaming Dataset of GPS records. */
  def start(records: Dataset[Gps], queryName: String = "icpe"): StreamingQuery =
    records.writeStream
      .queryName(queryName)
      .outputMode(OutputMode.Update())
      .foreachBatch(processBatch _)
      .start()
}

object StreamingICPE { private val log = LoggerFactory.getLogger(classOf[StreamingICPE]) }
