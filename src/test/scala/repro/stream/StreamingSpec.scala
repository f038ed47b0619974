package repro.stream

import repro.{SparkSpec, TestData}
import repro.core._
import repro.enumeration._

/** Structured Streaming integration: the foreachBatch deployment must hand
  * every micro-batch to [[IcpeCore]] whole and match the batch results. The
  * pipeline's own logic is tested without Spark in [[IcpeCoreSpec]].
  */
class StreamingSpec extends SparkSpec {

  import spark.implicits._

  test("StreamingICPE (foreachBatch) equals the batch pipeline on the golden stream") {
    val eps = 1.0
    val c = TestData.goldenConstraints(2)
    val rows = TestData.goldenStreamRows(eps, c)
    val p = ClusterParams(eps, minPts = 2, lg = 3.0)

    val icpe = new StreamingICPE(spark, p, c, expectedIds = (1L to 8L).toSet)
    val batches = TestData.gpsBatches(rows)
    val progress = StreamingDemo.replay(spark, icpe, batches)
    icpe.finish()

    // Each micro-batch reached the core whole and in order: its progress is
    // what a core fed the same batches directly reports.
    val core = new IcpeCore(p, c, expectedIds = (1L to 8L).toSet)
    val direct = batches.zipWithIndex.map { case (b, i) => core.ingest(i.toLong, b) }
    core.finish()
    assert(progress == direct)
    assert(icpe.patterns == core.patterns)

    val batchResult = ICPE.run(spark.createDataset(rows), p, c, VbaMethod).collect()
    assert(Reference.distinctObjectSets(icpe.patterns.map(_.pattern)) ==
      Reference.distinctObjectSets(batchResult.map(_.pattern).toSeq))
    assert(Reference.distinctObjectSets(icpe.patterns.map(_.pattern)) ==
      TestData.goldenPatternsM2)
  }

  test("BatchProgress renders as one JSON line") {
    val pr = BatchProgress(3, 10, TimeSync.Drops(nonFinite = 1, stale = 2), 1, 4, 5, 6, 7, 8)
    assert(pr.toJson ==
      """{"batchId":3,"recordsIn":10,"dropped":{"nonFinite":1,"badLastTime":0,"stale":2,""" +
      """"duplicate":0,"unresolved":0},"snapshotsReleased":1,"clusters":4,"liveAnchors":5,""" +
      """"openEntries":6,"retainedCandidates":7,"heldRecords":8}""")
  }
}
