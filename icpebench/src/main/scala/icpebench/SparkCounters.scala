package icpebench

import org.apache.spark.{BenchListenerBus, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import scala.collection.mutable

/** Work counted by [[SparkCounters]]. */
final case class SparkTotals(jobs: Long, tasks: Long, shuffleBytes: Long, shuffleRecords: Long) {
  def -(o: SparkTotals): SparkTotals =
    SparkTotals(jobs - o.jobs, tasks - o.tasks, shuffleBytes - o.shuffleBytes,
      shuffleRecords - o.shuffleRecords)
}

/** Per-stage counts: shuffle written, and shuffle records read by each task. */
final class StageCounts(val group: String) {
  var tasks = 0L
  var shuffleBytes = 0L
  var shuffleRecords = 0L
  val readRecordsPerTask = mutable.ArrayBuffer.empty[Long]
}

/** The benchmark's own listener: jobs, tasks and shuffle bytes and records
  * written; stages are attributed to the job group that was set when their
  * job started.
  * Readers call [[SparkCounters.totals]], which first waits until the
  * listener bus has delivered every event posted so far, so counts taken
  * after an action returns include all of that action's tasks.
  */
final class SparkCounters(sc: SparkContext) extends SparkListener {
  private val stageCounts = mutable.HashMap.empty[Int, StageCounts]
  private var jobs = 0L

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse("")
    jobs += 1
    e.stageIds.foreach(s => stageCounts.getOrElseUpdate(s, new StageCounts(group)))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val st = stageCounts.getOrElseUpdate(e.stageId, new StageCounts(""))
    st.tasks += 1
    Option(e.taskMetrics).foreach { m =>
      st.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
      st.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      st.readRecordsPerTask += m.shuffleReadMetrics.recordsRead
    }
  }

  /** Totals since the listener was attached. */
  def totals(): SparkTotals = {
    BenchListenerBus.drain(sc)
    synchronized {
      val sts = stageCounts.values
      SparkTotals(jobs, sts.iterator.map(_.tasks).sum, sts.iterator.map(_.shuffleBytes).sum,
        sts.iterator.map(_.shuffleRecords).sum)
    }
  }

  /** The stages of `group`, by stage id. */
  def stages(group: String): Seq[(Int, StageCounts)] = {
    BenchListenerBus.drain(sc)
    synchronized(stageCounts.filter(_._2.group == group).toSeq.sortBy(_._1))
  }
}

object SparkCounters {
  def attach(sc: SparkContext): SparkCounters = {
    val c = new SparkCounters(sc)
    sc.addSparkListener(c)
    c
  }
}
