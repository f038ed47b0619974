package org.apache.spark

/** Lets the benchmark wait until its listener has seen every event posted so
  * far; the listener bus is private to Spark.
  */
object BenchListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
