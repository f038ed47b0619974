package org.apache.spark

/** Lets a test wait until its listener has seen every event posted so far;
  * the listener bus is private to Spark.
  */
object TestListenerBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
