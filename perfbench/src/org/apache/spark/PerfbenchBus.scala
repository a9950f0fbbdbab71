package org.apache.spark

/** Waits until every listener event posted so far has been delivered.
  *
  * The listener bus is private to Spark's package, so this one-line bridge
  * lives there; the benchmark calls it between traced phases so that the
  * counts its listener read belong to the phase that just ended.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
