package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.bn.{BayesianNetwork, Event}
import repro.counter.CounterLayout

/** Exact sufficient statistics of a Bayesian network on Spark.
  *
  * The MLE needs, for every variable, the counts Fᵢ(xᵢ, u) and Fᵢ(u)
  * (Lemma 2); these are the exact values of the layout's counters
  * (Lemma 5). On Spark this is one dense aggregation: every partition
  * counts its events into an array of `layout.numCounters` longs through
  * `CounterLayout.foreachUpdate`, the one-event case of the `blockUpdates`
  * ids every bank receives, and the arrays are summed in a tree. This is
  * the Spark reference for the counts: tests verify them against DuckDB via
  * `repro.Oracle` and against `ExactCounterBank`, the EXACTMLE bank that
  * `Tables.runDataset` feeds in its protocol pass.
  */
object SuffStats {

  /** Exact value of every counter of `layout` over `events`. */
  def exactCounts(spark: SparkSession, layout: CounterLayout, events: Dataset[Event]): Array[Long] = {
    val size = layout.numCounters
    events.rdd.treeAggregate(new Array[Long](size))(
      (acc, e) => { layout.foreachUpdate(e.x)(c => acc(c) += 1); acc },
      (a, b) => {
        var c = 0
        while (c < size) { a(c) += b(c); c += 1 }
        a
      })
  }

  /** Exact-MLE model computed with Spark aggregation. */
  def exactModel(spark: SparkSession, net: BayesianNetwork, layout: CounterLayout,
                 events: Dataset[Event]): BNModel =
    BNModel.fromArray(net, layout, exactCounts(spark, layout, events).map(_.toDouble))
}
