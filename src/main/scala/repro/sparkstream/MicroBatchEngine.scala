package repro.sparkstream

import org.apache.spark.HashPartitioner
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.bn.{BayesianNetwork, Event, EventSource}
import repro.core.{BNModel, EpsilonAllocation}
import repro.counter.{Coordinator, CounterLayout, Site}

/** What one site task returns for one micro-batch: the number of events it
  * counted and, per counter it touched, the final local count (state the
  * next batch resumes from, not a protocol message), the last reported
  * count and the number of reports, which is 0 when it sent none.
  */
final case class SiteRow(site: Int, events: Long, counters: Array[Int], localCounts: Array[Int],
                         reported: Array[Int], reports: Array[Int])

/** Spark micro-batch realization of the continuous monitoring protocol.
  *
  * Each site's state is a plain array of its local counts, one per
  * counter. Each batch's events are hash-partitioned by site into
  * min(k, defaultParallelism) RDD tasks, which adaptive query execution
  * cannot coalesce; a task groups its events by site and runs one site
  * task per site. A site task reads its events into one variable-major
  * block (`EventSource`), takes their ids from `CounterLayout.blockUpdates`
  * as the sequential pass does, and counts them on a clone of its site's
  * array through `Site.increment`, with the reporting probabilities the
  * coordinator published at the start of the batch, so its coins are the
  * ones the sequential bank draws. Within a batch p is fixed, so a site's
  * reports depend only on its local counts, not on the order of its
  * increments, and each report replaces the last one in the
  * coordinator's estimate. A site task therefore returns one `SiteRow`,
  * and the driver, playing the coordinator, writes each row's local counts
  * back into its site's array and folds the rows in site order: per
  * counter, the last report with the number of reports it stands for.
  * Communication cost is the sum of those report counts.
  *
  * A counter whose published p is 1 is in its exact regime: each of its
  * increments is a report, and the driver folds them through
  * `Coordinator.receiveExact`, which keeps no site term. A counter whose
  * p drops below 1 in the fold leaves the regime there, and the driver
  * then `settle`s its site terms from the sites' arrays, which hold
  * exactly the counts last reported. Only such counters hold coordinator
  * site terms, and their reports go through `Coordinator.receive`.
  *
  * Compared with the sequential driver, the only semantic difference is
  * that reporting probabilities refresh at batch boundaries instead of on
  * each acknowledgement — a standard latency/communication tradeoff that
  * preserves unbiasedness of the per-site estimator.
  */
final class MicroBatchEngine(
    val net: BayesianNetwork,
    val layout: CounterLayout,
    allocation: EpsilonAllocation,
    val k: Int,
    seed: Long,
    pScale: Double,
) {

  val coordinator = new Coordinator(layout.numCounters, k, allocation.epsArray(layout), pScale)
  private val sites = Array.fill(k)(new Array[Int](layout.numCounters))
  private var processed = 0L

  def messages: Long = coordinator.messages
  def eventsProcessed: Long = processed
  def model: BNModel = new BNModel(net, layout, coordinator.estimate)

  /** Process one micro-batch of events. Returns messages emitted by it.
    * A batch with an event routed to a site outside [0, k) is rejected
    * whole, before any state changes.
    */
  def processBatch(spark: SparkSession, batch: Dataset[Event]): Long = {
    val sc = spark.sparkContext
    val before = coordinator.messages
    val p = published()
    val bcP = sc.broadcast(p)
    val bcSites = sc.broadcast(sites)
    val bcLayout = sc.broadcast(layout)
    val seed = this.seed // a local, so the site tasks do not capture the engine

    val rows = batch.rdd
      .keyBy(_.site)
      .partitionBy(new HashPartitioner(math.min(k, sc.defaultParallelism)))
      .values
      .mapPartitions { events =>
        val all = bcSites.value
        events.toArray.groupBy(_.site).iterator.map { case (site, group) =>
          // A site outside [0, k) comes back without state; the driver rejects it.
          if (site < 0 || site >= all.length) SiteRow(site, 0L, Array.empty, Array.empty, Array.empty, Array.empty)
          else MicroBatchEngine.siteTask(bcLayout.value, site, all.length, seed, all(site), bcP.value, group)
        }
      }
      .collect()
      .sortBy(_.site)

    bcP.destroy(); bcSites.destroy(); bcLayout.destroy()

    rows.foreach(r => require(r.site >= 0 && r.site < k, s"site ${r.site} outside [0, $k)"))
    rows.foreach { r =>
      val local = sites(r.site)
      var i = 0
      while (i < r.counters.length) {
        val c = r.counters(i)
        local(c) = r.localCounts(i)
        if (r.reports(i) > 0) {
          if (p(c) >= 1.0) coordinator.receiveExact(c, r.reports(i))
          else coordinator.receive(r.site, c, r.reported(i), 1.0 / p(c), r.reports(i))
        }
        i += 1
      }
      processed += r.events
    }
    settleLeavers(p)
    coordinator.messages - before
  }

  /** The reporting probability of each counter, published for a batch. */
  private def published(): Array[Double] = {
    val p = new Array[Double](layout.numCounters)
    var c = 0
    while (c < p.length) { p(c) = coordinator.pFor(c); c += 1 }
    p
  }

  /** Settles each counter that left the exact regime in the batch published
    * with `p`, from its sites' counts, all reported at p = 1.
    */
  private def settleLeavers(p: Array[Double]): Unit = {
    var c = 0
    while (c < p.length) {
      val counter = c
      if (p(c) >= 1.0 && coordinator.pFor(c) < 1.0) coordinator.settle(counter, site => sites(site)(counter))
      c += 1
    }
  }
}

object MicroBatchEngine {
  def apply(net: BayesianNetwork, layout: CounterLayout, allocation: EpsilonAllocation,
            k: Int, seed: Long): MicroBatchEngine =
    new MicroBatchEngine(net, layout, allocation, k, seed, Coordinator.theoryScale(k))

  /** One site's batch, counted variable by variable on a clone of its
    * local counts `start` so that the broadcast state stays untouched.
    */
  private def siteTask(layout: CounterLayout, site: Int, k: Int, seed: Long, start: Array[Int],
                       p: Array[Double], group: Array[Event]): SiteRow = {
    val count = group.length
    val block = new Array[Int](layout.net.n * count)
    EventSource(group.iterator, layout.net.n, k).read(count, block, new Array[Int](count))
    val ids = new Array[Int](count * layout.updatesPerEvent)
    layout.blockUpdates(block, count, ids)
    val local = start.clone()
    val reported = new Array[Int](layout.numCounters)
    val reports = new Array[Int](layout.numCounters)
    val touched = Array.newBuilder[Int]
    ids.foreach { c =>
      if (local(c) == start(c)) touched += c
      if (Site.increment(local, c, seed, site, local.length, c, p(c))) {
        reported(c) = local(c)
        reports(c) += 1
      }
    }
    val cs = touched.result()
    SiteRow(site, count, cs, cs.map(local), cs.map(reported), cs.map(reports))
  }
}
