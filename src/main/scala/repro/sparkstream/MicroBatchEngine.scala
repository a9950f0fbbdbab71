package repro.sparkstream

import java.util.Arrays
import org.apache.spark.{HashPartitioner, SparkContext}
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.bn.{BayesianNetwork, Event, EventSource}
import repro.core.{BNModel, EpsilonAllocation}
import repro.counter.{Coordinator, CounterLayout, Site}

/** What one site task returns for one micro-batch: the number of events it
  * counted and, per counter it touched, its number of increments. The
  * first `reported.length` counters are the sampled ones, those in the
  * batch's `View`; each of them also carries the last reported count and
  * the number of reports, which is 0 when it sent none. Every increment of
  * the other counters, whose p is 1, is a report.
  */
final case class SiteRow(site: Int, events: Long, counters: Array[Int], increments: Array[Int],
                         reported: Array[Int], reports: Array[Int])

/** Spark micro-batch realization of the continuous monitoring protocol.
  *
  * The driver holds each site's local counts, one array per site. Each
  * batch it broadcasts one `View`: the counters whose published p is below
  * 1, their p, and each site's local count of each. A counter at p = 1
  * reports every increment and draws no coin, so its site task needs none
  * of its state. The counter layout is broadcast once per engine and
  * `SparkContext`.
  *
  * A batch's events are hash-partitioned by site into
  * min(k, defaultParallelism) RDD tasks, which adaptive query execution
  * cannot coalesce; a task groups its events by site and runs one site
  * task per site. A site task reads its events into one variable-major
  * block (`EventSource`), takes their ids from `CounterLayout.blockUpdates`
  * as the sequential pass does, and counts the increments of each counter.
  * For a sampled counter it then runs `Site.increment` that many times from
  * the site's local count in the view, with the p published at the start
  * of the batch, so its coins are the ones the sequential bank draws.
  * Within a batch p is fixed, so a site's reports depend only on its local
  * counts, not on the order of its increments, and each report replaces
  * the last one in the coordinator's estimate. A site task therefore
  * returns one `SiteRow`.
  *
  * The driver, playing the coordinator, first checks every row: its site is
  * in [0, k) and no local count would pass `Int.MaxValue`. Only then does
  * it fold the rows in site order, adding each row's increments to its
  * site's local counts. Every increment of a counter at p = 1 is a report,
  * which the driver folds through `Coordinator.receiveExact`, keeping no
  * site term; a sampled counter's last report goes through
  * `Coordinator.receive` with the number of reports it stands for.
  * Communication cost is the sum of those report counts. A counter whose p
  * drops below 1 in the fold leaves the exact regime there, and the driver
  * then `settle`s its site terms from the sites' arrays, which hold exactly
  * the counts last reported.
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
  private[sparkstream] val sites = Array.fill(k)(new Array[Int](layout.numCounters))
  private var processed = 0L
  private var layoutContext: SparkContext = _
  private var layoutBroadcast: Broadcast[CounterLayout] = _

  def messages: Long = coordinator.messages
  def eventsProcessed: Long = processed
  def model: BNModel = new BNModel(net, layout, coordinator.estimate)

  /** Process one micro-batch of events. Returns messages emitted by it.
    * A batch with an event routed to a site outside [0, k), or one that
    * would push a local count past `Int.MaxValue`, is rejected whole,
    * before any state changes.
    */
  def processBatch(spark: SparkSession, batch: Dataset[Event]): Long = {
    val sc = spark.sparkContext
    val before = coordinator.messages
    val p = published()
    val bcView = sc.broadcast(view(p))
    val bcLayout = layoutOn(sc)
    val (seed, k) = (this.seed, this.k) // locals, so the site tasks do not capture the engine

    val rows = batch.rdd
      .keyBy(_.site)
      .partitionBy(new HashPartitioner(math.min(k, sc.defaultParallelism)))
      .values
      .mapPartitions { events =>
        events.toArray.groupBy(_.site).iterator.map { case (site, group) =>
          // A site outside [0, k) comes back empty; the driver rejects it.
          if (site < 0 || site >= k) SiteRow(site, 0L, Array.empty, Array.empty, Array.empty, Array.empty)
          else MicroBatchEngine.siteTask(bcLayout.value, site, k, seed, bcView.value, group)
        }
      }
      .collect()
      .sortBy(_.site)

    bcView.destroy()

    rows.foreach { r =>
      require(r.site >= 0 && r.site < k, s"site ${r.site} outside [0, $k)")
      val local = sites(r.site)
      var i = 0
      while (i < r.counters.length) {
        val c = r.counters(i)
        if (local(c).toLong + r.increments(i) > Int.MaxValue) Site.overflow(r.site, c)
        i += 1
      }
    }
    rows.foreach { r =>
      val local = sites(r.site)
      var i = 0
      while (i < r.counters.length) {
        val c = r.counters(i)
        local(c) += r.increments(i)
        if (i >= r.reports.length) coordinator.receiveExact(c, r.increments(i))
        else if (r.reports(i) > 0) coordinator.receive(r.site, c, r.reported(i), 1.0 / p(c), r.reports(i))
        i += 1
      }
      processed += r.events
    }
    settleLeavers(p)
    coordinator.messages - before
  }

  /** The reporting probability of each counter, published for a batch. */
  private[sparkstream] def published(): Array[Double] = {
    val p = new Array[Double](layout.numCounters)
    var c = 0
    while (c < p.length) { p(c) = coordinator.pFor(c); c += 1 }
    p
  }

  /** The view of a batch published with `p`. */
  private[sparkstream] def view(p: Array[Double]): MicroBatchEngine.View = {
    val counters = Array.range(0, p.length).filter(c => p(c) < 1.0)
    val n = counters.length
    val local = new Array[Int](k * n)
    var site = 0
    while (site < k) {
      var i = 0
      while (i < n) { local(site * n + i) = sites(site)(counters(i)); i += 1 }
      site += 1
    }
    MicroBatchEngine.View(counters, counters.map(p), local)
  }

  /** The layout's broadcast on `sc`, made on the first batch there. */
  private def layoutOn(sc: SparkContext): Broadcast[CounterLayout] = {
    if (layoutContext ne sc) {
      layoutBroadcast = sc.broadcast(layout)
      layoutContext = sc
    }
    layoutBroadcast
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

  /** What a batch's site tasks need of the driver's state: the counters
    * whose published p is below 1, ascending, their p, and each site's
    * local count of each, site s's count of `counters(i)` at
    * s·counters.length + i.
    */
  final case class View(counters: Array[Int], p: Array[Double], local: Array[Int])

  /** One site's batch: counts each touched counter's increments and runs a
    * sampled counter's coins from its local count in `view`.
    */
  private def siteTask(layout: CounterLayout, site: Int, k: Int, seed: Long, view: View,
                       group: Array[Event]): SiteRow = {
    val count = group.length
    val block = new Array[Int](layout.net.n * count)
    EventSource(group.iterator, layout.net.n, k).read(count, block, new Array[Int](count))
    val ids = new Array[Int](count * layout.updatesPerEvent)
    layout.blockUpdates(block, count, ids)
    val increments = new Array[Int](layout.numCounters)
    val touched = Array.newBuilder[Int]
    ids.foreach { c =>
      if (increments(c) == 0) touched += c
      increments(c) += 1
    }
    val (sampled, exact) = (Array.newBuilder[Int], Array.newBuilder[Int])
    val (reported, reports) = (Array.newBuilder[Int], Array.newBuilder[Int])
    val local = new Array[Int](1)
    val n = view.counters.length
    touched.result().foreach { c =>
      val i = Arrays.binarySearch(view.counters, c)
      if (i < 0) exact += c
      else {
        local(0) = view.local(site * n + i)
        var last = 0
        var sent = 0
        var left = increments(c)
        while (left > 0) {
          if (Site.increment(local, 0, seed, site, layout.numCounters, c, view.p(i))) {
            last = local(0)
            sent += 1
          }
          left -= 1
        }
        sampled += c
        reported += last
        reports += sent
      }
    }
    val counters = sampled.result() ++ exact.result()
    SiteRow(site, count, counters, counters.map(increments), reported.result(), reports.result())
  }
}
