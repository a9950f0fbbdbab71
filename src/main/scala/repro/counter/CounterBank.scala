package repro.counter

/** A bank of continuously-tracked distributed counters.
  *
  * `feed(c, sites, from, until)` takes a run of counter c's increments, one
  * unit each observed by site `sites(i)` for i in [from, until), in stream
  * order, and must leave the bank as that many single increments in turn
  * would; `increment(site, c)` is a run of one. `estimate(c)` is the
  * coordinator's current view; `messages` is the total upstream
  * communication (site → coordinator messages, each carrying a single
  * counter update — the unit the paper's experiments count). The bank takes
  * increments of sites in [0, k). A bank is used by one thread at a time.
  */
trait CounterBank {
  private val oneSite = new Array[Int](1)

  def k: Int
  def feed(counter: Int, sites: Array[Int], from: Int, until: Int): Unit
  def estimate(counter: Int): Double
  def messages: Long

  final def increment(site: Int, counter: Int): Unit = {
    oneSite(0) = site
    feed(counter, oneSite, 0, 1)
  }
}

/** EXACTMLE's counters: every increment is forwarded immediately, so the
  * coordinator always holds the exact counts and each increment costs one
  * message (Lemma 5: 2·n·m messages over m observations).
  */
final class ExactCounterBank(numCounters: Int) extends CounterBank {
  private val counts = new Array[Long](numCounters)
  private var msgs = 0L

  /** Holds nothing per site, so takes any site ≥ 0. */
  override def k: Int = Int.MaxValue

  override def feed(counter: Int, sites: Array[Int], from: Int, until: Int): Unit = {
    counts(counter) += until - from
    msgs += until - from
  }

  override def estimate(counter: Int): Double = counts(counter).toDouble
  def count(counter: Int): Long = counts(counter)
  override def messages: Long = msgs
}

/** Coordinator state for randomized approximate distributed counters.
  *
  * Per (site, counter) the estimate has one term, the site's
  * `c̄ + 1/p − 1` for the last reported local count c̄ and the reporting
  * probability p in force at that report (the expected unreported tail of
  * a geometric-with-success-p reporting process), 0 before any report.
  * Their sum over sites makes the total estimate unbiased. `pFor` is the
  * reporting probability the HYZ analysis prescribes: with
  * `p = pScale/(ε′·Ĉ)` the estimator's variance is at most
  * `k·(1/p)² = (ε′Ĉ)²·k/pScale²`, so `pScale = √(2k)` gives
  * `Var ≤ (ε′Ĉ)²/2 ≤ (ε′Ĉ)²` — the Lemma 4 guarantee.
  *
  * Counter c is in its exact regime while its estimate is below
  * `exactLimit(c)`: every site then holds p = 1, every increment is a
  * report, each site's term is just its local count, and the estimate is
  * the integral count. A caller that holds those local counts reports such
  * increments through `receiveExact`, which writes no term, and `settle`s
  * the counter when it leaves the regime; since the estimate only grows,
  * it never comes back. The k terms of a counter are kept only from then
  * on, in a row of its own indexed by site; a counter that stays exact
  * holds no row. A `receive` of a counter without a row makes one if its
  * estimate is 0 (every term is then 0) and fails if it has unsettled
  * exact reports.
  */
final class Coordinator(
    val numCounters: Int,
    val k: Int,
    val eps: Array[Double],
    val pScale: Double,
) extends Serializable {
  require(k >= 1, s"k = $k sites, expected at least 1")
  require(pScale > 0 && !pScale.isInfinite, s"pScale = $pScale, expected a positive finite number")
  require(eps.length == numCounters, s"eps has ${eps.length} entries, expected $numCounters")
  eps.indices.foreach { c =>
    require(eps(c) > 0 && !eps(c).isInfinite, s"eps($c) = ${eps(c)}, expected a positive finite number")
  }

  private val est = new Array[Double](numCounters)
  private val terms = new Array[Array[Double]](numCounters) // by site; null while exact
  private var msgs = 0L

  /** Whether `counter` holds its k site terms. */
  def settled(counter: Int): Boolean = terms(counter) != null

  /** `reports` upstream messages from one site for one counter, all sent
    * with the same inverse probability, the last of them carrying
    * `localCount`. Folding them at once is exact: each report replaces the
    * site's term `c̄ + 1/p − 1`, so the updates in between telescope.
    */
  def receive(site: Int, counter: Int, localCount: Int, invPUsed: Double, reports: Int = 1): Unit = {
    var t = terms(counter)
    if (t == null) {
      if (est(counter) != 0.0)
        throw new IllegalStateException(s"counter $counter has exact reports but no settled site terms")
      t = new Array[Double](k)
      terms(counter) = t
    }
    val before = t(site)
    t(site) = localCount + invPUsed - 1.0
    est(counter) += t(site) - before
    msgs += reports
  }

  /** `reports` reports of `counter` in its exact regime, their site terms
    * deferred: adds them to the estimate and to the messages. That is bit
    * for bit what as many `receive`s at p = 1 do, for each grows its site
    * term `c̄ + 1/1 − 1`, and so the integral estimate, by exactly 1.0.
    * The counter's terms must be `settle`d before any `receive` of it.
    */
  def receiveExact(counter: Int, reports: Int): Unit = {
    est(counter) += reports
    msgs += reports
  }

  /** Writes the site terms of a counter that has had only p = 1 reports,
    * site s's being its local count `count(s)`.
    */
  def settle(counter: Int, count: Int => Int): Unit = {
    require(terms(counter) == null, s"counter $counter is already settled")
    val t = new Array[Double](k)
    var site = 0
    while (site < k) { t(site) = count(site); site += 1 }
    terms(counter) = t
  }

  /** The least integral estimate t ≥ 1 at which `pFor(counter)` is below
    * 1, found with `pFor`'s own arithmetic, which falls as the estimate
    * grows; infinite past 4.5·10¹⁵ (about 2⁵²), where steps of 1.0 stop
    * being exact. A counter whose estimate is below t has had only p = 1
    * acknowledgements (estimate 0 acknowledges nothing), and the report
    * that brings it to t is the first acknowledged with p < 1.
    */
  def exactLimit(counter: Int): Double = {
    var t = math.max(1.0, math.ceil(pScale / eps(counter)))
    if (t > 4.5e15) Double.PositiveInfinity
    else {
      while (t > 1.0 && pAt(counter, t - 1.0) < 1.0) t -= 1.0
      while (pAt(counter, t) >= 1.0) t += 1.0
      t
    }
  }

  def estimate(counter: Int): Double = est(counter)
  def messages: Long = msgs

  /** Current reporting probability for `counter` given the coordinator view. */
  def pFor(counter: Int): Double = pAt(counter, est(counter))

  private def pAt(counter: Int, estimate: Double): Double =
    math.min(1.0, pScale / (eps(counter) * math.max(1.0, estimate)))
}

object Coordinator {
  /** Variance-honoring reporting-probability scale (see class doc). */
  def theoryScale(k: Int): Double = math.sqrt(2.0 * k)
}

/** Sequential-driver bank over approximate counters. Per (site, counter)
  * it keeps the site's local count, counter-major at index
  * `counter·k + site`, so that a counter's k sites are adjacent and a pass
  * grouped by counter walks them in order. The refreshed probability
  * piggybacks on the acknowledgement of each counted upstream message, so a
  * site's `p` can be stale — that only makes it report more often than
  * necessary (conservative), never less accurately. Each increment is
  * counted by `Site.increment`, the coin shared with the micro-batch engine,
  * so runs are replayable.
  *
  * A counter starts in the coordinator's exact regime, where p = 1 at
  * every site, and stays in it while its estimate is below its
  * `Coordinator.exactLimit`, kept per counter. There an increment touches
  * only its local count, and `feed` adds a run's increments to the
  * estimate and the messages at once through `Coordinator.receiveExact`.
  * On the increment that brings the estimate to the limit, whose
  * acknowledgement is the first with p < 1, the bank `settle`s the counter,
  * which writes its coordinator site terms, and keeps its k sites' p in a
  * row of its own, all 1 but the reporting site's, which is the new p.
  * From then on each increment takes the coin at the site's p. Every value
  * is the one the protocol writes when it takes each increment at the
  * site's p, so messages and estimates are the same bit for bit; a counter
  * that never leaves holds no p and no terms.
  */
final class DistCounterBank(
    numCounters: Int,
    val k: Int,
    eps: Array[Double],
    seed: Long,
    pScale: Double,
) extends CounterBank {

  val coordinator = new Coordinator(numCounters, k, eps, pScale)
  private[counter] val local = new Array[Int](k * numCounters)
  private val pSite = new Array[Array[Double]](numCounters) // by site; null while exact
  private val limit = new Array[Double](numCounters)
  for (c <- 0 until numCounters) limit(c) = coordinator.exactLimit(c)

  override def feed(counter: Int, sites: Array[Int], from: Int, until: Int): Unit = {
    var i = from
    val room = limit(counter) - coordinator.estimate(counter)
    if (room > 0) {
      val stop = if (room < until - from) from + room.toInt else until
      try while (i < stop) { countLocal(sites(i), counter); i += 1 }
      finally coordinator.receiveExact(counter, i - from)
      if (!inExactRegime(counter)) leave(sites(i - 1), counter)
    }
    if (i < until) {
      val p = pSite(counter)
      while (i < until) { countSampled(sites(i), counter, p); i += 1 }
    }
  }

  /** Counts one increment at p = 1, which always reports. */
  private def countLocal(site: Int, counter: Int): Unit = {
    checkSite(site)
    Site.increment(local, counter * k + site, seed, site, numCounters, counter, 1.0)
  }

  /** Leaves the exact regime on `site`'s report, the first acknowledged
    * with p < 1.
    */
  private def leave(site: Int, counter: Int): Unit = {
    val base = counter * k
    coordinator.settle(counter, s => local(base + s))
    val p = new Array[Double](k)
    java.util.Arrays.fill(p, 1.0)
    p(site) = coordinator.pFor(counter)
    pSite(counter) = p
  }

  /** Counts one increment at the site's p, kept in the counter's row `p`. */
  private def countSampled(site: Int, counter: Int, p: Array[Double]): Unit = {
    checkSite(site)
    val j = counter * k + site
    val pUsed = p(site)
    if (Site.increment(local, j, seed, site, numCounters, counter, pUsed)) {
      coordinator.receive(site, counter, local(j), 1.0 / pUsed)
      p(site) = coordinator.pFor(counter) // piggybacked ack
    }
  }

  @inline private def checkSite(site: Int): Unit =
    require(site >= 0 && site < k, s"site $site outside [0, $k)")

  /** Whether `counter` is still in the exact regime, p = 1 at every site. */
  def inExactRegime(counter: Int): Boolean = coordinator.estimate(counter) < limit(counter)

  override def estimate(counter: Int): Double = coordinator.estimate(counter)
  override def messages: Long = coordinator.messages
  def localCount(site: Int, counter: Int): Int = local(counter * k + site)
}

object DistCounterBank {
  def apply(numCounters: Int, k: Int, eps: Array[Double], seed: Long): DistCounterBank =
    new DistCounterBank(numCounters, k, eps, seed, Coordinator.theoryScale(k))
}
