package repro.counter

/** A bank of continuously-tracked distributed counters.
  *
  * `increment(site, c)` is called by site `site` when it observes one unit
  * for counter `c`; `estimate(c)` is the coordinator's current view;
  * `messages` is the total upstream communication (site → coordinator
  * messages, each carrying a single counter update — the unit the paper's
  * experiments count).
  */
trait CounterBank {
  def increment(site: Int, counter: Int): Unit
  def estimate(counter: Int): Double
  def messages: Long
}

/** EXACTMLE's counters: every increment is forwarded immediately, so the
  * coordinator always holds the exact counts and each increment costs one
  * message (Lemma 5: 2·n·m messages over m observations).
  */
final class ExactCounterBank(numCounters: Int) extends CounterBank {
  private val counts = new Array[Long](numCounters)
  private var msgs = 0L

  override def increment(site: Int, counter: Int): Unit = {
    counts(counter) += 1
    msgs += 1
  }

  override def estimate(counter: Int): Double = counts(counter).toDouble
  def count(counter: Int): Long = counts(counter)
  override def messages: Long = msgs
}

/** Coordinator state for randomized approximate distributed counters.
  *
  * Per (site, counter) it keeps one value, at index `counter·k + site` so
  * that a counter's k values are adjacent, the site's term of the estimate:
  * `c̄ + 1/p − 1` for the last reported local count c̄ and the reporting
  * probability p in force at that report (the expected unreported tail of
  * a geometric-with-success-p reporting process), 0 before any report.
  * Their sum over sites makes the total estimate unbiased. `pFor` is the
  * reporting probability the HYZ analysis prescribes: with
  * `p = pScale/(ε′·Ĉ)` the estimator's variance is at most
  * `k·(1/p)² = (ε′Ĉ)²·k/pScale²`, so `pScale = √(2k)` gives
  * `Var ≤ (ε′Ĉ)²/2 ≤ (ε′Ĉ)²` — the Lemma 4 guarantee.
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
  require(eps.forall(_ > 0), "every counter needs a positive error parameter")

  private val est = new Array[Double](numCounters)
  private val siteTerm = new Array[Double](k * numCounters)
  private var msgs = 0L

  @inline private def idx(site: Int, counter: Int): Int = counter * k + site

  /** `reports` upstream messages from one site for one counter, all sent
    * with the same inverse probability, the last of them carrying
    * `localCount`. Folding them at once is exact: each report replaces the
    * site's term `c̄ + 1/p − 1`, so the updates in between telescope.
    */
  def receive(site: Int, counter: Int, localCount: Int, invPUsed: Double, reports: Int = 1): Unit = {
    val j = idx(site, counter)
    val before = siteTerm(j)
    siteTerm(j) = localCount + invPUsed - 1.0
    est(counter) += siteTerm(j) - before
    msgs += reports
  }

  def estimate(counter: Int): Double = est(counter)
  def messages: Long = msgs

  /** Current reporting probability for `counter` given the coordinator view. */
  def pFor(counter: Int): Double =
    math.min(1.0, pScale / (eps(counter) * math.max(1.0, est(counter))))
}

object Coordinator {
  /** Variance-honoring reporting-probability scale (see class doc). */
  def theoryScale(k: Int): Double = math.sqrt(2.0 * k)
}

/** Sequential-driver bank over approximate counters. Per (site, counter)
  * it keeps the site's local count and the reporting probability the site
  * currently knows, counter-major at index `counter·k + site` like the
  * `Coordinator`'s site terms, so that a counter's k sites are adjacent and
  * a pass grouped by counter walks them in order. The refreshed probability
  * piggybacks on the acknowledgement of each counted upstream message, so a
  * site's `p` can be stale — that only makes it report more often than
  * necessary (conservative), never less accurately. Each increment is
  * counted by `Site.increment`, the coin shared with the micro-batch engine,
  * so runs are replayable.
  */
final class DistCounterBank(
    numCounters: Int,
    k: Int,
    eps: Array[Double],
    seed: Long,
    pScale: Double,
) extends CounterBank {

  val coordinator = new Coordinator(numCounters, k, eps, pScale)
  private val local = new Array[Int](k * numCounters)
  private val pSite = new Array[Double](k * numCounters)
  java.util.Arrays.fill(pSite, 1.0)

  override def increment(site: Int, counter: Int): Unit = {
    require(site >= 0 && site < k, s"site $site outside [0, $k)")
    val j = counter * k + site
    val p = pSite(j)
    if (Site.increment(local, j, seed, site, numCounters, counter, p)) {
      coordinator.receive(site, counter, local(j), 1.0 / p)
      pSite(j) = coordinator.pFor(counter) // piggybacked ack
    }
  }

  override def estimate(counter: Int): Double = coordinator.estimate(counter)
  override def messages: Long = coordinator.messages
  def localCount(site: Int, counter: Int): Int = local(counter * k + site)
}

object DistCounterBank {
  def apply(numCounters: Int, k: Int, eps: Array[Double], seed: Long): DistCounterBank =
    new DistCounterBank(numCounters, k, eps, seed, Coordinator.theoryScale(k))
}
