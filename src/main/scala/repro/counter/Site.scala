package repro.counter

import repro.util.Rng

/** One site's half of the randomized counter protocol (Algorithm 2 on the
  * HYZ counter) in the micro-batch engine: its local counts, one per
  * counter, counted through `Site.increment`, the protocol's one coin.
  * The sequential `DistCounterBank` keeps the same counts counter-major and
  * calls the same function.
  */
final class Site private (val site: Int, seed: Long, local: Array[Int]) extends Serializable {

  def this(site: Int, numCounters: Int, seed: Long) = this(site, seed, new Array[Int](numCounters))

  def count(counter: Int): Int = local(counter)

  /** Counts one increment; true when the site reports its new local count. */
  def increment(counter: Int, p: Double): Boolean =
    Site.increment(local, counter, seed, site, local.length, counter, p)

  /** Resumes `counter` at a local count carried from a site task. */
  def resume(counter: Int, localCount: Int): Unit = local(counter) = localCount

  def copy(): Site = new Site(site, seed, local.clone())
}

object Site {

  /** The protocol's only coin: counts one increment of `counter` at `site`,
    * whose local count is `local(j)`, and returns true when the site
    * reports its new local count n. The coin is
    * `Rng.uniform(seed, site·numCounters + counter, n) < p`, skipped when
    * p ≥ 1. It depends only on where the site stands, not on when, in
    * which engine or in which memory layout it runs, so both engines draw
    * the same coins: the sequential bank passes the `p` piggybacked on each
    * acknowledgement, the micro-batch engine the `p` published at batch
    * start. Fails, leaving the count as it was, rather than wrap once the
    * local count would pass `Int.MaxValue`.
    */
  def increment(local: Array[Int], j: Int, seed: Long, site: Int, numCounters: Int,
                counter: Int, p: Double): Boolean = {
    val n = local(j)
    if (n == Int.MaxValue)
      throw new ArithmeticException(s"site $site counter $counter: local count overflows Int.MaxValue")
    local(j) = n + 1
    p >= 1.0 || Rng.uniform(seed, site.toLong * numCounters + counter, n + 1L) < p
  }
}
