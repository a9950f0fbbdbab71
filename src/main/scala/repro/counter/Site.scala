package repro.counter

import repro.util.Rng

/** One site's half of the randomized counter protocol (Algorithm 2 on the
  * HYZ counter). A site's state is its local counts, one `Int` per counter,
  * held in a plain array by each engine: counter-major at
  * `counter·k + site` in the sequential `DistCounterBank`, one array per
  * site in the micro-batch engine. The sequential bank counts every
  * increment through `increment`; the micro-batch engine counts the
  * increments of counters with p < 1 through it, and adds those of
  * counters at p = 1, which draw no coin, to its arrays at the driver.
  */
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
    if (n == Int.MaxValue) overflow(site, counter)
    local(j) = n + 1
    p >= 1.0 || Rng.uniform(seed, site.toLong * numCounters + counter, n + 1L) < p
  }

  /** Fails because the local count of `counter` at `site` would pass
    * `Int.MaxValue`.
    */
  def overflow(site: Int, counter: Int): Nothing =
    throw new ArithmeticException(s"site $site counter $counter: local count overflows Int.MaxValue")
}
