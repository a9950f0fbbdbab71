package repro.counter

import repro.util.Rng

/** One site's half of the randomized counter protocol (Algorithm 2 on the
  * HYZ counter): count locally, and on each increment report the exact
  * local count with probability `p`.
  *
  * The coin of the `n`-th increment of `counter` is
  * `Rng.uniform(seed, site·numCounters + counter, n) < p`. It depends only
  * on where the site stands, not on when or in which engine it runs, so
  * both engines draw the same coins: the sequential bank passes the `p`
  * piggybacked on each acknowledgement, the micro-batch engine the `p`
  * published at batch start. This is the protocol's only coin.
  */
final class Site private (val site: Int, seed: Long, local: Array[Int]) extends Serializable {

  def this(site: Int, numCounters: Int, seed: Long) = this(site, seed, new Array[Int](numCounters))

  private val key = site.toLong * local.length

  def count(counter: Int): Int = local(counter)

  /** Counts one increment; true when the site reports its new local count.
    * Fails rather than wrap once the local count would pass `Int.MaxValue`.
    */
  def increment(counter: Int, p: Double): Boolean = {
    if (local(counter) == Int.MaxValue)
      throw new ArithmeticException(s"site $site counter $counter: local count overflows Int.MaxValue")
    local(counter) += 1
    p >= 1.0 || Rng.uniform(seed, key + counter, local(counter).toLong) < p
  }

  /** Resumes `counter` at a local count carried from a site task. */
  def resume(counter: Int, localCount: Int): Unit = local(counter) = localCount

  def copy(): Site = new Site(site, seed, local.clone())
}
