package repro.core

import repro.bn.BayesianNetwork
import repro.counter.CounterLayout

/** A queryable Bayesian-network model backed by counter estimates.
  *
  * This is Algorithm 3: every conditional probability is the ratio of two
  * counter estimates, `θ̃ᵢ(xᵢ|u) = Aᵢ(xᵢ,u) / Aᵢ(u)`, and the joint is the
  * product over families (Equation 2). Works identically over exact counts
  * (the MLE) and approximate distributed-counter estimates.
  *
  * @param estimate coordinator view of counter `c` (exact or approximate)
  */
final class BNModel(
    val net: BayesianNetwork,
    val layout: CounterLayout,
    estimate: Int => Double,
) {

  /** Raw MLE-style ratio (no smoothing). An unobserved parent configuration
    * falls back to the uniform distribution, matching an MLE with no data.
    */
  def theta(i: Int, v: Int, parentCode: Int): Double = {
    val den = estimate(layout.parentCounter(i, parentCode))
    if (den <= 0.0) 1.0 / net.card(i)
    else math.max(0.0, estimate(layout.childCounter(i, v, parentCode)) / den)
  }

  /** Add-α smoothed ratio; used by the classifier so log-scores are finite. */
  def smoothedTheta(i: Int, v: Int, parentCode: Int, alpha: Double = 0.1): Double = {
    val den = estimate(layout.parentCounter(i, parentCode))
    val num = math.max(0.0, estimate(layout.childCounter(i, v, parentCode)))
    (num + alpha) / (math.max(0.0, den) + alpha * net.card(i))
  }

  /** Estimated joint probability of a full assignment (Algorithm 3). */
  def jointProb(x: Array[Int]): Double = {
    var p = 1.0
    var i = 0
    while (i < net.n) {
      p *= theta(i, x(i), net.parentCode(i, x))
      i += 1
    }
    p
  }

  /** Bayesian classification (Section 5.3): all variables except `target`
    * are evidence; return argmax over dom(target) of P[v | evidence].
    * Only the target's own family and its children's families depend on the
    * target's value, so the score is the Markov-blanket log-product.
    */
  def predict(x: Array[Int], target: Int): Int = {
    val work = x.clone()
    var best = 0
    var bestScore = Double.NegativeInfinity
    var v = 0
    while (v < net.card(target)) {
      work(target) = v
      var s = math.log(smoothedTheta(target, v, net.parentCode(target, work)))
      val ch = net.children(target)
      var c = 0
      while (c < ch.length) {
        val j = ch(c)
        s += math.log(smoothedTheta(j, work(j), net.parentCode(j, work)))
        c += 1
      }
      if (s > bestScore) { bestScore = s; best = v }
      v += 1
    }
    best
  }
}

object BNModel {
  /** Model over a frozen snapshot of estimates. */
  def fromArray(net: BayesianNetwork, layout: CounterLayout, est: Array[Double]): BNModel =
    new BNModel(net, layout, est(_))
}
