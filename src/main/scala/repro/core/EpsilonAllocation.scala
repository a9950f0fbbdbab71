package repro.core

import repro.bn.BayesianNetwork
import repro.counter.CounterLayout

/** Per-counter error-budget allocation — the paper's central knob.
  *
  * Every algorithm instantiates the same master scheme (Algorithms 1–3)
  * and differs only in `epsfnA` (error νᵢ of the child counters
  * Aᵢ(xᵢ, u)) and `epsfnB` (error μᵢ of the parent counters Aᵢ(u)).
  */
sealed abstract class EpsilonAllocation(val name: String) extends Serializable {
  /** Error parameter for variable i's child counters Aᵢ(xᵢ, u). */
  def nu(i: Int): Double

  /** Error parameter for variable i's parent counters Aᵢ(u). */
  def mu(i: Int): Double

  /** Materialize a per-counter error array over a layout. */
  def epsArray(layout: CounterLayout): Array[Double] = {
    val eps = new Array[Double](layout.numCounters)
    val net = layout.net
    for (i <- 0 until net.n) {
      val jk = net.card(i) * net.parentCard(i)
      for (t <- 0 until jk) eps(layout.childOffset(i) + t) = nu(i)
      for (t <- 0 until net.parentCard(i)) eps(layout.parentOffset(i) + t) = mu(i)
    }
    eps
  }
}

object EpsilonAllocation {

  /** BASELINE (Section 4.3): worst-case union bound, all counters ε/(3n). */
  final case class Baseline(eps: Double, n: Int) extends EpsilonAllocation("baseline") {
    private val v = eps / (3.0 * n)
    override def nu(i: Int): Double = v
    override def mu(i: Int): Double = v
  }

  /** UNIFORM (Section 4.4): variance analysis of the product of unbiased
    * counters allows ε/(16√n).
    */
  final case class Uniform(eps: Double, n: Int) extends EpsilonAllocation("uniform") {
    private val v = eps / (16.0 * math.sqrt(n.toDouble))
    override def nu(i: Int): Double = v
    override def mu(i: Int): Double = v
  }

  /** NONUNIFORM (Section 4.5): Lagrange-optimal budget split,
    * νᵢ = (JᵢKᵢ)^{1/3}·ε/(16α) with α = (Σ(JᵢKᵢ)^{2/3})^{1/2}, and
    * μᵢ = Kᵢ^{1/3}·ε/(16β) with β = (ΣKᵢ^{2/3})^{1/2} (Equations 7–8).
    */
  final case class NonUniform(eps: Double, card: Array[Int], parentCard: Array[Int])
      extends EpsilonAllocation("nonuniform") {
    private val jk = Array.tabulate(card.length)(i => card(i).toDouble * parentCard(i))
    private val alpha = math.sqrt(jk.map(math.pow(_, 2.0 / 3.0)).sum)
    private val beta = math.sqrt(parentCard.map(k => math.pow(k.toDouble, 2.0 / 3.0)).sum)
    override def nu(i: Int): Double = math.pow(jk(i), 1.0 / 3.0) * eps / (16.0 * alpha)
    override def mu(i: Int): Double = math.pow(parentCard(i).toDouble, 1.0 / 3.0) * eps / (16.0 * beta)
  }

  object NonUniform {
    def apply(eps: Double, net: BayesianNetwork): NonUniform =
      NonUniform(eps, net.card, net.parentCard)
  }

  /** Naïve Bayes (Section 5.2, Equation 9 + Algorithm 4): feature child
    * counters get νᵢ = (ε/16)·Jᵢ^{1/3}/(Σ_{features} Jᵢ^{2/3})^{1/2}; the
    * single shared A(x₀) block (and the total-count counter) get the tight
    * ε/(3n) so the shared term can be union-bounded. Must be used with
    * `CounterLayout.naiveBayes`, where the root's child block *is* the
    * shared block.
    */
  final case class NaiveBayes(eps: Double, card: Array[Int]) extends EpsilonAllocation("naivebayes") {
    private val n = card.length
    private val denom = math.sqrt((1 until n).map(i => math.pow(card(i).toDouble, 2.0 / 3.0)).sum)
    private val sharedEps = eps / (3.0 * n)
    override def nu(i: Int): Double =
      if (i == 0) sharedEps
      else eps / 16.0 * math.pow(card(i).toDouble, 1.0 / 3.0) / denom
    override def mu(i: Int): Double = sharedEps
  }

  /** The variance-budget constraint (Equation 4) the optimal νᵢ must meet:
    * Σ νᵢ² ≤ ε²/256. Exposed for tests and for sanity checks.
    */
  def varianceBudget(values: Seq[Double]): Double = values.map(v => v * v).sum

  /** Theorem 2's communication shape Γ = (Σ(JᵢKᵢ)^{2/3})^{3/2} + (ΣKᵢ^{2/3})^{3/2}. */
  def gamma(card: Array[Int], parentCard: Array[Int]): Double = {
    val a = card.indices.map(i => math.pow(card(i).toDouble * parentCard(i), 2.0 / 3.0)).sum
    val b = parentCard.map(k => math.pow(k.toDouble, 2.0 / 3.0)).sum
    math.pow(a, 1.5) + math.pow(b, 1.5)
  }

  /** Asymptotic NONUNIFORM/UNIFORM communication ratio of the cost model
    * Σ JᵢKᵢ/νᵢ + Σ Kᵢ/μᵢ: NONUNIFORM costs 16·Γ/ε and UNIFORM
    * 16·√n·(ΣJᵢKᵢ + ΣKᵢ)/ε, so the ratio is Γ / (√n·(ΣJᵢKᵢ + ΣKᵢ)) — 1 when
    * all families have the same shape, below 1 otherwise.
    */
  def modelRatio(card: Array[Int], parentCard: Array[Int]): Double = {
    val jk = card.indices.map(i => card(i).toDouble * parentCard(i)).sum
    val ks = parentCard.map(_.toDouble).sum
    gamma(card, parentCard) / (math.sqrt(card.length.toDouble) * (jk + ks))
  }
}
