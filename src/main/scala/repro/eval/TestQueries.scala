package repro.eval

import repro.bn.{BayesianNetwork, ForwardSampler}
import repro.core.BNModel
import repro.util.Rng

/** A conditional test event: the probability that Xᵢ = v given par(Xᵢ)
  * takes the configuration encoded by `u`; `truth` is the ground-truth CPD
  * entry (≥ the generator's minProb threshold, mirroring the paper's
  * "ground truth probability at least 0.01" filter).
  */
final case class CondQuery(i: Int, v: Int, u: Int, truth: Double)

/** A classification test: predict variable `target` from the remaining
  * variables of the sampled instance `x` (Section 6.2's protocol: sample
  * all values, then randomly select one variable to predict).
  */
final case class ClsTest(x: Array[Int], target: Int)

object TestQueries {

  /** Sample `count` conditional test events by forward sampling instances,
    * picking a random variable, and accepting when the ground-truth
    * conditional probability of the observed family is ≥ `minProb`. Only
    * the variables up to the picked one are sampled: its family needs no
    * later variable.
    */
  def condQueries(net: BayesianNetwork, count: Int, minProb: Double, seed: Long): IndexedSeq[CondQuery] = {
    val out = IndexedSeq.newBuilder[CondQuery]
    var accepted = 0
    var id = 0L
    while (accepted < count) {
      val i = Rng.uniformInt(net.n, seed, 0x7e57bL, id)
      val x = net.samplePrefix(seed ^ 0x7e57aL, id, i + 1)
      val u = net.parentCode(i, x)
      val p = net.truth(i, x(i), u)
      if (p >= minProb) {
        out += CondQuery(i, x(i), u, p)
        accepted += 1
      }
      id += 1
      require(id < 1000L * count + 100000L, s"query generation not converging for ${net.name}")
    }
    out.result()
  }

  /** Sample `count` classification tests: test t's instance is event t of
    * the one-site stream `localEvents(net, count, 1, seed ^ 0xc1a55L)`, that
    * is `net.sample(seed ^ 0xc1a55L, t)`.
    */
  def clsTests(net: BayesianNetwork, count: Int, seed: Long): IndexedSeq[ClsTest] =
    ForwardSampler.localEvents(net, count, 1, seed ^ 0xc1a55L)
      .map(e => ClsTest(e.x, Rng.uniformInt(net.n, seed, 0xc1a56L, e.id)))
      .toIndexedSeq
}

/** Accuracy metrics over the test events. */
object Metrics {

  /** Mean relative error of model probabilities vs the ground truth. */
  def relErrVsTruth(model: BNModel, queries: Seq[CondQuery]): Double =
    mean(queries.map(q => math.abs(model.theta(q.i, q.v, q.u) - q.truth) / q.truth))

  /** Mean relative error vs a reference model (e.g. the exact MLE);
    * queries whose reference probability is 0 are skipped.
    */
  def relErrVsRef(model: BNModel, ref: BNModel, queries: Seq[CondQuery]): Double = {
    val errs = queries.flatMap { q =>
      val r = ref.theta(q.i, q.v, q.u)
      if (r <= 0.0) None else Some(math.abs(model.theta(q.i, q.v, q.u) - r) / r)
    }
    mean(errs)
  }

  /** Classification error rate (fraction of wrong predictions). */
  def classificationError(model: BNModel, tests: Seq[ClsTest]): Double =
    mean(tests.map(t => if (model.predict(t.x, t.target) == t.x(t.target)) 0.0 else 1.0))

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of empty sequence")
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2.0
  }
}
