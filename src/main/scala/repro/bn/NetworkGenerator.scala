package repro.bn

import repro.util.Rng

/** Generators for synthetic Bayesian networks.
  *
  * The paper evaluates on four networks from the bnlearn repository
  * (ALARM, HEPAR II, LINK, MUNIN). The repository is unreachable offline,
  * so we synthesize networks *calibrated* to the paper's Table 1: exact
  * node and edge counts, and cardinalities incrementally raised until the
  * free-parameter count Σ (Jᵢ−1)·Kᵢ reaches the paper's value. CPT rows
  * are Dirichlet(1,…,1) draws mixed with the uniform distribution so that
  * every conditional probability has a floor (events with probability
  * ≥ 0.01 exist, as the paper's test generator requires).
  */
object NetworkGenerator {

  /** Random DAG on n nodes (already in topological order 0..n-1) with
    * exactly `edges` edges and per-node in-degree ≤ `maxParents`.
    */
  def randomDag(n: Int, edges: Int, maxParents: Int, seed: Long): Array[Array[Int]] = {
    require(n >= 1, s"n = $n nodes, expected at least 1")
    require(edges >= 0, s"edges = $edges, expected at least 0")
    val capacity = (1 until n).map(i => math.min(i, maxParents).toLong).sum
    require(edges <= capacity, s"cannot place $edges edges with maxParents=$maxParents on $n nodes")
    val par = Array.fill(n)(scala.collection.mutable.SortedSet.empty[Int])
    // First pass: give every non-root node one parent so the graph is
    // connected-ish (like the real networks, which are weakly connected).
    var placed = 0
    var i = 1
    while (i < n && placed < edges) {
      par(i) += Rng.uniformInt(i, seed, 0xda60L, i.toLong)
      placed += 1; i += 1
    }
    // Remaining edges: rejection-sample (child, parent) pairs.
    var t = 0L
    while (placed < edges) {
      val c = 1 + Rng.uniformInt(n - 1, seed, 0xda61L, t)
      val p = Rng.uniformInt(c, seed, 0xda62L, t)
      if (par(c).size < maxParents && !par(c).contains(p)) {
        par(c) += p; placed += 1
      }
      t += 1
    }
    par.map(_.toArray)
  }

  /** Raise cardinalities (starting from all-2) one step at a time on random
    * nodes until the parameter count reaches `targetParams`. Deterministic
    * in `seed`; stops at the first value ≥ target (small overshoot possible,
    * reported in EXPERIMENTS.md). Fails if 10·n draws in a row find every
    * drawn node at `maxCard` before the target is reached.
    */
  def calibrateCards(parents: Array[Array[Int]], targetParams: Long, maxCard: Int,
                     seed: Long): Array[Int] = {
    val n = parents.length
    val card = Array.fill(n)(2)
    def params: Long = {
      var s = 0L
      var i = 0
      while (i < n) {
        var k = 1L
        parents(i).foreach(p => k *= card(p))
        s += (card(i) - 1).toLong * k
        i += 1
      }
      s
    }
    var cur = params
    var t = 0L
    var stuck = 0
    while (cur < targetParams && stuck < 10 * n) {
      val i = Rng.uniformInt(n, seed, 0xca11b8L, t)
      t += 1
      if (card(i) < maxCard) { card(i) += 1; cur = params; stuck = 0 }
      else stuck += 1
    }
    require(cur >= targetParams,
      s"cardinality search stopped at $cur parameters, below the target $targetParams (maxCard = $maxCard)")
    card
  }

  /** CPT row: a temperature-sharpened Dirichlet(1,…,1) draw mixed with the
    * uniform distribution — min entry ≥ 0.05/J. The cubing makes rows
    * peaked, like the near-deterministic CPDs of the real medical networks
    * (without it, classification error rates sit far above the paper's);
    * the uniform floor keeps every event observable so test events with
    * ground-truth probability ≥ 0.01 exist.
    */
  def cptRow(j: Int, seed: Long, node: Long, code: Long): Array[Double] = {
    val g = Array.tabulate(j) { v =>
      // Exponential(1) draws normalize to a uniform-simplex (Dirichlet) sample.
      -math.log(1.0 - Rng.uniform(seed, 0xc97L ^ node, code, v.toLong))
    }
    val sharp = g.map(x => x * x * x)
    val s = sharp.sum
    val row = sharp.map(x => 0.95 * (x / s) + 0.05 / j)
    // Exact renormalization against float drift.
    val s2 = row.sum
    row.map(_ / s2)
  }

  private def buildCpts(card: Array[Int], parents: Array[Array[Int]], seed: Long): Array[Array[Array[Double]]] = {
    val n = card.length
    Array.tabulate(n) { i =>
      val k = parents(i).foldLeft(1)((acc, p) => acc * card(p))
      Array.tabulate(k)(u => cptRow(card(i), seed, i.toLong, u.toLong))
    }
  }

  /** Full calibrated network: n nodes, `edges` edges, parameter count ≥ target. */
  def calibrated(name: String, n: Int, edges: Int, targetParams: Long, maxCard: Int,
                 maxParents: Int, seed: Long): BayesianNetwork = {
    val parents = randomDag(n, edges, maxParents, seed)
    val card = calibrateCards(parents, targetParams, maxCard, seed)
    new BayesianNetwork(name, card, parents, buildCpts(card, parents, seed))
  }

  /** Uniform random network with all cardinalities in [2, maxCard]. */
  def random(name: String, n: Int, edges: Int, maxCard: Int, maxParents: Int,
             seed: Long): BayesianNetwork = {
    val parents = randomDag(n, edges, maxParents, seed)
    val card = Array.tabulate(n)(i => 2 + Rng.uniformInt(maxCard - 1, seed, 0xcadL, i.toLong))
    new BayesianNetwork(name, card, parents, buildCpts(card, parents, seed))
  }

  /** Naïve Bayes: node 0 is the class (cardinality `classCard`), nodes 1..n-1
    * are features whose only parent is node 0.
    */
  def naiveBayes(name: String, n: Int, classCard: Int, featureCards: Array[Int],
                 seed: Long): BayesianNetwork = {
    require(featureCards.length == n - 1)
    val card = classCard +: featureCards
    val parents = Array.tabulate(n)(i => if (i == 0) Array.empty[Int] else Array(0))
    new BayesianNetwork(name, card, parents, buildCpts(card, parents, seed))
  }

  /** NEW-ALARM-style variant: keep the structure of `base`, force `nWide`
    * randomly chosen variables to cardinality `wideCard`, regenerate CPTs.
    */
  def widen(base: BayesianNetwork, nWide: Int, wideCard: Int, seed: Long): BayesianNetwork = {
    require(nWide >= 0 && nWide <= base.n, s"nWide = $nWide outside [0, ${base.n}]")
    val card = base.card.clone()
    var chosen = Set.empty[Int]
    var t = 0L
    while (chosen.size < nWide) {
      chosen += Rng.uniformInt(base.n, seed, 0x3deL, t); t += 1
    }
    chosen.foreach(i => card(i) = wideCard)
    new BayesianNetwork(s"new-${base.name}", card, base.parents, buildCpts(card, base.parents, seed))
  }
}
