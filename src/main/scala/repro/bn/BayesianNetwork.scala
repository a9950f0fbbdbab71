package repro.bn

import repro.util.Rng

/** A categorical Bayesian network with known structure and CPTs.
  *
  * Nodes are `0 until n` and are required to be in topological order:
  * every parent index is strictly smaller than its child's index. This
  * makes ancestral (forward) sampling a single left-to-right pass and
  * makes parent-configuration encodings trivially well defined.
  *
  * @param name    human-readable identifier (e.g. "alarm")
  * @param card    `card(i)` = Jᵢ, the domain size of variable i (≥ 2 ... or 1)
  * @param parents `parents(i)` = indices of par(Xᵢ), each < i, sorted ascending
  * @param cpt     `cpt(i)(parentCode)(v)` = P[Xᵢ = v | par(Xᵢ) = decode(parentCode)]
  */
final class BayesianNetwork(
    val name: String,
    val card: Array[Int],
    val parents: Array[Array[Int]],
    val cpt: Array[Array[Array[Double]]],
) extends Serializable {

  /** Number of variables n. */
  val n: Int = card.length

  require(parents.length == n, s"parents.length ${parents.length} != n $n")
  require(cpt.length == n, s"cpt.length ${cpt.length} != n $n")
  for (i <- 0 until n) {
    require(card(i) >= 1, s"card($i) = ${card(i)} must be >= 1")
    require(parents(i).forall(p => p >= 0 && p < i),
      s"node $i has a parent not strictly before it: ${parents(i).mkString(",")}")
    require(parents(i).sameElements(parents(i).sorted.distinct),
      s"parents($i) must be sorted and distinct")
  }

  /** Kᵢ = |dom(par(Xᵢ))| = product of parent cardinalities (1 if no parents). */
  val parentCard: Array[Int] = Array.tabulate(n) { i =>
    parents(i).foldLeft(1L)((acc, p) => acc * card(p)) match {
      case k if k <= Int.MaxValue => k.toInt
      case k => throw new IllegalArgumentException(s"K($i) = $k overflows Int")
    }
  }

  /** Mixed-radix strides so that parentCode(i, x) = Σⱼ x(parents(i)(j)) * stride(j). */
  private val strides: Array[Array[Int]] = Array.tabulate(n) { i =>
    val ps = parents(i)
    val s = new Array[Int](ps.length)
    var acc = 1
    var j = ps.length - 1
    while (j >= 0) { s(j) = acc; acc *= card(ps(j)); j -= 1 }
    s
  }

  for (i <- 0 until n) {
    require(cpt(i).length == parentCard(i),
      s"cpt($i) has ${cpt(i).length} rows, expected K=${parentCard(i)}")
    cpt(i).zipWithIndex.foreach { case (row, u) =>
      require(row.length == card(i), s"cpt($i)($u) has ${row.length} entries, expected J=${card(i)}")
      val s = row.sum
      require(math.abs(s - 1.0) < 1e-6, s"cpt($i)($u) sums to $s, expected 1.0")
    }
  }

  /** Number of edges in the DAG. */
  def numEdges: Int = parents.map(_.length).sum

  /** Number of free parameters, Σᵢ (Jᵢ − 1)·Kᵢ — matches Table 1's convention. */
  def numParameters: Long =
    (0 until n).map(i => (card(i) - 1).toLong * parentCard(i)).sum

  /** Encode the parent assignment of variable i inside full assignment x. */
  def parentCode(i: Int, x: Array[Int]): Int = {
    val ps = parents(i); val st = strides(i)
    var code = 0; var j = 0
    while (j < ps.length) { code += x(ps(j)) * st(j); j += 1 }
    code
  }

  /** Decode a parent code back to the values of parents(i), in order. */
  def decodeParentCode(i: Int, code: Int): Array[Int] = {
    val ps = parents(i); val st = strides(i)
    Array.tabulate(ps.length)(j => (code / st(j)) % card(ps(j)))
  }

  /** Children lists (derived), used by the classifier's Markov-blanket product. */
  val children: Array[Array[Int]] = {
    val acc = Array.fill(n)(List.empty[Int])
    for (i <- 0 until n; p <- parents(i)) acc(p) = i :: acc(p)
    acc.map(_.reverse.toArray)
  }

  /** Ground-truth conditional probability P[Xᵢ = v | parentCode = u]. */
  def truth(i: Int, v: Int, u: Int): Double = cpt(i)(u)(v)

  /** Draw one full assignment by ancestral sampling; deterministic in (seed, id). */
  def sample(seed: Long, id: Long): Array[Int] = samplePrefix(seed, id, n)

  /** The first `len` values of `sample(seed, id)`: variable i's coin is
    * keyed by (seed, id, i) and its parents come before it, so the prefix
    * needs no later variable.
    */
  def samplePrefix(seed: Long, id: Long, len: Int): Array[Int] = {
    val x = new Array[Int](len)
    var i = 0
    while (i < len) {
      val row = cpt(i)(parentCode(i, x))
      val r = Rng.uniform(seed, id, i.toLong)
      var v = 0; var acc = row(0)
      while (acc < r && v < card(i) - 1) { v += 1; acc += row(v) }
      x(i) = v
      i += 1
    }
    x
  }

  /** Exact joint probability of a full assignment under the ground truth. */
  def jointProb(x: Array[Int]): Double = {
    var p = 1.0; var i = 0
    while (i < n) { p *= cpt(i)(parentCode(i, x))(x(i)); i += 1 }
    p
  }

  override def toString: String =
    s"BayesianNetwork($name, n=$n, edges=$numEdges, params=$numParameters)"
}
