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
      require(row.forall(_ >= 0.0), s"cpt($i)($u) has a negative entry")
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

  /** `parentCode(i, ·)` of every event of a variable-major block of `count`
    * events, whose variable j of event e is at `x(j·count + e)`: event e's
    * goes to `codes(e)`. One parent at a time, over all the events.
    */
  def parentCodes(i: Int, x: Array[Int], count: Int, codes: Array[Int]): Unit = {
    val ps = parents(i); val st = strides(i)
    java.util.Arrays.fill(codes, 0, count, 0)
    var j = 0
    while (j < ps.length) {
      val base = ps(j) * count
      val s = st(j)
      var e = 0
      while (e < count) { codes(e) += x(base + e) * s; e += 1 }
      j += 1
    }
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
    val x = new Array[Int](len); sampleBlock(seed, id, 1, len, x); x
  }

  /** The program's one sampler: ancestral sampling of the events with ids
    * `from until from + count` over their first `len` variables, written
    * variable-major, variable i of event `from + e` at `out(i·count + e)`.
    * That value's coin is `Rng.uniform(seed, from + e, i)`, so each event
    * is `samplePrefix(seed, from + e, len)` bit for bit; the (seed, id)
    * half of the hash is mixed once per event.
    *
    * The value drawn is the least v whose cumulative mass
    * `row(0) + … + row(v)`, summed left to right, reaches the coin, or
    * J − 1 if none below it does. The entries are non-negative, so the
    * sums only grow, and v is also how many of the first J − 1 sums stay
    * under the coin: a count that needs no branch on the coin.
    * Within a variable the events are independent chains the CPU can
    * overlap, and the variable's parents and CPT rows stay in cache.
    */
  def sampleBlock(seed: Long, from: Long, count: Int, len: Int, out: Array[Int]): Unit = {
    require(len >= 0 && len <= n, s"len = $len outside [0, $n]")
    require(out.length >= len * count, s"block holds ${out.length} values, expected ${len * count}")
    val keys = new Array[Long](count)
    val codes = new Array[Int](count)
    var e = 0
    while (e < count) { keys(e) = Rng.key(seed, from + e); e += 1 }
    var i = 0
    while (i < len) {
      val rows = cpt(i)
      val last = card(i) - 1
      val base = i * count
      parentCodes(i, out, count, codes)
      e = 0
      while (e < count) {
        val row = rows(codes(e))
        val r = Rng.uniformAt(keys(e), i.toLong)
        var v = 0; var w = 0; var acc = row(0)
        while (w < last) { if (acc < r) v += 1; w += 1; acc += row(w) }
        out(base + e) = v
        e += 1
      }
      i += 1
    }
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
