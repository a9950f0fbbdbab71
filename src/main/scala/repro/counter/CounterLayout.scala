package repro.counter

import repro.bn.BayesianNetwork

/** Dense global indexing of every distributed counter the model needs.
  *
  * For each variable i the model maintains:
  *   - child counters  Aᵢ(xᵢ, u) for xᵢ ∈ dom(Xᵢ), u ∈ dom(par(Xᵢ)) — a block
  *     of Jᵢ·Kᵢ counters laid out as `childOffset(i) + u*Jᵢ + xᵢ`;
  *   - parent counters Aᵢ(u) for u ∈ dom(par(Xᵢ)) — a block of Kᵢ counters at
  *     `parentOffset(i) + u`.
  *
  * Section 4.4's independence subtlety is honored by the standard layout:
  * even when par(Xᵢ) = par(Xⱼ), variables i and j get *separate* parent
  * counter blocks so the product terms stay independent. The Naïve-Bayes
  * layout (Algorithm 4) deliberately does the opposite: all features share
  * one parent block over dom(X₀), tracked once with a tighter ε.
  */
final class CounterLayout private (
    val net: BayesianNetwork,
    val childOffset: Array[Int],
    val parentOffset: Array[Int],
    val numCounters: Int,
    val sharedParents: Boolean,
) extends Serializable {

  /** Global id of child counter Aᵢ(xᵢ, u). */
  def childCounter(i: Int, v: Int, parentCode: Int): Int =
    childOffset(i) + parentCode * net.card(i) + v

  /** Global id of parent counter Aᵢ(u). */
  def parentCounter(i: Int, parentCode: Int): Int = parentOffset(i) + parentCode

  /** Invoke `inc` exactly once per distinct counter the event touches.
    * In the standard layout every family contributes two distinct counters;
    * in a shared layout (Naïve Bayes) every feature's parent counter is the
    * root's child counter `A(x₀)`, so the shared block is incremented once
    * per event — Algorithm 4 maintains "only one copy of the counter".
    * Its ids are `blockUpdates`' for a block of one event, the event itself.
    * Rejects an assignment that does not fit the network before counting.
    */
  def foreachUpdate(x: Array[Int])(inc: Int => Unit): Unit = {
    require(x.length == net.n, s"assignment has ${x.length} values, expected ${net.n}")
    val ids = new Array[Int](updatesPerEvent)
    blockUpdates(x, 1, ids)
    ids.foreach(inc)
  }

  /** The program's one counter-id computation, for a variable-major block
    * of `count` events, whose variable i of event e is at `x(i·count + e)`.
    * The ids go to `ids` in `updatesPerEvent` rows of `count`, event e's at
    * `row·count + e`: a row per variable i for its child counters and,
    * where one is counted, a row after it for its parent counters. Every
    * counter belongs to one variable, so its ids lie in one row, in event
    * order. Variable i's values are checked against dom(Xᵢ) before any id
    * of theirs is computed; its parents' were checked before it.
    */
  def blockUpdates(x: Array[Int], count: Int, ids: Array[Int]): Unit = {
    val codes = new Array[Int](count)
    var row = 0
    var i = 0
    while (i < net.n) {
      val card = net.card(i)
      val base = i * count
      var e = 0
      while (e < count) {
        val v = x(base + e)
        if (v < 0 || v >= card) throw new IllegalArgumentException(s"x($i) = $v outside [0, $card)")
        e += 1
      }
      val child = row * count
      val parent = if (i == 0 || !sharedParents) child + count else -1
      row += (if (parent < 0) 1 else 2)
      net.parentCodes(i, x, count, codes)
      e = 0
      while (e < count) {
        val u = codes(e)
        ids(child + e) = childCounter(i, x(base + e), u)
        if (parent >= 0) ids(parent + e) = parentCounter(i, u)
        e += 1
      }
      i += 1
    }
  }

  /** Number of distinct counters one event increments. */
  def updatesPerEvent: Int = if (sharedParents) net.n + 1 else 2 * net.n
}

object CounterLayout {

  /** Standard layout: one private parent block per variable (Section 4.4). */
  def standard(net: BayesianNetwork): CounterLayout = {
    val childOffset = new Array[Int](net.n)
    val parentOffset = new Array[Int](net.n)
    var off = 0L
    for (i <- 0 until net.n) {
      childOffset(i) = off.toInt; off += net.card(i).toLong * net.parentCard(i)
      parentOffset(i) = off.toInt; off += net.parentCard(i)
      require(off <= Int.MaxValue, s"counter space overflow at variable $i")
    }
    new CounterLayout(net, childOffset, parentOffset, off.toInt, sharedParents = false)
  }

  /** Naïve-Bayes layout (Algorithm 4): a single shared block A(x₀) of size
    * J₀ serves both as the root's child counters and as every feature's
    * parent counters; the root's parent block (K₀ = 1) tracks the total
    * observation count. Each event increments the shared block once.
    */
  def naiveBayes(net: BayesianNetwork): CounterLayout = {
    require(net.n >= 2 && net.parents(0).isEmpty &&
      (1 until net.n).forall(i => net.parents(i).sameElements(Array(0))),
      s"${net.name} is not a Naïve Bayes network")
    val childOffset = new Array[Int](net.n)
    val parentOffset = new Array[Int](net.n)
    var off = 0
    for (i <- 1 until net.n) { childOffset(i) = off; off += net.card(i) * net.parentCard(i) }
    val shared = off; off += net.card(0)
    childOffset(0) = shared
    for (i <- 1 until net.n) parentOffset(i) = shared
    parentOffset(0) = off; off += 1 // total-count counter
    new CounterLayout(net, childOffset, parentOffset, off, sharedParents = true)
  }
}
