package repro.counter

import org.scalatest.funsuite.AnyFunSuite
import repro.bn.{NetworkGenerator, TestNets}

class CounterLayoutSpec extends AnyFunSuite {
  private val chain = TestNets.chain
  private val layout = CounterLayout.standard(chain)

  test("standard layout counts all counters: Σ(JᵢKᵢ + Kᵢ)") {
    // chain: (2*1+1) + (3*2+2) + (2*3+3) = 3 + 8 + 9 = 20
    assert(layout.numCounters == 20)
  }

  test("child and parent counter ids are a bijection onto [0, numCounters)") {
    val ids = (for {
      i <- 0 until chain.n
      u <- 0 until chain.parentCard(i)
      v <- -1 until chain.card(i) // v = -1 stands for the parent counter
    } yield if (v == -1) layout.parentCounter(i, u) else layout.childCounter(i, v, u)).toSeq
    assert(ids.sorted == (0 until layout.numCounters).toSeq)
  }

  test("foreachFamily yields one (child, parent) pair per variable") {
    // the family order is observed through foreachUpdate: per variable in
    // order, its child counter and then its parent counter
    val ids = Seq.newBuilder[Int]
    layout.foreachUpdate(Array(1, 2, 0))(ids += _)
    val got = ids.result().grouped(2).map { case Seq(c, p) => (c, p) }.toSeq
    assert(got.size == 3)
    assert(got(0) == ((layout.childCounter(0, 1, 0), layout.parentCounter(0, 0))))
    assert(got(1) == ((layout.childCounter(1, 2, 1), layout.parentCounter(1, 1))))
    assert(got(2) == ((layout.childCounter(2, 0, 2), layout.parentCounter(2, 2))))
  }

  test("updatesPerEvent is 2n for the standard layout") {
    assert(layout.updatesPerEvent == 6)
  }

  test("foreachUpdate visits 2n distinct counters in the standard layout") {
    val seen = Seq.newBuilder[Int]
    layout.foreachUpdate(Array(0, 1, 1))(seen += _)
    val got = seen.result()
    assert(got.size == 6)
    assert(got.distinct.size == 6)
  }

  test("standard layout on a larger generated network stays consistent") {
    val net = TestNets.random20
    val lay = CounterLayout.standard(net)
    val expected = (0 until net.n).map(i => net.card(i) * net.parentCard(i) + net.parentCard(i)).sum
    assert(lay.numCounters == expected)
    // spot-check id ranges
    for (i <- 0 until net.n) {
      assert(lay.childCounter(i, 0, 0) >= 0)
      assert(lay.parentCounter(i, net.parentCard(i) - 1) < lay.numCounters)
    }
  }

  private val nb = NetworkGenerator.naiveBayes("nb", 4, classCard = 3,
    featureCards = Array(2, 4, 2), seed = 21L)
  private val nbLayout = CounterLayout.naiveBayes(nb)

  test("naiveBayes layout shares one parent block across features") {
    val sharedIds = (0 until 3).map(u => nbLayout.parentCounter(1, u))
    (2 until 4).foreach { i =>
      assert((0 until 3).map(u => nbLayout.parentCounter(i, u)) == sharedIds)
    }
    // the root's child block IS the shared block
    assert((0 until 3).map(v => nbLayout.childCounter(0, v, 0)) == sharedIds)
  }

  test("naiveBayes layout size: feature child blocks + shared + total") {
    // features: 2*3 + 4*3 + 2*3 = 24; shared J0 = 3; total = 1 → 28
    assert(nbLayout.numCounters == 28)
  }

  test("naiveBayes foreachUpdate increments the shared counter once per event") {
    val counts = scala.collection.mutable.Map.empty[Int, Int].withDefaultValue(0)
    nbLayout.foreachUpdate(Array(2, 1, 3, 0))(c => counts(c) += 1)
    // updates: 3 feature child counters + shared(x0=2) + total = 5 distinct
    assert(counts.values.forall(_ == 1), s"duplicated increments: $counts")
    assert(counts.size == 5)
    assert(counts.contains(nbLayout.childCounter(0, 2, 0)))
    assert(counts.contains(nbLayout.parentCounter(0, 0)))
  }

  test("naiveBayes foreachUpdate visits the root's two counters, then each feature's child counter") {
    val x = Array(2, 1, 3, 0)
    val got = Seq.newBuilder[Int]
    nbLayout.foreachUpdate(x)(got += _)
    assert(got.result() == Seq(nbLayout.childCounter(0, 2, 0), nbLayout.parentCounter(0, 0)) ++
      (1 until 4).map(i => nbLayout.childCounter(i, x(i), 2)))
  }

  test("foreachUpdate rejects an assignment of the wrong length before counting") {
    var calls = 0
    val e = intercept[IllegalArgumentException](layout.foreachUpdate(Array(0, 1, 1, 0))(_ => calls += 1))
    assert(e.getMessage.contains("assignment has 4 values, expected 3"))
    assert(calls == 0)
  }

  test("foreachUpdate rejects a value outside its domain before counting") {
    var calls = 0
    Seq(Array(0, 1, 2) -> "x(2) = 2 outside [0, 2)", Array(-1, 1, 1) -> "x(0) = -1 outside [0, 2)")
      .foreach { case (x, msg) =>
        val e = intercept[IllegalArgumentException](layout.foreachUpdate(x)(_ => calls += 1))
        assert(e.getMessage.contains(msg))
      }
    assert(calls == 0)
  }

  test("naiveBayes updatesPerEvent reflects sharing") {
    assert(nbLayout.updatesPerEvent == 5)
  }

  test("naiveBayes layout rejects non-NB networks") {
    intercept[IllegalArgumentException](CounterLayout.naiveBayes(TestNets.chain))
  }

  /** `blockUpdates` of the events `xs`, transposed back to one id sequence per event. */
  private def blockIds(layout: CounterLayout, xs: Seq[Array[Int]]): Seq[Seq[Int]] = {
    val n = layout.net.n
    val count = xs.size
    val block = Array.tabulate(n * count)(j => xs(j % count)(j / count))
    val ids = new Array[Int](count * layout.updatesPerEvent)
    layout.blockUpdates(block, count, ids)
    (0 until count).map(e => (0 until layout.updatesPerEvent).map(r => ids(r * count + e)))
  }

  test("blockUpdates gives each event the ids of foreachUpdate, in its order") {
    for (l <- Seq(layout, nbLayout, CounterLayout.standard(TestNets.random20))) {
      val xs = (0 until 37).map(id => l.net.sample(3L, id.toLong))
      val want = xs.map { x => val b = Seq.newBuilder[Int]; l.foreachUpdate(x)(b += _); b.result() }
      assert(blockIds(l, xs) == want, l.net.name)
      // foreachUpdate is blockUpdates on one event, so also check the family formula itself
      val family = xs.map { x =>
        (0 until l.net.n).flatMap { i =>
          val u = l.net.parentCode(i, x)
          l.childCounter(i, x(i), u) +: (if (i == 0 || !l.sharedParents) Seq(l.parentCounter(i, u)) else Nil)
        }
      }
      assert(blockIds(l, xs) == family, l.net.name)
    }
  }

  test("blockUpdates rejects a value outside its domain, naming it") {
    Seq(Seq(Array(0, 1, 1), Array(0, 1, 2)) -> "x(2) = 2 outside [0, 2)",
        Seq(Array(-1, 1, 1), Array(0, 1, 1)) -> "x(0) = -1 outside [0, 2)")
      .foreach { case (xs, msg) =>
        val e = intercept[IllegalArgumentException](blockIds(layout, xs))
        assert(e.getMessage.contains(msg))
      }
  }
}
