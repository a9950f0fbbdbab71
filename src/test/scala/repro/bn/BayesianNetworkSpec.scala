package repro.bn

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Networks
import repro.util.Rng

/** Tiny hand-built networks used across suites. */
object TestNets {

  /** Chain X0 → X1 → X2 with cards (2, 3, 2) and hand-set CPTs. */
  val chain: BayesianNetwork = new BayesianNetwork(
    "chain",
    card = Array(2, 3, 2),
    parents = Array(Array.empty[Int], Array(0), Array(1)),
    cpt = Array(
      Array(Array(0.3, 0.7)),
      Array(Array(0.2, 0.3, 0.5), Array(0.6, 0.3, 0.1)),
      Array(Array(0.9, 0.1), Array(0.5, 0.5), Array(0.2, 0.8)),
    ),
  )

  /** Collider: X0 → X2 ← X1, cards (2, 2, 2). */
  val collider: BayesianNetwork = new BayesianNetwork(
    "collider",
    card = Array(2, 2, 2),
    parents = Array(Array.empty[Int], Array.empty[Int], Array(0, 1)),
    cpt = Array(
      Array(Array(0.4, 0.6)),
      Array(Array(0.25, 0.75)),
      Array(Array(0.9, 0.1), Array(0.6, 0.4), Array(0.3, 0.7), Array(0.05, 0.95)),
    ),
  )

  /** A near-deterministic classifier net: X0 → X1, X0 → X2; features copy
    * the class value with probability 0.95.
    */
  val copier: BayesianNetwork = new BayesianNetwork(
    "copier",
    card = Array(2, 2, 2),
    parents = Array(Array.empty[Int], Array(0), Array(0)),
    cpt = Array(
      Array(Array(0.5, 0.5)),
      Array(Array(0.95, 0.05), Array(0.05, 0.95)),
      Array(Array(0.95, 0.05), Array(0.05, 0.95)),
    ),
  )

  /** Mid-size random net for statistical tests (seeded, so stable). */
  lazy val random20: BayesianNetwork =
    NetworkGenerator.random("rand20", n = 20, edges = 30, maxCard = 4, maxParents = 3, seed = 7L)
}

class BayesianNetworkSpec extends AnyFunSuite {
  import TestNets._

  test("n, edges and parameter count of the chain") {
    assert(chain.n == 3)
    assert(chain.numEdges == 2)
    // (2-1)*1 + (3-1)*2 + (2-1)*3 = 1 + 4 + 3
    assert(chain.numParameters == 8L)
  }

  test("parentCard multiplies parent cardinalities") {
    assert(chain.parentCard.toSeq == Seq(1, 2, 3))
    assert(collider.parentCard.toSeq == Seq(1, 1, 4))
  }

  test("parentCode encodes mixed radix over parents") {
    // collider node 2 has parents (0, 1); code = x0 * card(1) + x1 = x0*2 + x1
    assert(collider.parentCode(2, Array(0, 0, 0)) == 0)
    assert(collider.parentCode(2, Array(0, 1, 0)) == 1)
    assert(collider.parentCode(2, Array(1, 0, 0)) == 2)
    assert(collider.parentCode(2, Array(1, 1, 1)) == 3)
  }

  test("parentCode of a root is always 0") {
    assert(chain.parentCode(0, Array(1, 2, 1)) == 0)
  }

  test("decodeParentCode inverts parentCode on every assignment") {
    val net = random20
    for (trial <- 0 until 50) {
      val x = net.sample(99L, trial.toLong)
      for (i <- 0 until net.n) {
        val code = net.parentCode(i, x)
        val dec = net.decodeParentCode(i, code)
        assert(dec.toSeq == net.parents(i).map(x(_)).toSeq, s"node $i")
      }
    }
  }

  test("children lists are the transpose of parents") {
    assert(chain.children(0).toSeq == Seq(1))
    assert(chain.children(1).toSeq == Seq(2))
    assert(chain.children(2).isEmpty)
    assert(collider.children(0).toSeq == Seq(2))
    assert(collider.children(1).toSeq == Seq(2))
  }

  test("jointProb multiplies CPD entries") {
    // P(0,1,0) = 0.3 * 0.3 * 0.5
    assert(math.abs(chain.jointProb(Array(0, 1, 0)) - 0.3 * 0.3 * 0.5) < 1e-12)
  }

  test("jointProb sums to 1 over the full domain") {
    val total = (for (a <- 0 until 2; b <- 0 until 3; c <- 0 until 2)
      yield chain.jointProb(Array(a, b, c))).sum
    assert(math.abs(total - 1.0) < 1e-9)
  }

  test("samplePrefix is the prefix of sample") {
    val net = TestNets.random20
    for (id <- 0L until 50L; len <- Seq(0, 1, 7, net.n))
      assert(net.samplePrefix(3L, id, len).sameElements(net.sample(3L, id).take(len)))
  }

  /** Ancestral sampling of one event, each value scanned out of its CPT
    * row with an early exit: the reference the block sampler must match.
    */
  private def scanned(net: BayesianNetwork, seed: Long, id: Long, len: Int): Array[Int] = {
    val x = new Array[Int](len)
    for (i <- 0 until len) {
      val row = net.cpt(i)(net.parentCode(i, x))
      val r = Rng.uniform(seed, id, i.toLong)
      var v = 0; var acc = row(0)
      while (acc < r && v < net.card(i) - 1) { v += 1; acc += row(v) }
      x(i) = v
    }
    x
  }

  test("sampleBlock equals sample, samplePrefix and a per-event scan, bit for bit") {
    for (net <- Seq(chain, random20, Networks.alarm, Networks.munin); seed <- Seq(5L, -3L);
         from <- Seq(0L, 777L, 1L << 40); count <- Seq(1, 7, 256);
         len <- Seq(net.n, net.n / 2).distinct) {
      val block = new Array[Int](len * count)
      net.sampleBlock(seed, from, count, len, block)
      for (e <- 0 until count) {
        val x = Array.tabulate(len)(i => block(i * count + e))
        val at = s"${net.name} seed $seed id ${from + e} of a block of $count, len $len"
        assert(x.sameElements(scanned(net, seed, from + e, len)), at)
        assert(x.sameElements(net.samplePrefix(seed, from + e, len)), at)
        if (len == net.n) assert(x.sameElements(net.sample(seed, from + e)), at)
      }
    }
  }

  test("samples are sample at consecutive ids") {
    val xs = ForwardSampler.localEvents(random20, 1300L, 3, 9L).drop(1000).toArray
    assert(xs.length == 300)
    xs.indices.foreach { e =>
      assert(xs(e).id == 1000L + e)
      assert(xs(e).x.sameElements(random20.sample(9L, 1000L + e)))
    }
  }

  test("sample is deterministic in (seed, id)") {
    assert(chain.sample(5L, 17L).toSeq == chain.sample(5L, 17L).toSeq)
    assert(random20.sample(5L, 17L).toSeq == random20.sample(5L, 17L).toSeq)
  }

  test("sample varies across ids") {
    val draws = (0 until 100).map(i => chain.sample(5L, i.toLong).toSeq).distinct
    assert(draws.size > 3)
  }

  test("sampled values stay inside their domains") {
    val net = random20
    for (id <- 0 until 200) {
      val x = net.sample(3L, id.toLong)
      for (i <- 0 until net.n) assert(x(i) >= 0 && x(i) < net.card(i))
    }
  }

  test("empirical root marginal matches the CPT") {
    val m = 50000
    val ones = (0 until m).count(i => chain.sample(11L, i.toLong)(0) == 1)
    assert(math.abs(ones.toDouble / m - 0.7) < 0.01)
  }

  test("empirical conditional matches the CPT") {
    val m = 50000
    val draws = (0 until m).map(i => chain.sample(12L, i.toLong))
    val given0 = draws.filter(_(0) == 0)
    val p1 = given0.count(_(1) == 1).toDouble / given0.size
    assert(math.abs(p1 - 0.3) < 0.02, s"P(x1=1|x0=0)=$p1")
  }

  test("constructor rejects a parent after its child") {
    intercept[IllegalArgumentException] {
      new BayesianNetwork("bad", Array(2, 2), Array(Array(1), Array.empty[Int]),
        Array(Array(Array(0.5, 0.5), Array(0.5, 0.5)), Array(Array(0.5, 0.5))))
    }
  }

  test("constructor rejects a CPT row that does not sum to 1") {
    intercept[IllegalArgumentException] {
      new BayesianNetwork("bad", Array(2), Array(Array.empty[Int]),
        Array(Array(Array(0.5, 0.6))))
    }
  }

  test("constructor rejects a negative CPT entry") {
    val e = intercept[IllegalArgumentException] {
      new BayesianNetwork("bad", Array(3), Array(Array.empty[Int]), Array(Array(Array(0.6, -0.1, 0.5))))
    }
    assert(e.getMessage.contains("cpt(0)(0) has a negative entry"))
  }

  test("constructor rejects CPT with wrong number of rows") {
    intercept[IllegalArgumentException] {
      new BayesianNetwork("bad", Array(2, 2), Array(Array.empty[Int], Array(0)),
        Array(Array(Array(0.5, 0.5)), Array(Array(0.5, 0.5)))) // needs K=2 rows for node 1
    }
  }
}
