package repro.bn

import java.util.concurrent.atomic.AtomicReference
import org.scalatest.funsuite.AnyFunSuite
import repro.eval.Networks
import scala.util.{Failure, Try}

class NetworkGeneratorSpec extends AnyFunSuite {

  test("randomDag places the exact number of edges") {
    val par = NetworkGenerator.randomDag(n = 30, edges = 45, maxParents = 4, seed = 1L)
    assert(par.map(_.length).sum == 45)
  }

  test("randomDag honors the in-degree cap") {
    val par = NetworkGenerator.randomDag(n = 20, edges = 50, maxParents = 3, seed = 2L)
    assert(par.forall(_.length <= 3))
  }

  test("randomDag parents precede children (topological order)") {
    val par = NetworkGenerator.randomDag(n = 40, edges = 80, maxParents = 4, seed = 3L)
    for (i <- par.indices; p <- par(i)) assert(p < i)
  }

  test("randomDag parents are distinct") {
    val par = NetworkGenerator.randomDag(n = 25, edges = 60, maxParents = 5, seed = 4L)
    par.foreach(ps => assert(ps.toSeq == ps.toSeq.distinct))
  }

  test("randomDag is deterministic in the seed") {
    val a = NetworkGenerator.randomDag(10, 15, 3, 9L).map(_.toSeq).toSeq
    val b = NetworkGenerator.randomDag(10, 15, 3, 9L).map(_.toSeq).toSeq
    assert(a == b)
  }

  test("randomDag rejects infeasible edge counts") {
    intercept[IllegalArgumentException](NetworkGenerator.randomDag(5, 100, 2, 1L))
  }

  test("calibrateCards reaches the target parameter count") {
    val par = NetworkGenerator.randomDag(37, 46, 4, 5L)
    val cards = NetworkGenerator.calibrateCards(par, targetParams = 509L, maxCard = 4, seed = 5L)
    val net = NetworkGenerator.calibrated("t", 37, 46, 509L, 4, 4, 5L)
    assert(cards.forall(c => c >= 2 && c <= 4))
    assert(net.numParameters >= 509L)
  }

  test("calibrateCards stops near the target (bounded overshoot)") {
    val net = NetworkGenerator.calibrated("t", 37, 46, 509L, 4, 4, 6L)
    // one increment can add at most maxCard^maxParents-ish; 50% slack is generous
    assert(net.numParameters <= 509L * 3 / 2, s"params=${net.numParameters}")
  }

  test("cptRow sums to 1 and has the uniform floor") {
    for (j <- Seq(2, 3, 5, 20)) {
      val row = NetworkGenerator.cptRow(j, 3L, 1L, 2L)
      assert(math.abs(row.sum - 1.0) < 1e-9)
      row.foreach(p => assert(p >= 0.05 / j - 1e-12, s"p=$p < floor for J=$j"))
    }
  }

  test("cptRow is peaked: the modal value carries most of the mass on average") {
    val peaks = (0 until 200).map(c => NetworkGenerator.cptRow(3, 5L, 1L, c.toLong).max)
    assert(peaks.sum / peaks.size > 0.6, s"mean peak ${peaks.sum / peaks.size}")
  }

  test("cptRow is deterministic and varies across codes") {
    assert(NetworkGenerator.cptRow(3, 1L, 2L, 3L).toSeq == NetworkGenerator.cptRow(3, 1L, 2L, 3L).toSeq)
    assert(NetworkGenerator.cptRow(3, 1L, 2L, 3L).toSeq != NetworkGenerator.cptRow(3, 1L, 2L, 4L).toSeq)
  }

  test("naiveBayes has the two-layer star structure") {
    val nb = NetworkGenerator.naiveBayes("nb", 6, classCard = 3, featureCards = Array(2, 3, 2, 4, 2), seed = 8L)
    assert(nb.parents(0).isEmpty)
    (1 until 6).foreach(i => assert(nb.parents(i).toSeq == Seq(0)))
    assert(nb.card(0) == 3)
  }

  test("widen keeps structure and changes exactly nWide cardinalities") {
    val base = NetworkGenerator.random("b", 20, 30, 4, 3, 10L)
    val wide = NetworkGenerator.widen(base, nWide = 5, wideCard = 20, seed = 11L)
    assert(wide.parents.map(_.toSeq).toSeq == base.parents.map(_.toSeq).toSeq)
    assert(wide.card.count(_ == 20) >= 5) // base cards are ≤ 4, so all 20s are ours
    assert(wide.card.zip(base.card).count { case (w, b) => w != b } == 5)
  }

  test("widen rejects an nWide outside [0, n], naming it, instead of looping") {
    val base = NetworkGenerator.random("b", 3, 2, 3, 2, 12L)
    for (nWide <- Seq(4, -1)) {
      // On a daemon thread, so that a widen that never returns fails the test instead of hanging the run.
      val result = new AtomicReference[Try[BayesianNetwork]]()
      val t = new Thread(() => result.set(Try(NetworkGenerator.widen(base, nWide, wideCard = 20, seed = 11L))))
      t.setDaemon(true)
      t.start()
      t.join(5000)
      assert(!t.isAlive, s"widen with nWide = $nWide on 3 nodes still running after 5 s")
      result.get match {
        case Failure(e: IllegalArgumentException) => assert(e.getMessage.contains(s"nWide = $nWide outside [0, 3]"))
        case other => fail(s"nWide = $nWide: expected an IllegalArgumentException, got $other")
      }
    }
  }

  test("calibrated fails when the cardinality search ends below its target, naming both counts") {
    val e = intercept[IllegalArgumentException](
      NetworkGenerator.calibrated("t", 3, 2, 10000L, maxCard = 3, maxParents = 2, seed = 7L))
    assert(e.getMessage.contains("cardinality search stopped at 14 parameters, below the target 10000"), e.getMessage)
  }

  test("named networks match the paper's node and edge counts exactly") {
    for (net <- Networks.all) {
      val (pn, pe, _) = Networks.paperTable1(net.name)
      assert(net.n == pn, s"${net.name} nodes")
      assert(net.numEdges == pe, s"${net.name} edges")
    }
  }

  test("named networks reach the paper's parameter counts within 25%") {
    for (net <- Networks.all) {
      val (_, _, pp) = Networks.paperTable1(net.name)
      assert(net.numParameters >= pp, s"${net.name} params ${net.numParameters} < $pp")
      assert(net.numParameters <= (pp * 1.25).toLong,
        s"${net.name} params ${net.numParameters} overshoot $pp")
    }
  }

  test("newAlarm widens 6 variables to cardinality 20 on alarm's structure") {
    val na = Networks.newAlarm
    assert(na.parents.map(_.toSeq).toSeq == Networks.alarm.parents.map(_.toSeq).toSeq)
    assert(na.card.count(_ == 20) == 6)
  }
}
