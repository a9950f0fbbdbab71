package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.eval.{Networks, Tables}
import repro.jobs.{CommSweep, JobSession}

/** Figure 9's shape: communication vs stream length on ALARM. EXACTMLE is
  * linear in m; the approximate algorithms turn logarithmic once counters
  * cross their reporting thresholds.
  */
class CommSweepBench extends AnyFunSuite {

  private val ms: Seq[Long] = CommSweep.ms

  test("communication vs training points on ALARM (Figure 9 shape)") {
    val net = Networks.alarm
    val counts = Tables.messageCounts(net, ms, JobSession.k, JobSession.eps, JobSession.seed, JobSession.pScale)
    println(CommSweep.render(net, ms, JobSession.k, JobSession.eps, counts))

    val exact = counts("exactmle")
    val nonuni = counts("nonuniform")
    // exact is exactly linear
    assert(exact.last.toDouble / exact.head == ms.last.toDouble / ms.head)
    // The log-vs-linear separation needs counters to be well past their
    // reporting thresholds; only assert it at full sweep scale.
    if (ms.last >= 2000000L) {
      val mRatio = ms.last.toDouble / ms(ms.size - 2)
      val cRatio = nonuni.last.toDouble / nonuni(ms.size - 2)
      assert(cRatio < mRatio * 0.8, s"nonuniform grew x$cRatio over x$mRatio more data")
      assert(nonuni.last < exact.last / 2,
        s"nonuniform ${nonuni.last} vs exact ${exact.last} at m=${ms.last}")
    }
  }
}
