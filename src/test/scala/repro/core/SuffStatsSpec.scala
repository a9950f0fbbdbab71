package repro.core

import org.apache.spark.sql.DataFrame
import repro.{Oracle, SparkSpec}
import repro.bn.{BayesianNetwork, Event, ForwardSampler, NetworkGenerator, TestNets}
import repro.counter.{CounterLayout, ExactCounterBank}
import repro.stream.SequentialDriver

class SuffStatsSpec extends SparkSpec {
  import spark.implicits._

  private val net = TestNets.chain
  private val layout = CounterLayout.standard(net)

  private val nb = NetworkGenerator.naiveBayes("nb", 4, 3, Array(2, 4, 2), seed = 6L)
  private val nbLayout = CounterLayout.naiveBayes(nb)

  /** The child counters of `counts` as (i, v, u, cnt) rows, cnt > 0. */
  private def familyTable(net: BayesianNetwork, layout: CounterLayout, counts: Array[Long]): DataFrame =
    (for {
      i <- 0 until net.n
      u <- 0 until net.parentCard(i)
      v <- 0 until net.card(i)
      cnt = counts(layout.childCounter(i, v, u))
      if cnt > 0
    } yield (i, v, u, cnt)).toDF("i", "v", "u", "cnt")

  private def bankCounts(layout: CounterLayout, events: Iterator[Event]): Array[Long] = {
    val bank = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, bank, events)
    Array.tabulate(layout.numCounters)(bank.count)
  }

  test("exactCounts makes every event count its updates on in-range counters") {
    val m = 200
    val counts = SuffStats.exactCounts(spark, layout, ForwardSampler.events(spark, net, m, 3, seed = 1L))
    assert(counts.length == layout.numCounters)
    assert(counts.forall(_ >= 0))
    assert(counts.sum == layout.updatesPerEvent.toLong * m)
  }

  test("exactCounts matches DuckDB on the chain network (oracle check)") {
    val events = ForwardSampler.events(spark, net, 500, 3, seed = 2L)
    // Widen x into columns so plain SQL can compute the family grouping.
    val wide = events.map(e => (e.x(0), e.x(1), e.x(2))).toDF("x0", "x1", "x2")
    val sparkDf = familyTable(net, layout, SuffStats.exactCounts(spark, layout, events))
    // chain parent codes: node 0 → 0, node 1 → x0, node 2 → x1
    val sql =
      """SELECT 0 AS i, x0 AS v, 0 AS u, count(*) AS cnt FROM events GROUP BY x0
        |UNION ALL
        |SELECT 1, x1, x0, count(*) FROM events GROUP BY x1, x0
        |UNION ALL
        |SELECT 2, x2, x1, count(*) FROM events GROUP BY x2, x1""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "events" -> wide)
  }

  test("exactCounts matches DuckDB on the collider network (oracle check)") {
    val col = TestNets.collider
    val colLayout = CounterLayout.standard(col)
    val events = ForwardSampler.events(spark, col, 400, 3, seed = 3L)
    val wide = events.map(e => (e.x(0), e.x(1), e.x(2))).toDF("x0", "x1", "x2")
    val sparkDf = familyTable(col, colLayout, SuffStats.exactCounts(spark, colLayout, events))
    // collider parent code of node 2 = x0*2 + x1
    val sql =
      """SELECT 0 AS i, x0 AS v, 0 AS u, count(*) AS cnt FROM events GROUP BY x0
        |UNION ALL
        |SELECT 1, x1, 0, count(*) FROM events GROUP BY x1
        |UNION ALL
        |SELECT 2, x2, CAST(x0 AS INT)*2 + CAST(x1 AS INT), count(*)
        |  FROM events GROUP BY x2, CAST(x0 AS INT)*2 + CAST(x1 AS INT)""".stripMargin
    Oracle.assertEquivalent(sparkDf, sql, "events" -> wide)
  }

  test("exactCounts equals ExactCounterBank on both layouts, 1 and 7 partitions") {
    for ((l, m, seed) <- Seq((layout, 2000, 4L), (nbLayout, 1200, 7L))) {
      val events = ForwardSampler.events(spark, l.net, m, 4, seed)
      val expected = bankCounts(l, ForwardSampler.localEvents(l.net, m, 4, seed))
      for ((parts, input) <- Seq(1 -> events.coalesce(1), 7 -> events.repartition(7))) {
        assert(input.rdd.getNumPartitions == parts)
        assert(SuffStats.exactCounts(spark, l, input).sameElements(expected), s"${l.net.name}, $parts partitions")
      }
    }
  }

  test("exactCounts of an empty stream is all zeros") {
    for (l <- Seq(layout, nbLayout)) {
      val counts = SuffStats.exactCounts(spark, l, ForwardSampler.events(spark, l.net, 0, 4, seed = 1L))
      assert(counts.length == l.numCounters)
      assert(counts.forall(_ == 0L))
    }
  }

  test("exactCounts sets each parent counter to the sum of its child counters") {
    val m = 1500
    val counts = SuffStats.exactCounts(spark, layout, ForwardSampler.events(spark, net, m, 4, seed = 5L))
    for (i <- 0 until net.n; u <- 0 until net.parentCard(i)) {
      val childSum = (0 until net.card(i)).map(v => counts(layout.childCounter(i, v, u))).sum
      assert(counts(layout.parentCounter(i, u)) == childSum, s"parent($i,$u)")
    }
    // every event contributes once per root family: parent counter of node 0 is m
    assert(counts(layout.parentCounter(0, 0)) == m)
  }

  test("exactCounts counts the naive-bayes shared block once per event") {
    val m = 1200
    val counts = SuffStats.exactCounts(spark, nbLayout, ForwardSampler.events(spark, nb, m, 4, seed = 7L))
    val sharedSum = (0 until nb.card(0)).map(v => counts(nbLayout.childCounter(0, v, 0))).sum
    assert(sharedSum == m, s"shared block sums to $sharedSum, expected $m")
    assert(counts(nbLayout.parentCounter(0, 0)) == m)
  }

  test("exactModel reproduces empirical conditionals") {
    val m = 20000
    val events = ForwardSampler.events(spark, net, m, 4, seed = 8L)
    val model = SuffStats.exactModel(spark, net, layout, events)
    for (i <- 0 until net.n; u <- 0 until net.parentCard(i); v <- 0 until net.card(i)) {
      assert(math.abs(model.theta(i, v, u) - net.truth(i, v, u)) < 0.04,
        s"theta($i,$v,$u)")
    }
  }

  test("exactModel equals the sequential exact model parameter-for-parameter") {
    val m = 3000
    val events = ForwardSampler.events(spark, net, m, 4, seed = 9L)
    val sparkModel = SuffStats.exactModel(spark, net, layout, events)
    val bank = new ExactCounterBank(layout.numCounters)
    SequentialDriver.run(layout, bank, ForwardSampler.localEvents(net, m, 4, seed = 9L))
    val seqModel = new BNModel(net, layout, bank.estimate)
    for (i <- 0 until net.n; u <- 0 until net.parentCard(i); v <- 0 until net.card(i))
      assert(sparkModel.theta(i, v, u) == seqModel.theta(i, v, u), s"theta($i,$v,$u)")
  }
}
