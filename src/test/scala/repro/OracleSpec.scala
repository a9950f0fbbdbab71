package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.bn.{ForwardSampler, TestNets}

/** Exercises the DuckDB oracle on forward-sampled event tables, with the
  * assignment x widened to one column per variable: a wrong Spark
  * aggregation or a broken oracle canonicalization would surface here
  * before it could mask a bug in the paper pipeline.
  */
class OracleSpec extends SparkSpec {
  import spark.implicits._

  /** `m` events of the chain network as columns (id, site, x0, x1, x2),
    * each name prefixed by `p`.
    */
  private def table(m: Long, seed: Long, p: String): DataFrame =
    ForwardSampler.events(spark, TestNets.chain, m, 3, seed)
      .map(e => (e.id, e.site, e.x(0), e.x(1), e.x(2)))
      .toDF(Seq("id", "site", "x0", "x1", "x2").map(p + _): _*)

  private lazy val ev = table(400, 1L, "").cache()
  private lazy val other = table(250, 2L, "o_").cache()

  test("group-by aggregation matches DuckDB") {
    val sparkDf = ev.groupBy("site")
      .agg(count(lit(1)).as("cnt"), sum("x2").as("x2sum"))
      .select("site", "cnt", "x2sum")
    Oracle.assertEquivalent(sparkDf,
      """SELECT site, count(*) AS cnt, sum(CAST(x2 AS BIGINT)) AS x2sum
        |FROM events GROUP BY site""".stripMargin,
      "events" -> ev)
  }

  test("filtered count matches DuckDB") {
    val sparkDf = ev.filter(col("x1") === 1)
      .agg(count(lit(1)).as("cnt"))
    Oracle.assertEquivalent(sparkDf,
      "SELECT count(*) AS cnt FROM events WHERE CAST(x1 AS INT) = 1",
      "events" -> ev)
  }

  test("join aggregation matches DuckDB") {
    val sparkDf = ev.join(other, ev("id") === other("o_id"))
      .groupBy("x0", "o_x0")
      .agg(count(lit(1)).as("cnt"))
      .select("x0", "o_x0", "cnt")
    Oracle.assertEquivalent(sparkDf,
      """SELECT x0, o_x0, count(*) AS cnt
        |FROM events JOIN other ON CAST(id AS BIGINT) = CAST(o_id AS BIGINT)
        |GROUP BY x0, o_x0""".stripMargin,
      "events" -> ev, "other" -> other)
  }

  test("oracle rejects a wrong result") {
    val wrong = ev.agg((count(lit(1)) + 1).as("cnt"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, "SELECT count(*) AS cnt FROM events", "events" -> ev)
    }
  }

  test("oracle rejects mismatched column sets") {
    val sparkDf = ev.agg(count(lit(1)).as("wrong_name"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(sparkDf, "SELECT count(*) AS cnt FROM events", "events" -> ev)
    }
  }
}
