package repro.jobs

import org.apache.spark.sql.SparkSession

/** Shared SparkSession setup for the spark-submit entrypoints. */
object JobSession {
  def get(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .getOrCreate()

  /** Env-tunable experiment scale (defaults = the paper's settings). */
  def m: Long = sys.env.getOrElse("REPRO_M", "50000").toLong
  def k: Int = sys.env.getOrElse("REPRO_K", "30").toInt
  def eps: Double = sys.env.getOrElse("REPRO_EPS", "0.1").toDouble
  def nTests: Int = sys.env.getOrElse("REPRO_TESTS", "1000").toInt
  def runs: Int = sys.env.getOrElse("REPRO_RUNS", "3").toInt
  def seed: Long = sys.env.getOrElse("REPRO_SEED", "42").toLong
  /** Counter reporting-probability scale; None = the theory's √(2k). */
  def pScale: Option[Double] = sys.env.get("REPRO_PSCALE").map(_.toDouble)
}
