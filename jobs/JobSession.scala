package repro.jobs

import org.apache.spark.sql.SparkSession

/** The entrypoints' experiment scale, and the SparkSession of the one that
  * runs on Spark (`StreamingMLE`).
  */
object JobSession {
  def get(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .getOrCreate()

  /** Variable `name` of `env` read by `parse`, None when unset; a value it
    * cannot read fails naming it: `REPRO_M = abc, expected an integer`.
    */
  def knob[A](name: String, expected: String, env: Map[String, String] = sys.env)(parse: String => A): Option[A] =
    env.get(name).map(v => try parse(v) catch {
      case _: NumberFormatException => throw new IllegalArgumentException(s"$name = $v, expected $expected")
    })

  /** Env-tunable experiment scale (defaults = the paper's settings). */
  def m: Long = knob("REPRO_M", "an integer")(_.toLong).getOrElse(50000L)
  def k: Int = knob("REPRO_K", "an integer")(_.toInt).getOrElse(30)
  def eps: Double = knob("REPRO_EPS", "a number")(_.toDouble).getOrElse(0.1)
  def nTests: Int = knob("REPRO_TESTS", "an integer")(_.toInt).getOrElse(1000)
  def runs: Int = knob("REPRO_RUNS", "an integer")(_.toInt).getOrElse(3)
  def seed: Long = knob("REPRO_SEED", "an integer")(_.toLong).getOrElse(42L)
  /** Counter reporting-probability scale; None = the theory's √(2k). */
  def pScale: Option[Double] = knob("REPRO_PSCALE", "a number")(_.toDouble)
}
