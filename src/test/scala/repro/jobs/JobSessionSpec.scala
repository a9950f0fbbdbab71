package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class JobSessionSpec extends AnyFunSuite {

  test("a knob reads its variable, and is None when it is unset") {
    assert(JobSession.knob("REPRO_M", "an integer", Map("REPRO_M" -> "20000"))(_.toLong) == Some(20000L))
    assert(JobSession.knob("REPRO_EPS", "a number", Map("REPRO_EPS" -> "0.25"))(_.toDouble) == Some(0.25))
    assert(JobSession.knob("REPRO_M", "an integer", Map("REPRO_K" -> "30"))(_.toLong).isEmpty)
  }

  test("a malformed knob fails naming its variable, its value and what was expected") {
    Seq(
      ("REPRO_M", "abc", "an integer", (s: String) => s.toLong),
      ("REPRO_K", "3000000000", "an integer", (s: String) => s.toInt),
      ("REPRO_PSCALE", "0.o5", "a number", (s: String) => s.toDouble),
      ("REPRO_SWEEP_MS", "10000, 5e4", "comma-separated integers", (s: String) => s.split(",").map(_.trim.toLong).toSeq),
    ).foreach { case (name, value, expected, parse) =>
      val e = intercept[IllegalArgumentException](JobSession.knob(name, expected, Map(name -> value))(parse))
      assert(e.getMessage == s"$name = $value, expected $expected")
    }
  }
}
