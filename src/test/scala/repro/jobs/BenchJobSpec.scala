package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

/** The `BenchJob` argument parser; no Spark session is started. */
class BenchJobSpec extends AnyFunSuite {

  test("table arguments map to table numbers, all to every table") {
    assert(BenchJob.tables(Seq("4")) == Seq(4))
    assert(BenchJob.tables(Seq("7", "3")) == Seq(7, 3))
    assert(BenchJob.tables(Seq("all")) == (2 to 9))
  }

  test("an unknown or missing table is rejected with the valid ones listed") {
    for (args <- Seq(Seq("1"), Seq("10"), Seq("4", "table5"), Seq.empty)) {
      val e = intercept[IllegalArgumentException](BenchJob.tables(args))
      assert(e.getMessage.contains("valid tables: 2 3 4 5 6 7 8 9 or all"), args)
    }
  }
}
