package repro

import scala.util.Random

import repro.core._
import repro.lake.{Lake, LakeColumn, LakeTable}

/** End-to-end check on TPC-H-lite data: the paper motivates BLEND's support
  * for numerical join keys with "all the keys in the TPC-H benchmark are
  * numerical" (§VIII-G). Here a mini-lake of lineitem-like tables is
  * queried with numerical keys.
  */
class TpchIntegrationSpec extends SparkSpec {

  /** Three seeded lineitem-like tables of 200 rows: partkey in 1..200
    * (numerical join key), returnflag (categorical), extendedprice and
    * discount (numerical).
    */
  private lazy val lake: Lake = {
    val rnd = new Random(3)
    val rows = 200
    def cents(lo: Double, span: Double): Vector[Double] =
      Vector.fill(rows)(math.round((lo + rnd.nextDouble() * span) * 100) / 100.0)
    def table(id: Long): LakeTable = {
      val partkey = Vector.fill(rows)((1 + rnd.nextInt(200)).toString)
      val flag = Vector.fill(rows)(Vector("N", "R", "A")(rnd.nextInt(3)))
      val price = cents(900, 90000)
      val disc = cents(0, 0.10)
      LakeTable(id, s"lineitem-$id", Vector(
        LakeColumn("l_partkey", partkey, Some(partkey.map(_.toDouble))),
        LakeColumn("l_returnflag", flag),
        LakeColumn("l_extendedprice", price.map(_.toString), Some(price)),
        LakeColumn("l_discount", disc.map(_.toString), Some(disc)),
      ))
    }
    Lake("tpch-lite", Vector.tabulate(3)(i => table(i.toLong)))
  }

  private lazy val idx = core.AllTables.build(spark, lake.cellsDF(spark))

  test("the unified index accepts TPC-H-lite data") {
    assert(idx.nCells == lake.nCells)
  }

  test("SC seeker joins on numerical part keys") {
    val keys = lake.table(0).columns.head.values.take(50).distinct
    val got = ScSeeker("sc", keys).run(idx)
    assert(got.nonEmpty)
    assert(got.head.tableId == 0L, "the source slice overlaps itself the most")
  }

  test("SC seeker result matches DuckDB on TPC-H-lite") {
    val keys = lake.table(0).columns.head.values.take(30).distinct
    val sql =
      s"""SELECT TableId, MAX(ov) AS score FROM (
         |  SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS ov
         |  FROM alltables WHERE CellValue IN (${Fixtures.sqlList(keys)})
         |  GROUP BY TableId, ColumnId) t
         |GROUP BY TableId""".stripMargin
    Oracle.assertEquivalent(ScSeeker("sc", keys).resultDF(idx, None), sql,
      "alltables" -> idx.df)
  }

  test("correlation seeker accepts a numerical join key (QCR baseline cannot)") {
    val t0 = lake.table(0)
    val keys = t0.columns.head.values
    val targets = t0.columns(2).numeric.get // extendedprice as target
    val got = CorrSeeker("c", keys, targets, h = 200, minSupport = 5).run(idx)
    assert(got.nonEmpty, "numerical keys must be first-class join keys in BLEND")
    // The baseline's sketch index refuses numerical join columns entirely.
    val sketches = repro.baselines.QcrBaseline.build(lake, h = 64)
    assert(sketches.sketches.forall(s => s.catCol == 1),
      "only l_returnflag qualifies as a key for the sketch baseline")
  }

  test("MC seeker finds co-occurring (partkey, returnflag) pairs") {
    val t0 = lake.table(0)
    val tuples = (0 until 20).map(r => Vector(t0.cell(r, 0), t0.cell(r, 1)))
    val got = McSeeker("mc", tuples).run(idx)
    assert(got.nonEmpty && got.head.tableId == 0L)
  }
}
