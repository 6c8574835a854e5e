package repro.core

import repro.{Fixtures, Oracle, SparkSpec}
import repro.Fixtures.sqlList

/** Seeker correctness. Every SQL-shaped seeker result is verified against
  * DuckDB over the same AllTables contents (repro.Oracle), per the task's
  * correctness protocol; application-level phases (MC) are verified against
  * hand-computed expectations on the Fig. 1 lake.
  */
class SeekersSpec extends SparkSpec {

  private val depts = Seq("HR", "Marketing", "Finance", "IT", "R&D", "Sales")

  test("SC seeker matches DuckDB on the Fig. 1 lake") {
    val seeker = ScSeeker("sc", depts)
    val sql =
      s"""SELECT TableId, MAX(ov) AS score FROM (
         |  SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS ov
         |  FROM alltables WHERE CellValue IN (${sqlList(depts)})
         |  GROUP BY TableId, ColumnId) t
         |GROUP BY TableId""".stripMargin
    Oracle.assertEquivalent(seeker.resultDF(Fixtures.fig1Index, None), sql,
      "alltables" -> Fixtures.fig1Index.df)
  }

  test("SC seeker ranking on Fig. 1: T2 > T3 > T1") {
    val got = ScSeeker("sc", depts).run(Fixtures.fig1Index)
    assert(got == Seq(Scored(1, 6.0), Scored(2, 4.0), Scored(0, 3.0)))
  }

  test("SC seeker counts distinct overlap, not occurrences") {
    val got = ScSeeker("sc", Seq("Harry Potter", "Harry Potter", "Firenze")).run(Fixtures.fig1Index)
    // T2 and T3 both contain both values once in the Lead column.
    assert(got.take(2).map(_.score) == Seq(2.0, 2.0))
  }

  test("SC seeker on the mixed lake matches DuckDB") {
    val someEntities = Fixtures.mixed.universe.take(30)
    val values = someEntities.map(_.person)
    val seeker = ScSeeker("sc", values)
    val sql =
      s"""SELECT TableId, MAX(ov) AS score FROM (
         |  SELECT TableId, ColumnId, COUNT(DISTINCT CellValue) AS ov
         |  FROM alltables WHERE CellValue IN (${sqlList(values)})
         |  GROUP BY TableId, ColumnId) t
         |GROUP BY TableId""".stripMargin
    Oracle.assertEquivalent(seeker.resultDF(Fixtures.mixedIndex, None), sql,
      "alltables" -> Fixtures.mixedIndex.df)
  }

  test("KW seeker matches DuckDB (table-level grouping)") {
    val keywords = Seq("HR", "Firenze", "31")
    val seeker = KwSeeker("kw", keywords)
    val sql =
      s"""SELECT TableId, COUNT(DISTINCT CellValue) AS score
         |FROM alltables WHERE CellValue IN (${sqlList(keywords)})
         |GROUP BY TableId""".stripMargin
    Oracle.assertEquivalent(seeker.resultDF(Fixtures.fig1Index, None), sql,
      "alltables" -> Fixtures.fig1Index.df)
  }

  test("KW seeker counts across columns of the same table") {
    // "HR" (Team) and "Firenze" (Lead) are different columns of T2.
    val got = KwSeeker("kw", Seq("HR", "Firenze")).run(Fixtures.fig1Index)
    assert(got.head == Scored(1, 2.0) || got.head == Scored(2, 2.0))
    assert(got.count(_.score == 2.0) == 2) // T2 and T3
  }

  test("MC candidate SQL phase matches DuckDB") {
    val tuples = Seq(Vector("HR", "Firenze"), Vector("Finance", "Harry Potter"))
    val seeker = McSeeker("mc", tuples)
    val c0 = tuples.map(_(0)).distinct
    val c1 = tuples.map(_(1)).distinct
    val sql =
      s"""SELECT h0.TableId AS TableId, h0.RowId AS RowId, h0.v0 AS v0, h1.v1 AS v1
         |FROM (SELECT TableId, RowId, CellValue AS v0, ColumnId AS c0 FROM alltables
         |      WHERE CellValue IN (${sqlList(c0)})) h0
         |JOIN (SELECT TableId, RowId, CellValue AS v1, ColumnId AS c1 FROM alltables
         |      WHERE CellValue IN (${sqlList(c1)})) h1
         |  ON h0.TableId = h1.TableId AND h0.RowId = h1.RowId AND h0.c0 <> h1.c1""".stripMargin
    Oracle.assertEquivalent(
      seeker.candidateDF(Fixtures.fig1Index, None).select("TableId", "RowId", "v0", "v1"),
      sql,
      "alltables" -> Fixtures.fig1Index.df)
  }

  test("MC seeker finds tables containing the (HR, Firenze) projection") {
    val got = McSeeker("mc", Seq(Vector("HR", "Firenze"))).run(Fixtures.fig1Index)
    assert(got.map(_.tableId).toSet == Set(1L, 2L)) // rs1 of Example 1
  }

  test("MC seeker finds the outdated (IT, Tom Riddle) table") {
    val got = McSeeker("mc", Seq(Vector("IT", "Tom Riddle"))).run(Fixtures.fig1Index)
    assert(got.map(_.tableId) == Seq(1L)) // rs2 of Example 1
  }

  test("MC order inside a tuple does not matter for matching") {
    val a = McSeeker("mc", Seq(Vector("HR", "Firenze"))).run(Fixtures.fig1Index)
    val b = McSeeker("mc", Seq(Vector("Firenze", "HR"))).run(Fixtures.fig1Index)
    assert(a.map(_.tableId).toSet == b.map(_.tableId).toSet)
  }

  test("MC requires values in the same row: no cross-row matches") {
    // "Tom Riddle" (row 0) and "Marketing" (row 1) never co-occur in a row.
    val got = McSeeker("mc", Seq(Vector("Marketing", "Tom Riddle"))).run(Fixtures.fig1Index)
    assert(got.isEmpty)
  }

  test("MC details count TPs exactly on the mixed lake") {
    val entities = Fixtures.mixed.universe.take(25)
    val tuples = entities.map(_.pair)
    val details = McSeeker("mc", tuples).runDetailed(Fixtures.mixedIndex)
    // Expected TP rows: per table, rows whose (city, person) is a query pair.
    val pairSet = tuples.map(t => (t(0), t(1))).toSet
    val expectedTp = Fixtures.mixed.lake.tables.filter(t => t.columns.exists(_.name == "city")).map { t =>
      val city = t.columns(t.columns.indexWhere(_.name == "city")).values
      val person = t.columns(t.columns.indexWhere(_.name == "person")).values
      city.indices.count(r => pairSet.contains((city(r), person(r))))
    }.sum
    assert(details.tp == expectedTp)
    assert(details.fetched == details.tp + details.fp)
  }

  test("MC rejects ragged and sub-2-column queries") {
    intercept[IllegalArgumentException](McSeeker("bad", Seq(Vector("a"))))
    intercept[IllegalArgumentException](McSeeker("bad", Seq(Vector("a", "b"), Vector("c"))))
  }

  test("C seeker matches DuckDB on the correlation lake") {
    val q = Fixtures.corr.catQueries.head
    val seeker = CorrSeeker("c", q.keys, q.targets, h = 64)
    val k1 = seeker.k1Keys
    val all = seeker.queryValues
    val k1Pred = if (k1.isEmpty) "1=0" else s"CellValue IN (${sqlList(k1)})"
    val sql =
      s"""WITH keyside AS (
         |  SELECT TableId, RowId, ColumnId AS jc,
         |         CASE WHEN $k1Pred THEN 1 ELSE 0 END AS kq
         |  FROM alltables
         |  WHERE CellValue IN (${sqlList(all)}) AND CAST(RowId AS INT) < 64),
         |numside AS (
         |  SELECT TableId, RowId, ColumnId AS nc, Quadrant
         |  FROM alltables WHERE Quadrant IS NOT NULL AND CAST(RowId AS INT) < 64),
         |g AS (
         |  SELECT k.TableId AS TableId, k.jc AS jc, n.nc AS nc, COUNT(*) AS N,
         |         SUM(CASE WHEN (k.kq = 1 AND n.Quadrant = 'true')
         |                    OR (k.kq = 0 AND n.Quadrant = 'false') THEN 1 ELSE 0 END) AS agree
         |  FROM keyside k JOIN numside n
         |    ON k.TableId = n.TableId AND k.RowId = n.RowId
         |  WHERE k.jc <> n.nc
         |  GROUP BY k.TableId, k.jc, n.nc
         |  HAVING COUNT(*) >= 3)
         |SELECT TableId, MAX(ABS(2.0 * agree - N) / N) AS score FROM g GROUP BY TableId""".stripMargin
    Oracle.assertEquivalent(seeker.resultDF(Fixtures.corrIndex, None), sql,
      "alltables" -> Fixtures.corrIndex.df)
  }

  test("C seeker ranks a planted correlated table above an uncorrelated one") {
    val q = Fixtures.corr.catQueries.head
    val got = CorrSeeker("c", q.keys, q.targets, h = 64).run(Fixtures.corrIndex)
    assert(got.nonEmpty)
    assert(got.head.score > 0.3, s"top result should show correlation signal, got ${got.head}")
  }

  test("C seeker splits keys at the target average") {
    val seeker = CorrSeeker("c", Seq("a", "b", "c", "d"), Seq(1.0, 2.0, 3.0, 10.0))
    assert(seeker.k0Keys.toSet == Set("a", "b", "c")) // below avg 4.0
    assert(seeker.k1Keys == Seq("d"))
  }

  test("C seeker aggregates duplicate keys by mean before splitting") {
    val seeker = CorrSeeker("c", Seq("a", "a", "b"), Seq(0.0, 10.0, 4.0))
    // avg target = 14/3 = 4.67; mean(a) = 5 >= avg; mean(b) = 4 < avg.
    assert(seeker.k1Keys == Seq("a"))
    assert(seeker.k0Keys == Seq("b"))
  }

  test("C seeker rejects a NaN target") {
    val e = intercept[IllegalArgumentException](
      CorrSeeker("c", Seq("a", "b", "c"), Seq(1.0, Double.NaN, 3.0)))
    assert(e.getMessage.contains("finite"))
  }

  test("C seeker rejects infinite targets of both signs") {
    val e = intercept[IllegalArgumentException](
      CorrSeeker("c", Seq("a", "b", "c"), Seq(Double.PositiveInfinity, 2.0, Double.NegativeInfinity)))
    assert(e.getMessage.contains("finite"))
  }

  test("seeker features expose card, column count and db frequency") {
    val f = ScSeeker("sc", Seq("HR", "HR", "Firenze")).features(Fixtures.fig1Index)
    assert(f.card == 2.0)
    assert(f.nCols == 1.0)
    assert(f.avgFreq == 2.5) // HR: 3, Firenze: 2
  }

  test("MC features multiply per-column average frequencies") {
    val f = McSeeker("mc", Seq(Vector("HR", "Firenze"))).features(Fixtures.fig1Index)
    assert(f.avgFreq == 6.0) // HR freq 3 x Firenze freq 2
  }
}
