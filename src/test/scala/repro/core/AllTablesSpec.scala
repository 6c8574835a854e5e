package repro.core

import org.apache.spark.sql.functions._

import repro.{Fixtures, SparkSpec}

class AllTablesSpec extends SparkSpec {

  private lazy val idx = Fixtures.fig1Index

  test("index has one row per lake cell") {
    assert(idx.nCells == Fixtures.fig1Lake.nCells)
    assert(idx.nCells == 36) // T1: 6, T2: 18, T3: 12
  }

  test("schema matches the paper's AllTables layout") {
    assert(idx.df.columns.toSeq ==
      Seq("CellValue", "TableId", "ColumnId", "RowId", "SuperKey", "Quadrant"))
  }

  test("quadrant is null for non-numerical cells") {
    val stringCells = idx.df.where(col("CellValue") === "Finance")
    assert(stringCells.count() == 3)
    assert(stringCells.where(col("Quadrant").isNotNull).count() == 0)
  }

  test("quadrant encodes value >= column average") {
    // T1.Size = [31, 28, 33], avg 30.67 -> true, false, true.
    val rows = idx.df
      .where(col("TableId") === 0 && col("ColumnId") === 1)
      .select("RowId", "Quadrant")
      .collect()
      .map(r => r.getInt(0) -> r.getBoolean(1))
      .toMap
    assert(rows == Map(0 -> true, 1 -> false, 2 -> true))
  }

  test("constant numerical columns put every cell in the upper quadrant") {
    // T2.Year is constant 2022; every value equals the average.
    val q = idx.df
      .where(col("TableId") === 1 && col("ColumnId") === 1)
      .select("Quadrant").collect().map(_.getBoolean(0))
    assert(q.length == 6 && q.forall(identity))
  }

  test("super key equals the XASH key of the row's cells") {
    val expected = Xash.superKey(Fixtures.fig1Lake.table(0).row(0)) // ("Finance", "31")
    val got = idx.df
      .where(col("TableId") === 0 && col("RowId") === 0)
      .select("SuperKey").distinct().collect()
    assert(got.length == 1)
    assert(got.head.getLong(0) == expected)
  }

  test("all cells of a row share the same super key") {
    val distinctPerRow = idx.df
      .groupBy("TableId", "RowId")
      .agg(countDistinct("SuperKey").as("n"))
      .where(col("n") > 1)
    assert(distinctPerRow.count() == 0)
  }

  test("value frequencies count index occurrences") {
    assert(idx.valueFreq("Harry Potter") == 2L) // T2 and T3
    assert(idx.valueFreq("HR") == 3L)           // T1, T2, T3
    assert(idx.valueFreq("Tom Riddle") == 1L)
  }

  test("avgFrequency treats unknown values as zero") {
    assert(idx.avgFrequency(Seq("HR", "no-such-value")) == 1.5)
    assert(idx.avgFrequency(Seq.empty) == 0.0)
  }

  private def sortedRows(t: AllTables): Seq[String] = t.df.collect().map(_.toString).toSeq.sorted

  private def blendTables(): Set[String] =
    spark.catalog.listTables().collect().map(_.name).filter(_.startsWith("blend_")).toSet

  private def withIndexDir(body: String => Unit): Unit = {
    val base = java.nio.file.Files.createTempDirectory("alltables")
    try body(base.resolve("idx o'hare").toString)
    finally org.apache.commons.io.FileUtils.deleteDirectory(base.toFile)
  }

  test("save/load roundtrip preserves contents") {
    // The path holds a space and a quote: neither may end up in SQL text.
    withIndexDir { dir =>
      AllTables.save(idx, dir)
      val loaded = AllTables.load(spark, dir)
      assert(loaded.df.schema.map(f => f.name -> f.dataType) == idx.df.schema.map(f => f.name -> f.dataType))
      assert(loaded.nCells == idx.nCells)
      assert(loaded.valueFreq == idx.valueFreq)
      assert(sortedRows(loaded) == sortedRows(idx))
      loaded.unpersist()
    }
  }

  test("one saved path loads twice; both indexes stay usable") {
    withIndexDir { dir =>
      AllTables.save(idx, dir)
      val a = AllTables.load(spark, dir)
      val b = AllTables.load(spark, dir)
      assert(a.valueFreq == b.valueFreq)
      a.unpersist()
      assert(sortedRows(b) == sortedRows(idx))
      assert(ScSeeker("sc", Seq("HR", "Finance")).run(b) == ScSeeker("sc", Seq("HR", "Finance")).run(idx))
      b.unpersist()
    }
  }

  test("save overwrites an index already at the path") {
    withIndexDir { dir =>
      AllTables.save(Fixtures.mixedIndex, dir)
      AllTables.save(idx, dir)
      val loaded = AllTables.load(spark, dir)
      assert(loaded.nCells == idx.nCells)
      assert(sortedRows(loaded) == sortedRows(idx))
      loaded.unpersist()
    }
  }

  test("unpersist leaves no catalog table behind") {
    val before = blendTables()
    withIndexDir { dir =>
      AllTables.save(idx, dir)
      assert(blendTables() == before)
      val loaded = AllTables.load(spark, dir)
      assert(blendTables().size == before.size + 1)
      loaded.unpersist()
      assert(blendTables() == before)
    }
  }

  test("index build is deterministic for a fixed lake") {
    val again = AllTables.build(spark, Fixtures.fig1Lake.cellsDF(spark))
    assert(again.nCells == idx.nCells)
    assert(again.valueFreq == idx.valueFreq)
    val a = idx.df.collect().map(_.toString).sorted
    val b = again.df.collect().map(_.toString).sorted
    assert(a.sameElements(b))
    again.unpersist()
  }
}
