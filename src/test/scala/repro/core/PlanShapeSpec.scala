package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec

import repro.{Fixtures, SparkSpec}

/** The AllTables layout (TableId buckets, CellValue-sorted within each)
  * serves every seeker's grouping and joins as it is: no seeker plan
  * shuffles, over a freshly built index or one reloaded from disk.
  */
class PlanShapeSpec extends SparkSpec {

  private lazy val saveDir = java.nio.file.Files.createTempDirectory("plan-shape")

  private def reloaded(idx: AllTables, name: String): AllTables = {
    val dir = saveDir.resolve(name).toString
    AllTables.save(idx, dir)
    AllTables.load(spark, dir)
  }

  private lazy val mixedLoaded = reloaded(Fixtures.mixedIndex, "mixed")
  private lazy val corrLoaded = reloaded(Fixtures.corrIndex, "corr")

  override def afterAll(): Unit = {
    Seq(mixedLoaded, corrLoaded).foreach(_.unpersist())
    org.apache.commons.io.FileUtils.deleteDirectory(saveDir.toFile)
    super.afterAll()
  }

  /** Run `body` with AQE off, as the jobs' session runs, so the executed
    * plan is the final one; the previous setting is restored afterwards.
    */
  private def withoutAqe[A](body: => A): A = {
    val key = "spark.sql.adaptive.enabled"
    val saved = spark.conf.getOption(key)
    spark.conf.set(key, "false")
    try body
    finally saved.fold(spark.conf.unset(key))(spark.conf.set(key, _))
  }

  private def shuffles(df: DataFrame): Seq[ShuffleExchangeExec] =
    df.queryExecution.executedPlan.collect { case s: ShuffleExchangeExec => s }

  private def assertShuffleFree(
      built: AllTables, loaded: AllTables, seeker: Seeker)(plan: AllTables => DataFrame): Unit =
    withoutAqe {
      BlendSession.install(spark)
      for ((name, idx) <- Seq("built" -> built, "reloaded" -> loaded)) {
        val ex = shuffles(plan(idx))
        assert(ex.isEmpty, s"${seeker.seekerType.name} over the $name index shuffles:\n${ex.mkString("\n")}")
      }
      assert(seeker.run(built) == seeker.run(loaded))
    }

  private def entities(from: Int, n: Int) = Fixtures.mixed.universe.slice(from, from + n)

  test("SC plans have no shuffle over built and reloaded indexes") {
    val sc = ScSeeker("sc", entities(0, 40).map(_.person))
    assertShuffleFree(Fixtures.mixedIndex, mixedLoaded, sc)(sc.resultDF(_, None))
  }

  test("KW plans have no shuffle over built and reloaded indexes") {
    val kw = KwSeeker("kw", entities(0, 20).flatMap(e => Seq(e.person, e.city)))
    assertShuffleFree(Fixtures.mixedIndex, mixedLoaded, kw)(kw.resultDF(_, None))
  }

  test("MC plans have no shuffle over built and reloaded indexes") {
    val mc = McSeeker("mc", entities(0, 30).map(_.pair))
    assertShuffleFree(Fixtures.mixedIndex, mixedLoaded, mc)(mc.candidateDF(_, None))
  }

  test("C plans have no shuffle over built and reloaded indexes") {
    val q = Fixtures.corr.catQueries.head
    val c = CorrSeeker("c", q.keys, q.targets, h = 64)
    assertShuffleFree(Fixtures.corrIndex, corrLoaded, c)(c.resultDF(_, None))
  }
}
