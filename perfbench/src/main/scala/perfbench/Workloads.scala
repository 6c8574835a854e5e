package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}

import scala.jdk.CollectionConverters._
import scala.util.Random

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.execution.columnar.InMemoryRelation

import repro.core._
import repro.lake.{Lake, LakeGen}

/** Input sizes of one scale. `full` is what the benchmark measures; `tiny`
  * is for the benchmark's self-test.
  */
final case class Scale(
    mixedTables: Int, mixedEntities: Int, mixedRows: Int,
    nycTables: Int, nycRows: Int, nycKeys: Int,
    setupReps: Int, trainPerType: Int, negPos: Int, negNeg: Int,
)

object Scale {
  val full: Scale = Scale(
    mixedTables = 60, mixedEntities = 480, mixedRows = 250,
    nycTables = 24, nycRows = 260, nycKeys = 500,
    setupReps = 3, trainPerType = 4, negPos = 80, negNeg = 100)
  val tiny: Scale = Scale(
    mixedTables = 30, mixedEntities = 240, mixedRows = 40,
    nycTables = 12, nycRows = 120, nycKeys = 120,
    setupReps = 1, trainPerType = 4, negPos = 20, negNeg = 30)
  def apply(name: String): Scale = name match {
    case "full" => full
    case "tiny" => tiny
    case other  => throw new IllegalArgumentException(s"unknown scale '$other' (full | tiny)")
  }
}

/** What every workload shares: the session, the seeded inputs, the
  * recorder, the tracer and a scratch directory for saved indexes.
  */
final class Ctx(
    val spark: SparkSession,
    val seed: Long,
    val scale: Scale,
    val rec: Recorder,
    val tracer: Tracer,
    val workDir: Path,
    val wrongReference: Boolean,
) {
  /** A generator seeded from the workload seed and a fixed purpose salt. */
  def rnd(salt: Long): Random = new Random(seed * 1000003L + salt)

  /** The gittables-like mixed lake both workloads query. */
  def gittables(): LakeGen.MixedLake =
    LakeGen.mixedLake("gittables-s", nEntities = scale.mixedEntities, nTables = scale.mixedTables,
      rowsPerTable = scale.mixedRows, seed = seed * 1000003L + 1)

  /** The reference, deliberately broken when the self-test asks for it:
    * the top table's score is changed, so the op must fail its check.
    */
  def reference(r: Seq[Scored]): Seq[Scored] =
    if (wrongReference && r.nonEmpty) r.head.copy(score = r.head.score + 1) +: r.tail else r
}

/** A benchmark workload.
  *
  *  - [[setup]] builds the inputs and the index from scratch; the runner
  *    repeats it and reports the median;
  *  - [[prepare]] runs once after the last set-up: cost-model training and
  *    a warm-up cycle (its time is added to set-up time);
  *  - the measured loop runs whole cycles of ops: [[startCycle]] draws a
  *    fresh cycle of inputs of fixed shapes, [[op]] runs one of them.
  */
abstract class Workload(val ctx: Ctx) {
  import ctx._

  def setup(rep: Int): Unit
  def prepare(): Unit
  def startCycle(c: Int): Int
  /** About how long one cycle takes on 4 cores; sets the cycle count. */
  def nominalCycleS: Double
  def op(i: Int, tag: String, traced: Boolean): Unit
  def afterLoop(traced: Boolean): Unit = ()
  def release(): Unit

  protected def time[A](name: String)(f: => A): A = {
    val (a, ms) = Stats.timed(f)
    rec.sample(name, ms)
    a
  }

  /** Lake generation and build → save → load of its index, each step timed
    * under its own name. Sizes and the reload check are untimed. Returns
    * the built index; the reloaded one is released.
    */
  protected def indexedLake(unit: String, lake: => Lake, path: Path): AllTables = {
    val l = time("lake.gen_ms")(lake)
    val cells = time("lake.cells_df_ms")(l.cellsDF(spark))
    val built = time("alltables.build_ms")(AllTables.build(spark, cells))
    time("alltables.save_ms")(AllTables.save(built, path.toString))
    val loaded = time("alltables.load_ms")(AllTables.load(spark, path.toString))
    rec.untimed {
      rec.sample("alltables.cells", built.nCells.toDouble)
      rec.sample("alltables.value_freq_entries", built.valueFreq.size.toDouble)
      rec.sample("alltables.parquet_bytes", Workload.treeBytes(path).toDouble)
      rec.sample("alltables.cached_bytes", Workload.cachedBytes(built).toDouble)
      rec.sample("lake.user_bytes", Workload.userBytes(l).toDouble)
      // The reloaded index must match the built one, and both the lake.
      val expectedCells = if (wrongReference) l.nCells + 1 else l.nCells
      val ok = built.nCells == expectedCells && loaded.nCells == built.nCells &&
        loaded.valueFreq == built.valueFreq
      rec.check(unit)(ok)
      loaded.unpersist()
      Workload.deleteTree(path)
    }
    built
  }
}

object Workload {
  def apply(name: String, ctx: Ctx): Workload = name match {
    case "seekers" => new SeekersWorkload(ctx)
    case "plans"   => new PlansWorkload(ctx)
    case other     => throw new IllegalArgumentException(s"unknown workload '$other' (seekers | plans)")
  }

  /** UTF-8 bytes of all cell values: the user data the index stores. */
  def userBytes(lake: Lake): Long =
    lake.tables.iterator.flatMap(_.columns).flatMap(_.values)
      .map(_.getBytes(StandardCharsets.UTF_8).length.toLong).sum

  def treeBytes(p: Path): Long =
    if (!Files.exists(p)) 0L
    else Files.walk(p).iterator().asScala.filter(Files.isRegularFile(_)).map(Files.size).sum

  def deleteTree(p: Path): Unit =
    if (Files.exists(p)) Files.walk(p).iterator().asScala.toVector.reverse.foreach(Files.deleteIfExists)

  /** Bytes of the in-memory columnar cache that holds the index. */
  def cachedBytes(idx: AllTables): Long =
    idx.df.queryExecution.withCachedData
      .collectFirst { case r: InMemoryRelation => r.cacheBuilder.sizeInBytesStats.value.longValue }
      .getOrElse(0L)
}

/** Standalone SC/KW/MC/C seekers on the gittables-like lake. They bypass
  * the executor, the optimizer and IR rewriting.
  */
final class SeekersWorkload(ctx: Ctx) extends Workload(ctx) {
  import ctx._

  private var lake: LakeGen.MixedLake = _
  private var idx: AllTables = _
  private var queries: Vector[Seeker] = Vector.empty

  override def setup(rep: Int): Unit =
    idx = indexedLake(s"setup-$rep-index", { lake = gittables(); lake.lake }, workDir.resolve(s"setup-$rep"))

  /** Warm-up: two cycles of queries from generators of their own. */
  override def prepare(): Unit =
    for (c <- 0 until 2) new SeekerQueries(lake, rnd(900 + c)).cycle().foreach(_.run(idx))

  override val nominalCycleS = 5.0

  override def startCycle(c: Int): Int = {
    queries = new SeekerQueries(lake, rnd(1000 + c)).cycle()
    queries.size
  }

  /** One seeker run. MC goes through `runDetailed`, which also returns its
    * candidate counts.
    */
  override def op(i: Int, tag: String, traced: Boolean): Unit = {
    val s = queries(i)
    val start = rec.nowMs()
    val ((ranking, details), ms) = Stats.timed(tracer.tagged(tag) {
      s match {
        case mc: McSeeker => val d = mc.runDetailed(idx); (d.ranking, Some(d))
        case other        => (other.run(idx), None)
      }
    })
    rec.ops += OpSample(tag, s.seekerType.name, traced, start, ms)
    rec.seekers += SeekerSample(tag, s.seekerType, ms, ranking.size, traced, details, standalone = true)
    rec.check(tag)(ranking == reference(Reference(lake.lake, s)))
  }

  override def release(): Unit = if (idx != null) idx.unpersist()
}

/** Discovery plans through [[Executor]] in BLEND mode, with a cost model
  * trained in set-up: the Table III tasks and two-seeker Intersection
  * groups. Every sink must equal the plan's B-NO result (Theorem 1),
  * computed without Spark by [[Reference.bno]].
  */
final class PlansWorkload(ctx: Ctx) extends Workload(ctx) {
  import ctx._

  private var lake: LakeGen.MixedLake = _
  private var nyc: LakeGen.CorrLake = _
  private var idx: AllTables = _
  private var nycIdx: AllTables = _
  private var costModel: CostModel = CostModel.untrained
  private var blend: Executor = _
  private var blendNyc: Executor = _
  private var plans: Vector[PlanCase] = Vector.empty

  override def setup(rep: Int): Unit = {
    idx = indexedLake(s"setup-$rep-index", { lake = gittables(); lake.lake }, workDir.resolve(s"setup-$rep"))
    nyc = LakeGen.corrLake("nyc-lite", nTables = scale.nycTables, rowsPerTable = scale.nycRows,
      keyUniverse = scale.nycKeys, nQueriesPerSplit = 20, seed = seed * 1000003L + 2)
    nycIdx = AllTables.build(spark, nyc.lake.cellsDF(spark))
  }

  /** Offline cost-model training on measured runtimes of sampled seekers
    * (paper §VII-B), then a warm-up cycle of plans of its own.
    */
  override def prepare(): Unit = {
    costModel = time("costmodel.train_ms") {
      val gen = new SeekerQueries(lake, rnd(800))
      CostModel.train(SeekerType.all.map { tpe =>
        tpe -> Seq.fill(scale.trainPerType) {
          val s = gen.random(tpe)
          val (_, ms) = Stats.timed(s.run(idx))
          CostModel.Sample(s.features(idx), ms)
        }
      }.toMap)
    }
    blend = new Executor(spark, idx, costModel, optimize = true)
    blendNyc = new Executor(spark, nycIdx, costModel, optimize = true)
    new PlanQueries(lake, nyc, rnd(700)).cycle(scale.negPos, scale.negNeg)
      .foreach(p => executorFor(p).execute(p.plan))
  }

  private def indexFor(p: PlanCase): AllTables = if (p.onNyc) nycIdx else idx
  private def executorFor(p: PlanCase): Executor = if (p.onNyc) blendNyc else blend

  override val nominalCycleS = 5.0

  override def startCycle(c: Int): Int = {
    plans = new PlanQueries(lake, nyc, rnd(1000 + c)).cycle(scale.negPos, scale.negNeg)
    plans.size
  }

  override def op(i: Int, tag: String, traced: Boolean): Unit = {
    val p = plans(i)
    val start = rec.nowMs()
    val (res, ms) = Stats.timed(tracer.tagged(tag)(executorFor(p).execute(p.plan)))
    rec.ops += OpSample(tag, p.kind, traced, start, ms)
    res.seekerMs.foreach { case (node, sms) =>
      val s = p.plan.node(node).asInstanceOf[SeekerNode].seeker
      rec.seekers += SeekerSample(tag, s.seekerType, sms, res.results(node).size, traced,
        predictedMs = Some(costModel.predictMs(s.seekerType, s.features(indexFor(p)))))
    }
    if (traced) {
      val seekerSum = res.seekerMs.values.sum
      rec.sample("executor.total_ms", res.totalMs)
      rec.sample("executor.seeker_ms_sum", seekerSum)
      rec.sample("executor.overhead_ms", res.totalMs - seekerSum)
      rec.sample("executor.seekers_per_plan", res.seekerMs.size.toDouble)
    }
    val sinks = p.plan.sinks.map(s => s -> res(s)).toMap
    rec.check(tag) {
      val expected = Reference.bno(if (p.onNyc) nyc.lake else lake.lake, p.plan)
      sinks.forall { case (s, got) => got == reference(expected(s)) }
    }
  }

  /** Orders each plan's Intersection members as the executor does, timed
    * on its own (on the last cycle's plans).
    */
  override def afterLoop(traced: Boolean): Unit =
    if (traced) plans.foreach { p =>
      Optimizer.executionGroups(p.plan).values.filter(_.nonEmpty).foreach { members =>
        time("optimizer.order_ms")(Optimizer.orderSeekers(members, indexFor(p), costModel))
      }
    }

  override def release(): Unit = {
    if (idx != null) idx.unpersist()
    if (nycIdx != null) nycIdx.unpersist()
  }
}
