package perfbench

import java.util.concurrent.{ConcurrentHashMap, ConcurrentLinkedQueue}

import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler._
import org.apache.spark.sql.{PerfbenchAccess, SparkSession}
import org.apache.spark.sql.catalyst.expressions.{AttributeReference, In, InSet}
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.columnar.InMemoryTableScanExec
import org.apache.spark.sql.execution.exchange.ShuffleExchangeExec
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import org.apache.spark.sql.util.QueryExecutionListener

import repro.core.IrPlaceholder

/** One Spark SQL query as the benchmark's [[QueryExecutionListener]] saw it. */
final case class QueryRec(
    id: Long,
    analysisMs: Double,
    optimizationMs: Double,
    planningMs: Double,
    execMs: Double,
    exchanges: Int,
    placeholder: Boolean, // the analyzed plan holds blend_ir
    fired: Boolean,       // ... and the optimized plan no longer does
    idsIn: Int,           // size of the substituted TableId list
    scanRows: Long,       // rows out of the cached-index scans
    resultRows: Long,     // rows out of the plan's top operator
)

/** A Spark SQL execution as the scheduler's listener bus reported it. */
final case class Execution(id: Long, startMs: Long, endMs: Long, op: String)

/** Task totals of one op. */
final case class TaskTotals(tasks: Long, runMs: Long, gcMs: Long, shuffleWriteBytes: Long)

/** A span: one layer's interval within a request (the op's tag). */
final case class Span(
    id: String, parent: Option[String], name: String, startMs: Double, endMs: Double,
    attrs: Seq[(String, String)] = Nil) {
  def json: String = Json.obj(Seq(
    "id" -> Json.str(id),
    "parent" -> parent.fold("null")(Json.str),
    "name" -> Json.str(name),
    "start_ms" -> Json.num(startMs),
    "end_ms" -> Json.num(endMs),
  ) ++ attrs)
}

/** The traced run's instruments, all registered from the benchmark's side:
  * a [[QueryExecutionListener]] for Catalyst phases, plan shape and IR
  * rewrites, and a [[SparkListener]] for SQL execution windows and task
  * metrics. Ops are told apart by a Spark job tag the client thread sets
  * around each op, so every query, job and task maps to the op (request)
  * that caused it.
  */
final class Tracer(spark: SparkSession) {
  import Tracer._

  private val queries = new ConcurrentHashMap[Long, QueryRec]()
  private val starts = new ConcurrentHashMap[Long, (Long, String)]()
  // execution id -> (end time, id of its QueryExecution)
  private val ends = new ConcurrentHashMap[Long, (Long, Long)]()
  private val stageOp = new ConcurrentHashMap[Int, String]()
  private val tasks = new ConcurrentLinkedQueue[(String, TaskTotals)]()

  def install(): Unit = {
    spark.listenerManager.register(queryListener)
    spark.sparkContext.addSparkListener(schedulerListener)
  }

  /** Waits until every posted event has reached the listeners. */
  def drain(): Unit = PerfbenchAccess.drain(spark.sparkContext)

  /** Runs `body` with Spark jobs tagged as belonging to op `tag`. */
  def tagged[A](tag: String)(body: => A): A = {
    val sc = spark.sparkContext
    sc.addJobTag(tag)
    try body finally sc.removeJobTag(tag)
  }

  /** Queries with their execution windows, grouped by op tag. */
  def queriesByOp(): Map[String, Seq[(Execution, QueryRec)]] = {
    drain()
    starts.asScala.toSeq.flatMap { case (id, (startMs, op)) =>
      for {
        (endMs, queryId) <- Option(ends.get(id))
        q <- Option(queries.get(queryId))
      } yield Execution(id, startMs, endMs, op) -> q
    }.groupBy(_._1.op).map { case (op, qs) => op -> qs.sortBy(_._1.startMs) }
  }

  def tasksByOp(): Map[String, TaskTotals] = {
    drain()
    tasks.asScala.toSeq.groupBy(_._1).map { case (op, ts) =>
      op -> ts.map(_._2).reduce((a, b) =>
        TaskTotals(a.tasks + b.tasks, a.runMs + b.runMs, a.gcMs + b.gcMs,
          a.shuffleWriteBytes + b.shuffleWriteBytes))
    }
  }

  private val queryListener = new QueryExecutionListener {
    override def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit =
      queries.put(qe.id, inspect(qe, durationNs))
    override def onFailure(funcName: String, qe: QueryExecution, exception: Exception): Unit = ()
  }

  private val schedulerListener = new SparkListener {
    override def onOtherEvent(event: SparkListenerEvent): Unit = event match {
      case s: SparkListenerSQLExecutionStart =>
        opTag(s.jobTags).foreach(op => starts.put(s.executionId, (s.time, op)))
      case e: SparkListenerSQLExecutionEnd =>
        PerfbenchAccess.queryId(e).foreach(q => ends.put(e.executionId, (e.time, q)))
      case _ => ()
    }
    override def onJobStart(job: SparkListenerJobStart): Unit = {
      val tags = Option(job.properties)
        .flatMap(p => Option(p.getProperty(JobTagsProperty)))
        .fold(Set.empty[String])(_.split(",").toSet)
      opTag(tags).foreach(op => job.stageIds.foreach(s => stageOp.put(s, op)))
    }
    override def onTaskEnd(task: SparkListenerTaskEnd): Unit =
      for {
        op <- Option(stageOp.get(task.stageId))
        m <- Option(task.taskMetrics)
      } tasks.add(op -> TaskTotals(1, m.executorRunTime, m.jvmGCTime, m.shuffleWriteMetrics.bytesWritten))
  }
}

object Tracer {
  val OpTagPrefix = "perfbench-op-"
  private val JobTagsProperty = "spark.job.tags"

  private def opTag(tags: Set[String]): Option[String] = tags.find(_.startsWith(OpTagPrefix))

  private def hasPlaceholder(plan: LogicalPlan): Boolean =
    plan.find(_.expressions.exists(_.find(_.isInstanceOf[IrPlaceholder]).isDefined)).isDefined

  /** Largest `TableId IN (...)` list in a plan: what the rewrite put there. */
  private def tableIdList(plan: LogicalPlan): Int = {
    def isTableId(e: org.apache.spark.sql.catalyst.expressions.Expression) = e match {
      case a: AttributeReference => a.name == "TableId"
      case _                     => false
    }
    val sizes = plan.flatMap(_.expressions.flatMap(_.collect {
      case In(child, list) if isTableId(child)   => list.size
      case InSet(child, set) if isTableId(child) => set.size
    }))
    if (sizes.isEmpty) 0 else sizes.max
  }

  private def inspect(qe: QueryExecution, durationNs: Long): QueryRec = {
    val phases = qe.tracker.phases
    def phaseMs(name: String): Double = phases.get(name).fold(0.0)(_.durationMs.toDouble)
    val placeholder = hasPlaceholder(qe.analyzed)
    val fired = placeholder && !hasPlaceholder(qe.optimizedPlan)
    val plan = qe.executedPlan
    QueryRec(
      id = qe.id,
      analysisMs = phaseMs("analysis"),
      optimizationMs = phaseMs("optimization"),
      planningMs = phaseMs("planning"),
      execMs = durationNs / 1e6,
      exchanges = plan.collect { case e: ShuffleExchangeExec => e }.size,
      placeholder = placeholder,
      fired = fired,
      idsIn = if (fired) tableIdList(qe.optimizedPlan) else 0,
      scanRows = plan.collect { case s: InMemoryTableScanExec => s.metrics("numOutputRows").value }.sum,
      resultRows = plan.find(_.metrics.contains("numOutputRows")).fold(0L)(_.metrics("numOutputRows").value),
    )
  }
}
