package repro.core

import java.util.concurrent.ConcurrentHashMap
import java.util.concurrent.atomic.AtomicLong

import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.catalyst.expressions._
import org.apache.spark.sql.catalyst.expressions.codegen.CodegenFallback
import org.apache.spark.sql.catalyst.plans.logical.LogicalPlan
import org.apache.spark.sql.catalyst.rules.Rule
import org.apache.spark.sql.types.{BooleanType, DataType, StringType}

/** Catalyst-level implementation of BLEND's intermediate-result query
  * rewriting (paper §VII-B, "Query rewriting").
  *
  * Each seeker's default query contains a placeholder predicate
  * `blend_ir('<slot>', TableId)`. Before the executor fires the query it
  * stores the intermediate result (the table ids produced by the previously
  * executed seeker of the same execution group) in [[IrRegistry]] under the
  * slot name. [[IrPushdownRule]], injected via
  * `spark.experimental.extraOptimizations`, then replaces the placeholder at
  * logical-optimization time with the combiner-dependent predicate of the
  * paper:
  *
  *  - Intersection:  `TableId IN (...)`
  *  - Difference:    `TableId NOT IN (...)`
  *  - no entry:      literal TRUE (seeker runs unrestricted)
  *
  * An un-rewritten placeholder evaluates to TRUE, so the rewriting is a pure
  * optimization: plan results never depend on whether the rule fired
  * (Theorem 1 of the paper).
  */
final case class IrPlaceholder(slot: Expression, child: Expression)
    extends BinaryExpression with Predicate with CodegenFallback {

  override def left: Expression = slot
  override def right: Expression = child
  override def dataType: DataType = BooleanType
  override def nullable: Boolean = false

  // Fallback semantics when the rule did not fire: no pruning.
  override def eval(input: InternalRow): Any = true

  override protected def withNewChildrenInternal(
      newLeft: Expression, newRight: Expression): IrPlaceholder =
    copy(slot = newLeft, child = newRight)

  override def prettyName: String = "blend_ir"
}

/** An intermediate result bound to a rewrite slot.
  *
  * @param ids    table ids produced by the previously executed operator
  * @param negate true for Difference (`NOT IN`), false for Intersection
  */
final case class Ir(ids: Seq[Long], negate: Boolean)

/** Process-wide registry of rewrite slots, filled by the executor right
  * before it triggers the action that runs the rewritten seeker.
  */
object IrRegistry {
  private val slots = new ConcurrentHashMap[String, Ir]()
  private val counter = new AtomicLong(0L)

  def freshSlot(prefix: String): String = s"$prefix-${counter.incrementAndGet()}"
  def put(slot: String, ir: Ir): Unit = { slots.put(slot, ir); () }
  def get(slot: String): Option[Ir] = Option(slots.get(slot))
  def remove(slot: String): Unit = { slots.remove(slot); () }
  def clear(): Unit = slots.clear()
}

/** The optimizer rule: replaces every [[IrPlaceholder]] whose slot has a
  * registered intermediate result with the corresponding IN / NOT IN list.
  */
object IrPushdownRule extends Rule[LogicalPlan] {

  /** Large id lists become `InSet` directly (the main optimizer's
    * `OptimizeIn` batch has already run by the time extraOptimizations
    * fire, so a long `In` literal list would be evaluated by linear scan).
    */
  private def inList(child: Expression, ids: Seq[Long]): Expression =
    if (ids.size > 10) InSet(child, ids.map(java.lang.Long.valueOf(_): Any).toSet)
    else In(child, ids.map(Literal(_)))

  override def apply(plan: LogicalPlan): LogicalPlan = plan.transformAllExpressions {
    case IrPlaceholder(Literal(slot, StringType), child) =>
      IrRegistry.get(slot.toString) match {
        case Some(Ir(ids, false)) =>
          // Intersecting with an empty result is empty.
          if (ids.isEmpty) Literal.FalseLiteral
          else inList(child, ids)
        case Some(Ir(ids, true)) =>
          if (ids.isEmpty) Literal.TrueLiteral
          else Not(inList(child, ids))
        case None => Literal.TrueLiteral
      }
  }
}

/** Installs BLEND into a SparkSession: registers the `blend_ir` placeholder
  * function (via the session's function registry, so plain SQL/`expr` can
  * produce it), injects [[IrPushdownRule]] into the experimental optimizer
  * extensions, and lets a join of two AllTables scans on (TableId, RowId)
  * use the index's TableId buckets as they are (C and MC seekers), instead
  * of shuffling both sides on both keys.
  */
object BlendSession {
  def install(spark: SparkSession): Unit = synchronized {
    spark.sessionState.functionRegistry.createOrReplaceTempFunction(
      "blend_ir",
      (exprs: Seq[Expression]) => {
        require(exprs.length == 2, "blend_ir(slot, TableId) takes two arguments")
        IrPlaceholder(exprs.head, exprs(1))
      },
      "built-in",
    )
    spark.conf.set("spark.sql.requireAllClusterKeysForCoPartition", "false")
    if (!spark.experimental.extraOptimizations.contains(IrPushdownRule)) {
      spark.experimental.extraOptimizations =
        spark.experimental.extraOptimizations :+ IrPushdownRule
    }
  }
}
