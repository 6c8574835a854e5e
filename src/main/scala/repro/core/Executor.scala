package repro.core

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

/** Outcome of executing a discovery plan.
  *
  * @param results  ranking per plan node (combiner nodes truncated to their k)
  * @param seekerMs measured wall-clock per executed seeker
  * @param totalMs  end-to-end plan runtime including optimization overhead
  */
final case class PlanResult(
    results: Map[String, Seq[Scored]],
    seekerMs: Map[String, Double],
    totalMs: Double,
) {
  def apply(name: String): Seq[Scored] = results(name)
}

/** Executes discovery plans (paper §VII-B).
  *
  * In optimized mode (`optimize = true`, "BLEND"):
  *  - the seekers an Intersection combiner alone consumes form its
  *    execution group ([[Optimizer.executionGroups]]), ranked by
  *    [[Optimizer.orderSeekers]] and run by [[runGroup]];
  *  - each executed seeker's table ids become the intermediate result that
  *    rewrites the next seeker's query via the Catalyst placeholder rule
  *    (`TableId IN (...)`, or `NOT IN` for Difference);
  *  - materialized combiner inputs seed the group's initial IR.
  *
  * With `optimize = false` ("B-NO") every seeker runs unrestricted in plan
  * order and combiners are plain set operations — by Theorem 1 both modes
  * return identical rankings, which the test suite asserts.
  */
final class Executor(
    spark: SparkSession,
    idx: AllTables,
    costModel: CostModel = CostModel.untrained,
    optimize: Boolean = true,
) {
  BlendSession.install(spark)

  /** Runs one seeker, its query rewritten with `ir` in BLEND mode; returns
    * the full ranking and the wall-clock ms.
    */
  private def runSeeker(node: SeekerNode, ir: Option[Ir]): (Seq[Scored], Double) = {
    val t = System.nanoTime()
    val full = ir match {
      case Some(i) if optimize =>
        val slot = IrRegistry.freshSlot(node.name)
        IrRegistry.put(slot, i)
        try node.seeker.run(idx, Some(slot))
        finally IrRegistry.remove(slot)
      case _ => node.seeker.run(idx, None)
    }
    (full, (System.nanoTime() - t) / 1e6)
  }

  /** Runs an execution group with its members in the given order. Each
    * member's query is rewritten with the intersection of `seed` and the
    * table ids of the members before it (B-NO runs each unrestricted).
    * Returns each member's full ranking and wall-clock ms, in that order.
    */
  def runGroup(
      members: Seq[SeekerNode],
      seed: Option[Set[Long]] = None): Vector[(Seq[Scored], Double)] = {
    var irIds = seed
    members.toVector.map { m =>
      val run = runSeeker(m, irIds.map(ids => Ir(ids.toSeq.sorted, negate = false)))
      val ids = run._1.map(_.tableId).toSet
      irIds = Some(irIds.fold(ids)(_ intersect ids))
      run
    }
  }

  def execute(plan: Plan): PlanResult = {
    val t0 = System.nanoTime()
    val results = mutable.Map.empty[String, Seq[Scored]]
    val seekerMs = mutable.Map.empty[String, Double]
    val groups = Optimizer.executionGroups(plan)
    // Seekers that an Intersection or Difference alone consumes run when
    // that combiner does, so their queries can be rewritten with its IR.
    val runByCombiner = plan.combiners
      .filter(c => c.combiner == Combiner.Intersection || c.combiner == Combiner.Difference)
      .flatMap(plan.exclusiveSeekers)
      .map(_.name)
      .toSet

    def record(node: SeekerNode, run: (Seq[Scored], Double), capK: Boolean): Seq[Scored] = {
      val (full, ms) = run
      seekerMs(node.name) = ms
      val res = if (capK && node.seeker.k > 0) full.take(node.seeker.k) else full
      results(node.name) = res
      res
    }

    def executeIntersection(c: CombinerNode): Vector[Seq[Scored]] = {
      val members = groups(c.name)
      val memberNames = members.map(_.name).toSet
      // Materialized inputs (earlier combiners / shared seekers) seed the IR.
      val seed = c.inputs.filterNot(memberNames)
        .map(results(_).map(_.tableId).toSet)
        .reduceOption(_ intersect _)
      val ordered = if (optimize) Optimizer.orderSeekers(members, idx, costModel) else members
      ordered.zip(runGroup(ordered, seed)).foreach { case (m, run) => record(m, run, capK = false) }
      c.inputs.map(results(_))
    }

    def executeDifference(c: CombinerNode): Vector[Seq[Scored]] = {
      val Vector(aName, bName) = c.inputs
      def input(name: String, ir: => Option[Ir]): Seq[Scored] = plan.node(name) match {
        case s: SeekerNode if runByCombiner(name) => record(s, runSeeker(s, ir), capK = false)
        case _ => results(name)
      }
      // Negative side first: its ids rewrite the positive seeker's query
      // with NOT IN (paper Example 2 / §VIII-B2).
      val bRes = input(bName, None)
      Vector(input(aName, Some(Ir(bRes.map(_.tableId).distinct.sorted, negate = true))), bRes)
    }

    plan.nodes.foreach {
      case s: SeekerNode =>
        if (!runByCombiner(s.name)) record(s, runSeeker(s, None), capK = true)
      case c: CombinerNode =>
        val inputResults: Vector[Seq[Scored]] = c.combiner match {
          case Combiner.Intersection => executeIntersection(c)
          case Combiner.Difference   => executeDifference(c)
          case _                     => c.inputs.map(results(_))
        }
        val combined = c.combiner(inputResults)
        results(c.name) = if (c.k > 0) combined.take(c.k) else combined
    }

    PlanResult(results.toMap, seekerMs.toMap, (System.nanoTime() - t0) / 1e6)
  }
}
