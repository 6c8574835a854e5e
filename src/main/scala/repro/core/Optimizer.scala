package repro.core

/** The two-phase seeker ranking of the paper (§VII-B): rule-based ordering
  * across seeker types (Rules 1–3: KW first, MC last, SC before C) and
  * learning-based cost estimation within a type. Sorting is stable, so
  * equal (rule rank, predicted cost) keeps the plan's order.
  */
object Optimizer {

  /** Seekers of one execution group, cheapest-first. */
  def orderSeekers(
      members: Seq[SeekerNode],
      idx: AllTables,
      costModel: CostModel): Seq[SeekerNode] =
    members.sortBy { n =>
      (n.seeker.seekerType.ruleRank, costModel.predictMs(n.seeker.seekerType, n.seeker.features(idx)))
    }

  /** Execution groups of a plan: for each Intersection combiner, the seeker
    * inputs it exclusively consumes (paper: only Intersection EGs are
    * re-orderable; Difference is non-commutative, Union/Counter gain
    * nothing from re-ordering).
    */
  def executionGroups(plan: Plan): Map[String, Vector[SeekerNode]] =
    plan.combiners
      .filter(_.combiner == Combiner.Intersection)
      .map(c => c.name -> plan.exclusiveSeekers(c))
      .toMap
}
