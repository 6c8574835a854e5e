package repro.core

import repro.{Fixtures, SparkSpec}

/** Executor behaviour, including the paper's Theorem 1: the optimizer
  * (re-ordering + IR rewriting) never changes plan outputs — asserted by
  * running every plan in BLEND mode and B-NO mode and comparing.
  */
class ExecutorSpec extends SparkSpec {

  private lazy val idx = Fixtures.mixedIndex
  private lazy val blend = new Executor(spark, idx, CostModel.untrained, optimize = true)
  private lazy val bno = new Executor(spark, idx, CostModel.untrained, optimize = false)

  private def entities(from: Int, n: Int) = Fixtures.mixed.universe.slice(from, from + n)

  private def assertEquivalent(plan1: => Plan, plan2: => Plan, nodes: Seq[String]): Unit = {
    val a = blend.execute(plan1)
    val b = bno.execute(plan2)
    nodes.foreach { n =>
      assert(a(n) == b(n), s"node $n differs between BLEND and B-NO")
    }
  }

  private def intersectionPlan(k: Int = -1): Plan = {
    val plan = new Plan
    plan.add("mc", McSeeker("mc", entities(0, 20).map(_.pair)))
    plan.add("sc", ScSeeker("sc", entities(5, 30).map(_.person)))
    plan.add("result", Combiner.Intersection, Seq("mc", "sc"), k)
    plan
  }

  test("Theorem 1: intersection plan identical under BLEND and B-NO") {
    assertEquivalent(intersectionPlan(), intersectionPlan(), Seq("result"))
  }

  test("intersection result is the set intersection of independent runs") {
    val mcIds = McSeeker("mc", entities(0, 20).map(_.pair)).run(idx).map(_.tableId).toSet
    val scIds = ScSeeker("sc", entities(5, 30).map(_.person)).run(idx).map(_.tableId).toSet
    val got = blend.execute(intersectionPlan())("result").map(_.tableId).toSet
    assert(got == (mcIds intersect scIds))
  }

  test("combiner k truncates the result") {
    val r = blend.execute(intersectionPlan(k = 3))("result")
    assert(r.size <= 3)
  }

  private def differencePlan(): Plan = {
    val plan = new Plan
    plan.add("pos", McSeeker("pos", entities(0, 30).map(_.pair)))
    plan.add("neg", McSeeker("neg", entities(250, 30).map(_.pair)))
    plan.add("result", Combiner.Difference, Seq("pos", "neg"), -1)
    plan
  }

  test("Theorem 1: difference plan identical under BLEND and B-NO") {
    assertEquivalent(differencePlan(), differencePlan(), Seq("result"))
  }

  test("difference excludes every table found by the negative seeker") {
    val res = blend.execute(differencePlan())
    val negIds = McSeeker("neg", entities(250, 30).map(_.pair)).run(idx).map(_.tableId).toSet
    assert(res("result").forall(s => !negIds.contains(s.tableId)))
  }

  private def counterPlan(): Plan = {
    val plan = new Plan
    val cols = Seq(entities(0, 15).map(_.person), entities(0, 15).map(_.city), entities(0, 15).map(_.dept))
    cols.zipWithIndex.foreach { case (c, i) => plan.add(s"sc$i", ScSeeker(s"sc$i", c, 50)) }
    plan.add("result", Combiner.Counter, cols.indices.map(i => s"sc$i"), 10)
    plan
  }

  test("Theorem 1: counter plan identical under BLEND and B-NO") {
    assertEquivalent(counterPlan(), counterPlan(), Seq("result"))
  }

  test("counter members are capped at their own seeker k") {
    val res = blend.execute(counterPlan())
    assert(res("sc0").size <= 50)
  }

  private def chainedPlan(): Plan = {
    // (corr \ feat) ∩ mc — Difference feeding an Intersection with a seeker.
    val q = Fixtures.mixed
    val plan = new Plan
    plan.add("a", ScSeeker("a", entities(0, 40).map(_.person)))
    plan.add("b", ScSeeker("b", entities(300, 10).map(_.person)))
    plan.add("diff", Combiner.Difference, Seq("a", "b"), -1)
    plan.add("mc", McSeeker("mc", entities(0, 20).map(_.pair)))
    plan.add("result", Combiner.Intersection, Seq("diff", "mc"), -1)
    plan
  }

  test("Theorem 1: chained difference-into-intersection plan") {
    assertEquivalent(chainedPlan(), chainedPlan(), Seq("diff", "result"))
  }

  test("materialized combiner results seed the intersection IR") {
    // Just asserts execution succeeds and result is the manual composition.
    val res = blend.execute(chainedPlan())
    val aIds = ScSeeker("a", entities(0, 40).map(_.person)).run(idx).map(_.tableId).toSet
    val bIds = ScSeeker("b", entities(300, 10).map(_.person)).run(idx).map(_.tableId).toSet
    val mcIds = McSeeker("mc", entities(0, 20).map(_.pair)).run(idx).map(_.tableId).toSet
    assert(res("result").map(_.tableId).toSet == ((aIds diff bIds) intersect mcIds))
  }

  test("empty intersection propagates (FalseLiteral path)") {
    val plan = new Plan
    plan.add("s1", ScSeeker("s1", Seq("person_0")))
    plan.add("s2", ScSeeker("s2", Seq("value-that-does-not-exist")))
    plan.add("result", Combiner.Intersection, Seq("s2", "s1"), -1)
    assert(blend.execute(plan)("result").isEmpty)
  }

  test("Theorem 1: a seeker shared by an Intersection and a Union runs standalone") {
    val shared = ScSeeker("shared", entities(0, 40).map(_.person), k = 5)
    val member = ScSeeker("member", entities(10, 40).map(_.person), k = 1)
    def plan(): Plan = {
      val p = new Plan
      p.add("shared", shared)
      p.add("member", member)
      p.add("kw", KwSeeker("kw", entities(0, 5).map(_.person)))
      p.add("inter", Combiner.Intersection, Seq("shared", "member"))
      p.add("union", Combiner.Union, Seq("shared", "kw"))
      p
    }
    assertEquivalent(plan(), plan(), Seq("inter", "union"))
    val res = blend.execute(plan())
    val sharedFull = shared.run(idx)
    assert(sharedFull.size > shared.k)
    assert(res("shared") == sharedFull.take(shared.k), "the shared seeker is capped at its own k")
    // The group member is rewritten with the capped shared result, not capped.
    val kept = res("shared").map(_.tableId).toSet
    val memberIr = member.run(idx).filter(s => kept(s.tableId))
    assert(memberIr.size > member.k)
    assert(res("member") == memberIr)
    assert(bno.execute(plan())("member") == member.run(idx))
  }

  test("standalone seekers are capped at their k") {
    val plan = new Plan
    plan.add("solo", ScSeeker("solo", entities(0, 40).map(_.person), k = 5))
    assert(blend.execute(plan)("solo").size <= 5)
  }

  test("union-only plans run every seeker independently (multi-objective shape)") {
    val plan = new Plan
    plan.add("kw", KwSeeker("kw", entities(0, 5).map(_.person), 10))
    plan.add("sc", ScSeeker("sc", entities(0, 15).map(_.city), 10))
    plan.add("result", Combiner.Union, Seq("kw", "sc"), 20)
    val a = blend.execute(plan)
    val b = bno.execute(plan)
    assert(a("result") == b("result"))
  }

  test("seeker timings are recorded") {
    val res = blend.execute(intersectionPlan())
    assert(res.seekerMs.keySet == Set("mc", "sc"))
    assert(res.seekerMs.values.forall(_ > 0.0))
    assert(res.totalMs >= res.seekerMs.values.max)
  }

  test("difference runs the negative seeker before the positive one") {
    val res = blend.execute(differencePlan())
    // Both ran; positive result excludes negative tables (checked above);
    // ranking deterministic between repeated runs.
    val res2 = blend.execute(differencePlan())
    assert(res("result") == res2("result"))
  }

  test("Theorem 1: node names containing quotes") {
    def quoted(): Plan = {
      val plan = new Plan
      plan.add("o'mc", McSeeker("o'mc", entities(0, 30).map(_.pair)))
      plan.add("neg 'sc'", ScSeeker("neg 'sc'", entities(250, 30).map(_.person)))
      plan.add("sc''", ScSeeker("sc''", entities(5, 30).map(_.person)))
      plan.add("diff'", Combiner.Difference, Seq("o'mc", "neg 'sc'"), -1)
      plan.add("result'", Combiner.Intersection, Seq("diff'", "sc''"), -1)
      plan
    }
    assertEquivalent(quoted(), quoted(), Seq("diff'", "result'"))
  }
}
