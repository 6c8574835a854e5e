package repro.bench

import scala.util.Random

import org.apache.spark.sql.SparkSession

import repro.core._

/** Table IV — optimizer effectiveness. For plans of two seekers joined by
  * an Intersection combiner we compare:
  *
  *  - Rand:  expected runtime of a random order = mean of both orders,
  *  - BLEND: runtime of the order chosen by the rule/cost optimizer
  *           (plus the optimization overhead itself),
  *  - Ideal: the faster of the two orders (oracle optimizer).
  *
  * Both orders run through [[Executor.runGroup]], the executor's own
  * execution-group loop: the second seeker is restricted by the first's
  * result ids with IR rewriting.
  * Accuracy is the fraction of plans where BLEND picked the faster order.
  * The cost model is trained on measured runtimes of sampled queries first
  * (the paper's offline training step).
  */
object Table4Bench {

  final case class Row(
      seeker: String,
      randMs: Double, blendMs: Double, idealMs: Double,
      blendGain: Double, idealGain: Double,
      accuracy: Double,
      paper: String,
  )

  final case class Result(rows: Seq[Row], trainMs: Double, report: String)

  def run(spark: SparkSession, plansPerRow: Int = 25, trainPerType: Int = 30): Result = {
    val d = BenchData(spark)
    val idx = d.gittablesIdx
    val g = d.gittables
    val rnd = new Random(4242)

    // ------------------------------------------------ query generators
    def entityWindow(n: Int) = {
      val start = rnd.nextInt(math.max(1, g.universe.size - n))
      g.universe.slice(start, start + n)
    }
    // Wide cardinality ranges: seeker cost must actually vary with the
    // query for the cost model (and ordering) to matter.
    def mkSc(): Seeker = {
      val n = 20 + rnd.nextInt(2200)
      rnd.nextInt(3) match {
        case 0 => ScSeeker("sc", entityWindow(n).map(_.person))
        case 1 => ScSeeker("sc", entityWindow(n).map(_.city))
        case _ => ScSeeker("sc", entityWindow(n).map(_.dept) ++ entityWindow(n).map(_.person))
      }
    }
    def mkKw(): Seeker =
      KwSeeker("kw", entityWindow(5 + rnd.nextInt(80)).map(_.person))
    def mkMc(): Seeker = {
      val es = entityWindow(10 + rnd.nextInt(350))
      // Heavy variants join a frequent column (dept) — large index hits.
      val tuples = rnd.nextInt(3) match {
        case 0 => es.map(_.pair)
        case 1 => es.map(e => Vector(e.city, e.dept))
        case _ => es.map(e => Vector(e.dept, e.person))
      }
      McSeeker("mc", tuples)
    }
    def mkC(): Seeker = {
      val es = entityWindow(30 + rnd.nextInt(500))
      val keys = if (rnd.nextBoolean()) es.map(_.person) else es.map(_.city)
      CorrSeeker("c", keys, es.map(e => e.score + rnd.nextGaussian()), h = 64)
    }
    val makers: Map[SeekerType, () => Seeker] = Map(
      SeekerType.SC -> (() => mkSc()),
      SeekerType.KW -> (() => mkKw()),
      SeekerType.MC -> (() => mkMc()),
      SeekerType.C -> (() => mkC()),
    )

    // Warm-up.
    mkSc().run(idx); mkMc().run(idx); mkC().run(idx); mkKw().run(idx)

    // -------------------------------------- offline cost-model training
    val (costModel, trainMs) = BenchUtil.time {
      val samples = SeekerType.all.map { tpe =>
        tpe -> Seq.fill(trainPerType) {
          val s = makers(tpe)()
          val (_, ms) = BenchUtil.time(s.run(idx))
          CostModel.Sample(s.features(idx), ms)
        }
      }.toMap
      CostModel.train(samples)
    }

    // --------------------------------------------------- plan evaluation
    val exec = new Executor(spark, idx, costModel)
    def groupMs(members: SeekerNode*): Double = exec.runGroup(members).map(_._2).sum

    def evalRow(name: String, mkPair: () => (Seeker, Seeker), paper: String): Row = {
      var rand = 0.0; var blend = 0.0; var ideal = 0.0; var correct = 0
      (0 until plansPerRow).foreach { _ =>
        val (a, b) = mkPair()
        val (na, nb) = (SeekerNode("a", a), SeekerNode("b", b))
        val tAB = groupMs(na, nb)
        val tBA = groupMs(nb, na)
        val (ordered, overheadMs) = BenchUtil.time(Optimizer.orderSeekers(Seq(na, nb), idx, costModel))
        val tChosen = if (ordered.head eq na) tAB else tBA
        rand += (tAB + tBA) / 2
        blend += tChosen + overheadMs
        ideal += math.min(tAB, tBA)
        // Near-ties (within 5% or 5 ms) count as correct either way —
        // measurement noise, not an ordering mistake.
        val best = math.min(tAB, tBA)
        if (tChosen <= best + math.max(5.0, 0.05 * best)) correct += 1
      }
      val n = plansPerRow.toDouble
      Row(name, rand / n, blend / n, ideal / n,
        1 - (blend / rand), 1 - (ideal / rand), correct / n, paper)
    }

    def pairOfTypes(types: Seq[SeekerType]): (Seeker, Seeker) = {
      val Seq(t1, t2) = types
      (makers(t1)(), makers(t2)())
    }

    val rows = Seq(
      evalRow("Mixed", () => {
        val ts = rnd.shuffle(SeekerType.all).take(2)
        pairOfTypes(ts)
      }, "paper: Rand 5.1 BLEND 2.0 Ideal 1.2 | gain 61.1%/75.9% | acc 84.4%"),
      evalRow("SC", () => (mkSc(), mkSc()),
        "paper: Rand 1.3 BLEND 1.0 Ideal 0.9 | gain 21.5%/26.9% | acc 99.8%"),
      evalRow("MC", () => (mkMc(), mkMc()),
        "paper: Rand 17.2 BLEND 4.5 Ideal 3.1 | gain 73.7%/82.2% | acc 70.3%"),
      evalRow("C", () => (mkC(), mkC()),
        "paper: Rand 5.2 BLEND 1.3 Ideal 1.1 | gain 74.8%/77.8% | acc 89.5%"),
    )

    val tab = BenchUtil.table(
      Seq("Seeker", "Rand s", "BLEND s", "Ideal s", "Gain BLEND", "Gain Ideal", "Acc BLEND", "Paper"),
      rows.map(r => Seq(r.seeker, BenchUtil.sec(r.randMs), BenchUtil.sec(r.blendMs),
        BenchUtil.sec(r.idealMs), BenchUtil.pct(r.blendGain), BenchUtil.pct(r.idealGain),
        BenchUtil.pct(r.accuracy), r.paper)))
    val report = tab + f"\n\ncost-model training time: ${trainMs / 1000}%.1f s " +
      s"(${trainPerType} sampled queries per seeker type; paper: 60 s on the largest lake)"
    Result(rows, trainMs, BenchUtil.report("table4-optimizer", report))
  }
}
