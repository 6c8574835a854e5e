package perfbench

import scala.util.Random

import repro.core._
import repro.lake.LakeGen
import repro.tasks.Tasks

/** Seeded seeker queries over a mixed (gittables-like) lake, in the shapes
  * of the Table IV query generators. Each type has a light and a heavy
  * variant (frequent columns such as `dept` make large index hits).
  *
  * The measured mix ([[cycle]]) takes its query sizes from a fixed ladder
  * per type, from lookup size up to about 2 000 values, so the cost
  * distribution of a cycle is the same for every seed; the seed picks the
  * entities and the order.
  */
final class SeekerQueries(g: LakeGen.MixedLake, rnd: Random) {
  import SeekerQueries.ladder
  private val u = g.universe

  private def window(n: Int): Vector[LakeGen.Entity] = {
    val m = math.min(n, u.size)
    val start = rnd.nextInt(u.size - m + 1)
    u.slice(start, start + m)
  }

  /** A query of `n` values (MC: `n` tuples) in the given variant. */
  def sized(tpe: SeekerType, n: Int, variant: Int): Seeker = tpe match {
    case SeekerType.SC => variant % 3 match {
      case 0 => ScSeeker("sc", window(n).map(_.person))
      case 1 => ScSeeker("sc", window(n).map(_.city))
      case _ => ScSeeker("sc", window(n / 2).map(_.dept) ++ window(n / 2).map(_.person))
    }
    case SeekerType.KW => KwSeeker("kw", window(n).map(_.person))
    case SeekerType.MC =>
      val es = window(n)
      McSeeker("mc", variant % 3 match {
        case 0 => es.map(_.pair)
        case 1 => es.map(e => Vector(e.city, e.dept))
        case _ => es.map(e => Vector(e.dept, e.person))
      })
    case SeekerType.C =>
      val es = window(n)
      val keys = if (variant % 2 == 0) es.map(_.person) else es.map(_.city)
      CorrSeeker("c", keys, es.map(e => e.score + rnd.nextGaussian()), h = 64)
  }

  /** A query of random size and variant (cost-model training samples). */
  def random(tpe: SeekerType): Seeker = {
    val sizes = ladder(tpe)
    val (lo, hi) = (math.log(sizes.head.toDouble), math.log(sizes.last.toDouble))
    sized(tpe, math.round(math.exp(lo + rnd.nextDouble() * (hi - lo))).toInt, rnd.nextInt(3))
  }

  /** One query per type and ladder size, in a seeded order. */
  def cycle(): Vector[Seeker] =
    rnd.shuffle(SeekerType.all.toVector.flatMap { t =>
      ladder(t).zipWithIndex.map { case (n, j) => sized(t, n, j) }
    })
}

object SeekerQueries {
  /** Query sizes per type (MC: tuples of two values). */
  val ladder: Map[SeekerType, Vector[Int]] = Map(
    SeekerType.SC -> Vector(5, 20, 80, 300, 1000, 2000),
    SeekerType.KW -> Vector(3, 8, 20, 50, 100, 200),
    SeekerType.MC -> Vector(5, 15, 40, 100, 200, 400),
    SeekerType.C  -> Vector(20, 40, 80, 160, 320, 600),
  )
}

/** A discovery plan of the `plans` workload and the lake it runs on. */
final case class PlanCase(kind: String, onNyc: Boolean, plan: Plan)

/** Seeded discovery plans: the four Table III tasks (negative examples,
  * imputation and multi-objective on the mixed lake, feature discovery on
  * the correlation lake) and two-seeker Intersection groups of mixed
  * seeker types (the Table IV plan shape).
  */
final class PlanQueries(g: LakeGen.MixedLake, nyc: LakeGen.CorrLake, rnd: Random) {
  private val u = g.universe
  private val seekers = new SeekerQueries(g, rnd)

  /** A window of `n` entities inside one half ("region") of the universe. */
  private def window(region: Int, n: Int): Seq[Int] = {
    val half = u.size / 2
    val base = if (region == 0) 0 else half
    val start = base + rnd.nextInt(math.max(1, half - n))
    start until math.min(start + n, base + half)
  }
  private def pairsOf(idxs: Seq[Int]): Seq[Vector[String]] = idxs.map(i => u(i).pair)

  /** Negatives come from most of the tables that hold the positives —
    * outdated versions of the wanted tables, as in Table III.
    */
  def negatives(nPos: Int, nNeg: Int): PlanCase = {
    val pos = window(0, nPos)
    val posSet = pos.toSet
    val posTables = g.tableEntities.zipWithIndex.collect {
      case (es, t) if es.exists(posSet.contains) => t
    }
    val outdated = rnd.shuffle(posTables).take(math.max(1, posTables.size * 3 / 5))
    val negPool = outdated.flatMap(t => g.tableEntities(t)).distinct.filterNot(posSet.contains)
    val neg = rnd.shuffle(negPool).take(nNeg)
    PlanCase("negatives", onNyc = false, Tasks.negativeExamplesPlan(pairsOf(pos), pairsOf(neg), 10))
  }

  def imputation(): PlanCase = {
    val es = window(rnd.nextInt(2), 40)
    PlanCase("imputation", onNyc = false,
      Tasks.imputationPlan(pairsOf(es.take(5)), es.drop(5).map(u(_).person), 10))
  }

  def multiObjective(): PlanCase = {
    val es = window(rnd.nextInt(2), 35).map(u)
    PlanCase("multiobjective", onNyc = false, Tasks.multiObjectivePlan(
      es.take(5).map(_.person),
      Seq(es.map(_.person), es.map(_.city), es.map(_.dept)),
      es.map(_.person), es.map(_.score), 64, 40))
  }

  def featureDiscovery(): PlanCase = {
    val qs = nyc.catQueries
    val i = rnd.nextInt(qs.size)
    val q = qs(i)
    val feats = Seq(qs((i + 7) % qs.size), qs((i + 13) % qs.size))
      .map(f => (f.keys: Seq[String], f.targets: Seq[Double]))
    val joinTuples = q.keys.take(40).map { k =>
      Vector(k, s"lbl_${k.replaceAll("[^0-9]", "").toInt % 17}")
    }
    PlanCase("features", onNyc = true,
      Tasks.featureDiscoveryPlan(q.keys, q.targets, feats, joinTuples, 64, 10))
  }

  /** Two seekers of the given types, mid-ladder sizes, intersected. */
  def intersectionPair(a: SeekerType, b: SeekerType): PlanCase = {
    def mid(t: SeekerType): Seeker = seekers.sized(t, SeekerQueries.ladder(t)(3), 0)
    val plan = new Plan
    plan.add("a", mid(a))
    plan.add("b", mid(b))
    plan.add("result", Combiner.Intersection, Seq("a", "b"), 10)
    PlanCase(s"intersect-${a.name}-${b.name}".toLowerCase, onNyc = false, plan)
  }

  /** One plan of each Table III task and five Intersection groups over
    * fixed pairs of seeker types, in a seeded order.
    */
  def cycle(nPos: Int, nNeg: Int): Vector[PlanCase] = {
    import SeekerType._
    val pairs = Vector(KW -> SC, SC -> MC, MC -> C, C -> KW, SC -> C)
    rnd.shuffle(
      Vector(negatives(nPos, nNeg), imputation(), multiObjective(), featureDiscovery()) ++
        pairs.map { case (a, b) => intersectionPair(a, b) })
  }
}
