package perfbench

import scala.collection.mutable

import repro.core._
import repro.lake.{Lake, LakeTable}

/** Spark-free reference rankings, computed from the in-memory [[Lake]] the
  * index was built from. Each follows the seeker's definition (paper
  * Listings 1–3 and §VI), not its SQL, so a wrong plan, rewrite or index
  * shows up as a mismatch. Rankings are full (no top-k) and ordered like
  * the seekers': descending score, ascending table id.
  */
object Reference {

  private def ranked(xs: Iterable[Scored]): Seq[Scored] =
    xs.toSeq.sortBy(s => (-s.score, s.tableId))

  /** A plan's sinks under B-NO semantics (paper §VII-B, Theorem 1): every
    * seeker runs unrestricted, combiners are plain set operations. A
    * seeker keeps its full ranking when its sole consumer is an
    * Intersection or Difference (its group's combiner ranks it), and is cut
    * to its own k otherwise; combiners cut to theirs.
    */
  def bno(lake: Lake, plan: Plan): Map[String, Seq[Scored]] = {
    val consumers = plan.consumers
    def grouped(name: String): Boolean = consumers.get(name).exists { cs =>
      cs.size == 1 && (cs.head.combiner == Combiner.Intersection || cs.head.combiner == Combiner.Difference)
    }
    def cut(xs: Seq[Scored], k: Int): Seq[Scored] = if (k > 0) xs.take(k) else xs
    val results = mutable.Map.empty[String, Seq[Scored]]
    plan.nodes.foreach {
      case SeekerNode(name, s) =>
        val full = apply(lake, s)
        results(name) = if (grouped(name)) full else cut(full, s.k)
      case CombinerNode(name, combiner, inputs, k) =>
        results(name) = cut(combiner(inputs.map(results)), k)
    }
    plan.sinks.map(s => s -> results(s)).toMap
  }

  def apply(lake: Lake, seeker: Seeker): Seq[Scored] = seeker match {
    case s: ScSeeker   => sc(lake, s.queryValues)
    case s: KwSeeker   => kw(lake, s.queryValues)
    case s: McSeeker   => mc(lake, s)
    case s: CorrSeeker => corr(lake, s)
  }

  /** SC: per table, the most distinct query values found in one column. */
  def sc(lake: Lake, values: Seq[String]): Seq[Scored] = {
    val q = values.toSet
    ranked(lake.tables.flatMap { t =>
      val best = t.columns.map(_.values.iterator.filter(q).toSet.size).max
      if (best > 0) Some(Scored(t.id, best.toDouble)) else None
    })
  }

  /** KW: per table, the distinct query values found anywhere in it. */
  def kw(lake: Lake, values: Seq[String]): Seq[Scored] = {
    val q = values.toSet
    ranked(lake.tables.flatMap { t =>
      val found = t.columns.iterator.flatMap(_.values.iterator.filter(q)).toSet.size
      if (found > 0) Some(Scored(t.id, found.toDouble)) else None
    })
  }

  /** MC: per table, the rows holding some query tuple in pairwise-distinct
    * columns.
    */
  def mc(lake: Lake, seeker: McSeeker): Seq[Scored] = {
    val tuples = seeker.tuples.toSet
    val width = seeker.nQueryCols
    val colValues = (0 until width).map(i => tuples.map(_(i)))

    def holdsTuple(t: LakeTable, r: Int): Boolean = {
      // Assign query positions to distinct columns, position by position.
      def go(i: Int, used: Set[Int], acc: Vector[String]): Boolean =
        if (i == width) tuples.contains(acc)
        else (0 until t.nCols).exists { c =>
          val v = t.cell(r, c)
          !used.contains(c) && colValues(i).contains(v) && go(i + 1, used + c, acc :+ v)
        }
      go(0, Set.empty, Vector.empty)
    }

    ranked(lake.tables.flatMap { t =>
      val rows = (0 until t.nRows).count(r => holdsTuple(t, r))
      if (rows > 0) Some(Scored(t.id, rows.toDouble)) else None
    })
  }

  /** C: per table, the best |QCR| over (join column, numerical column)
    * pairs, on the first `h` rows, with at least `minSupport` rows. A
    * numerical cell's quadrant compares it with its whole column's mean.
    */
  def corr(lake: Lake, seeker: CorrSeeker): Seq[Scored] = {
    val keys = seeker.queryValues.toSet
    val k1 = seeker.k1Keys.toSet
    ranked(lake.tables.flatMap { t =>
      val rows = 0 until math.min(seeker.h, t.nRows)
      val quadrants = t.columns.zipWithIndex.collect { case (c, nc) if c.isNumeric =>
        val ns = c.numeric.get
        val avg = ns.sum / ns.size
        nc -> rows.map(r => ns(r) >= avg)
      }
      val scores = for {
        jc <- 0 until t.nCols
        hits = rows.filter(r => keys.contains(t.cell(r, jc)))
        if hits.size >= seeker.minSupport
        (nc, quad) <- quadrants
        if nc != jc
      } yield {
        val agree = hits.count(r => k1.contains(t.cell(r, jc)) == quad(r))
        math.abs(2L * agree - hits.size).toDouble / hits.size
      }
      if (scores.nonEmpty) Some(Scored(t.id, scores.max)) else None
    })
  }
}
