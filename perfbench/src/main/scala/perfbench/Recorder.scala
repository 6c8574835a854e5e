package perfbench

import scala.collection.mutable

import repro.core.{McDetails, SeekerType}

/** One op of the measured loop. `traced` ops ran with the listeners on. */
final case class OpSample(tag: String, kind: String, traced: Boolean, startMs: Double, ms: Double) {
  def endMs: Double = startMs + ms
}

/** One seeker invocation: a whole op of its own (`standalone`) or a plan
  * member. `mc` holds MC's candidate counts, `predictedMs` the cost
  * model's estimate.
  */
final case class SeekerSample(
    op: String,
    tpe: SeekerType,
    ms: Double,
    rowsOut: Int,
    traced: Boolean,
    mc: Option[McDetails] = None,
    predictedMs: Option[Double] = None,
    standalone: Boolean = false,
)

/** Everything a run measures, plus the checks that decide which ops failed.
  * Checks are queued while the loop runs and evaluated after it, so the
  * time they take is never part of an op.
  */
final class Recorder {
  val ops = mutable.ArrayBuffer.empty[OpSample]
  val seekers = mutable.ArrayBuffer.empty[SeekerSample]
  private val samples = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[Double]]
  private val units = mutable.LinkedHashSet.empty[String]
  private val failedUnits = mutable.Set.empty[String]
  private val checks = mutable.ArrayBuffer.empty[(String, () => Boolean)]
  private var untimedNs = 0L

  // Wall clock as epoch milliseconds with sub-millisecond resolution, so
  // op windows line up with the listener bus's event times.
  private val epochBase = System.currentTimeMillis().toDouble
  private val nanoBase = System.nanoTime()
  def nowMs(): Double = epochBase + (System.nanoTime() - nanoBase) / 1e6

  def sample(name: String, v: Double): Unit =
    samples.getOrElseUpdate(name, mutable.ArrayBuffer.empty) += v
  /** Sample counts so far, to log what one phase added. */
  def mark(): Map[String, Int] = samples.map { case (k, vs) => k -> vs.size }.toMap

  /** Timings (`*_ms`) recorded since `m`, summed per name. */
  def timingsSince(m: Map[String, Int]): Seq[(String, Double)] =
    samples.toSeq.collect { case (k, vs) if k.endsWith("_ms") && vs.size > m.getOrElse(k, 0) =>
      k -> vs.drop(m.getOrElse(k, 0)).sum
    }

  def samplesOf(name: String): Seq[Double] = samples.get(name).fold(Seq.empty[Double])(_.toSeq)

  def fail(unit: String): Unit = { units += unit; failedUnits += unit }

  /** Queues a check of `unit`'s output; it runs in [[verify]]. */
  def check(unit: String)(ok: => Boolean): Unit = {
    units += unit
    checks += (unit -> (() => ok))
  }

  /** Runs the queued checks; a check that throws counts as failed. */
  def verify(): Unit = {
    checks.foreach { case (unit, ok) =>
      val passed = try ok() catch { case e: Exception =>
        System.err.println(s"check of $unit threw: $e"); false
      }
      if (!passed) failedUnits += unit
    }
    checks.clear()
  }

  def attempted: Long = units.size.toLong
  def failed: Long = failedUnits.size.toLong
  def failedUnitNames: Seq[String] = failedUnits.toSeq.sorted

  /** Runs `f` as verification work: its time is excluded from set-up. */
  def untimed[A](f: => A): A = {
    val t0 = System.nanoTime()
    try f finally untimedNs += System.nanoTime() - t0
  }
  def untimedMs: Double = untimedNs / 1e6
}
