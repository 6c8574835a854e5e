package perfbench

/** Order statistics and a minimal JSON writer (the benchmark prints one
  * JSON object and writes spans; it needs nothing more than this).
  */
object Stats {

  /** Linear-interpolated quantile of `xs` (q in [0, 1]); 0 when empty. */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val pos = q * (s.size - 1)
      val lo = math.floor(pos).toInt
      val hi = math.min(lo + 1, s.size - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  /** `num / den`, or 0 when there is nothing to divide by. */
  def ratio(num: Double, den: Double): Double = if (den == 0) 0.0 else num / den

  def msSince(t0: Long): Double = (System.nanoTime() - t0) / 1e6

  /** Runs `f` and returns its value with its wall-clock milliseconds. */
  def timed[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = f
    (a, msSince(t0))
  }
}

object Json {
  def str(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'  => b ++= "\\\""
      case '\\' => b ++= "\\\\"
      case '\n' => b ++= "\\n"
      case '\t' => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c    => b += c
    }
    b += '"'
    b.toString
  }

  /** A finite double with all its digits (JSON has no NaN/Infinity). */
  def num(x: Double): String = {
    require(!x.isNaN && !x.isInfinite, s"non-finite metric value $x")
    if (x == math.rint(x) && math.abs(x) < 1e15) x.toLong.toString else x.toString
  }

  def obj(fields: Seq[(String, String)]): String =
    fields.map { case (k, v) => s"${str(k)}: $v" }.mkString("{", ", ", "}")
}
