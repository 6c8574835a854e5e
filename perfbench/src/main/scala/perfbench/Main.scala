package perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path, Paths}

import repro.core.SeekerType
import repro.jobs.JobSession

/** Command-line options; see `perfbench/run.py` for the user-facing ones. */
final case class Options(
    workload: String = "",
    seed: Long = 1L,
    seconds: Double = 10.0,
    trace: Boolean = false,
    scale: String = "full",
    wrongReference: Boolean = false,
    outDir: Path = Paths.get(".bench_build"),
)

object Options {
  def parse(args: List[String], o: Options = Options()): Options = args match {
    case "--workload" :: v :: rest        => parse(rest, o.copy(workload = v))
    case "--seed" :: v :: rest            => parse(rest, o.copy(seed = v.toLong))
    case "--seconds" :: v :: rest         => parse(rest, o.copy(seconds = v.toDouble))
    case "--trace" :: v :: rest           => parse(rest, o.copy(trace = v == "1"))
    case "--scale" :: v :: rest           => parse(rest, o.copy(scale = v))
    case "--wrong-reference" :: v :: rest => parse(rest, o.copy(wrongReference = v == "1"))
    case "--out" :: v :: rest             => parse(rest, o.copy(outDir = Paths.get(v)))
    case Nil                              => o
    case other => throw new IllegalArgumentException(s"unknown arguments: ${other.mkString(" ")}")
  }
}

/** The BLEND benchmark: one workload, one seed, a closed loop with one
  * client over a fixed number of op cycles (set by `--seconds`), every
  * output checked, one JSON result line on stdout (everything else goes to
  * stderr). With `--trace 1` the first half of the cycles runs untraced
  * and the second half with the listeners on; the result then holds the
  * per-layer metrics and the tracing overhead.
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = Options.parse(args.toList)
    val spark = JobSession.create("blend-perfbench")
    val workDir = opts.outDir.resolve("work").resolve(s"${opts.workload}-${ProcessHandle.current().pid()}")
    Files.createDirectories(workDir)
    val code =
      try {
        logSession(spark)
        val rec = new Recorder
        val tracer = new Tracer(spark)
        val ctx = new Ctx(spark, opts.seed, Scale(opts.scale), rec, tracer, workDir, opts.wrongReference)
        val result = run(Workload(opts.workload, ctx), opts)
        System.out.println(result)
        System.out.flush()
        0
      } catch { case e: Throwable =>
        e.printStackTrace()
        1
      } finally {
        spark.stop()
        Workload.deleteTree(workDir)
      }
    // Exit explicitly: no lingering non-daemon thread may keep the JVM up.
    sys.exit(code)
  }

  private def logSession(spark: org.apache.spark.sql.SparkSession): Unit = {
    val keys = Seq("spark.master", "spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled",
      "spark.sql.autoBroadcastJoinThreshold")
    val conf = keys.map(k => s"$k=${spark.conf.getOption(k).getOrElse("?")}").mkString(" ")
    System.err.println(s"perfbench session: $conf nproc=${Runtime.getRuntime.availableProcessors()}")
  }

  /** Set-up (repeated), preparation, the measured loop, verification. */
  def run(wl: Workload, opts: Options): String = {
    val rec = wl.ctx.rec
    val tracer = wl.ctx.tracer

    def setupTime(what: String)(f: => Unit): Double = {
      val before = rec.untimedMs
      val mark = rec.mark()
      val t0 = System.nanoTime()
      f
      val s = (Stats.msSince(t0) - (rec.untimedMs - before)) / 1000
      System.err.println(f"perfbench $what: $s%.2f s " +
        rec.timingsSince(mark).map { case (k, v) => f"$k=$v%.0f" }.mkString(" "))
      s
    }
    val reps = (0 until wl.ctx.scale.setupReps).map { rep =>
      wl.release()
      setupTime(s"setup ${rep + 1}")(wl.setup(rep))
    }
    val setupS = Stats.median(reps) + setupTime("prepare")(wl.prepare())

    // A fixed number of whole cycles, so every run does the same amount of
    // work on the same mix of shapes; `--seconds` sets how many cycles
    // (about `nominalCycleS` each on 4 cores).
    val cycles = math.max(1, math.round(opts.seconds / wl.nominalCycleS).toInt)
    var cycleCount = 0
    var opCount = 0
    def loop(n: Int, traced: Boolean): Double = {
      val t0 = System.nanoTime()
      for (_ <- 0 until n) {
        val size = wl.startCycle(cycleCount)
        cycleCount += 1
        val first = rec.ops.size
        for (i <- 0 until size) {
          val tag = s"${Tracer.OpTagPrefix}$opCount"
          opCount += 1
          try wl.op(i, tag, traced)
          catch { case e: Exception =>
            System.err.println(s"op $tag failed: $e")
            rec.fail(tag)
          }
        }
        val ms = rec.ops.drop(first).map(_.ms).toSeq
        System.err.println(f"perfbench cycle $cycleCount${if (traced) " (traced)" else ""}: " +
          f"${ms.size} ops, p50 ${Stats.median(ms)}%.1f ms, total ${ms.sum / 1000}%.2f s")
      }
      Stats.msSince(t0) / 1000
    }

    val metrics =
      if (!opts.trace) {
        val wallS = loop(cycles, traced = false)
        wl.afterLoop(traced = false)
        rec.verify()
        Metrics.endToEnd(rec, setupS, wallS)
      } else {
        loop(math.max(1, cycles / 2), traced = false)
        tracer.install()
        loop(math.max(1, cycles - cycles / 2), traced = true)
        wl.afterLoop(traced = true)
        rec.verify()
        val layers = Metrics.perLayer(rec, tracer)
        writeSpans(opts, Metrics.spans(rec, tracer))
        layers
      }

    if (rec.failed > 0) System.err.println(s"failed: ${rec.failedUnitNames.mkString(" ")}")
    Json.obj(Seq(
      "correct" -> (rec.failed == 0).toString,
      "attempted" -> rec.attempted.toString,
      "failed" -> rec.failed.toString,
      "metrics" -> Json.obj(metrics.map { case (name, unit, v) =>
        name -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(unit)))
      }),
    ))
  }

  /** Spans are kept in memory during the run and written once, here. */
  private def writeSpans(opts: Options, spans: Seq[Span]): Unit = {
    val dir = opts.outDir.resolve("spans")
    Files.createDirectories(dir)
    val file = dir.resolve(s"${opts.workload}-seed${opts.seed}.jsonl")
    Files.write(file, spans.map(_.json).mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
    System.err.println(s"perfbench spans: ${spans.size} written to $file")
  }
}

/** Turns what a run recorded into the named metrics of BENCHMARK.json. */
object Metrics {
  import Stats._

  type Metric = (String, String, Double)

  private def typeKey(t: SeekerType): String = t.name.toLowerCase

  def endToEnd(rec: Recorder, setupS: Double, wallS: Double): Seq[Metric] = {
    val opMs = rec.ops.map(_.ms).toSeq
    val userBytes = median(rec.samplesOf("lake.user_bytes"))
    val perType = SeekerType.all.map { t =>
      (s"${typeKey(t)}_p50_ms", "ms", median(rec.seekers.filter(_.tpe == t).map(_.ms).toSeq))
    }
    Seq[Metric](
      ("setup_s", "s", setupS),
      ("p50_ms", "ms", median(opMs)),
      ("p90_ms", "ms", quantile(opMs, 0.9)),
      ("ops_per_s", "1/s", ratio(opMs.size, wallS)),
    ) ++ perType ++ Seq[Metric](
      ("build_p50_ms", "ms", median(rec.samplesOf("alltables.build_ms"))),
      ("load_p50_ms", "ms", median(rec.samplesOf("alltables.load_ms"))),
      ("stored_bytes_per_user_byte", "ratio", ratio(median(rec.samplesOf("alltables.parquet_bytes")), userBytes)),
      ("cache_bytes_per_user_byte", "ratio", ratio(median(rec.samplesOf("alltables.cached_bytes")), userBytes)),
    )
  }

  def perLayer(rec: Recorder, tracer: Tracer): Seq[Metric] = {
    val traced = rec.ops.filter(_.traced).toSeq
    val untraced = rec.ops.filterNot(_.traced).toSeq
    val nOps = math.max(1, traced.size).toDouble
    val opTags = traced.map(_.tag).toSet
    val byOp = tracer.queriesByOp()
    val queries = byOp.filter { case (op, _) => opTags(op) }.values.flatten.map(_._2).toSeq
    val tasks = tracer.tasksByOp().filter { case (op, _) => opTags(op) }.values.toSeq
    val seekers = rec.seekers.filter(_.traced).toSeq
    def med(name: String): Double = median(rec.samplesOf(name))

    // A standalone MC op: its SQL phase ends with its last query, the rest
    // is the application phase (super-key filter, exact validation).
    val opByTag = traced.map(o => o.tag -> o).toMap
    val mcSplits = seekers.filter(s => s.tpe == SeekerType.MC && s.standalone).flatMap { s =>
      for {
        op <- opByTag.get(s.op)
        qs <- byOp.get(s.op) if qs.nonEmpty
      } yield {
        val app = math.max(0.0, op.endMs - qs.map(_._1.endMs).max)
        (s.ms - app, app)
      }
    }
    val mcDetails = seekers.flatMap(_.mc)
    val placeholders = queries.filter(_.placeholder)
    val fired = placeholders.filter(_.fired)
    val costErr = SeekerType.all.map { t =>
      val errs = seekers.filter(_.tpe == t).flatMap(s => s.predictedMs.map(p => math.abs(p - s.ms) / s.ms * 100))
      (s"costmodel.err_pct.${typeKey(t)}", "%", median(errs))
    }
    val runMs = SeekerType.all.map { t =>
      (s"seekers.${typeKey(t)}.run_ms", "ms", median(seekers.filter(_.tpe == t).map(_.ms)))
    }
    val tracedP50 = median(traced.map(_.ms))
    val untracedP50 = median(untraced.map(_.ms))

    Seq[Metric](
      ("lake.gen_ms", "ms", med("lake.gen_ms")),
      ("lake.cells_df_ms", "ms", med("lake.cells_df_ms")),
      ("alltables.build_ms", "ms", med("alltables.build_ms")),
      ("alltables.save_ms", "ms", med("alltables.save_ms")),
      ("alltables.load_ms", "ms", med("alltables.load_ms")),
      ("alltables.value_freq_entries", "count", med("alltables.value_freq_entries")),
      ("alltables.cells", "count", med("alltables.cells")),
      ("alltables.parquet_bytes", "bytes", med("alltables.parquet_bytes")),
      ("alltables.cached_bytes", "bytes", med("alltables.cached_bytes")),
      ("catalyst.analysis_ms", "ms", median(queries.map(_.analysisMs))),
      ("catalyst.optimization_ms", "ms", median(queries.map(_.optimizationMs))),
      ("catalyst.planning_ms", "ms", median(queries.map(_.planningMs))),
      ("sql.exec_ms", "ms", median(queries.map(_.execMs))),
      ("sql.queries_per_op", "count/op", queries.size / nOps),
      ("sql.exchanges_per_query", "count", mean(queries.map(_.exchanges.toDouble))),
      ("sql.scan_rows_per_result", "ratio", ratio(queries.map(_.scanRows).sum.toDouble, queries.map(_.resultRows).sum.toDouble)),
      ("spark.tasks_per_op", "count/op", tasks.map(_.tasks).sum / nOps),
      ("spark.task_busy_ms_per_op", "ms/op", tasks.map(_.runMs).sum / nOps),
      ("spark.shuffle_write_bytes_per_op", "bytes/op", tasks.map(_.shuffleWriteBytes).sum / nOps),
      ("spark.gc_ms_per_op", "ms/op", tasks.map(_.gcMs).sum / nOps),
    ) ++ runMs ++ Seq[Metric](
      ("seekers.rows_out", "count", mean(seekers.map(_.rowsOut.toDouble))),
      ("seekers.mc.sql_ms", "ms", median(mcSplits.map(_._1))),
      ("seekers.mc.app_ms", "ms", median(mcSplits.map(_._2))),
      ("seekers.mc.fetched", "count", mean(mcDetails.map(_.fetched.toDouble))),
      ("seekers.mc.tp_ratio", "ratio", ratio(mcDetails.map(_.tp).sum.toDouble, mcDetails.map(_.fetched).sum.toDouble)),
      ("ir.placeholders", "count/op", placeholders.size / nOps),
      ("ir.fired_ratio", "ratio", ratio(fired.size.toDouble, placeholders.size.toDouble)),
      ("ir.ids_in", "count", mean(fired.map(_.idsIn.toDouble))),
      ("optimizer.order_ms", "ms", med("optimizer.order_ms")),
      ("costmodel.train_ms", "ms", med("costmodel.train_ms")),
    ) ++ costErr ++ Seq[Metric](
      ("executor.total_ms", "ms", med("executor.total_ms")),
      ("executor.seeker_ms_sum", "ms", med("executor.seeker_ms_sum")),
      ("executor.overhead_ms", "ms", med("executor.overhead_ms")),
      ("executor.seekers_per_plan", "count", mean(rec.samplesOf("executor.seekers_per_plan"))),
      ("trace.overhead_ms", "ms", tracedP50 - untracedP50),
      ("trace.overhead_pct", "%", ratio(tracedP50 - untracedP50, untracedP50) * 100),
    )
  }

  /** Op spans with the SQL query spans they caused as children; MC ops
    * also get their application phase.
    */
  def spans(rec: Recorder, tracer: Tracer): Seq[Span] = {
    val byOp = tracer.queriesByOp()
    val standaloneMc = rec.seekers.filter(s => s.standalone && s.tpe == SeekerType.MC).map(_.op).toSet
    rec.ops.filter(_.traced).toSeq.flatMap { case OpSample(tag, kind, _, start, ms) =>
      val end = start + ms
      val qs = byOp.getOrElse(tag, Nil)
      val querySpans = qs.map { case (e, q) =>
        Span(s"sql-${e.id}", Some(tag), "sql", e.startMs.toDouble, e.endMs.toDouble, Seq(
          "analysis_ms" -> Json.num(q.analysisMs),
          "optimization_ms" -> Json.num(q.optimizationMs),
          "planning_ms" -> Json.num(q.planningMs),
          "exchanges" -> q.exchanges.toString,
          "ir_fired" -> q.fired.toString,
          "ids_in" -> q.idsIn.toString))
      }
      val app = Option.when(standaloneMc(tag) && qs.nonEmpty)(
        Span(s"$tag-app", Some(tag), "mc-application", qs.map(_._1.endMs).max.toDouble, end))
      Span(tag, None, kind, start, end) +: (querySpans ++ app)
    }
  }
}
