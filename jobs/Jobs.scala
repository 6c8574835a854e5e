package repro.jobs

import org.apache.spark.sql.SparkSession

import repro.bench._
import repro.core.{AllTables, BlendSession}

/** Shared session bootstrap for the spark-submit entrypoints. */
object JobSession {
  def create(name: String): SparkSession = {
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .config("spark.sql.shuffle.partitions", sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "8"))
      .config("spark.sql.adaptive.enabled", "false")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", "false")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    BlendSession.install(spark)
    spark
  }
}

/** Offline phase (Fig. 2e): build the unified index for a lake and persist
  * it as parquet. Usage: `spark-submit ... repro.jobs.BuildIndexJob <outDir>`.
  */
object BuildIndexJob {
  def main(args: Array[String]): Unit = {
    val out = args.headOption.getOrElse("target/alltables")
    val spark = JobSession.create("blend-build-index")
    try {
      val idx = BenchData(spark).gittablesIdx
      AllTables.save(idx, out)
      println(s"AllTables written to $out (${idx.nCells} cells)")
    } finally spark.stop()
  }
}

/** Runs the benches of the given paper tables in order, on one session.
  * Usage: `spark-submit ... repro.jobs.BenchJob <2..9|all>...`.
  */
object BenchJob {
  private val benches: Map[Int, SparkSession => Unit] = Map(
    2 -> (s => Table2Bench.run(s)),
    3 -> (s => Table3Bench.run(s)),
    4 -> (s => Table4Bench.run(s)),
    5 -> (s => Table5Bench.run(s)),
    6 -> (s => Table6Bench.run(s)),
    7 -> (s => Table7Bench.run(s)),
    8 -> (s => Table8Bench.run(s)),
    9 -> (_ => Table9Bench.run()),
  )

  /** The table numbers `args` name, in order; `all` names every table. */
  def tables(args: Seq[String]): Seq[Int] = {
    val valid = benches.keys.toSeq.sorted
    val usage = s"valid tables: ${valid.mkString(" ")} or all"
    require(args.nonEmpty, s"no table given; $usage")
    args.flatMap {
      case "all" => valid
      case a =>
        val n = a.toIntOption.filter(benches.contains)
        require(n.isDefined, s"unknown table '$a'; $usage")
        n
    }
  }

  def main(args: Array[String]): Unit = {
    val selected = tables(args.toSeq)
    val spark = JobSession.create("blend-bench")
    try selected.foreach(benches(_)(spark)) finally spark.stop()
  }
}
