package repro.core

import java.util.UUID

import org.apache.hadoop.fs.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.catalyst.TableIdentifier
import org.apache.spark.sql.catalyst.catalog.{BucketSpec, CatalogStorageFormat, CatalogTable, CatalogTableType}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** The unified BLEND index (paper §V, Fig. 3): one relational table
  *
  * {{{
  *   AllTables(CellValue varchar, TableId long, ColumnId int, RowId int,
  *             SuperKey long, Quadrant boolean?)
  * }}}
  *
  * - (CellValue, TableId, ColumnId, RowId) is the DataXFormer inverted index;
  * - SuperKey is the XASH super key of the cell's row (MATE);
  * - Quadrant is the QCR bit: value >= its column average (null when the
  *   cell is not numerical).
  *
  * @param df        the AllTables DataFrame, cached in the layout of
  *                  [[AllTables.build]]
  * @param valueFreq global frequency of each distinct cell value — the
  *                  statistic the cost model's "average frequency of values
  *                  from Q in the database" feature reads (paper §VII-B)
  * @param nCells    total number of index rows
  * @param table     the catalog table behind a loaded index
  */
final case class AllTables(df: DataFrame, valueFreq: Map[String, Long], nCells: Long)(
    table: Option[TableIdentifier]) {

  /** Average database frequency of a query's values (unknown values count
    * with frequency 0, as in the paper's feature definition).
    */
  def avgFrequency(values: Seq[String]): Double =
    if (values.isEmpty) 0.0
    else values.map(v => valueFreq.getOrElse(v, 0L)).sum.toDouble / values.size

  /** Release the cache, and the catalog table a [[AllTables.load]] registered. */
  def unpersist(): Unit = {
    df.unpersist()
    table.foreach(df.sparkSession.sessionState.catalog.dropTable(_, ignoreIfNotExists = true, purge = false))
  }
}

object AllTables {

  /** Offline index construction (paper Fig. 2e), pure Spark:
    *  1. per-(table, column) averages over numerical cells → Quadrant bit,
    *  2. per-(table, row) `bit_or` aggregation of cell bit patterns → SuperKey,
    *  3. join both back to the inverted-index cells,
    *  4. lay the rows out in TableId buckets (see `layout`) and cache them.
    */
  def build(spark: SparkSession, cells: DataFrame): AllTables = {
    val cellBitsUdf = udf((v: String) => Xash.cellBits(v))

    val withBits = cells.withColumn("bits", cellBitsUdf(col("CellValue")))

    val colAvg = cells
      .where(col("NumValue").isNotNull)
      .groupBy("TableId", "ColumnId")
      .agg(avg("NumValue").as("colAvg"))

    val superKeys = withBits
      .groupBy("TableId", "RowId")
      .agg(expr("bit_or(bits)").as("SuperKey"))

    val indexed = withBits
      .join(colAvg, Seq("TableId", "ColumnId"), "left")
      .join(superKeys, Seq("TableId", "RowId"))
      .select(
        col("CellValue"),
        col("TableId"),
        col("ColumnId"),
        col("RowId"),
        col("SuperKey"),
        when(col("NumValue").isNotNull, col("NumValue") >= col("colAvg"))
          .otherwise(lit(null).cast(BooleanType))
          .as("Quadrant"),
      )

    cached(layout(indexed), table = None)
  }

  /** TableId hash buckets of the index, in memory and on disk. Part of the
    * on-disk format, so it does not follow `spark.sql.shuffle.partitions`.
    */
  private val Buckets = 8
  private val SortColumns = Seq("CellValue", "TableId", "RowId")

  /** AllTables as written by [[save]]; [[load]] declares it to the catalog. */
  private val Schema = StructType(Seq(
    StructField("CellValue", StringType),
    StructField("TableId", LongType),
    StructField("ColumnId", IntegerType),
    StructField("RowId", IntegerType),
    StructField("SuperKey", LongType),
    StructField("Quadrant", BooleanType),
  ))

  /** The paper's in-DB B-tree indexes on CellValue/TableId (§V) map to a
    * layout here: rows are hash-partitioned into TableId buckets and sorted
    * by CellValue within each bucket. Every seeker groups or joins by
    * TableId, so its plan needs no shuffle, and the sort clusters equal
    * values inside the columnar cache batches.
    */
  private def layout(df: DataFrame): DataFrame =
    df.repartition(Buckets, col("TableId")).sortWithinPartitions(SortColumns.map(col): _*)

  /** Cache the laid-out index and compute its frequency statistics; the
    * aggregation is also the job that fills the cache.
    */
  private def cached(df: DataFrame, table: Option[TableIdentifier]): AllTables = {
    val data = df.cache()
    val valueFreq = data
      .groupBy("CellValue")
      .count()
      .collect()
      .map(r => r.getString(0) -> r.getLong(1))
      .toMap
    AllTables(data, valueFreq, valueFreq.values.sum)(table)
  }

  private def freshTable(): TableIdentifier =
    TableIdentifier(s"blend_alltables_${UUID.randomUUID().toString.replace("-", "")}")

  /** Persist the index as parquet bucketed by TableId and sorted like the
    * cache, so [[load]] reads the layout back without a shuffle. The catalog
    * entry the bucketed write needs is dropped again; the files stay.
    */
  def save(index: AllTables, path: String): Unit = {
    val table = freshTable()
    try
      index.df.write
        .mode("overwrite")
        .format("parquet")
        .bucketBy(Buckets, "TableId")
        .sortBy(SortColumns.head, SortColumns.tail: _*)
        .option("path", path)
        .saveAsTable(table.unquotedString)
    finally index.df.sparkSession.sessionState.catalog.dropTable(table, ignoreIfNotExists = true, purge = false)
  }

  /** Reload a saved index: `path` is registered as an external bucketed
    * table, whose scan keeps the TableId buckets, and cached (recomputing
    * the frequency statistics). [[AllTables.unpersist]] drops the table.
    */
  def load(spark: SparkSession, path: String): AllTables = {
    val location = new Path(path)
    val qualified = location.getFileSystem(spark.sessionState.newHadoopConf()).makeQualified(location)
    val table = freshTable()
    spark.sessionState.catalog.createTable(
      CatalogTable(
        identifier = table,
        tableType = CatalogTableType.EXTERNAL,
        storage = CatalogStorageFormat.empty.copy(locationUri = Some(qualified.toUri)),
        schema = Schema,
        provider = Some("parquet"),
        bucketSpec = Some(BucketSpec(Buckets, Seq("TableId"), SortColumns)),
      ),
      ignoreIfExists = false,
    )
    cached(spark.table(table.unquotedString), Some(table))
  }
}
