package org.apache.spark.sql

import org.apache.spark.SparkContext
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** The two Spark internals the benchmark's listeners need, reachable only
  * from Spark's own packages.
  */
object PerfbenchAccess {

  /** Listener events arrive asynchronously: wait until the bus is empty
    * before reading what the listeners collected.
    */
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty(60000L)

  /** Id of the QueryExecution behind a finished SQL execution. */
  def queryId(end: SparkListenerSQLExecutionEnd): Option[Long] = Option(end.qe).map(_.id)
}
