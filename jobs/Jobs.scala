package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.Figures
import scala.collection.immutable.ListMap

/** Shared session bootstrap for the spark-submit entrypoints. */
object JobSession {
  def create(app: String): SparkSession =
    SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
}

/** The paper's evaluation exhibits by name: `FigureJob table2` prints the
  * dataset statistics, `fig10`/`fig11` clustering vs eps and l_g,
  * `fig12`/`fig13`/`fig14` detection vs Or, eps and the node count N, and
  * `fig15` enumeration vs the M/K/L/G constraints.
  */
object FigureJob {
  private val figures = ListMap[String, SparkSession => Seq[Seq[String]]](
    "table2" -> Figures.table2, "fig10" -> Figures.fig10, "fig11" -> Figures.fig11,
    "fig12" -> Figures.fig12, "fig13" -> Figures.fig13, "fig14" -> Figures.fig14,
    "fig15" -> Figures.fig15)

  def main(args: Array[String]): Unit = args.toSeq match {
    case Seq(name) if figures.contains(name) =>
      val spark = JobSession.create(name)
      try figures(name)(spark) finally spark.stop()
    case _ =>
      Console.err.println(s"usage: FigureJob <${figures.keys.mkString("|")}>")
      sys.exit(2)
  }
}
