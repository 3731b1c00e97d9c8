"""End-to-end distributed run: build DITS per source in Spark tasks, then
answer OJSP and CJSP queries through the data center's Spark transport.

    spark-submit jobs/distributed_search.py

Prints, per query: the distributed top-k (it must match the SQL-operator
top-k), the CJSP greedy picks, and the bytes each search moved.
"""
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

import pandas as pd
from pyspark.sql import SparkSession

from repro import spark_ops
from repro.cells import cell_sets_df, cell_sets_from_pdf
from repro.params import DELTA_DEFAULT, K_DEFAULT, THETA_DEFAULT, F_DEFAULT
from repro.synth_spatial import SPACE, generate_corpus_pdf, pick_queries


def main(spark: SparkSession) -> None:
    theta, f, k, delta = THETA_DEFAULT, F_DEFAULT, K_DEFAULT, DELTA_DEFAULT
    pdf = generate_corpus_pdf(scale=0.01, max_points_per_dataset=150)
    points = spark.createDataFrame(pdf)
    cells = cell_sets_df(points, SPACE, theta).cache()
    union = {d: c for s in cell_sets_from_pdf(pdf, SPACE, theta).values() for d, c in s.items()}
    with tempfile.TemporaryDirectory() as td:
        center = spark_ops.build_distributed_index(cells, SPACE, theta, f, td)
        print(f"built {len(center.summaries)} per-source DITS-L indexes in Spark tasks")
        for qid in pick_queries(pdf, 3):
            q, ex = union[qid], frozenset([qid])
            top, ojsp_comm = center.overlap_search(q, k, ex)
            qdf = spark.createDataFrame(pd.DataFrame({"cell": q}))
            sql_top = [
                (int(r["dataset_id"]), int(r["overlap"]))
                for r in spark_ops.overlap_topk_sql(spark, qdf, cells, k, (qid,)).collect()
            ]
            assert top == sql_top, "distributed index result != SQL operator result"
            cov, cjsp_comm = center.coverage_search(q, delta, k, ex)
            print(
                f"query {qid}: top-{k} overlap {top[:3]}..., coverage picks {cov[:3]}...; "
                f"{ojsp_comm.total_bytes} + {cjsp_comm.total_bytes} bytes"
            )
    print("distributed search OK")


if __name__ == "__main__":
    main(
        SparkSession.builder.appName("repro-distributed-search")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
