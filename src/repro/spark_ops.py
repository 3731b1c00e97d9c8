"""Distributed dataflow for the multi-source framework (DESIGN.md §3).

Executors play the data sources, the driver plays the data center:

- :func:`overlap_topk_sql` — OJSP as a pure Spark SQL *spatial join
  operator* (query cells ⋈ corpus cells → distinct-count → window top-k);
  the relational reference the index algorithms are checked against.
- :func:`build_distributed_index` — `applyInPandas` per ``source_id``
  builds each source's :class:`~repro.core.framework.DataSource` inside its
  own task and pickles it; the returned root summaries are "each source
  sends its root node to the data center", from which the driver builds
  DITS-G in a :class:`~repro.core.framework.DataCenter`.
- :class:`SparkTransport` — the center's transport to those sources: each
  per-source call of the §VI-A protocol is one `mapInPandas` job whose
  tasks unpickle their own source. The protocol itself (pruning, clipping,
  top-k merge, greedy rounds) is ``DataCenter``'s, shared with the
  in-process path.
"""
from __future__ import annotations

import os
import pickle

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window
from pyspark.sql import functions as F

from .core.dits_global import RootSummary
from .core.framework import DataCenter, DataSource
from .grid import Bounds


def overlap_topk_sql(
    spark: SparkSession,
    query_cells_df: DataFrame,
    corpus_cells_df: DataFrame,
    k: int,
    exclude: tuple[int, ...] = (),
) -> DataFrame:
    """OJSP as one Catalyst plan over (source_id, dataset_id, cell) rows.

    Returns (source_id, dataset_id, overlap), the global top-k under the
    repo-wide (-overlap, dataset_id) order, overlap > 0.
    """
    q = query_cells_df.select("cell").distinct()
    scored = (
        corpus_cells_df.join(q, "cell")
        .groupBy("source_id", "dataset_id")
        .agg(F.countDistinct("cell").alias("overlap"))
    )
    if exclude:
        scored = scored.filter(~F.col("dataset_id").isin(*[int(e) for e in exclude]))
    w = Window.orderBy(F.desc("overlap"), F.asc("dataset_id"))
    return (
        scored.withColumn("rank", F.row_number().over(w))
        .filter(F.col("rank") <= k)
        .drop("rank")
    )


#: Sources a Python worker has unpickled: path -> ((mtime_ns, size), source).
#: The file stamp tells a source rebuilt into the same path from the old one.
_INDEX_CACHE: dict[str, tuple[tuple[int, int], DataSource]] = {}


def _load_source(path: str) -> DataSource:
    """The pickled source at ``path``; runs inside Spark tasks only."""
    st = os.stat(path)
    stamp = (st.st_mtime_ns, st.st_size)
    hit = _INDEX_CACHE.get(path)
    if hit is None or hit[0] != stamp:
        with open(path, "rb") as fh:
            hit = (stamp, pickle.load(fh))
        _INDEX_CACHE[path] = hit
    return hit[1]


class SparkTransport:
    """Reaches each source through Spark tasks: every call is one
    `mapInPandas` job with one partition per contacted source, whose task
    unpickles that source from ``sources[source_id]`` and calls the same
    :class:`~repro.core.framework.DataSource` method the in-process
    transport calls."""

    def __init__(self, spark: SparkSession, paths: dict[str, str]):
        self.spark = spark
        self.sources = paths

    def _run(self, tasks, schema: str, fn) -> dict[str, list[tuple]]:
        """Run ``fn(source, cells)`` for every (source_id, cells) task;
        returns {source_id: the rows ``fn`` gave, typed by ``schema``}."""
        out: dict[str, list[tuple]] = {sid: [] for sid, _ in tasks}
        if not tasks:
            return out
        paths = self.sources
        names = ["source_id"] + [col.split()[0] for col in schema.split(",")]
        pdf = pd.DataFrame(
            {"source_id": [sid for sid, _ in tasks], "cells": [c.tolist() for _, c in tasks]}
        )

        def run(batches):
            for batch in batches:
                for sid, cells in zip(batch["source_id"], batch["cells"]):
                    src = _load_source(paths[sid])
                    rows = fn(src, np.asarray(cells, dtype=np.int64))
                    yield pd.DataFrame([(sid, *r) for r in rows], columns=names)

        df = self.spark.createDataFrame(pdf, "source_id string, cells array<long>")
        df = df.repartitionByRange(len(tasks), "source_id")
        for row in df.mapInPandas(run, "source_id string, " + schema).collect():
            out[row[0]].append(tuple(row[1:]))
        return out

    def overlap(self, tasks, k, exclude):
        rows = self._run(
            tasks,
            "dataset_id long, overlap long",
            lambda src, cells: src.local_overlap(cells, k, exclude),
        )
        return [rows[sid] for sid, _ in tasks]

    def best(self, tasks, delta, taken, use_index):
        taken = frozenset(taken)

        def fn(src, cells):
            reply, held = src.best_coverage_candidate(cells, delta, taken, use_index)
            return [(held, *(reply or (None, None, None)))]

        rows = self._run(tasks, "held long, dataset_id long, gain long, size long", fn)
        out = []
        for sid, _ in tasks:
            held, did, gain, size = rows[sid][0]
            out.append((None if did is None else (did, gain, size), held))
        return out

    def cells(self, source_id, dataset_id):
        rows = self._run(
            [(source_id, np.empty(0, dtype=np.int64))],
            "cell long",
            lambda src, _cells: [(int(c),) for c in src.get_cells(dataset_id)],
        )
        return np.array([c for (c,) in rows[source_id]], dtype=np.int64)


def build_distributed_index(
    cells_df: DataFrame,
    bounds: Bounds,
    theta: int,
    f: int,
    out_dir: str,
) -> DataCenter:
    """Build every source inside a Spark task; DITS-G on the driver.

    ``cells_df``: (source_id, dataset_id, cell) rows. Each task pickles its
    :class:`~repro.core.framework.DataSource` to ``out_dir``; the returned
    center reaches them through a :class:`SparkTransport`.
    """
    os.makedirs(out_dir, exist_ok=True)
    schema = (
        "source_id string, n_datasets long, gx0 double, gy0 double, "
        "gx1 double, gy1 double, path string"
    )

    def build(pdf: pd.DataFrame) -> pd.DataFrame:
        sid = str(pdf["source_id"].iloc[0])
        datasets = {
            int(did): g["cell"].to_numpy(dtype=np.int64)
            for did, g in pdf.groupby("dataset_id")
        }
        src = DataSource(sid, datasets, theta, f, bounds)
        path = os.path.join(out_dir, f"{sid}.pkl")
        with open(path, "wb") as fh:
            pickle.dump(src, fh)
        r = src.index.root.rect
        return pd.DataFrame(
            [
                {
                    "source_id": sid,
                    "n_datasets": len(datasets),
                    "gx0": float(r[0]),
                    "gy0": float(r[1]),
                    "gx1": float(r[2]),
                    "gy1": float(r[3]),
                    "path": path,
                }
            ]
        )

    rows = cells_df.groupBy("source_id").applyInPandas(build, schema).collect()
    summaries = [
        RootSummary.from_grid_rect(
            r["source_id"],
            np.array([r["gx0"], r["gy0"], r["gx1"], r["gy1"]]),
            bounds,
            theta,
            r["n_datasets"],
        )
        for r in rows
    ]
    paths = {r["source_id"]: r["path"] for r in rows}
    transport = SparkTransport(cells_df.sparkSession, paths)
    return DataCenter(summaries, transport, theta, bounds)
