"""Points -> cell-based datasets, as Spark DataFrame pipelines (Def. 5).

The cell ID is computed with pure Catalyst column expressions
(:func:`repro.grid.cell_id_col`), then each dataset's *cell-based dataset*
is the distinct set of its cell IDs. ``collect_cell_sets`` materializes the
per-dataset sorted cell arrays on the driver for the index structures, which
is the paper's setting (each data source holds its own datasets locally).
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from .grid import Bounds, canonical_cells, cell_ids_np, cell_id_col


def with_cells(points: DataFrame, bounds: Bounds, theta: int) -> DataFrame:
    """Attach the z-order ``cell`` column to a (… x, y …) points frame."""
    return points.withColumn("cell", cell_id_col(F.col("x"), F.col("y"), bounds, theta))


def cell_sets_df(points: DataFrame, bounds: Bounds, theta: int) -> DataFrame:
    """Distinct (source_id, dataset_id, cell) rows — the relational form of
    all cell-based datasets, ready for join-based operators."""
    return (
        with_cells(points, bounds, theta)
        .select("source_id", "dataset_id", "cell")
        .distinct()
    )


def dataset_summaries_df(points: DataFrame, bounds: Bounds, theta: int) -> DataFrame:
    """Per-dataset cell-set cardinality and grid-coordinate MBR, in Spark.

    Returns (source_id, dataset_id, n_cells, xmin, ymin, xmax, ymax) where
    the MBR is over grid coordinates of the dataset's cells.
    """
    cells = cell_sets_df(points, bounds, theta)
    # Decode X (even bits) and Y (odd bits) with column expressions.
    from functools import reduce

    def decode(col, offset):
        parts = [
            F.shiftleft(F.shiftright(col, 2 * i + offset).bitwiseAND(F.lit(1)), i)
            for i in range(theta)
        ]
        return reduce(lambda a, b: a.bitwiseOR(b), parts)

    with_xy = cells.withColumn("X", decode(F.col("cell"), 0)).withColumn(
        "Y", decode(F.col("cell"), 1)
    )
    return with_xy.groupBy("source_id", "dataset_id").agg(
        F.countDistinct("cell").alias("n_cells"),
        F.min("X").alias("xmin"),
        F.min("Y").alias("ymin"),
        F.max("X").alias("xmax"),
        F.max("Y").alias("ymax"),
    )


def collect_cell_sets(
    points: DataFrame, bounds: Bounds, theta: int
) -> dict[str, dict[int, np.ndarray]]:
    """Materialize {source_id: {dataset_id: canonical cell set}}.

    Uses ``collect_set`` so the shuffle moves one row per dataset, not one
    per point.
    """
    rows = (
        cell_sets_df(points, bounds, theta)
        .groupBy("source_id", "dataset_id")
        .agg(F.collect_set("cell").alias("cells"))
        .collect()
    )
    out: dict[str, dict[int, np.ndarray]] = {}
    for r in rows:
        out.setdefault(r["source_id"], {})[int(r["dataset_id"])] = canonical_cells(r["cells"])
    return out


def cell_sets_from_pdf(
    points: pd.DataFrame, bounds: Bounds, theta: int
) -> dict[str, dict[int, np.ndarray]]:
    """Driver-side (numpy) equivalent of :func:`collect_cell_sets`."""
    pdf = points.copy()
    pdf["cell"] = cell_ids_np(pdf["x"].to_numpy(), pdf["y"].to_numpy(), bounds, theta)
    out: dict[str, dict[int, np.ndarray]] = {}
    for (sid, did), g in pdf.groupby(["source_id", "dataset_id"], sort=True):
        out.setdefault(str(sid), {})[int(did)] = canonical_cells(g["cell"].to_numpy())
    return out
