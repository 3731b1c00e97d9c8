"""Distributed dataflow operators == driver-side algorithms, oracle-checked."""
import numpy as np
import pandas as pd
import pytest

from repro import spark_ops
from repro.baselines.greedy import SGCoverage
from repro.cells import cell_sets_df
from repro.core.framework import make_center
from repro.core.overlap import brute_force_topk, query_node_from_cells
from repro.oracle import assert_equivalent
from repro.synth_spatial import SPACE
from tests.conftest import F, THETA


@pytest.fixture(scope="module")
def cells_sdf(spark, points_pdf):
    return cell_sets_df(spark.createDataFrame(points_pdf), SPACE, THETA).cache()


@pytest.fixture(scope="module")
def dist_index(tmp_path_factory, cells_sdf):
    out = tmp_path_factory.mktemp("dits")
    return spark_ops.build_distributed_index(cells_sdf, SPACE, THETA, F, str(out))


class TestOverlapTopkSql:
    def test_equals_brute_force(self, spark, cells_sdf, union_datasets, query_ids):
        for qid in query_ids[:4]:
            q = union_datasets[qid]
            qdf = spark.createDataFrame(pd.DataFrame({"cell": q}))
            top = spark_ops.overlap_topk_sql(spark, qdf, cells_sdf, 10, (qid,))
            got = [(int(r["dataset_id"]), int(r["overlap"])) for r in top.collect()]
            assert got == brute_force_topk(q, union_datasets, 10, frozenset([qid]))

    def test_oracle(self, spark, cells_sdf, union_datasets, query_ids):
        qid = query_ids[0]
        q = union_datasets[qid]
        qdf = spark.createDataFrame(pd.DataFrame({"cell": q}))
        top = spark_ops.overlap_topk_sql(spark, qdf, cells_sdf, 10, (qid,)).select(
            "dataset_id", "overlap"
        )
        assert_equivalent(
            top,
            f"""SELECT dataset_id, COUNT(DISTINCT c.cell) AS overlap
                FROM corpus c JOIN q ON c.cell = q.cell
                WHERE dataset_id <> {qid}
                GROUP BY dataset_id
                ORDER BY overlap DESC, dataset_id ASC LIMIT 10""",
            corpus=cells_sdf.toPandas(),
            q=pd.DataFrame({"cell": q}),
        )

    def test_no_exclusion(self, spark, cells_sdf, union_datasets, query_ids):
        qid = query_ids[1]
        q = union_datasets[qid]
        qdf = spark.createDataFrame(pd.DataFrame({"cell": q}))
        top = spark_ops.overlap_topk_sql(spark, qdf, cells_sdf, 5)
        got = [(int(r["dataset_id"]), int(r["overlap"])) for r in top.collect()]
        assert got == brute_force_topk(q, union_datasets, 5)


class TestDistributedBuild:
    def test_summaries_cover_sources(self, dist_index, corpus):
        assert set(dist_index.summaries) == set(corpus)
        assert set(dist_index.sources) == set(corpus)
        for name, s in dist_index.summaries.items():
            assert s.n_datasets == len(corpus[name])

    def test_persisted_indexes_load_and_match(self, dist_index, corpus):
        for name, path in dist_index.sources.items():
            src = spark_ops._load_source(path)
            assert src.name == name
            assert sorted(src.index.datasets) == sorted(corpus[name])

    def test_summary_rects_match_driver_side(self, dist_index, center):
        for name, s in dist_index.summaries.items():
            expect = center.summaries[name]
            assert np.allclose(s.rect, expect.rect)


class TestDistributedSearch:
    def test_overlap_equals_brute_force(self, dist_index, union_datasets, query_ids):
        for qid in query_ids[:4]:
            q = union_datasets[qid]
            res, _ = dist_index.overlap_search(q, 10, frozenset([qid]))
            assert res == brute_force_topk(q, union_datasets, 10, frozenset([qid]))

    @pytest.mark.parametrize("delta", [0, 5])
    def test_coverage_equals_driver_sg(self, dist_index, union_datasets, query_ids, delta):
        qid = query_ids[2]
        q = union_datasets[qid]
        ref = SGCoverage(union_datasets, THETA).search(
            query_node_from_cells(q, THETA), delta, 8, frozenset([qid])
        )
        got, _ = dist_index.coverage_search(q, delta, 8, frozenset([qid]))
        assert got == ref

    def test_query_outside_all_sources(self, dist_index):
        # A cell in the far south Pacific where no synthetic source lives.
        from repro.grid import cell_ids_np

        q = cell_ids_np(np.array([-140.0]), np.array([-60.0]), SPACE, THETA)
        res, _ = dist_index.overlap_search(q, 10)
        assert res == []


#: (kind, args, keyword args) of the searches both transports must agree on.
SEARCHES = [
    ("overlap", (10,), {}),
    ("overlap", (10,), {"use_global": False, "clip": False}),
    ("coverage", (0, 8), {"strategy": "merge"}),
    ("coverage", (5, 8), {"strategy": "merge"}),
]


@pytest.mark.parametrize("kind, args, kwargs", SEARCHES)
def test_transports_agree(dist_index, center, union_datasets, query_ids, kind, args, kwargs):
    """The Spark transport runs the in-process protocol: same answers, same
    bytes per message kind, same number of messages."""
    for qid in query_ids[:2]:
        q, ex = union_datasets[qid], frozenset([qid])
        (want, want_comm), (got, got_comm) = (
            getattr(c, f"{kind}_search")(q, *args, ex, **kwargs) for c in (center, dist_index)
        )
        assert got == want
        assert got_comm.bytes_by_kind() == want_comm.bytes_by_kind()
        assert got_comm.n_messages == want_comm.n_messages


def _tiny_cells_df(spark, datasets):
    rows = [("s", did, int(c)) for did, cells in datasets.items() for c in cells]
    return spark.createDataFrame(
        pd.DataFrame(rows, columns=["source_id", "dataset_id", "cell"])
    )


@pytest.mark.parametrize("transport", ["local", "spark"])
def test_duplicate_query_cells_count_once(spark, tmp_path, transport):
    datasets = {1: np.array([3, 4, 5]), 2: np.array([100])}
    if transport == "local":
        center = make_center({"s": datasets}, 6, 4, SPACE)
    else:
        center = spark_ops.build_distributed_index(
            _tiny_cells_df(spark, datasets), SPACE, 6, 4, str(tmp_path)
        )
    res, _ = center.overlap_search(np.array([3, 3, 3, 4]), 10)
    assert res == [(1, 2)]


def test_rebuild_into_same_dir_answers_from_new_index(spark, tmp_path):
    """Python workers cache unpickled sources; a source rebuilt into the
    same path must not be answered from the stale copy."""
    q = np.array([3, 4])
    old = spark_ops.build_distributed_index(
        _tiny_cells_df(spark, {1: np.array([3, 4, 5])}), SPACE, 6, 4, str(tmp_path)
    )
    assert old.overlap_search(q, 10)[0] == [(1, 2)]
    new = spark_ops.build_distributed_index(
        _tiny_cells_df(spark, {7: np.array([3, 4]), 8: np.array([4])}), SPACE, 6, 4, str(tmp_path)
    )
    assert new.overlap_search(q, 10)[0] == [(7, 2), (8, 1)]
    assert new.coverage_search(q, 0, 2)[0] == [(7, 0), (8, 0)]
