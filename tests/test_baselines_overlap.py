"""The four OJSP baseline indexes must return exactly the brute-force top-k."""
import numpy as np
import pytest

from repro.baselines.josie import JosieIndex
from repro.baselines.quadtree import QuadTreeIndex
from repro.baselines.rtree import RTreeIndex
from repro.baselines.sts3 import STS3Index
from repro.core.overlap import brute_force_topk, query_node_from_cells
from repro.grid import z_encode_np
from tests.conftest import THETA, raw_cells


def _random_datasets(seed, n, theta=8, cells_per=15, raw=False):
    """``raw``: the same cell sets, each with repeated cells in shuffled order."""
    g = np.random.default_rng(seed)
    m = 1 << theta
    ds = {
        i: np.unique(
            z_encode_np(g.integers(0, m // 2, cells_per), g.integers(0, m // 2, cells_per), theta)
        )
        for i in range(n)
    }
    return {i: raw_cells(c, seed * 1000 + i) for i, c in ds.items()} if raw else ds


def _query(seed, theta=8, raw=False):
    g = np.random.default_rng(seed + 500)
    q = np.unique(z_encode_np(g.integers(0, 128, 25), g.integers(0, 128, 25), theta))
    return raw_cells(q, seed + 500) if raw else q


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [1, 5, 20])
class TestAllBaselinesEqualBruteForce:
    def test_sts3(self, seed, k):
        ds = _random_datasets(seed, 70)
        q = _query(seed)
        assert STS3Index(ds).search(q, k) == brute_force_topk(q, ds, k)

    def test_josie(self, seed, k):
        ds = _random_datasets(seed, 70)
        q = _query(seed)
        assert JosieIndex(ds).search(q, k) == brute_force_topk(q, ds, k)

    def test_quadtree(self, seed, k):
        ds = _random_datasets(seed, 70)
        q = _query(seed)
        assert QuadTreeIndex(ds, 8).search(q, k) == brute_force_topk(q, ds, k)

    def test_rtree(self, seed, k):
        ds = _random_datasets(seed, 70)
        q = _query(seed)
        qn = query_node_from_cells(q, 8)
        assert RTreeIndex(ds, 8, 10).search(qn, k) == brute_force_topk(q, ds, k)

    @pytest.mark.parametrize("index", ["sts3", "josie", "quadtree", "rtree"])
    def test_raw_cells(self, seed, k, index):
        """Repeated, unsorted cells in the datasets and the query: every
        index answers for the cell sets, as the reference does."""
        ds = _random_datasets(seed, 70, raw=True)
        q = _query(seed, raw=True)
        expect = brute_force_topk(q, ds, k)
        assert expect == brute_force_topk(_query(seed), _random_datasets(seed, 70), k)
        search = {
            "sts3": lambda: STS3Index(ds).search(q, k),
            "josie": lambda: JosieIndex(ds).search(q, k),
            "quadtree": lambda: QuadTreeIndex(ds, 8).search(q, k),
            "rtree": lambda: RTreeIndex(ds, 8, 10).search(query_node_from_cells(q, 8), k),
        }[index]
        assert search() == expect


class TestJosieSpecifics:
    def test_freeze_does_not_change_result(self):
        """Adversarial: many datasets sharing rare tokens; result must still
        match brute force (admission freeze must be tie-safe)."""
        ds = {
            0: np.array([1, 2, 3, 4]),
            1: np.array([1, 2, 3]),
            2: np.array([2, 3, 4]),
            3: np.array([4]),
            4: np.array([5]),
            5: np.array([1, 5]),
        }
        idx = JosieIndex(ds)
        q = np.array([1, 2, 3, 4, 5])
        for k in (1, 2, 3, 6):
            assert idx.search(q, k) == brute_force_topk(q, ds, k)

    def test_postings_sorted_by_dataset_id(self):
        ds = _random_datasets(1, 30)
        idx = JosieIndex(ds)
        for pl in idx.inv.values():
            ids = [e[0] for e in pl]
            assert ids == sorted(ids)

    def test_positions_are_rarest_first(self):
        ds = {0: np.array([1, 2]), 1: np.array([2])}
        idx = JosieIndex(ds)
        # token 1 (freq 1) is rarer than token 2 (freq 2): in dataset 0 the
        # position of token 1 must be 0.
        assert any(e == (0, 0, 2) for e in idx.inv[1])


class TestQuadTreeStructure:
    def test_leaf_capacity_respected_above_unit_cells(self):
        ds = _random_datasets(2, 40)
        idx = QuadTreeIndex(ds, 8)
        stack = [idx.root]
        while stack:
            node = stack.pop()
            if node.children is not None:
                stack.extend(node.children)
            elif node.size > 1:
                assert len(node.entries) <= QuadTreeIndex.CAPACITY

    def test_duplicate_cell_entries_in_unit_leaf(self):
        # 6 datasets all in one cell: cannot split below unit size.
        ds = {i: np.array([5]) for i in range(6)}
        idx = QuadTreeIndex(ds, 3)
        q = np.array([5])
        assert idx.search(q, 10) == [(i, 1) for i in range(6)]


class TestRTreeStructure:
    def test_mbrs_contain_children(self):
        ds = _random_datasets(3, 60)
        idx = RTreeIndex(ds, 8, 5)

        def rec(node):
            for r, child in node.entries:
                if node.leaf:
                    assert (r == child.rect).all()
                else:
                    cr = child.rect()
                    assert r[0] <= cr[0] and r[1] <= cr[1]
                    assert r[2] >= cr[2] and r[3] >= cr[3]
                    rec(child)

        rec(idx.root)

    def test_node_capacity(self):
        ds = _random_datasets(4, 60)
        idx = RTreeIndex(ds, 8, 5)
        stack = [idx.root]
        while stack:
            node = stack.pop()
            assert len(node.entries) <= idx.M
            if not node.leaf:
                stack.extend(c for _r, c in node.entries)

    @pytest.mark.parametrize("f", [2, 4, 16])
    def test_capacity_sweep_correct(self, f):
        ds = _random_datasets(5, 50)
        q = _query(5)
        qn = query_node_from_cells(q, 8)
        assert RTreeIndex(ds, 8, f).search(qn, 10) == brute_force_topk(q, ds, 10)


class TestOnFixtureCorpus:
    def test_all_baselines_on_real_corpus(self, union_datasets, query_ids):
        sts3 = STS3Index(union_datasets)
        josie = JosieIndex(union_datasets)
        qt = QuadTreeIndex(union_datasets, THETA)
        rt = RTreeIndex(union_datasets, THETA, 10)
        for qid in query_ids[:4]:
            q = union_datasets[qid]
            ex = frozenset([qid])
            bf = brute_force_topk(q, union_datasets, 10, ex)
            assert sts3.search(q, 10, ex) == bf
            assert josie.search(q, 10, ex) == bf
            assert qt.search(q, 10, ex) == bf
            assert rt.search(query_node_from_cells(q, THETA), 10, ex) == bf
