"""Degenerate inputs at the public entry points: each one either has a
defined answer or is rejected with a ValueError that names the problem."""
import numpy as np
import pytest

from repro.baselines.quadtree import QuadTreeIndex
from repro.core.coverage import coverage_search
from repro.core.framework import make_center
from repro.core.node import DatasetNode
from repro.core.overlap import overlap_search, query_node_from_cells
from repro.core.update import DitsLocalIndex
from repro.synth_spatial import SPACE

THETA = 8  # 4^8 = 65,536 cells; ID 65,541 would alias cell 5
DATASETS = {1: np.array([3, 4, 5]), 2: np.array([100])}
EMPTY = np.empty(0, dtype=np.int64)


def _index():
    return DitsLocalIndex(DATASETS, THETA, 4)


def _center():
    return make_center({"a": {1: DATASETS[1]}, "b": {2: DATASETS[2]}}, THETA, 4, SPACE)


def _sent(search):
    """A center search's result and the number of messages it sent."""
    res, comm = search
    return res, comm.n_messages


def _empty_indexes():
    """An index built from no datasets and one emptied by deletes: the
    same empty root leaf, and an insert works into each."""
    built, emptied = DitsLocalIndex({}, THETA, 4), _index()
    for did in DATASETS:
        emptied.delete(did)
    out = []
    for idx in (built, emptied):
        root = idx.root
        shape = (len(idx), root.is_leaf, len(root.ch), root.keys.tolist(), root.post.tolist())
        idx.insert(7, np.array([4, 9]))
        out.append((shape, idx.search_overlap(query_node_from_cells([4], THETA), 5)))
    return out


CASES = {
    "overlap_search_k0": (
        lambda: overlap_search(_index().root, query_node_from_cells([3], THETA), 0), []
    ),
    "center_overlap_k0": (lambda: _sent(_center().overlap_search([3], 0)), ([], 0)),
    "center_overlap_empty_query": (lambda: _sent(_center().overlap_search(EMPTY, 5)), ([], 0)),
    "center_coverage_k0": (lambda: _sent(_center().coverage_search([3], 1, 0)), ([], 0)),
    "center_coverage_empty_query": (
        lambda: _sent(_center().coverage_search(EMPTY, 1, 5)), ([], 0)
    ),
    "empty_query_node": (lambda: query_node_from_cells(EMPTY, THETA), ValueError("no cells")),
    "empty_index": (_empty_indexes, [((0, True, 0, [], []), [(7, 1)])] * 2),
    "negative_delta_local": (
        lambda: coverage_search(_index().root, query_node_from_cells([3], THETA), -1, 5),
        ValueError("delta must be >= 0"),
    ),
    "negative_delta_center": (
        lambda: _center().coverage_search([3], -1, 5), ValueError("delta must be >= 0")
    ),
    "cell_past_grid": (lambda: DatasetNode(1, [3, 4**THETA], THETA), ValueError(r"\[0, 4\^8\)")),
    "last_cell_of_grid": (lambda: DatasetNode(1, [4**THETA - 1], THETA).size, 1),
    "negative_cell": (lambda: DatasetNode(1, [-1, 3], THETA), ValueError(r"\[0, 4\^8\)")),
    "center_query_past_grid": (
        lambda: _center().coverage_search([5, 65541], 0, 5), ValueError(r"\[0, 4\^8\)")
    ),
    "quadtree_cell_past_grid": (
        lambda: QuadTreeIndex({1: np.array([65541])}, THETA), ValueError(r"\[0, 4\^8\)")
    ),
}


@pytest.mark.parametrize("case", list(CASES))
def test_degenerate_input(case):
    call, expect = CASES[case]
    if isinstance(expect, ValueError):
        with pytest.raises(ValueError, match=str(expect)):
            call()
    else:
        assert call() == expect
