"""DITS-L maintenance (paper Appendix C) behind a stateful wrapper.

``DitsLocalIndex`` owns a DITS-L root plus the id -> DatasetNode map the
bidirectional pointers enable: insert descends by nearest pivot and splits
overflowing leaves with Algorithm 1; update replaces the dataset node in
place; delete removes it and collapses single-child parents. Every
operation refreshes ancestor rect/pivot/radius bottom-up.
"""
from __future__ import annotations

import numpy as np

from .dits_local import build_dits_l, build_local_index, iter_dataset_nodes
from .node import DatasetNode, InternalNode, LeafNode, refresh_geometry
from .overlap import overlap_search
from .coverage import coverage_search


def _refresh_up(node) -> None:
    while node is not None:
        if node.is_leaf:
            if node.ch:
                refresh_geometry(node)
        else:
            refresh_geometry(node)
        node = node.pa


class DitsLocalIndex:
    """One data source's DITS-L with Appendix-C update support."""

    def __init__(self, datasets: dict[int, np.ndarray], theta: int, f: int):
        self.theta = theta
        self.f = f
        self.root = build_dits_l(datasets, theta, f)
        self._nodes: dict[int, DatasetNode] = {
            nd.id: nd for nd in iter_dataset_nodes(self.root)
        }

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def datasets(self) -> dict[int, np.ndarray]:
        return {did: nd.cells for did, nd in self._nodes.items()}

    # -- maintenance ------------------------------------------------------
    def insert(self, dataset_id: int, cells: np.ndarray) -> None:
        nd = DatasetNode(dataset_id, cells, self.theta)
        self._nodes[nd.id] = nd
        node = self.root
        while not node.is_leaf:
            dl = np.hypot(*(node.left.o - nd.o))
            dr = np.hypot(*(node.right.o - nd.o))
            node = node.left if dl <= dr else node.right
        leaf: LeafNode = node
        leaf.ch.append(nd)
        if len(leaf.ch) > leaf.f:
            sub = build_local_index(leaf.ch, self.f, leaf.pa)
            self._replace_child(leaf, sub)
            _refresh_up(sub.pa)
        else:
            leaf.rebuild_inv()
            _refresh_up(leaf)

    def update(self, dataset_id: int, cells: np.ndarray) -> None:
        """Appendix C: replace the node in place, refresh ancestors."""
        old = self._nodes[dataset_id]
        leaf: LeafNode = old.pa
        nd = DatasetNode(dataset_id, cells, self.theta)
        leaf.ch[leaf.ch.index(old)] = nd
        leaf.rebuild_inv()
        self._nodes[dataset_id] = nd
        _refresh_up(leaf)

    def delete(self, dataset_id: int) -> None:
        nd = self._nodes.pop(dataset_id)
        leaf: LeafNode = nd.pa
        leaf.ch.remove(nd)
        if leaf.ch:
            leaf.rebuild_inv()
            _refresh_up(leaf)
            return
        parent: InternalNode | None = leaf.pa
        if parent is None:
            leaf.rebuild_inv()  # empty root leaf: index is now empty
            return
        sibling = parent.right if parent.left is leaf else parent.left
        grand = parent.pa
        sibling.pa = grand
        if grand is None:
            self.root = sibling
        elif grand.left is parent:
            grand.left = sibling
        else:
            grand.right = sibling
        _refresh_up(grand)

    def _replace_child(self, old, new) -> None:
        parent = old.pa
        new.pa = parent
        if parent is None:
            self.root = new
        elif parent.left is old:
            parent.left = new
        else:
            parent.right = new

    # -- search -----------------------------------------------------------
    def search_overlap(self, query_node, k, exclude=frozenset()):
        return overlap_search(self.root, query_node, k, exclude)

    def search_coverage(self, query_node, delta, k, exclude=frozenset()):
        return coverage_search(self.root, query_node, delta, k, exclude)
