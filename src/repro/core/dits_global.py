"""DITS-G — the data center's global index (paper §V-B).

Each data source sends only its local root node; the center converts the
root MBR/pivot into lon/lat (so sources may use different resolutions) and
builds the same top-down binary tree over these *root summaries*, without
leaf inverted indexes. The global index answers one question: which data
sources might contain query results (MBR intersection for OJSP, Lemma-4
connectivity lower bound for CJSP).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import mbr_intersects, pivot_of_mbr, radius_of_mbr
from ..grid import Bounds
from .dits_local import enclosing_rect, median_split


@dataclass
class RootSummary:
    """What one source ships to the data center: its root node, in lon/lat."""

    source_id: str
    rect: np.ndarray  # lon/lat MBR covering the full area of the root's cells
    o: np.ndarray
    r: float
    theta: int
    n_datasets: int
    cell_deg: float  # max(cell width, cell height) in degrees

    @classmethod
    def from_grid_rect(
        cls, source_id: str, g, bounds: Bounds, theta: int, n_datasets: int
    ) -> "RootSummary":
        nu, mu = bounds.cell_size(theta)
        rect = np.array(
            [
                bounds.x0 + g[0] * nu,
                bounds.y0 + g[1] * mu,
                bounds.x0 + (g[2] + 1) * nu,  # +1: cover the whole last cell
                bounds.y0 + (g[3] + 1) * mu,
            ]
        )
        return cls(
            source_id=source_id,
            rect=rect,
            o=pivot_of_mbr(rect),
            r=radius_of_mbr(rect),
            theta=theta,
            n_datasets=n_datasets,
            cell_deg=max(nu, mu),
        )


class GlobalNode:
    __slots__ = ("rect", "o", "r", "left", "right", "summaries")

    def __init__(self, rect: np.ndarray, summaries=None):
        self.rect = rect
        self.o = pivot_of_mbr(rect)
        self.r = radius_of_mbr(rect)
        self.left = None
        self.right = None
        self.summaries: list[RootSummary] | None = summaries

    @property
    def is_leaf(self) -> bool:
        return self.summaries is not None


def build_global_index(summaries: list[RootSummary], f: int = 10) -> GlobalNode:
    """Algorithm 1's tree over root summaries, with no leaf inverted index."""
    rect = enclosing_rect(summaries)
    if len(summaries) <= f:
        return GlobalNode(rect, list(summaries))
    node = GlobalNode(rect)
    left, right = median_split(summaries, rect)
    node.left = build_global_index(left, f)
    node.right = build_global_index(right, f)
    return node


def candidate_sources(
    root: GlobalNode,
    q_rect: np.ndarray,
    q_o: np.ndarray,
    q_r: float,
    delta_deg: float,
) -> list[RootSummary]:
    """§VI-A query distribution, step 1: sources that may hold results.

    A node is kept if its MBR intersects the query MBR *or* the Lemma-4
    lower bound on the distance to the query is within ``delta_deg``
    (pass ``delta_deg < 0`` for OJSP, where only intersection matters).
    """
    out: list[RootSummary] = []
    stack = [root]
    while stack:
        node = stack.pop()
        hit = mbr_intersects(node.rect, q_rect)
        if not hit and delta_deg >= 0:
            d = float(np.hypot(*(node.o - q_o)))
            hit = max(d - node.r - q_r, 0.0) <= delta_deg
        if not hit:
            continue
        if node.is_leaf:
            for s in node.summaries:
                ok = mbr_intersects(s.rect, q_rect)
                if not ok and delta_deg >= 0:
                    d = float(np.hypot(*(s.o - q_o)))
                    ok = max(d - s.r - q_r, 0.0) <= delta_deg
                if ok:
                    out.append(s)
        else:
            stack.append(node.left)
            stack.append(node.right)
    return sorted(out, key=lambda s: s.source_id)
