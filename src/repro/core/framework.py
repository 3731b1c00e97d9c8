"""Multi-source joinable search framework (paper §IV, §VI-A).

A :class:`DataCenter` holds DITS-G built from the root summaries the
:class:`DataSource` objects send up; searches run in rounds of
center→source messages whose payloads are metered by :class:`~repro.comm.CommLog`.
The center reaches its sources through a *transport* with one batched call
per message kind:

- ``overlap(tasks, k, exclude)`` — OJSP: each source's local top-k;
- ``best(tasks, delta, taken, use_index)`` — one CJSP greedy round: each
  source's best candidate, and how many ``taken`` ids it holds;
- ``cells(source_id, dataset_id)`` — the cells of the round's winner.

``tasks`` is a list of (source_id, query cells at that source's
resolution); replies come back in task order. :class:`LocalTransport` calls
the :class:`DataSource` methods in this process; ``spark_ops.SparkTransport``
runs the same methods inside Spark tasks.

Query-distribution strategies (the knobs behind Figs 13/14, 19/20):

- ``use_global``: prune candidate sources with DITS-G instead of
  broadcasting to every source (fewer messages);
- ``clip``: send only the query cells that can matter to a source — for
  OJSP the cells inside the source root MBR, for CJSP the merged-result
  cells within ``delta`` of it (fewer bytes). Both clips are lossless:
  a source's datasets lie inside its root MBR, so clipped-away cells can
  neither intersect its datasets nor connect to them within ``delta``.

Local CJSP selection strategies mirror the paper's three competitors:
``"merge"`` (CoverageSearch: one index search on the merged node),
``"sg_dits"`` (index-accelerated greedy, full query sent), and ``"sg"``
(index-free exact scan, full query broadcast to all sources).
"""
from __future__ import annotations

import numpy as np

from ..comm import CELL_BYTES, ID_BYTES, RESULT_ROW_BYTES, SCALAR_BYTES, CommLog
from ..geometry import min_cell_distance
from ..grid import Bounds, canonical_cells, cell_ids_np, cells_to_lonlat_center
from .coverage import _pick_best, find_connect_set
from .dits_global import RootSummary, build_global_index, candidate_sources
from .dits_local import iter_dataset_nodes
from .node import DatasetNode
from .overlap import query_node_from_cells
from .update import DitsLocalIndex


def recode_cells(cells: np.ndarray, bounds: Bounds, theta_from: int, theta_to: int) -> np.ndarray:
    """Re-encode a canonical cell set between resolutions via cell centers
    (§V-B); the result is canonical too."""
    if theta_from == theta_to:
        return cells
    x, y = cells_to_lonlat_center(cells, bounds, theta_from)
    return canonical_cells(cell_ids_np(x, y, bounds, theta_to))


def query_lonlat_geom(cells: np.ndarray, bounds: Bounds, theta: int):
    """(rect, pivot, radius) of a cell set in lon/lat, via cell centers."""
    x, y = cells_to_lonlat_center(cells, bounds, theta)
    rect = np.array([x.min(), y.min(), x.max(), y.max()])
    o = np.array([(rect[0] + rect[2]) / 2, (rect[1] + rect[3]) / 2])
    r = float(np.hypot(rect[2] - rect[0], rect[3] - rect[1]) / 2)
    return rect, o, r


def clip_cells_to_summary(
    cells: np.ndarray, s: RootSummary, pad_deg: float, bounds: Bounds, theta: int
) -> np.ndarray:
    """§VI-A strategy 2: keep only cells within ``pad_deg`` of the source's
    root MBR (pad 0 for OJSP; ``delta`` converted to degrees for CJSP)."""
    x, y = cells_to_lonlat_center(cells, bounds, theta)
    m = (
        (x >= s.rect[0] - pad_deg)
        & (x <= s.rect[2] + pad_deg)
        & (y >= s.rect[1] - pad_deg)
        & (y <= s.rect[3] + pad_deg)
    )
    return cells[m]


def delta_to_deg(delta: float, bounds: Bounds, theta: int) -> float:
    """Conservative lon/lat equivalent of a grid-unit distance."""
    nu, mu = bounds.cell_size(theta)
    return delta * max(nu, mu)


class DataSource:
    """One autonomous data source: its datasets plus its own DITS-L."""

    def __init__(
        self,
        name: str,
        datasets: dict[int, np.ndarray],
        theta: int,
        f: int,
        bounds: Bounds,
    ):
        self.name = name
        self.theta = theta
        self.bounds = bounds
        self.index = DitsLocalIndex(datasets, theta, f)

    def summary(self) -> RootSummary:
        """The root node this source ships to the data center."""
        return RootSummary.from_grid_rect(
            self.name, self.index.root.rect, self.bounds, self.theta, len(self.index)
        )

    def get_cells(self, dataset_id: int) -> np.ndarray:
        return self.index._nodes[dataset_id].cells

    def local_overlap(self, query_cells: np.ndarray, k: int, exclude: frozenset[int]):
        if len(query_cells) == 0 or len(self.index) == 0:
            return []
        qn = query_node_from_cells(query_cells, self.theta)
        return self.index.search_overlap(qn, k, exclude)

    def best_coverage_candidate(
        self,
        covered_cells: np.ndarray,
        delta: float,
        taken: set[int],
        use_index: bool,
    ) -> tuple[tuple[int, int, int] | None, int]:
        """One greedy round, locally: ((dataset_id, gain, |S_D|) or None,
        the number of ``taken`` ids this source holds)."""
        held = sum(d in self.index._nodes for d in taken)
        merged = DatasetNode(-1, covered_cells, self.theta)
        if use_index:
            cands: list[DatasetNode] = []
            find_connect_set(self.index.root, merged, delta, cands)
        else:
            cands = [
                nd
                for nd in iter_dataset_nodes(self.index.root)
                if min_cell_distance(merged.coords, nd.coords) <= delta
            ]
        best, tau = _pick_best(cands, merged.cells, taken)
        if best is None:
            return None, held
        return (best.id, tau, best.size), held


class LocalTransport:
    """Reaches each source by calling its :class:`DataSource` methods."""

    def __init__(self, sources: list[DataSource]):
        self.sources = {s.name: s for s in sources}

    def overlap(self, tasks, k, exclude):
        return [self.sources[sid].local_overlap(cells, k, exclude) for sid, cells in tasks]

    def best(self, tasks, delta, taken, use_index):
        return [
            self.sources[sid].best_coverage_candidate(cells, delta, taken, use_index)
            for sid, cells in tasks
        ]

    def cells(self, source_id, dataset_id):
        return self.sources[source_id].get_cells(dataset_id)


class DataCenter:
    """The coordinator: holds DITS-G and runs the two search protocols.

    ``sources`` is the transport's handle on each source: the
    :class:`DataSource` itself in process, its pickle path under Spark.
    """

    def __init__(self, summaries: list[RootSummary], transport, theta: int, bounds: Bounds):
        summaries = sorted(summaries, key=lambda s: s.source_id)
        self.summaries = {s.source_id: s for s in summaries}
        self.global_root = build_global_index(summaries)
        self.transport = transport
        self.sources = transport.sources
        # The center interprets raw queries at this resolution/space.
        self.theta = theta
        self.bounds = bounds

    def _tasks(self, cands, cells: np.ndarray, pad_deg: float | None):
        """(source_id, cells) per candidate source: clipped to within
        ``pad_deg`` of its root MBR unless ``pad_deg`` is None (sources the
        clip leaves nothing for are not contacted), then recoded to the
        source's resolution."""
        tasks = []
        for s in cands:
            sent = cells
            if pad_deg is not None:
                sent = clip_cells_to_summary(cells, s, pad_deg, self.bounds, self.theta)
                if len(sent) == 0:
                    continue
            tasks.append((s.source_id, recode_cells(sent, self.bounds, self.theta, s.theta)))
        return tasks

    # -- OJSP (§VI-B over §VI-A distribution) ------------------------------
    def overlap_search(
        self,
        query_cells: np.ndarray,
        k: int,
        exclude: frozenset[int] = frozenset(),
        *,
        use_global: bool = True,
        clip: bool = True,
        comm: CommLog | None = None,
    ) -> tuple[list[tuple[int, int]], CommLog]:
        comm = comm if comm is not None else CommLog()
        query_cells = canonical_cells(query_cells, self.theta)
        if k <= 0 or len(query_cells) == 0:
            return [], comm
        if use_global:
            rect, o, r = query_lonlat_geom(query_cells, self.bounds, self.theta)
            cands = candidate_sources(self.global_root, rect, o, r, -1.0)
        else:
            cands = self.summaries.values()
        tasks = self._tasks(cands, query_cells, 0.0 if clip else None)
        merged: list[tuple[int, int]] = []
        for (sid, sent), res in zip(tasks, self.transport.overlap(tasks, k, exclude)):
            comm.send("center", sid, "ojsp-query", len(sent) * CELL_BYTES + 2 * SCALAR_BYTES)
            comm.send(sid, "center", "ojsp-results", len(res) * RESULT_ROW_BYTES)
            merged.extend(res)
        merged.sort(key=lambda t: (-t[1], t[0]))
        return merged[:k], comm

    # -- CJSP (§VI-C over §VI-A distribution) ------------------------------
    def coverage_search(
        self,
        query_cells: np.ndarray,
        delta: float,
        k: int,
        exclude: frozenset[int] = frozenset(),
        *,
        strategy: str = "merge",
        comm: CommLog | None = None,
    ) -> tuple[list[tuple[int, int]], CommLog]:
        assert strategy in ("merge", "sg_dits", "sg")
        if delta < 0:
            raise ValueError(f"delta must be >= 0, got {delta}")
        comm = comm if comm is not None else CommLog()
        covered = canonical_cells(query_cells, self.theta)
        if k <= 0 or len(covered) == 0:
            return [], comm
        taken: set[int] = set(exclude)
        result: list[tuple[int, int]] = []
        pad = delta_to_deg(delta, self.bounds, self.theta)
        for _ in range(k):
            if strategy == "sg":
                cands = self.summaries.values()
            else:
                rect, o, r = query_lonlat_geom(covered, self.bounds, self.theta)
                cands = candidate_sources(self.global_root, rect, o, r, pad)
            tasks = self._tasks(cands, covered, pad if strategy == "merge" else None)
            replies = self.transport.best(tasks, delta, taken, strategy != "sg")
            best: tuple[int, int, str] | None = None  # (gain, id, source)
            for (sid, sent), (reply, held) in zip(tasks, replies):
                comm.send(
                    "center",
                    sid,
                    "cjsp-query",
                    len(sent) * CELL_BYTES + held * ID_BYTES + 3 * SCALAR_BYTES,
                )
                comm.send(sid, "center", "cjsp-best", 3 * SCALAR_BYTES)
                if reply is None:
                    continue
                did, gain, _size = reply
                if best is None or gain > best[0] or (gain == best[0] and did < best[1]):
                    best = (gain, did, sid)
            if best is None:
                break
            gain, did, sid = best
            comm.send("center", sid, "cjsp-fetch", ID_BYTES)
            cells_won = self.transport.cells(sid, did)
            comm.send(sid, "center", "cjsp-cells", len(cells_won) * CELL_BYTES)
            covered = np.union1d(covered, cells_won)
            taken.add(did)
            result.append((did, gain))
        return result, comm


def make_center(
    corpus: dict[str, dict[int, np.ndarray]],
    theta: int,
    f: int,
    bounds: Bounds,
) -> DataCenter:
    """Build sources + center from {source_id: {dataset_id: cells}}."""
    sources = [
        DataSource(name, datasets, theta, f, bounds)
        for name, datasets in sorted(corpus.items())
    ]
    return DataCenter([s.summary() for s in sources], LocalTransport(sources), theta, bounds)
