"""CoverageSearch — paper Algorithm 3 (§VI-C) for the NP-hard CJSP.

Greedy with *spatial merge*: the current result set (query ∪ chosen
datasets) is kept as one merged node; each iteration performs a single DITS
traversal (``find_connect_set``) that uses the Lemma-4 triangle-inequality
bounds to find all dataset nodes directly connected to the merged set, then
picks the one with maximum marginal gain, size-filtering candidates with
``|S_D| < tau`` before computing exact gains.

Tie-break: maximum gain, then smaller dataset id — identical to the SG /
SG+DITS baselines, so all three algorithms return the same result set.
"""
from __future__ import annotations

import numpy as np

from ..geometry import cell_coords, min_cell_distance, node_distance_bounds
from ..grid import match_cells
from .dits_local import iter_dataset_nodes
from .node import DatasetNode


def find_connect_set(node, query_node: DatasetNode, delta: float, out: list) -> None:
    """Algorithm 3's FindConnectSet: all dataset nodes with
    ``dist(S_Q, S_D) <= delta``, pruned/accepted with Lemma-4 bounds."""
    lb, ub = node_distance_bounds(node.o, node.r, query_node.o, query_node.r)
    if ub <= delta:
        out.extend(iter_dataset_nodes(node))
    elif lb <= delta:
        if node.is_leaf:
            for nd in node.ch:
                if min_cell_distance(query_node.coords, nd.coords) <= delta:
                    out.append(nd)
        else:
            find_connect_set(node.left, query_node, delta, out)
            find_connect_set(node.right, query_node, delta, out)


def marginal_gain(cells: np.ndarray, covered: np.ndarray) -> int:
    """Eq. 3: number of new cells ``cells`` adds to ``covered`` (both
    canonical cell sets)."""
    return len(cells) - len(match_cells(covered, cells))


def _pick_best(
    candidates: list[DatasetNode], covered: np.ndarray, taken: set[int]
) -> tuple[DatasetNode | None, int]:
    """Max-marginal-gain candidate with the shared size filter + tie-break."""
    best: DatasetNode | None = None
    tau = -1
    for nd in sorted(candidates, key=lambda n: (-n.size, n.id)):
        if nd.id in taken:
            continue
        if nd.size < tau:
            break  # gain <= |S_D| < tau: nothing later can win
        g = marginal_gain(nd.cells, covered)
        if g > tau or (g == tau and best is not None and nd.id < best.id):
            best, tau = nd, g
    return best, tau


def coverage_search(
    root,
    query_node: DatasetNode,
    delta: float,
    k: int,
    exclude: frozenset[int] = frozenset(),
) -> list[tuple[int, int]]:
    """Algorithm 3. Returns [(dataset_id, gain_at_selection)] in pick order.

    The selected set, together with the query, always satisfies spatial
    connectivity: every pick is directly connected to the merged result of
    the picks before it.
    """
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    covered = query_node.cells
    taken: set[int] = set(exclude)
    result: list[tuple[int, int]] = []
    # The merged set only grows, so its connected-candidate set is the
    # union of the candidates of its members: one tree search with the
    # *newly merged* node per iteration finds exactly the new candidates
    # (the "single search per iteration" the merge strategy buys — a
    # literal merged-ball search would visit the same leaves with a much
    # weaker Lemma-4 bound, since one ball around a spread-out union has a
    # huge radius and prunes nothing).
    newly_merged: DatasetNode = query_node
    cand_by_id: dict[int, DatasetNode] = {}
    for _ in range(k):
        found: list[DatasetNode] = []
        find_connect_set(root, newly_merged, delta, found)
        for nd in found:
            cand_by_id.setdefault(nd.id, nd)
        best, tau = _pick_best(list(cand_by_id.values()), covered, taken)
        if best is None:
            break  # no connected candidate remains
        result.append((best.id, tau))
        taken.add(best.id)
        covered = np.union1d(covered, best.cells)
        newly_merged = best
    return result


def coverage_of(result_ids, datasets: dict[int, np.ndarray], query_cells: np.ndarray) -> int:
    """|S_Q ∪ ⋃ S_D| — the CJSP objective value of a result set. A
    reference: it keeps its own set logic and takes cells in any form."""
    covered = {int(c) for c in query_cells}
    for did in result_ids:
        covered.update(int(c) for c in datasets[did])
    return len(covered)


def is_connected_result(
    result_ids,
    datasets: dict[int, np.ndarray],
    query_cells: np.ndarray,
    delta: float,
    theta: int,
) -> bool:
    """Exact Def. 9 check: {query} ∪ result is spatially connected.

    Builds the direct-connection graph with exact Def. 6 distances and
    verifies a single connected component.
    """
    members = [cell_coords(np.asarray(query_cells, dtype=np.int64), theta)] + [
        cell_coords(datasets[d], theta) for d in result_ids
    ]
    n = len(members)
    adj = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if min_cell_distance(members[i], members[j]) <= delta:
                adj[i][j] = adj[j][i] = True
    seen = {0}
    frontier = [0]
    while frontier:
        u = frontier.pop()
        for v in range(n):
            if adj[u][v] and v not in seen:
                seen.add(v)
                frontier.append(v)
    return len(seen) == n
