"""The Appendix IX-B reduction MCP -> CJSP, exercised end to end.

We build CJSP instances from MCP instances exactly as the proof does
(universe elements mapped to cell IDs, query = complement cells, delta
large enough that connectivity always holds), then check that

1. the greedy CJSP solution's *marginal* coverage equals greedy MCP's
   coverage (the reduction preserves objective values), and
2. greedy achieves >= (1 - 1/e) of the exact optimum on instances small
   enough to brute-force (Theorem 1's guarantee, whose connectivity
   precondition is trivially satisfied at this delta).
"""
import itertools

import numpy as np
import pytest

from repro.core.coverage import coverage_of, coverage_search
from repro.core.dits_local import build_dits_l
from repro.core.overlap import query_node_from_cells


def _mcp_to_cjsp(sets: dict[int, set[int]], theta: int):
    """The proof's construction: U -> cell IDs, A_Q = all cells \\ U."""
    universe = sorted(set().union(*sets.values()))
    mapping = {u: i for i, u in enumerate(universe)}
    n_cells = (1 << theta) * (1 << theta)
    assert n_cells > len(universe)
    datasets = {
        sid: np.array(sorted(mapping[u] for u in s), dtype=np.int64)
        for sid, s in sets.items()
    }
    query = np.setdiff1d(np.arange(n_cells, dtype=np.int64), np.arange(len(universe)))
    delta = float((1 << theta) * np.sqrt(2))
    return datasets, query, delta, len(universe)


def _greedy_mcp(sets: dict[int, set[int]], k: int) -> int:
    covered: set[int] = set()
    chosen: set[int] = set()
    for _ in range(k):
        best, gain = None, -1
        for sid in sorted(sets):
            if sid in chosen:
                continue
            g = len(sets[sid] - covered)
            if g > gain:
                best, gain = sid, g
        if best is None:
            break
        chosen.add(best)
        covered |= sets[best]
    return len(covered)


def _exact_mcp(sets: dict[int, set[int]], k: int) -> int:
    best = 0
    for combo in itertools.combinations(sorted(sets), min(k, len(sets))):
        best = max(best, len(set().union(*(sets[c] for c in combo))))
    return best


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_reduction_preserves_greedy_objective(seed, k):
    g = np.random.default_rng(seed)
    sets = {i: set(g.choice(30, g.integers(2, 9)).tolist()) for i in range(8)}
    theta = 3  # 64 cells > 30 universe elements
    datasets, query, delta, _ = _mcp_to_cjsp(sets, theta)
    root = build_dits_l(datasets, theta, 4)
    qn = query_node_from_cells(query, theta)
    res = coverage_search(root, qn, delta, k)
    marginal = coverage_of([d for d, _ in res], datasets, query) - len(query)
    assert marginal == _greedy_mcp(sets, k)


@pytest.mark.parametrize("seed", range(5))
def test_greedy_approximation_guarantee(seed):
    g = np.random.default_rng(seed + 50)
    sets = {i: set(g.choice(24, g.integers(2, 8)).tolist()) for i in range(7)}
    k = 3
    theta = 3
    datasets, query, delta, _ = _mcp_to_cjsp(sets, theta)
    root = build_dits_l(datasets, theta, 4)
    qn = query_node_from_cells(query, theta)
    res = coverage_search(root, qn, delta, k)
    marginal = coverage_of([d for d, _ in res], datasets, query) - len(query)
    opt = _exact_mcp(sets, k)
    assert marginal >= (1 - 1 / np.e) * opt - 1e-9


def test_connectivity_trivially_satisfied_at_reduction_delta():
    from repro.core.coverage import is_connected_result

    sets = {0: {0, 1}, 1: {2}}
    datasets, query, delta, _ = _mcp_to_cjsp(sets, 3)
    assert is_connected_result(list(datasets), datasets, query, delta, 3)
