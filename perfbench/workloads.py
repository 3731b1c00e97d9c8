"""The benchmark's workloads: inputs, operations and correctness checks.

Every workload uses theta=12, f=10, k=10 and delta=5 (Table II defaults).
Its corpora come from ``generate_corpus_pdf(seed=...)`` and its queries from
``pick_queries(seed=...)``; a query is a corpus dataset, excluded from its
own answer. A workload is driven as a closed loop with one client: the next
operation starts when the previous one has returned.

A workload's timed phase is made of rounds. One round runs a fixed, seeded
list of ``round_len`` operations; ``reset`` puts the indexes back before
each round, so every round does exactly the same work. Two operations with
the same kind and key do the same work, wherever they run.

Each workload provides:

- ``points(seed)`` — the generated points of each corpus (not timed);
- ``setup(points)`` — cell sets plus every index build (timed as set-up);
- ``build(state)`` — the index build alone, for the memory measurement;
- ``ops(states, queries, seed)`` — the seeded stream of :class:`Op`;
- ``references(states, queries, seed)`` — expected answers, and how many
  of the reference checks themselves failed (not timed);
- ``check(states, records, refs)`` — how many ops of one round were wrong.
"""
from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import count, cycle, islice
from time import perf_counter
from typing import Callable

import numpy as np

from repro import sizing
from repro.baselines.greedy import SGCoverage
from repro.cells import cell_sets_from_pdf
from repro.core.coverage import is_connected_result
from repro.core.framework import make_center
from repro.core.overlap import brute_force_topk, query_node_from_cells
from repro.core.update import DitsLocalIndex
from repro.synth_spatial import SPACE, generate_corpus_pdf, pick_queries

THETA = 12
F = 10
K = 10
DELTA = 5


@dataclass
class Op:
    kind: str
    key: tuple
    run: Callable[[], object]


@dataclass
class Record:
    op: Op
    seconds: float
    out: object
    error: Exception | None


def run_op(op: Op) -> Record:
    t0 = perf_counter()
    try:
        out, err = op.run(), None
    except Exception as e:  # a failed op is counted, not fatal
        out, err = None, e
    return Record(op, perf_counter() - t0, out, err)


class State:
    """One corpus and the indexes ``build`` made over it."""

    def __init__(self, corpus: dict[str, dict[int, np.ndarray]]):
        self.corpus = corpus
        self.union = {d: c for src in corpus.values() for d, c in src.items()}


class Workload:
    name = ""
    scale = 0.0
    cap = 0
    #: Independent corpora; queries take them in turn.
    replicas = 1
    n_queries = 0
    #: Operation kinds that ``p50_ms`` and ``tail_ms`` report.
    p50_of: tuple[str, ...] = ()
    tail_of: tuple[str, ...] = ()

    def seeds(self, seed: int) -> list[int]:
        """Corpus ``j`` and its queries use seed ``seed * replicas + j``;
        with one replica that is ``seed`` itself."""
        return [seed * self.replicas + j for j in range(self.replicas)]

    def points(self, seed: int) -> list:
        return [generate_corpus_pdf(scale=self.scale, seed=s, max_points_per_dataset=self.cap)
                for s in self.seeds(seed)]

    def queries(self, points: list, seed: int) -> list[tuple[int, int]]:
        """(corpus, dataset id) pairs, taking the corpora in turn."""
        per = [pick_queries(p, self.n_queries, seed=s) for p, s in zip(points, self.seeds(seed))]
        return [(j, q) for row in zip(*per) for j, q in enumerate(row)]

    def setup(self, points: list) -> list[State]:
        states = [State(cell_sets_from_pdf(p, SPACE, THETA)) for p in points]
        for st in states:
            self.build(st)
        return states

    def build(self, state: State) -> None:
        raise NotImplementedError

    def model_bytes(self, state: State) -> int:
        """``sizing.py``'s structural model of the indexes ``build`` made."""
        raise NotImplementedError

    def round_len(self, queries: list) -> int:
        return len(queries)

    def round_ops(self, states: list[State], queries: list, seed: int) -> list[Op]:
        self.reset(states)
        return list(islice(self.ops(states, queries, seed), self.round_len(queries)))

    def reset(self, states: list[State]) -> None:
        """Undo what a round changed; searches change nothing."""


def _center_bytes(center) -> int:
    return sum(sizing.dits_bytes(s.index.root) for s in center.sources.values())


def sharing_cells(union: dict[int, np.ndarray]) -> Callable[[np.ndarray], list[int]]:
    """A function giving the ids of the ``union`` datasets that share at
    least one cell with its argument, from one sorted copy of all cells."""
    cells = np.concatenate(list(union.values()))
    ids = np.repeat(np.fromiter(union, dtype=np.int64, count=len(union)),
                    [len(c) for c in union.values()])
    order = np.argsort(cells, kind="stable")
    cells, ids = cells[order], ids[order]

    def of(query: np.ndarray) -> list[int]:
        lo = np.searchsorted(cells, query, side="left")
        hi = np.searchsorted(cells, query, side="right")
        return sorted({d for a, b in zip(lo, hi) for d in ids[a:b].tolist()})

    return of


class OjspLarge(Workload):
    """OJSP through ``DataCenter.overlap_search`` on large corpora. Two
    corpora, so that no single seed's hotspot layout decides the tail."""

    name = "ojsp_large"
    scale = 0.1
    cap = 1500
    replicas = 2
    n_queries = 200
    brute_every = 20
    p50_of = tail_of = ("ojsp",)

    def build(self, state):
        state.center = make_center(state.corpus, THETA, F, SPACE)

    def model_bytes(self, state):
        return _center_bytes(state.center)

    def ops(self, states, queries, seed):
        for j, q in cycle(queries):
            center, cells = states[j].center, states[j].union[q]
            yield Op("ojsp", (j, q),
                     lambda c=center, x=cells, q=q: c.overlap_search(x, K, frozenset([q])))

    def references(self, states, queries, seed):
        """``brute_force_topk`` over the corpus datasets that share a cell
        with the query: the others have overlap 0, which it leaves out of
        its answer anyway. Every ``brute_every``-th query must give the same
        answer by ``brute_force_topk`` over the whole corpus."""
        sharing = [sharing_cells(st.union) for st in states]
        refs, failed = {}, 0
        for i, (j, q) in enumerate(queries):
            union, ex = states[j].union, frozenset([q])
            near = {d: union[d] for d in sharing[j](union[q])}
            refs[j, q] = brute_force_topk(union[q], near, K, ex)
            if i % self.brute_every == 0:
                failed += brute_force_topk(union[q], union, K, ex) != refs[j, q]
        return refs, failed

    def check(self, states, records, refs):
        return sum(r.error is not None or r.out[0] != refs[r.op.key] for r in records)


class CjspSmall(Workload):
    """Each query through center CJSP and through local Algorithm 3, over
    many small corpora, so that no single corpus's layout decides the cost."""

    name = "cjsp_small"
    scale = 0.012
    cap = 40
    replicas = 24
    n_queries = 10
    local_passes = 2
    n_sg = 5
    p50_of = ("cjsp_local",)
    tail_of = ("cjsp",)

    def build(self, state):
        state.center = make_center(state.corpus, THETA, F, SPACE)
        state.local = DitsLocalIndex(state.union, THETA, F)

    def model_bytes(self, state):
        return _center_bytes(state.center) + sizing.dits_bytes(state.local.root)

    def round_len(self, queries):
        return (1 + self.local_passes) * len(queries)

    def ops(self, states, queries, seed):
        """A round sends every query through the center once, then through
        local Algorithm 3 ``local_passes`` times: the local search is cheap,
        and this gives its median several timed samples per run."""
        while True:
            for j, q in queries:
                st = states[j]
                yield Op("cjsp", (j, q),
                         lambda c=st.center, x=st.union[q], ex=frozenset([q]):
                         c.coverage_search(x, DELTA, K, ex, strategy="merge"))
            for _ in range(self.local_passes):
                for j, q in queries:
                    st = states[j]
                    yield Op("cjsp_local", (j, q),
                             lambda i=st.local, x=st.union[q], ex=frozenset([q]):
                             i.search_coverage(query_node_from_cells(x, THETA), DELTA, K, ex))

    def references(self, states, queries, seed):
        """Local Algorithm 3's answer, which must be connected (exact Def. 9
        check) and, on the first ``n_sg`` queries, equal index-free SG."""
        refs, failed = {}, 0
        for i, (j, q) in enumerate(queries):
            union, ex = states[j].union, frozenset([q])
            qn = query_node_from_cells(union[q], THETA)
            refs[j, q] = states[j].local.search_coverage(qn, DELTA, K, ex)
            ok = is_connected_result([d for d, _ in refs[j, q]], union, union[q], DELTA, THETA)
            if i < self.n_sg:
                ok = ok and SGCoverage(union, THETA).search(qn, DELTA, K, ex) == refs[j, q]
            failed += not ok
        return refs, failed

    def check(self, states, records, refs):
        """The center answer and the local answer must both equal the
        reference."""
        failed = 0
        for r in records:
            got = r.out[0] if r.op.kind == "cjsp" and r.error is None else r.out
            failed += r.error is not None or got != refs[r.op.key]
        return failed


class UpdateMix(Workload):
    """A seeded read/insert/update/delete stream on one ``DitsLocalIndex``."""

    name = "update_mix"
    scale = 0.05
    cap = 400
    p50_of = tail_of = ("insert", "update", "delete")
    ops_per_round = 2000
    mix = (("read", 0.4), ("insert", 0.2), ("update", 0.3), ("delete", 0.1))
    new_id_base = 10_000_000
    brute_every = 25
    n_final_queries = 30

    def queries(self, points, seed):
        return []

    def build(self, state):
        state.index = DitsLocalIndex(state.union, THETA, F)

    def model_bytes(self, state):
        return sizing.dits_bytes(state.index.root)

    def round_len(self, queries):
        return self.ops_per_round

    def reset(self, states):
        self.build(states[0])

    def ops(self, states, queries, seed):
        """Reads query with a corpus dataset; writes take their cells from a
        corpus dataset; updates and deletes hit a live dataset."""
        rng = np.random.default_rng(seed)
        idx, union = states[0].index, states[0].union
        pool = sorted(union)
        live = list(pool)
        where = {d: i for i, d in enumerate(live)}
        next_id = self.new_id_base
        edges = np.cumsum([p for _, p in self.mix])
        for seq in count():
            kind = self.mix[int(np.searchsorted(edges, rng.random(), side="right"))][0]
            src = pool[int(rng.integers(len(pool)))]
            cells = union[src]
            if kind == "read":
                yield Op(kind, (src, seq), lambda c=cells, s=src: idx.search_overlap(
                    query_node_from_cells(c, THETA), K, frozenset([s])))
            elif kind == "insert":
                did, next_id = next_id, next_id + 1
                where[did] = len(live)
                live.append(did)
                yield Op(kind, (did, src, seq), lambda d=did, c=cells: idx.insert(d, c))
            else:
                did = live[int(rng.integers(len(live)))]
                if kind == "update":
                    yield Op(kind, (did, src, seq), lambda d=did, c=cells: idx.update(d, c))
                    continue
                last = live.pop()
                if last != did:
                    live[where[did]] = last
                    where[last] = where[did]
                del where[did]
                yield Op(kind, (did, seq), lambda d=did: idx.delete(d))

    def final_queries(self, union) -> list[int]:
        return sorted(union)[:: max(1, len(union) // self.n_final_queries)]

    def references(self, states, queries, seed):
        """Replay one round on a plain dict. Each read's answer is the top-k
        from a cell -> ids map of the replayed datasets; every
        ``brute_every``-th read must give the same from ``brute_force_topk``.
        The final datasets answer ``final_queries`` by brute force, and a
        fresh ``DitsLocalIndex`` built from them must agree."""
        union = states[0].union
        model = dict(union)
        inv: dict[int, set[int]] = defaultdict(set)

        def index_cells(did, add):
            for c in model[did].tolist():
                (inv[c].add if add else inv[c].discard)(did)

        for did in model:
            index_cells(did, True)
        reads, failed = {}, 0
        for pos, op in enumerate(islice(self.ops(states, queries, seed), self.ops_per_round)):
            if op.kind == "read":
                src = op.key[0]
                counts = Counter(d for c in union[src].tolist() for d in inv.get(c, ()))
                counts.pop(src, None)
                reads[pos] = sorted(counts.items(), key=lambda t: (-t[1], t[0]))[:K]
                if len(reads) % self.brute_every == 1:
                    failed += brute_force_topk(union[src], model, K, frozenset([src])) != reads[pos]
                continue
            did = op.key[0]
            if op.kind in ("update", "delete"):
                index_cells(did, False)
            if op.kind == "delete":
                del model[did]
            else:
                model[did] = union[op.key[1]]
                index_cells(did, True)
        final = {}
        fresh = DitsLocalIndex(model, THETA, F)
        for src in self.final_queries(union):
            ex = frozenset([src])
            final[src] = brute_force_topk(union[src], model, K, ex)
            got = fresh.search_overlap(query_node_from_cells(union[src], THETA), K, ex)
            failed += got != final[src]
        return {"reads": reads, "model": model, "final": final}, failed

    def check(self, states, records, refs):
        """Reads against the replay; after the round, the index must hold
        the replayed datasets and answer ``final_queries`` as brute force."""
        failed = sum(r.error is not None for r in records)
        failed += sum(r.error is None and r.out != refs["reads"][pos]
                      for pos, r in enumerate(records) if r.op.kind == "read")
        index, model = states[0].index, refs["model"]
        got = index.datasets
        failed += got.keys() != model.keys() or any(
            not np.array_equal(got[d], model[d]) for d in model)
        for src, want in refs["final"].items():
            qn = query_node_from_cells(states[0].union[src], THETA)
            failed += index.search_overlap(qn, K, frozenset([src])) != want
        return failed


WORKLOADS = {w.name: w for w in (OjspLarge(), CjspSmall(), UpdateMix())}
