"""In-memory span tracer that wraps the public functions of each repro layer.

The tracer replaces a function wherever callers look its name up: in the
module that defines it and in every module that imported it with
``from ... import name``, the benchmark's own modules included. Methods are replaced on their class. Each call
records a span: name, start, end, the span that caused it, and the index of
the benchmark operation that caused it (-1 for set-up). A recursive call of a
traced function opens no new span, so recursion is timed once, at the top.

Nothing is patched until :meth:`Tracer.install`; :meth:`Tracer.uninstall`
restores every original.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np


def _n_sources(groot) -> int:
    stack, n = [groot], 0
    while stack:
        node = stack.pop()
        if node.is_leaf:
            n += len(node.summaries)
        else:
            stack += [node.left, node.right]
    return n


def _count(key, fn):
    def post(tr, _pre, args, kwargs, result):
        tr.counts[key] += fn(args, result)
    return post


def _min_dist_post(tr, _pre, args, kwargs, result):
    tr.counts["geometry.min_dist_pairs"] += len(args[0]) * len(args[1])
    tr.counts["geometry.min_dist_connected"] += result <= tr.delta


def _candidate_sources_post(tr, _pre, args, kwargs, result):
    tr.counts["dits_global.sources_kept"] += len(result)
    tr.counts["dits_global.sources_seen"] += _n_sources(args[0])


def _clip_post(tr, _pre, args, kwargs, result):
    tr.counts["framework.clip_cells_in"] += len(args[0])
    tr.counts["framework.clip_cells_kept"] += len(result)


def _connect_pre(args, kwargs):
    return len(args[3])


def _connect_post(tr, before, args, kwargs, result):
    tr.counts["coverage.candidates"] += len(args[3]) - before


#: (module, attribute, span name, pre hook, post hook). Pre hooks see the
#: arguments before the call; post hooks add counts after it.
HOOKS = (
    ("repro.cells", "cell_sets_from_pdf", "cells.to_cell_sets", None, None),
    ("repro.grid", "z_decode_np", "grid.z_decode", None,
     _count("grid.z_decode_cells", lambda a, r: len(a[0]))),
    ("repro.geometry", "min_cell_distance", "geometry.min_dist", None, _min_dist_post),
    ("repro.core.node", "DatasetNode.__init__", "node.dataset_node", None,
     _count("node.dataset_node_cells", lambda a, r: len(a[2]))),
    ("repro.core.node", "LeafNode.rebuild_inv", "node.rebuild_inv", None, None),
    ("repro.core.dits_local", "build_dataset_nodes", "dits_local.build_nodes", None, None),
    ("repro.core.dits_local", "build_local_index", "dits_local.split", None, None),
    ("repro.core.dits_global", "candidate_sources", "dits_global.candidate_sources",
     None, _candidate_sources_post),
    ("repro.core.framework", "clip_cells_to_summary", "framework.clip", None, _clip_post),
    ("repro.core.framework", "recode_cells", "framework.recode", None, None),
    ("repro.core.framework", "query_lonlat_geom", "framework.query_geom", None, None),
    ("repro.core.framework", "DataSource.best_coverage_candidate",
     "framework.best_candidate", None, None),
    ("repro.core.framework", "DataCenter.overlap_search", "framework.overlap_search",
     None, None),
    ("repro.core.framework", "DataCenter.coverage_search", "framework.coverage_search",
     None, _count("coverage.picks", lambda a, r: len(r[0]))),
    ("repro.core.overlap", "overlap_search", "overlap.search", None,
     _count("overlap.results", lambda a, r: len(r))),
    ("repro.core.coverage", "find_connect_set", "coverage.find_connect_set",
     _connect_pre, _connect_post),
    ("repro.core.coverage", "marginal_gain", "coverage.marginal_gain", None, None),
    ("repro.core.coverage", "coverage_search", "coverage.search", None,
     _count("coverage.picks", lambda a, r: len(r))),
    ("repro.core.update", "DitsLocalIndex.insert", "update.insert", None, None),
    ("repro.core.update", "DitsLocalIndex.update", "update.update", None, None),
    ("repro.core.update", "DitsLocalIndex.delete", "update.delete", None, None),
)

class Tracer:
    """Spans and counts of one traced run, kept in memory until :meth:`write`.

    Spans live in flat arrays, not in one object each, so that a run with
    hundreds of thousands of spans adds no work to the garbage collector.
    Span ``i`` is ``names[name_id[i]]`` from ``start[i]`` to ``end[i]``,
    caused by span ``parent[i]`` (-1 for none) within operation ``op[i]``.
    """

    def __init__(self, delta: float):
        self.delta = delta
        self.names: list[str] = []
        self.name_id = array("i")
        self.start = array("d")
        self.end_ = array("d")
        self.parent = array("q")
        self.op_of = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self.enabled = False
        self._undo: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    # -- installation -----------------------------------------------------
    def install(self) -> None:
        """Patch every hook. A function is replaced in each loaded module
        that holds it under its own name, the benchmark's modules too."""
        modules = [m for m in list(sys.modules.values()) if m is not None]
        for mod_name, attr, span, pre, post in HOOKS:
            mod = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(mod, cls_name)
                self._patch(owner, meth, self._wrap(vars(owner)[meth], span, pre, post))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(original, span, pre, post)
            for m in modules:
                if getattr(m, "__dict__", {}).get(attr) is original:
                    self._patch(m, attr, wrapper)
        self.enabled = True

    def uninstall(self) -> None:
        self.enabled = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _nid(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        i = len(self.start)
        self.name_id.append(nid)
        self.start.append(perf_counter())
        self.end_.append(0.0)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op_of.append(self.op)
        self.stack.append(i)
        return i

    def _close(self, i: int) -> None:
        self.end_[i] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name, pre, post):
        tracer, nid = self, self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if not tracer.enabled or (stack and tracer.name_id[stack[-1]] == nid):
                return fn(*args, **kwargs)
            token = pre(args, kwargs) if pre is not None else None
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if post is not None:
                post(tracer, token, args, kwargs, result)
            return result

        return wrapper

    # -- operation spans from the benchmark loop --------------------------
    def begin(self, name: str, op: int) -> int:
        self.op = op
        return self._open(self._nid(name))

    def end(self, i: int) -> None:
        self._close(i)
        self.op = -1

    # -- results ------------------------------------------------------------
    def aggregate(self) -> dict[str, dict[str, float]]:
        """Per span name: number of spans, total seconds and self seconds
        (duration minus the time covered by direct child spans)."""
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end_) - np.frombuffer(self.start)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        child = np.zeros(len(dur))
        np.add.at(child, parent[parent >= 0], dur[parent >= 0])
        m = len(self.names)
        n = np.bincount(nid, minlength=m)
        total = np.bincount(nid, weights=dur, minlength=m)
        own = np.bincount(nid, weights=dur - child, minlength=m)
        return {name: {"n": int(n[k]), "s": float(total[k]), "self_s": float(own[k])}
                for k, name in enumerate(self.names) if n[k]}

    def time_under(self, name: str, op_name: str) -> tuple[float, float]:
        """(seconds in ``name`` spans inside ``op_name`` spans, seconds in
        ``op_name`` spans)."""
        if name not in self.names or op_name not in self.names:
            return 0.0, 0.0
        nid = np.frombuffer(self.name_id, dtype=np.int32)
        dur = np.frombuffer(self.end_) - np.frombuffer(self.start)
        op_of = np.frombuffer(self.op_of, dtype=np.int64)
        is_op = nid == self.names.index(op_name)
        inner = (nid == self.names.index(name)) & np.isin(op_of, op_of[is_op])
        return float(dur[inner].sum()), float(dur[is_op].sum())

    def write(self, path) -> None:
        """Write every span as one tab-separated line, gzip-compressed."""
        t0 = self.start[0] if len(self) else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\top\n")
            for i in range(len(self)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end_[i] - t0:.9f}\t{self.parent[i]}\t{self.op_of[i]}\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced run; a layer that did not run
    reports 0."""
    agg = tr.aggregate()
    c = tr.counts

    def n(name):
        return agg[name]["n"] if name in agg else 0

    def s(name, key="s"):
        return agg[name][key] if name in agg else 0.0

    min_dist_cjsp, cjsp_total = tr.time_under("geometry.min_dist", "op.cjsp")
    return {
        "cells.to_cell_sets_s": s("cells.to_cell_sets"),
        "dits_local.build_nodes_s": s("dits_local.build_nodes"),
        "dits_local.split_s": s("dits_local.split", "self_s"),
        "dits_local.split_calls": n("dits_local.split"),
        "node.dataset_node_calls": n("node.dataset_node"),
        "node.dataset_node_cells": c["node.dataset_node_cells"],
        "node.dataset_node_s": s("node.dataset_node"),
        "node.rebuild_inv_calls": n("node.rebuild_inv"),
        "node.rebuild_inv_s": s("node.rebuild_inv"),
        "grid.z_decode_calls": n("grid.z_decode"),
        "grid.z_decode_cells": c["grid.z_decode_cells"],
        "grid.z_decode_s": s("grid.z_decode"),
        "dits_global.candidate_sources_s": s("dits_global.candidate_sources"),
        "dits_global.sources_kept_ratio": _ratio(c["dits_global.sources_kept"],
                                                 c["dits_global.sources_seen"]),
        "framework.clip_s": s("framework.clip"),
        "framework.clip_kept_ratio": _ratio(c["framework.clip_cells_kept"],
                                            c["framework.clip_cells_in"]),
        "framework.recode_s": s("framework.recode"),
        "framework.query_geom_s": s("framework.query_geom"),
        "framework.best_candidate_s": s("framework.best_candidate"),
        "overlap.search_calls": n("overlap.search"),
        "overlap.search_s": s("overlap.search"),
        "overlap.results_per_call": _ratio(c["overlap.results"], n("overlap.search")),
        "coverage.find_connect_set_calls": n("coverage.find_connect_set"),
        "coverage.find_connect_set_self_s": s("coverage.find_connect_set", "self_s"),
        "coverage.candidates_per_search": _ratio(c["coverage.candidates"],
                                                 n("coverage.find_connect_set")),
        "coverage.marginal_gain_calls": n("coverage.marginal_gain"),
        "coverage.marginal_gain_s": s("coverage.marginal_gain"),
        "coverage.gain_useful_ratio": _ratio(c["coverage.picks"], n("coverage.marginal_gain")),
        "coverage.search_s": s("coverage.search"),
        "geometry.min_dist_calls": n("geometry.min_dist"),
        "geometry.min_dist_pairs": c["geometry.min_dist_pairs"],
        "geometry.min_dist_s": s("geometry.min_dist"),
        "geometry.min_dist_connected_ratio": _ratio(c["geometry.min_dist_connected"],
                                                    n("geometry.min_dist")),
        "geometry.min_dist_share_cjsp": _ratio(min_dist_cjsp, cjsp_total),
        "update.insert_s": s("update.insert"),
        "update.update_s": s("update.update"),
        "update.delete_s": s("update.delete"),
    }
