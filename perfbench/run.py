"""Run one benchmark workload and print its metrics as JSON.

Usage, from the repository root::

    python3 perfbench/run.py --workload ojsp_large --seed 1 --seconds 10 --trace 0

A run generates its corpora from ``--seed`` and sets up ``SETUP_REPEATS``
times. After each set-up it runs rounds of the workload's fixed operation
list for a third of ``--seconds`` (at least one round); index memory is
measured in a separate untimed build. Every round is checked against
references computed outside the timed region.

The shared host this was written on runs a fixed CPU loop up to 60% slower
for seconds at a time, so latencies are taken per operation as the fastest
of its rounds: ``p50_ms`` and ``tail_ms`` are over those per-operation
times, and ``ops_per_s`` is the number of distinct operations divided by
the sum of their fastest times.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` does the same
run, then sets up again with every traced layer wrapped (``tracer.py``),
runs one round and reports the per-layer metrics and the tracing overhead
(traced minus untraced). It writes its spans to ``perfbench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it,
starting with ``#``, gives details: latency per operation kind with its
tail percentile and sample count, bytes and messages per query, index
memory, the failed-ops ratio and the machine.
"""
from __future__ import annotations

import argparse
import copy
import gc
import json
import os
import platform
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import DELTA, WORKLOADS, run_op  # noqa: E402

SETUP_REPEATS = 3
#: Message kinds ``DataCenter`` logs in ``CommLog``.
COMM_KINDS = ("ojsp-query", "ojsp-results", "cjsp-query", "cjsp-best", "cjsp-fetch", "cjsp-cells")
#: Operation kinds under the names the metrics use.
KIND_NAMES = {"ojsp": "ojsp", "read": "ojsp", "cjsp": "cjsp", "cjsp_local": "cjsp_local",
              "insert": "write", "update": "write", "delete": "write"}


#: The percentiles ``tail_ms`` may report, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0)
#: Samples a reported tail percentile must have beyond it.
TAIL_BEYOND = 10


def tail(ms: list[float]) -> tuple[float, float]:
    """(percentile, value) of the highest of ``TAIL_PERCENTILES`` with at
    least ``TAIL_BEYOND`` samples beyond it; the median when there are too
    few samples."""
    for pct in TAIL_PERCENTILES:
        if len(ms) * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
            return pct, float(np.percentile(ms, pct))
    return 50.0, float(np.median(ms))


def best_ms(rounds, kinds=None) -> list[float]:
    """Each distinct operation's fastest error-free time in the rounds, in
    ms; only operations of ``kinds`` unless it is None."""
    best: dict[tuple, float] = {}
    for records, _wall in rounds:
        for r in records:
            if (kinds is None or r.op.kind in kinds) and r.error is None:
                op = (r.op.kind, r.op.key)
                best[op] = min(best.get(op, np.inf), r.seconds * 1e3)
    return list(best.values())


def latency(rounds, kinds) -> dict:
    ms = best_ms(rounds, kinds)
    if not ms:
        return {"n": 0, "p50_ms": 0.0, "tail_ms": 0.0}
    pct, value = tail(ms)
    return {"n": len(ms), "p50_ms": float(np.median(ms)), "tail_ms": value, "tail_pct": pct}


def comm_per_query(records) -> dict[str, float]:
    """``CommLog`` totals of one round's center queries, per query."""
    logs = [r.out[1] for r in records if r.op.kind in ("ojsp", "cjsp") and r.error is None]
    n = max(1, len(logs))
    out = {"bytes_per_query": sum(c.total_bytes for c in logs) / n,
           "messages_per_query": sum(c.n_messages for c in logs) / n}
    for kind in COMM_KINDS:
        out[f"comm.bytes.{kind}"] = sum(c.bytes_by_kind().get(kind, 0) for c in logs) / n
        out[f"comm.messages.{kind}"] = sum(m.kind == kind for c in logs for m in c.messages) / n
    return out


def build_twin(workload, states) -> tuple[float, float]:
    """Build the indexes again, untimed, over the same cell sets. Returns
    the MB they retain by tracemalloc and by ``sizing.py``'s model."""
    twins = [copy.copy(st) for st in states]
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for twin in twins:
            workload.build(twin)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / 1e6, sum(workload.model_bytes(t) for t in twins) / 1e6


def measure(workload, seed: int, seconds: float) -> dict:
    """The untraced run. Each of the ``SETUP_REPEATS`` set-ups is followed
    by a block of rounds taking its share of ``seconds``, so that the timed
    rounds sample the host over the whole run rather than one stretch of
    it. The memory build follows the first set-up, before any timed work."""
    points = workload.points(seed)
    queries = workload.queries(points, seed)
    setups, rounds, refs, states = [], [], None, None
    for _ in range(SETUP_REPEATS):
        states = None
        gc.collect()
        t0 = perf_counter()
        states = workload.setup(points)
        setups.append(perf_counter() - t0)
        if refs is None:
            index_mb, model_mb = build_twin(workload, states)
            refs, failed = workload.references(states, queries, seed)
        busy = 0.0
        while busy == 0.0 or busy < seconds / SETUP_REPEATS:
            ops = workload.round_ops(states, queries, seed)
            t0 = perf_counter()
            records = [run_op(op) for op in ops]
            wall = perf_counter() - t0
            busy += wall
            rounds.append((records, wall))
            failed += workload.check(states, records, refs)
    return {"workload": workload, "seed": seed, "points": points, "queries": queries,
            "refs": refs, "setup_s": statistics.median(setups), "setups_s": setups,
            "index_mb": index_mb, "model_mb": model_mb, "rounds": rounds, "failed": failed}


def end_to_end(run: dict) -> dict[str, float]:
    w, best = run["workload"], best_ms(run["rounds"])
    return {"setup_s": run["setup_s"], "index_mb": run["index_mb"],
            "ops_per_s": 1e3 * len(best) / sum(best),
            "p50_ms": latency(run["rounds"], w.p50_of)["p50_ms"],
            "tail_ms": latency(run["rounds"], w.tail_of)["tail_ms"]}


def details(run: dict) -> dict:
    w, rounds = run["workload"], run["rounds"]
    out = {"workload": w.name, "seed": run["seed"], "p50_of": list(w.p50_of),
           "tail_of": list(w.tail_of),
           "rounds": len(rounds), "ops_per_round": len(rounds[0][0]),
           "round_s": [wall for _recs, wall in rounds], "setups_s": run["setups_s"],
           "index_mb": run["index_mb"], "sizing_model_mb": run["model_mb"]}
    for name in sorted({KIND_NAMES[r.op.kind] for r in rounds[0][0]}):
        s = latency(rounds, [k for k, v in KIND_NAMES.items() if v == name])
        out.update({f"{name}_{k}": v for k, v in s.items()})
    comm = comm_per_query(rounds[0][0])
    if comm["messages_per_query"]:
        out["bytes_per_query"] = comm["bytes_per_query"]
        out["messages_per_query"] = comm["messages_per_query"]
    attempted = sum(len(recs) for recs, _wall in rounds)
    out["failed_ops_ratio"] = run["failed"] / attempted
    out["machine"] = machine()
    return out


def machine() -> dict:
    import pandas
    import pyspark

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "pandas": pandas.__version__,
            "pyspark": pyspark.__version__, "platform": platform.platform(),
            "spark_master": "not used", "spark_driver_memory": "not used"}


def traced(run: dict) -> tuple[dict[str, float], int, int]:
    """Set up again and run one round with every layer traced."""
    w, seed, queries = run["workload"], run["seed"], run["queries"]
    tr = Tracer(delta=DELTA)
    tr.install()
    try:
        span = tr.begin("setup", -1)
        states = w.setup(run["points"])
        tr.end(span)
        tr.enabled = False
        ops = w.round_ops(states, queries, seed)
        tr.enabled = True
        records = []
        t0 = perf_counter()
        for i, op in enumerate(ops):
            span = tr.begin("op." + op.kind, i)
            records.append(run_op(op))
            tr.end(span)
        wall = perf_counter() - t0
    finally:
        tr.uninstall()
    failed = w.check(states, records, run["refs"])
    metrics = layer_metrics(tr)
    metrics["sizing.dits_model_mb"] = run["model_mb"]
    metrics.update({k: v for k, v in comm_per_query(records).items() if k.startswith("comm.")})
    plain = run["rounds"]
    p50 = latency([(records, wall)], w.p50_of)["p50_ms"]
    metrics["trace.overhead_setup_s"] = tr.aggregate()["setup"]["s"] - run["setup_s"]
    metrics["trace.overhead_p50_ms"] = p50 - statistics.median(
        latency([rnd], w.p50_of)["p50_ms"] for rnd in plain)
    metrics["trace.overhead_ops_per_s"] = len(records) / wall - statistics.median(
        len(recs) / t for recs, t in plain)
    metrics["trace.spans"] = len(tr)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tr.write(out_dir / f"spans-{w.name}-seed{seed}.tsv.gz")
    with open(out_dir / f"layers-{w.name}-seed{seed}.json", "w") as fh:
        json.dump({"metrics": metrics, "spans": tr.aggregate()}, fh, indent=1, sort_keys=True)
    return metrics, len(records), failed


def unit(name: str) -> str:
    """The unit of a metric, from its name."""
    for suffix, u in (("_per_s", "ops/s"), ("_ms", "ms"), ("_s", "s"), ("_mb", "MB"),
                      ("_ratio", "ratio"), ("_share_cjsp", "ratio")):
        if name.endswith(suffix):
            return u
    return "B" if name.startswith("comm.bytes.") else "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    run = measure(WORKLOADS[args.workload], args.seed, args.seconds)
    attempted = sum(len(recs) for recs, _wall in run["rounds"])
    failed = run["failed"]
    info = details(run)
    if args.trace:
        metrics, n, f = traced(run)
        attempted, failed = attempted + n, failed + f
    else:
        metrics = end_to_end(run)
    print("# " + json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
