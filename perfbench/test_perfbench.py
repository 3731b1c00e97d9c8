"""Checks of the benchmark itself. Run from the repository root with

    python3 -m pytest perfbench/test_perfbench.py -q

Each workload runs twice on one seed with ``--trace 1``; the counts must
repeat exactly (``index_mb`` to 0.1%), and the printed metric names must be
the ones ``BENCHMARK.json`` lists. The whole file takes a few minutes.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Per-layer metrics that count work; they must repeat exactly on one seed.
COUNTS = [m["name"] for m in SPEC["per_layer"]
          if m["unit"] in ("count", "B", "MB") or m["name"].endswith("_ratio")]


def bench(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-2].startswith("# ")
    return json.loads(lines[-2][2:]), json.loads(lines[-1])


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def twice(request):
    return request.param, [parse(bench(ROOT, request.param, 3, 1)) for _ in range(2)]


def test_counts_repeat_on_one_seed(twice):
    _name, ((info1, out1), (info2, out2)) = twice
    for key in ("bytes_per_query", "messages_per_query", "sizing_model_mb"):
        assert info1.get(key) == info2.get(key), key
    # numpy keeps a cache of small freed buffers whose use depends on memory
    # layout, so tracemalloc's total moves by a few kB between processes.
    assert math.isclose(info1["index_mb"], info2["index_mb"], rel_tol=1e-3)
    for key in COUNTS:
        assert out1["metrics"][key]["value"] == out2["metrics"][key]["value"], key


def test_traced_run_reports_every_per_layer_metric(twice):
    _name, ((_info, out), _second) = twice
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]


def test_layer_counts_confirm_workload_design(twice):
    name, ((_info, out), _second) = twice
    v = {k: m["value"] for k, m in out["metrics"].items()}
    writes = v["update.insert_s"] + v["update.update_s"] + v["update.delete_s"]
    assert (writes > 0) == (name == "update_mix")
    if name in ("ojsp_large", "update_mix"):
        assert v["geometry.min_dist_calls"] == 0
        assert v["overlap.search_calls"] > 0
    if name == "cjsp_small":
        assert v["overlap.search_calls"] == 0
        assert v["geometry.min_dist_share_cjsp"] > 0.5


def test_untraced_run_reports_every_end_to_end_metric():
    info, out = parse(bench(ROOT, "update_mix", 3, 0))
    assert out["correct"] and out["failed"] == 0
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0
    assert info["failed_ops_ratio"] == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seeds_give_different_corpora(name):
    w = WORKLOADS[name]
    a, b = w.points(1), w.points(2)
    assert not all(x.equals(y) for x, y in zip(a, b))
    assert all(x.equals(y) for x, y in zip(a, w.points(1)))


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench(tmp_path, "update_mix", 1, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
