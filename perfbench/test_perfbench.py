"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# a few cheap request kinds of each workload (the first request of each kind)
SUBSETS = {
    "closed-form-verdicts": ["nig", "vg", "brownian-2d"],
    "density-route": ["table-gamma", "table-parts", "cgmy-parts"],
    "cli-batch": ["cli-inequalities", "cli-density", "cli-catalog"],
}


class Subset:
    """A workload restricted to the first request of some kinds."""

    def __init__(self, name, seed, workdir):
        self.inner = WORKLOADS[name](seed, workdir)
        self.name, self.in_process, self.pass_s = name, self.inner.in_process, self.inner.pass_s
        self.kinds = SUBSETS[name]

    def build(self):
        return self.inner.build()

    def warm_up(self, state):
        self.inner.warm_up(state)

    def requests(self, state, rec):
        reqs = self.inner.requests(state, rec)
        return [next(r for r in reqs if r.kind == kind) for kind in self.kinds]


def _counters(metrics):
    return {k: v for k, v in metrics.items()
            if harness.PER_LAYER_UNITS[k] in ("count", "bytes")}


@pytest.mark.parametrize("name", sorted(SUBSETS))
def test_traced_counters_repeat_and_tracer_uninstalls(name, tmp_path):
    runs = [harness.run_traced(Subset(name, 7, tmp_path / f"run{k}"), 0.0) for k in range(2)]
    assert _counters(runs[0]["metrics"]) == _counters(runs[1]["metrics"])
    assert set(runs[0]["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert not any(f for p in runs[0]["passes"] for f in p.failures if f[3])
    assert tracer.wrapped_names() == []


def test_untraced_run_installs_no_wrappers(tmp_path, monkeypatch):
    seen = []
    wl = Subset("closed-form-verdicts", 3, tmp_path)
    inner_requests = wl.requests

    def spying_requests(state, rec):
        reqs = inner_requests(state, rec)
        for req in reqs:
            run = req.run
            req.run = lambda tag, run=run: (seen.append(tracer.wrapped_names()), run(tag))[1]
        return reqs

    monkeypatch.setattr(wl, "requests", spying_requests)
    out = harness.run_untraced(wl, 0.0, ROOT / "src")
    assert seen and all(names == [] for names in seen)
    assert set(out["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}


def test_install_rebinds_every_module_attribute():
    rec = tracer.Tracer()
    rec.install()
    try:
        names = set(tracer.wrapped_names())
    finally:
        rec.uninstall()
    for name in ("levysobolev.indices.sobolev_index", "levysobolev.cli.sobolev_index",
                 "levysobolev.sobolev_index", "levysobolev.measures.quad",
                 "levysobolev.spectral.fit_garding_exponent",
                 "levysobolev.symbols.Symbol.__call__"):
        assert name in names
    assert "levysobolev.indices.quad" not in names
    assert tracer.wrapped_names() == []


def test_result_line_names_every_metric_with_its_unit():
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "closed-form-verdicts",
                          "--seed", "5", "--seconds", "0", "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    doc = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] >= 1
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == harness.PER_LAYER_UNITS


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    res = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "cli-batch",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert '"metrics"' not in res.stdout
