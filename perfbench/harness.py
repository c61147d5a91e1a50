"""Set-up, closed-loop passes and metrics for one benchmark run.

Load is a closed loop from this one process: the next request starts when
the previous one has finished, and a pass runs the workload's request list
once.  A run measures a fixed number of passes, `--seconds` divided by the
workload's `pass_s` (its pass time on the reference machine, 2 vCPU) and
rounded up, so every run of a workload does the same work and percentiles
over its requests mean the same thing on every commit.  The benchmark starts
no threads of its own.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy

from levysobolev.errors import LevySobolevError

import tracer as tr

SETUP_REPS = 3

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
    "cpu_s": "s", "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "symbols.points.closed_form": "count", "symbols.points.quadrature": "count",
    "symbols.distinct_frac.quadrature": "ratio", "symbols.self_s": "s",
    "symbols.build_s": "s", "measures.density_build_s": "s",
    "measures.parts.calls": "count", "measures.parts.self_s": "s",
    "measures.quad.calls": "count", "measures.quad.s": "s",
    "measures.jump_index.self_s": "s", "measures.jump_index.quad_calls": "count",
    "measures.warnings": "count", "measures.failures": "count",
    "indices.calls": "count", "indices.self_s": "s", "indices.points_requested": "count",
    "indices.fit_calls": "count",
    "spectral.form.self_s": "s", "spectral.invert.self_s": "s",
    "spectral.invert.phase_entries": "count", "spectral.invert.bytes_computed": "bytes",
    "spectral.evolve.self_s": "s", "spectral.fft.self_s": "s",
    "cli.import_s": "s", "cli.process_s": "s", "cli.write_s": "s",
    "cli.output_bytes": "bytes", "cli.exit_nonzero": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass
class Pass:
    wall: float
    cpu: float
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (kind, detail, reason, incorrect)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _run_pass(requests, pass_no: int, tracer) -> Pass:
    result = Pass(0.0, 0.0)
    cpu0, t_pass = _cpu_s(), time.perf_counter()
    for i, req in enumerate(requests):
        tag = f"{pass_no}:{i}"
        if tracer is not None:
            tracer.request = tag
        incorrect = False
        with (tracer.span("bench.request") if tracer else nullcontext()) as span, \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            t0 = time.perf_counter()
            try:
                out, reason = req.run(tag), None
            except LevySobolevError as exc:
                out, reason = None, f"{type(exc).__name__}: {exc}"
            except Exception:  # a defect outside the library's named errors
                out, reason, incorrect = None, traceback.format_exc(limit=3), True
            result.latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            span[tr.EXTRA] = {"warnings": tr.count_warnings(caught)}
            tracer.request = None   # the check is the benchmark's work, not the request's
        if reason is None:
            reason = req.check(out)
            incorrect = reason is not None
        if reason is not None:
            result.failures.append((req.kind, req.detail, reason, incorrect))
    result.wall = time.perf_counter() - t_pass
    result.cpu = _cpu_s() - cpu0
    return result


def _run_passes(requests, workload, seconds: float, tracer, first_pass: int = 0) -> list:
    count = max(1, math.ceil(seconds / workload.pass_s))
    return [_run_pass(requests, first_pass + k, tracer) for k in range(count)]


def _setup(workload):
    t0 = time.perf_counter()
    state = workload.build()
    workload.warm_up(state)
    return time.perf_counter() - t0, state


_IMPORT_TIMER = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                 "import levysobolev; print(time.perf_counter() - t)")


def _import_s(src) -> float:
    """`import levysobolev` timed inside a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _IMPORT_TIMER, str(src)], capture_output=True,
                         text=True, check=True, timeout=120)
    return float(out.stdout)


def _tail(latencies):
    """(value, percentile): the highest percentile with >= 10 requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _peak_rss_mb(workload) -> float:
    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss * 1024 / 1e6   # ru_maxrss is in KiB


def run_untraced(workload, seconds: float, src) -> dict:
    """End-to-end metrics: set-up repeated SETUP_REPS times, then timed passes.

    An in-process workload's set-up includes `import levysobolev`, timed in
    a fresh interpreter each time since this process has imported it already.
    """
    setups = []
    for _ in range(SETUP_REPS):
        imported = _import_s(src) if workload.in_process else 0.0
        elapsed, state = _setup(workload)
        setups.append(imported + elapsed)
    requests = workload.requests(state, None)
    passes = _run_passes(requests, workload, seconds, None)
    latencies = [x for p in passes for x in p.latencies]
    tail, pct = _tail(latencies)
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p.wall for p in passes),
        "task_p50_s": statistics.median(latencies),
        "task_tail_s": tail,
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": _peak_rss_mb(workload),
    }
    return {"metrics": metrics, "units": END_TO_END_UNITS, "passes": passes,
            "tail_percentile": pct, "samples": len(latencies), "setup_reps": setups,
            "requests": [f"{r.kind} {r.detail}" for r in requests]}


def run_traced(workload, seconds: float) -> dict:
    """Per-layer metrics.

    Half the passes run untraced; then the tracer is installed, set-up is
    repeated under it and the other half run traced.  Both halves
    start from a fresh set-up, so their pass times compare for the overhead.
    Counters come from the first traced pass; times are medians over traced
    passes.
    """
    _, state = _setup(workload)
    untraced = _run_passes(workload.requests(state, None), workload, seconds / 2.0, None)
    rec = tr.Tracer()
    rec.install()
    try:
        rec.request = "setup"
        _, state = _setup(workload)
        first = len(untraced)
        traced = _run_passes(workload.requests(state, rec), workload, seconds / 2.0, rec, first)
    finally:
        rec.uninstall()
    n_req = len(traced[0].latencies)
    per_pass = [tr.layer_metrics(rec.spans, {f"{first + k}:{i}" for i in range(n_req)})
                for k in range(len(traced))]
    metrics = dict(per_pass[0])
    for key in metrics:
        if PER_LAYER_UNITS[key] == "s":
            metrics[key] = statistics.median(m[key] for m in per_pass)
    setup_and_first = {"setup"} | {f"{first}:{i}" for i in range(n_req)}
    metrics.update(tr.build_metrics(rec.spans, setup_and_first))
    metrics["trace.overhead_frac"] = (statistics.median(p.wall for p in traced)
                                      / statistics.median(p.wall for p in untraced) - 1.0)
    return {"metrics": metrics, "units": PER_LAYER_UNITS, "passes": untraced + traced,
            "spans": rec.spans, "traced_passes": len(traced)}


def _git_commit(root) -> str | None:
    """HEAD of the checkout when it is a git work tree; read without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "LEVYSOBOLEV_THREADS")},
        "seed": seed,
        "git_commit": _git_commit(root),
        "platform": platform.platform(),
        "executable": sys.executable,
    }
