"""The benchmark's workloads: seeded inputs, set-up, requests and their checks.

Every input is drawn from `numpy.random.default_rng(seed)`: family
parameters, `u` points, CLI configs and the tabulated density's CSV.  Each
pass runs the same request list in the same order; a request is one call
chain into the library (or one CLI process) followed by a correctness check
against a reference fixed before the run.

Parameters are drawn per family inside the ranges the acceptance criteria
cover, and the mix of request kinds is fixed, so every seed costs about the
same.  Draws whose value sets the cost (CGMY Y, the u points) are stratified,
one draw per equal sub-interval, to keep the cost of a pass steady across
seeds.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

from levysobolev import indices as I, measures as M, spectral as SP, symbols as S

from tracer import EXTRA

HERE = Path(__file__).resolve().parent

# CLI defaults: form checks at N = 4096 modes and 500 trials.  A 2-d grid
# keeps the same number of modes (64 x 64).
FORM_TRIALS = 500
GRID_1D = SP.FrequencyGrid(1, 4096, 64.0)
GRID_2D = SP.FrequencyGrid(2, 64, 64.0)
INDEX_TOL = 0.05            # criteria 1-2
QUADRATURE_RTOL = 1e-6      # criterion 6
TABLE_RTOL = 1e-2           # log-log interpolation error of the 60-point table
TABLE_Y = 1.2               # the table samples exp(-2|x|)/|x|^(1+Y)


@dataclass
class Request:
    """One request: `run(tag)` does the work; `check(result)` returns None or a reason."""

    kind: str
    detail: str
    run: Callable[[str], Any]
    check: Callable[[Any], Optional[str]]


def _stratified(rng, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw in each of n equal sub-intervals of [lo, hi]."""
    edges = np.linspace(lo, hi, n + 1)
    return edges[:-1] + rng.uniform(0.0, 1.0, n) * np.diff(edges)


def _near(value, expected, tol) -> bool:
    return value is not None and abs(value - expected) <= tol


# --------------------------------------------------------------------------
# closed-form-verdicts
# --------------------------------------------------------------------------

class ClosedFormVerdicts:
    """Closed-form catalog symbols through index, cross-check and form verdicts."""

    name = "closed-form-verdicts"
    in_process = True
    pass_s = 4.4

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        u = rng.uniform
        cases = [
            ("brownian", S.BrownianParams(sigma=u(0.5, 2.0), b=u(-1.0, 1.0))),
            ("nig", S.NIGParams(alpha=u(8.0, 12.0), beta=u(0.0, 3.0), delta=u(0.5, 1.5),
                                mu=u(-0.5, 0.5))),
            ("cauchy", S.CauchyParams(c=u(0.5, 2.0), gamma=u(-1.0, 1.0))),
            ("student_t", S.StudentTParams(f=u(2.0, 8.0), mu=u(-0.5, 0.5))),
        ]
        for y in _stratified(rng, 0.5, 1.8, 4):
            cases.append(("cgmy", S.CGMYParams(u(0.5, 2.0), u(3.0, 8.0), u(3.0, 8.0), float(y))))
        cases += [
            ("stable", S.Stable1dParams(alpha=u(0.3, 0.95), c=u(0.5, 2.0))),
            ("stable", S.Stable1dParams(alpha=1.0, c=u(0.5, 2.0), tau=u(-1.0, 1.0))),
            ("stable", S.Stable1dParams(alpha=u(1.05, 1.6), c=u(0.5, 2.0), tau=u(-1.0, 1.0))),
            # negative controls: no index; VG fails the form check at any alpha >= 0.2
            ("vg", S.CGMYParams(u(0.5, 2.0), u(3.0, 8.0), u(3.0, 8.0), 0.0)),
            ("stable-nonstrict", S.Stable1dParams(
                alpha=1.0, c=u(0.5, 2.0), beta=float(rng.choice([-1.0, 1.0]) * u(0.3, 1.0)))),
        ]
        a = rng.normal(0.0, 0.3, (2, 2))
        cases += [
            ("brownian-2d", S.BrownianParams(sigma=tuple(map(tuple, a @ a.T + u(0.5, 2.0) * np.eye(2))),
                                             b=tuple(u(-1.0, 1.0, 2)))),
            ("nig-2d", S.NIGParams(alpha=u(8.0, 12.0), beta=tuple(u(-2.0, 2.0, 2)),
                                   delta=u(0.5, 1.5), mu=tuple(u(-0.5, 0.5, 2)))),
            ("cauchy-2d", S.CauchyParams(c=u(0.5, 2.0), gamma=tuple(u(-1.0, 1.0, 2)))),
        ]
        self.cases = [(label, params, float(rng.choice([0.2, 0.5, 1.0, 1.5, 2.0])),
                       int(rng.integers(2**31))) for label, params in cases]

    def build(self):
        return [S.make_symbol(params) for _, params, _, _ in self.cases]

    def warm_up(self, symbols) -> None:
        req = self.requests(symbols, None)[0]
        req.check(req.run("warmup"))

    def requests(self, symbols, tracer):
        return [self._request(case, sym) for case, sym in zip(self.cases, symbols)]

    @staticmethod
    def _request(case, sym) -> Request:
        label, params, vg_alpha, form_seed = case
        expected = I.analytic_index(params)
        grid = GRID_1D if sym.d == 1 else GRID_2D

        def run(tag):
            rep = I.sobolev_index(sym)
            verdicts = {}
            if rep.beta is not None and rep.gamma is not None and rep.sobolev_index is not None:
                verdicts = I.cross_check(rep)
            # members are checked at their fitted index, as the CLI does; VG at a
            # drawn alpha (criterion 4); the non-strict 1-stable law has no form check
            alpha = rep.sobolev_index if expected is not None else (
                vg_alpha if label == "vg" else None)
            form = None if alpha is None else SP.verify_form_inequalities(
                sym, alpha, FORM_TRIALS, grid, seed=form_seed)
            return rep, verdicts, form

        def check(result):
            rep, verdicts, form = result
            if expected is None and rep.sobolev_index is not None:
                return f"negative control declared index {rep.sobolev_index}"
            if expected is not None and not _near(rep.sobolev_index, expected, INDEX_TOL):
                return f"index {rep.sobolev_index} vs catalog {expected}"
            failed = sorted(k for k, v in verdicts.items() if not v["passed"])
            if failed:
                return f"cross-check failed: {failed}"
            if form is not None:
                member = expected is not None
                if form.passed != member:
                    return f"form verdict {form.passed} at alpha {form.alpha}"
                if member and not (form.garding_c2 > 0 and form.trial_min_slack >= 0):
                    return f"form constants c2={form.garding_c2} slack={form.trial_min_slack}"
            return None

        return Request(label, f"{label} {params}", run, check)


# --------------------------------------------------------------------------
# density-route
# --------------------------------------------------------------------------

class DensityRoute:
    """Quadrature symbols built from Levy densities (QUADPACK-bound)."""

    name = "density-route"
    in_process = True
    pass_s = 10.2
    TABLE_POINTS = 5     # tabulated u points per pass, one per decade
    CGMY_STRATA = 17     # CGMY |u| per pass, each evaluated at +u and -u
    # The GH expansion and grid of the CLI's GH test, and the CGMY law of
    # criterion 6, are fixed: their cost depends strongly on the parameters
    # (the GH index takes 4.3-7.3 s over C1, C2, C3, damping within +-20%),
    # which would make seeds incomparable.  The seed draws the u points.
    GH = dict(C1=0.5, C2=0.1, C3=0.05, damping=1.0)
    GH_GRID = I.GridSpec(r_max=1e5, points_per_decade=8)
    CGMY = S.CGMYParams(1.0, 2.0, 4.0, 1.5)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        # the table of the CLI's tabulated test, scaled; u log-uniform on [0.1, 1e4]
        self.table_scale = rng.uniform(0.9, 1.1)
        self.table_u = 10.0 ** _stratified(rng, -1.0, 4.0, self.TABLE_POINTS)
        # criterion 6: CGMY quadrature against the closed form on |u| <= 100
        self.cgmy_u = 10.0 ** _stratified(rng, np.log10(0.5), 2.0, self.CGMY_STRATA)
        xs = np.geomspace(1e-7, 20.0, 60)
        xs = np.concatenate([-xs[::-1], xs])
        fs = self.table_scale * np.exp(-2.0 * np.abs(xs)) / np.abs(xs) ** (1.0 + TABLE_Y)
        workdir.mkdir(parents=True, exist_ok=True)
        self.table_path = workdir / "tabulated.csv"
        np.savetxt(self.table_path, np.column_stack([xs, fs]), delimiter=",")

    def build(self):
        data = np.loadtxt(self.table_path, delimiter=",", comments="#")
        table = M.tabulated_density(data[:, 0], data[:, 1])
        cg = self.CGMY
        return {
            "gh": M.density_symbol(M.gh_expansion_density(**self.GH)),
            "table": table,
            "table_split": M.split_symmetric(table),
            # the closed form the table samples (up to interpolation error)
            "table_ref": S.make_symbol(S.CGMYParams(self.table_scale, 2.0, 2.0, TABLE_Y)),
            "cgmy_split": M.split_symmetric(M.cgmy_density(cg.C, cg.G, cg.M, cg.Y)),
            "cgmy": S.make_symbol(cg),
        }

    def warm_up(self, st) -> None:
        # one evaluation per quadrature route, at |u| = 100
        st["gh"](100.0)
        M.symbol_parts_from_density(st["table_split"], 100.0)
        M.symbol_parts_from_density(st["cgmy_split"], 100.0)

    def requests(self, st, tracer):
        gh = Request("gh-index", f"gh {self.GH}",
                     lambda tag: I.sobolev_index(st["gh"], self.GH_GRID),
                     lambda rep: None if _near(rep.sobolev_index, 1.0, INDEX_TOL)
                     else f"GH index {rep.sobolev_index} vs 1")
        bg = Request("table-bg", f"scale {self.table_scale}",
                     lambda tag: M.bg_index(st["table"]),
                     lambda b: None if _near(b, TABLE_Y, INDEX_TOL) else f"beta {b}")
        gamma = Request("table-gamma", f"scale {self.table_scale}",
                        lambda tag: M.gamma_index(st["table"]),
                        lambda g: None if _near(g, TABLE_Y, INDEX_TOL) else f"gamma {g}")
        table = [self._parts("table-parts", st["table_split"], float(u), st["table_ref"],
                             TABLE_RTOL) for u in self.table_u]
        cgmy = [self._cgmy(st, sign * self.cgmy_u) for sign in (1.0, -1.0)]
        return [gh, bg, gamma, *table, *cgmy]

    @staticmethod
    def _cgmy(st, us) -> Request:
        """Criterion 6 as one request: quadrature at every u against the closed form."""
        def run(tag):
            return np.array([sum(M.symbol_parts_from_density(st["cgmy_split"], float(u)))
                             for u in us])

        def check(values):
            ref = st["cgmy"](us)
            err = float(np.max(np.abs(values - ref) / np.abs(ref)))
            return None if err <= QUADRATURE_RTOL else f"worst rel err {err:.3g}"

        return Request("cgmy-parts", f"u={us!r}", run, check)

    @staticmethod
    def _parts(kind, split, u, closed, rtol) -> Request:
        def check(parts):
            a_fs, a_fas = parts
            ref = closed(u)
            err = abs(a_fs + a_fas - ref) / abs(ref)
            return None if a_fs > 0 and err <= rtol else f"A_fs {a_fs}, rel err {err:.3g}"

        return Request(kind, f"u={u!r}", lambda tag: M.symbol_parts_from_density(split, u),
                       check)


# --------------------------------------------------------------------------
# cli-batch
# --------------------------------------------------------------------------

# (task, family, fixed config keys): all seven tasks on CGMY, NIG and Cauchy.
# Three short, two medium and four long children a pass, so that the median
# and the tail (the 11th-longest of a run) each fall inside a group of
# children of similar cost rather than between groups.
CLI_TASKS = [
    ("catalog", "cauchy", {}),
    ("symbol-eval", "cauchy", {}),
    ("symbol-eval", "nig", {}),
    ("index", "nig", {}),
    ("inequalities", "cgmy", {}),
    ("evolve", "cgmy", {"evolve.K": 64}),
    ("price", "nig", {"price.x_count": 4096}),
    ("density", "cgmy", {"density.x_count": 4096}),
    ("density", "cauchy", {"density.x_count": 4096}),
]
CHILD_TIMEOUT_S = 170


def _wait(proc, timeout_s: int) -> int:
    """Exit code of `proc`, seen the moment it exits; kills it after timeout_s.

    A blocking wait interrupted by SIGALRM: Popen.wait(timeout) polls every
    50 ms, which would round every child's latency up to that step.
    """
    def expire(signum, frame):
        raise TimeoutError(f"child still running after {timeout_s} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(timeout_s)
    try:
        return proc.wait()
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _family_config(family: str, rng) -> dict:
    u = rng.uniform
    if family == "cgmy":
        # Y >= 1.2 keeps the density task's characteristic tail inside Xi = 64
        return {"process.family": "cgmy", "process.C": u(0.5, 2.0), "process.G": u(3.0, 8.0),
                "process.M": u(3.0, 8.0), "process.Y": u(1.2, 1.8)}
    if family == "nig":
        return {"process.family": "nig", "process.alpha": u(8.0, 12.0),
                "process.beta": u(0.0, 3.0), "process.delta": u(0.5, 1.5)}
    return {"process.family": "cauchy", "process.c": u(0.5, 2.0)}


def _digest(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


class CliBatch:
    """One `levysobolev <task>` child process per request, one at a time."""

    name = "cli-batch"
    in_process = False
    pass_s = 10.8

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.configs = []
        for task, family, fixed in CLI_TASKS:
            cfg = {**_family_config(family, rng), **fixed,
                   "payoff.width": rng.uniform(0.7, 1.5), "payoff.center": rng.uniform(-1.0, 1.0),
                   "seed": int(rng.integers(2**31))}
            self.configs.append((task, family, cfg))
        self.reference = {}   # request index -> digests of its first successful pass

    def build(self):
        cfg_dir = self.workdir / "configs"
        cfg_dir.mkdir(parents=True, exist_ok=True)
        paths = []
        for i, (task, family, cfg) in enumerate(self.configs):
            path = cfg_dir / f"{i:02d}-{task}-{family}.json"
            path.write_text(json.dumps(cfg, sort_keys=True))
            paths.append(path)
        return paths

    def warm_up(self, paths) -> None:
        rc = self._child("catalog", paths[0], self.workdir / "warmup", None)
        if rc != 0:
            raise RuntimeError(f"warm-up child exited with {rc}")

    def requests(self, paths, tracer):
        return [self._request(i, task, family, path, tracer)
                for i, ((task, family, _), path) in enumerate(zip(self.configs, paths))]

    @staticmethod
    def _child(task, cfg_path, out: Path, trace_path) -> int:
        """Run one child to completion and return its exit code."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        env = dict(os.environ)
        if trace_path is not None:
            env["PERFBENCH_TRACE_OUT"] = str(trace_path)
        cmd = [sys.executable, str(HERE / "cli_runner.py"), task,
               "--config", str(cfg_path), "--out", str(out)]
        with open(out.with_suffix(".stderr"), "wb") as err:
            proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL, stderr=err)
            return _wait(proc, CHILD_TIMEOUT_S)

    def _request(self, i, task, family, cfg_path, tracer) -> Request:
        def run(tag):
            out = self.workdir / "out" / tag.replace(":", "-")
            if tracer is None:
                return self._child(task, cfg_path, out, None), out
            trace_path = out.with_suffix(".trace.json")
            with tracer.span("cli.process") as span:
                rc = self._child(task, cfg_path, out, trace_path)
            doc = json.loads(trace_path.read_text()) if trace_path.exists() else None
            if doc is not None:
                tracer.adopt(doc["spans"], under=span)
            span[EXTRA] = {"rc": rc, "bytes": sum(p.stat().st_size for p in out.iterdir()),
                           "warnings": doc["warnings"] if doc else 0}
            return rc, out

        def check(result):
            rc, out = result
            try:
                if rc != 0:
                    return f"exit code {rc}"
                digest = _digest(out)
                ref = self.reference.setdefault(i, digest)
                return None if digest == ref else "outputs differ from the first pass"
            finally:
                shutil.rmtree(out, ignore_errors=True)

        return Request(f"cli-{task}", f"{task} {family} {cfg_path.name}", run, check)


WORKLOADS = {w.name: w for w in (ClosedFormVerdicts, DensityRoute, CliBatch)}
