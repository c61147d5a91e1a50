"""Batch front door.

    levysobolev <task> --config cfg.json [--out DIR] [--seed N] [--set k=v ...]

Tasks: symbol-eval | index | inequalities | evolve | price | density | catalog.

The config is a single flat JSON object; --set overrides file keys; --seed
overrides the `seed` key.  Exit codes: 0 success, 1 numerical failure
(quadrature/fit errors, surfaced with the failing operation), 2 config
error, with the key named on stderr.  Config errors include a value that
does not parse as its key's type, a fractional value for an integer key
(4096.0 reads as 4096, 64.9 is refused) and a point count (x_count,
u_count) below 1.  Identical config + seed produces byte-identical
outputs: no timestamps, sorted keys, shortest-roundtrip float formatting.

Config keys (defaults in _DEFAULTS below, echoed into every output):

  process.family        brownian | nig | cauchy | student_t | cgmy | vg |
                        stable1d | gh | powerlaw | tabulated
  process.<param>       family parameters, e.g. process.C, process.G ...
                        (gh: C1, C2, C3, damping; powerlaw: coef, Y;
                        tabulated: path to a CSV of x,f rows)
  grid.r_min/r_max/points_per_decade/directions    radial fit grid
  freq.N/Xi             frequency grid (d = 1 for CLI tasks)
  index.tol             agreement tolerance for the Sobolev index
  ineq.alpha/trials     bilinear form verification
  evolve.T/K/scheme     time stepping
  payoff.kind/width/center/order    gaussian | hermite test payoffs
  price.tau, price.x_min/x_max/x_count (or price.x_points "a,b,c")
  density.t, density.x_min/x_max/x_count
  eval.u_min/u_max/u_count          symbol-eval log grid
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import measures, spectral
from .errors import ConfigError, InvalidParams, IoError, LevySobolevError
from .indices import CATALOG, GridSpec, cross_check, sobolev_index
from .symbols import Symbol, make_symbol, params_from_record, params_to_record

_DEFAULTS = {
    "seed": 0,
    "grid.r_min": 1e2,
    "grid.r_max": 1e6,
    "grid.points_per_decade": 16,
    "grid.directions": 32,
    "freq.N": 4096,
    "freq.Xi": 64.0,
    "index.tol": 0.05,
    "ineq.trials": 500,
    "evolve.T": 1.0,
    "evolve.K": 16,
    "evolve.scheme": "exact",
    "payoff.kind": "gaussian",
    "payoff.width": 1.0,
    "payoff.center": 0.0,
    "payoff.order": 4,
    "price.tau": 1.0,
    "price.x_min": -5.0,
    "price.x_max": 5.0,
    "price.x_count": 41,
    "density.t": 1.0,
    "density.x_min": -5.0,
    "density.x_max": 5.0,
    "density.x_count": 41,
    "eval.u_min": 0.1,
    "eval.u_max": 100.0,
    "eval.u_count": 64,
}

def _stage(msg: str) -> None:
    print(f"[levysobolev] {msg}", file=sys.stderr)


def _convert(key: str, value, typ):
    if typ is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"{key}: {value!r} is not an integer")
    try:
        return typ(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}: cannot read {value!r} as {typ.__name__}") from exc


def _cfg(cfg: dict, key: str):
    """The value of `key`, converted to the type of its _DEFAULTS entry."""
    default = _DEFAULTS[key]
    return _convert(key, cfg.get(key, default), type(default))


def _count(cfg: dict, key: str) -> int:
    n = _cfg(cfg, key)
    if n < 1:
        raise ConfigError(f"{key}: {n} is not a positive count")
    return n


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a flat JSON object")
    return cfg


def apply_overrides(cfg: dict, pairs) -> dict:
    out = dict(cfg)
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--set expects key=value, got {pair!r}")
        key, raw = pair.split("=", 1)
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


# --------------------------------------------------------------------------
# building blocks
# --------------------------------------------------------------------------

def build_symbol(cfg: dict) -> tuple[Symbol, dict]:
    rec = {k.split(".", 1)[1]: v for k, v in cfg.items() if k.startswith("process.")}
    fam = str(rec.get("family", "")).lower().replace("-", "_")
    if not fam:
        raise ConfigError("config needs process.family")
    try:
        if fam == "gh":
            dens = measures.gh_expansion_density(
                C1=float(rec.get("C1", 1.0)), C2=float(rec.get("C2", 0.0)),
                C3=float(rec.get("C3", 0.0)), damping=float(rec.get("damping", 1.0)))
            return measures.density_symbol(dens), {"family": "gh", **{
                k: rec.get(k) for k in ("C1", "C2", "C3", "damping") if k in rec}}
        if fam == "powerlaw":
            dens = measures.power_law_density(float(rec.get("coef", 1.0)),
                                              float(rec["Y"]))
            return measures.density_symbol(dens, b=0.0), {"family": "powerlaw", **rec}
        if fam == "tabulated":
            path = rec.get("path")
            if not path or not os.path.exists(path):
                raise ConfigError(f"tabulated density file not found: {path!r}")
            data = np.loadtxt(path, delimiter=",", comments="#")
            dens = measures.tabulated_density(data[:, 0], data[:, 1])
            return measures.density_symbol(dens), {"family": "tabulated", "path": path}
        params = params_from_record(rec)
        return make_symbol(params), params_to_record(params)
    except KeyError as exc:
        raise ConfigError(f"missing parameter {exc} for family {fam!r}") from exc
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc
    except ValueError as exc:
        given = ", ".join(f"process.{k}={v!r}" for k, v in rec.items()
                          if k != "family" and isinstance(v, str))
        raise ConfigError(f"cannot read process parameters ({given}): {exc}") from exc


def _grid_spec(cfg: dict) -> GridSpec:
    try:
        return GridSpec(
            r_min=_cfg(cfg, "grid.r_min"),
            r_max=_cfg(cfg, "grid.r_max"),
            points_per_decade=_cfg(cfg, "grid.points_per_decade"),
            n_directions=_cfg(cfg, "grid.directions"),
        )
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc


def _freq_grid(cfg: dict) -> spectral.FrequencyGrid:
    try:
        return spectral.FrequencyGrid(1, _cfg(cfg, "freq.N"), _cfg(cfg, "freq.Xi"))
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc


def _payoff_hat(cfg: dict, grid: spectral.FrequencyGrid) -> spectral.SpectralField:
    kind = _cfg(cfg, "payoff.kind").lower()
    w = _cfg(cfg, "payoff.width")
    c = _cfg(cfg, "payoff.center")
    if kind == "gaussian":
        # g(x) = exp(-(x-c)^2/(2 w^2)):  g_hat(xi) = w sqrt(2 pi) e^{i xi c - w^2 xi^2/2}
        fn = lambda xi: w * np.sqrt(2 * np.pi) * np.exp(1j * xi * c - 0.5 * (w * xi) ** 2)
    elif kind == "hermite":
        from scipy.special import eval_hermite
        n = _cfg(cfg, "payoff.order")
        # h_n(x) = H_n(x) e^{-x^2/2} transforms to sqrt(2 pi) i^n h_n(xi)
        fn = lambda xi: np.sqrt(2 * np.pi) * (1j ** n) * eval_hermite(n, xi) * np.exp(-xi**2 / 2)
    else:
        raise ConfigError(f"unknown payoff kind {kind!r}")
    return spectral.SpectralField.from_function(grid, fn)


def _x_points(cfg: dict, prefix: str) -> np.ndarray:
    raw = cfg.get(f"{prefix}.x_points")
    if raw is not None:
        return np.array([_convert(f"{prefix}.x_points", v, float)
                         for v in str(raw).split(",")])
    return np.linspace(_cfg(cfg, f"{prefix}.x_min"), _cfg(cfg, f"{prefix}.x_max"),
                       _count(cfg, f"{prefix}.x_count"))


# --------------------------------------------------------------------------
# output formatting
# --------------------------------------------------------------------------

def _provenance(cfg: dict) -> dict:
    eff = dict(_DEFAULTS)
    eff.update(cfg)
    return {k: eff[k] for k in sorted(eff)}


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    _stage(f"wrote {path}")


def write_json(payload: dict, cfg: dict, path: str) -> None:
    doc = {"provenance": _provenance(cfg), "result": payload}
    _write_text(path, json.dumps(doc, sort_keys=True, indent=2) + "\n")


def emit_plot_data(rows, columns, cfg: dict, path: str) -> None:
    """CSV with provenance header; refuses to write an empty result."""
    rows = list(rows)
    if not rows:
        raise IoError("empty result: no plot data to write")
    lines = [f"# levysobolev plot data"]
    for k, v in _provenance(cfg).items():
        lines.append(f"# {k}={_fmt(v)}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _write_text(path, "\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# tasks
# --------------------------------------------------------------------------

def _task_symbol_eval(cfg, out_dir):
    sym, rec = build_symbol(cfg)
    _stage(f"built symbol family={rec.get('family')}")
    us = np.geomspace(_cfg(cfg, "eval.u_min"), _cfg(cfg, "eval.u_max"),
                      _count(cfg, "eval.u_count"))
    us = np.concatenate([-us[::-1], [0.0], us])
    vals = np.array([sym(float(u)) for u in us])
    _stage(f"evaluated symbol at {len(us)} points")
    write_json({"family": rec, "u": [float(u) for u in us],
                "re_a": [float(v) for v in vals.real],
                "im_a": [float(v) for v in vals.imag]}, cfg,
               os.path.join(out_dir, "symbol-eval.json"))
    emit_plot_data(zip(us.tolist(), vals.real.tolist(), vals.imag.tolist()),
                   ["u", "re_a", "im_a"], cfg,
                   os.path.join(out_dir, "symbol-eval.csv"))


def _task_index(cfg, out_dir):
    sym, rec = build_symbol(cfg)
    _stage(f"built symbol family={rec.get('family')}")
    grid = _grid_spec(cfg)
    report = sobolev_index(sym, grid, tol=_cfg(cfg, "index.tol"))
    if report.beta is not None and report.sobolev_index is not None:
        cross_check(report)
    _stage(f"index fit done: alpha_cont={report.alpha_cont:.4f} "
           f"sobolev_index={report.sobolev_index}")
    write_json({"family": rec, **report.to_record()}, cfg,
               os.path.join(out_dir, "index.json"))
    r, vals = report.rays
    rows = []
    for rad, v in zip(r, vals[0]):
        if abs(v) > 0 and v.real > 0:
            rows.append((float(np.log(rad)), float(np.log(abs(v))),
                         float(np.log(v.real))))
    emit_plot_data(rows, ["log_xi", "log_abs_a", "log_re_a"], cfg,
                   os.path.join(out_dir, "index.csv"))


def _task_inequalities(cfg, out_dir):
    sym, rec = build_symbol(cfg)
    _stage(f"built symbol family={rec.get('family')}")
    alpha = cfg.get("ineq.alpha")
    if alpha is None:
        report = sobolev_index(sym, _grid_spec(cfg))
        if report.sobolev_index is None:
            raise LevySobolevError(
                "inequalities: no Sobolev index found; set ineq.alpha explicitly")
        alpha = report.sobolev_index
    fg = _freq_grid(cfg)
    form = spectral.verify_form_inequalities(
        sym, _convert("ineq.alpha", alpha, float), _cfg(cfg, "ineq.trials"), fg,
        seed=_cfg(cfg, "seed"), radial_grid=_grid_spec(cfg))
    _stage(f"form verification done: passed={form.passed} c2={form.garding_c2:.4g}")
    write_json({"family": rec, **form.to_record()}, cfg,
               os.path.join(out_dir, "inequalities.json"))


def _task_evolve(cfg, out_dir):
    sym, rec = build_symbol(cfg)
    fg = _freq_grid(cfg)
    g_hat = _payoff_hat(cfg, fg)
    traj = spectral.evolve(sym, g_hat, None, _cfg(cfg, "evolve.T"), _cfg(cfg, "evolve.K"),
                           _cfg(cfg, "evolve.scheme"))
    _stage(f"evolved {len(traj.times)} time points, scheme={traj.scheme}")
    xi = fg.axis()
    rows = []
    for t, f in zip(traj.times, traj.fields):
        for x, v in zip(xi, f.values):
            rows.append((float(t), float(x), float(v.real), float(v.imag)))
    l2 = [float(np.sqrt(np.sum(np.abs(f.values) ** 2) * fg.dxi)) for f in traj.fields]
    write_json({"family": rec, "scheme": traj.scheme,
                "times": [float(t) for t in traj.times], "l2_norms": l2}, cfg,
               os.path.join(out_dir, "evolve.json"))
    emit_plot_data(rows, ["t", "xi", "re", "im"], cfg,
                   os.path.join(out_dir, "evolve.csv"))


def _task_price(cfg, out_dir):
    sym, rec = build_symbol(cfg)
    fg = _freq_grid(cfg)
    g_hat = _payoff_hat(cfg, fg)
    xs = _x_points(cfg, "price")
    tau = _cfg(cfg, "price.tau")
    vals = spectral.conditional_expectation(sym, g_hat, tau, xs)
    _stage(f"priced at {len(xs)} points")
    write_json({"family": rec, "tau": tau,
                "x": [float(x) for x in xs],
                "value": [float(np.real(v)) for v in vals]}, cfg,
               os.path.join(out_dir, "price.json"))
    emit_plot_data(zip(xs.tolist(), np.real(vals).tolist()), ["x", "value"], cfg,
                   os.path.join(out_dir, "price.csv"))


def _task_density(cfg, out_dir):
    sym, rec = build_symbol(cfg)
    fg = _freq_grid(cfg)
    t = _cfg(cfg, "density.t")
    xs = _x_points(cfg, "density")
    vals = spectral.density(sym, t, xs, fg)
    mass = spectral.density_mass(sym, t, fg)
    _stage(f"density at {len(xs)} points, window mass={mass:.6f}")
    write_json({"family": rec, "t": t, "mass": float(mass),
                "x": [float(x) for x in xs], "value": [float(v) for v in vals]},
               cfg, os.path.join(out_dir, "density.json"))
    emit_plot_data(zip(xs.tolist(), vals.tolist()), ["x", "value"], cfg,
                   os.path.join(out_dir, "density.csv"))


def _task_catalog(cfg, out_dir):
    _stage(f"catalog: {len(CATALOG)} families")
    write_json({"catalog": [{"family": f, "condition": c, "sobolev_index": i}
                            for f, c, i in CATALOG]}, cfg,
               os.path.join(out_dir, "catalog.json"))
    emit_plot_data(CATALOG, ["family", "condition", "sobolev_index"], cfg,
                   os.path.join(out_dir, "catalog.csv"))


_RUNNERS = {
    "symbol-eval": _task_symbol_eval,
    "index": _task_index,
    "inequalities": _task_inequalities,
    "evolve": _task_evolve,
    "price": _task_price,
    "density": _task_density,
    "catalog": _task_catalog,
}
_TASKS = tuple(_RUNNERS)


def run(cfg: dict, out_dir: str = ".") -> int:
    """Execute the configured task; returns the process exit code."""
    task = cfg.get("task")
    if task not in _TASKS:
        raise ConfigError(f"task must be one of {_TASKS}, got {task!r}")
    os.makedirs(out_dir, exist_ok=True)
    _RUNNERS[task](cfg, out_dir)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="levysobolev",
        description="Levy symbols, Sobolev/jump indices, spectral PIDE solver")
    parser.add_argument("task", choices=_TASKS)
    parser.add_argument("--config", help="flat JSON config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                        help="override a config key (repeatable)")
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else {}
        cfg = apply_overrides(cfg, getattr(args, "set"))
        cfg["task"] = args.task
        if args.seed is not None:
            cfg["seed"] = args.seed
        return run(cfg, args.out)
    except ConfigError as exc:
        _stage(f"config error: {exc}")
        return 2
    except LevySobolevError as exc:
        _stage(f"numerical failure ({type(exc).__name__}): {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
