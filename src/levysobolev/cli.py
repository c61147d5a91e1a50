"""Batch front door.

    levysobolev <task> --config cfg.json [--out DIR] [--seed N] [--set k=v ...]

Tasks: symbol-eval | index | inequalities | evolve | price | density | catalog.

Each task computes and returns its result; `run` writes it into the --out
directory as <task>.json (provenance + result) and <task>.csv (provenance
header + plot rows).  `inequalities` writes only inequalities.json.

The config is a single flat JSON object; --set overrides file keys; --seed
overrides the `seed` key.  Exit codes: 0 success, 1 numerical failure
(quadrature/fit errors, surfaced with the failing operation), 2 config
error, with the key named on stderr.  Config errors include a value that
does not parse as its key's type, a fractional value for an integer key
(4096.0 reads as 4096, 64.9 is refused), a count below 1, a value out of
range (evolve.T, density.t, payoff.width, index.tol, eval.u_min, eval.u_max
> 0; price.tau, payoff.order >= 0; ineq.alpha in (0, 2]; x_min, x_max and
every x_points entry of price.* and density.* finite), an unknown
evolve.scheme, an unknown or missing process.* key and an unreadable
tabulated file.  Identical config + seed produces byte-identical outputs:
no timestamps, sorted keys, shortest-roundtrip float formatting.

Config keys (defaults in _DEFAULTS below, echoed into every output):

  process.family        a key of symbols.FAMILIES, or vg (cgmy with Y = 0)
  process.<param>       its params dataclass fields, e.g. process.C; tabulated:
                        path of a CSV of x,f rows; echoed as result.family
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
import math
import os
import sys

import numpy as np

from . import spectral
from .errors import ConfigError, InvalidParams, IoError, LevySobolevError
from .indices import CATALOG, GridSpec, cross_check, index_verdict, sobolev_index
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


def _in_range(key: str, value, lo: float, hi: float = math.inf, lo_open: bool = True):
    """`value` if it is finite and in (lo, hi], or in [lo, hi] with lo_open=False."""
    if math.isfinite(value) and (lo < value if lo_open else lo <= value) and value <= hi:
        return value
    raise ConfigError(f"{key}: {value!r} is outside {'(' if lo_open else '['}{lo:g}, {hi:g}]")


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
    """The symbol of the process.* keys and its record, echoed as result.family."""
    rec = {k.split(".", 1)[1]: v for k, v in cfg.items() if k.startswith("process.")}
    try:
        params = params_from_record(rec)
    except InvalidParams as exc:
        raise ConfigError(f"process.{exc}") from exc
    try:
        return make_symbol(params), params_to_record(params)
    except InvalidParams as exc:
        raise ConfigError(str(exc)) from exc


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
    w = _in_range("payoff.width", _cfg(cfg, "payoff.width"), 0.0)
    c = _cfg(cfg, "payoff.center")
    n = _in_range("payoff.order", _cfg(cfg, "payoff.order"), 0, lo_open=False)
    if kind == "gaussian":
        # g(x) = exp(-(x-c)^2/(2 w^2)):  g_hat(xi) = w sqrt(2 pi) e^{i xi c - w^2 xi^2/2}
        fn = lambda xi: w * np.sqrt(2 * np.pi) * np.exp(1j * xi * c - 0.5 * (w * xi) ** 2)
    elif kind == "hermite":
        from scipy.special import eval_hermite
        # h_n(x) = H_n(x) e^{-x^2/2} transforms to sqrt(2 pi) i^n h_n(xi)
        fn = lambda xi: np.sqrt(2 * np.pi) * (1j ** n) * eval_hermite(n, xi) * np.exp(-xi**2 / 2)
    else:
        raise ConfigError(f"unknown payoff kind {kind!r}")
    return spectral.SpectralField.from_function(grid, fn)


def _x_points(cfg: dict, prefix: str) -> np.ndarray:
    raw = cfg.get(f"{prefix}.x_points")
    if raw is not None:
        key = f"{prefix}.x_points"
        return np.array([_in_range(key, _convert(key, v, float), -math.inf)
                         for v in str(raw).split(",")])
    lo, hi = (_in_range(key, _cfg(cfg, key), -math.inf)
              for key in (f"{prefix}.x_min", f"{prefix}.x_max"))
    return np.linspace(lo, hi, _count(cfg, f"{prefix}.x_count"))


# --------------------------------------------------------------------------
# output formatting
# --------------------------------------------------------------------------

def _provenance(cfg: dict) -> dict:
    eff = dict(_DEFAULTS)
    eff.update(cfg)
    return {k: eff[k] for k in sorted(eff)}


def _fmt(v) -> str:
    if isinstance(v, float):
        return float.__repr__(v)
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
    lines.extend(",".join(map(_fmt, row)) for row in rows)
    _write_text(path, "\n".join(lines) + "\n")


# --------------------------------------------------------------------------
# tasks
# --------------------------------------------------------------------------

def _task_symbol_eval(cfg):
    sym, rec = build_symbol(cfg)
    _stage(f"built symbol family={rec.get('family')}")
    us = np.geomspace(_in_range("eval.u_min", _cfg(cfg, "eval.u_min"), 0.0),
                      _in_range("eval.u_max", _cfg(cfg, "eval.u_max"), 0.0),
                      _count(cfg, "eval.u_count"))
    us = np.concatenate([-us[::-1], [0.0], us])
    vals = sym(us)
    _stage(f"evaluated symbol at {len(us)} points")
    u, re_a, im_a = us.tolist(), vals.real.tolist(), vals.imag.tolist()
    return ({"family": rec, "u": u, "re_a": re_a, "im_a": im_a},
            ["u", "re_a", "im_a"], zip(u, re_a, im_a))


def _task_index(cfg):
    sym, rec = build_symbol(cfg)
    _stage(f"built symbol family={rec.get('family')}")
    grid = _grid_spec(cfg)
    report = sobolev_index(sym, grid, tol=_in_range("index.tol", _cfg(cfg, "index.tol"), 0.0))
    if report.beta is not None and report.sobolev_index is not None:
        cross_check(report)
    _stage(f"index fit done: alpha_cont={report.alpha_cont:.4f} "
           f"sobolev_index={report.sobolev_index}")
    r, vals = report.rays
    rows = [(float(np.log(rad)), float(np.log(abs(v))), float(np.log(v.real)))
            for rad, v in zip(r, vals[0]) if abs(v) > 0 and v.real > 0]
    return {"family": rec, **report.to_record()}, ["log_xi", "log_abs_a", "log_re_a"], rows


def _task_inequalities(cfg):
    alpha = cfg.get("ineq.alpha")
    if alpha is not None:
        alpha = _in_range("ineq.alpha", _convert("ineq.alpha", alpha, float), 0.0, 2.0)
    trials = _count(cfg, "ineq.trials")
    sym, rec = build_symbol(cfg)
    _stage(f"built symbol family={rec.get('family')}")
    grid = _grid_spec(cfg)
    if alpha is None:
        report = index_verdict(sym, grid)
        if report.sobolev_index is None:
            raise LevySobolevError(
                "inequalities: no Sobolev index found; set ineq.alpha explicitly")
        alpha = report.sobolev_index
    fg = _freq_grid(cfg)
    form = spectral.verify_form_inequalities(
        sym, float(alpha), trials, fg, seed=_cfg(cfg, "seed"), radial_grid=grid)
    _stage(f"form verification done: passed={form.passed} c2={form.garding_c2:.4g}")
    return {"family": rec, **form.to_record()}, None, None


def _task_evolve(cfg):
    T = _in_range("evolve.T", _cfg(cfg, "evolve.T"), 0.0)
    K = _count(cfg, "evolve.K")
    try:
        scheme = spectral.scheme_name(_cfg(cfg, "evolve.scheme"))
    except InvalidParams as exc:
        raise ConfigError(f"evolve.scheme: {exc}") from exc
    sym, rec = build_symbol(cfg)
    fg = _freq_grid(cfg)
    g_hat = _payoff_hat(cfg, fg)
    traj = spectral.evolve(sym, g_hat, None, T, K, scheme)
    _stage(f"evolved {len(traj.times)} time points, scheme={traj.scheme}")
    # each time and mode repeats down its column: format it once
    t_txt = np.array(list(map(_fmt, traj.times.tolist())), dtype=object)
    xi_txt = np.array(list(map(_fmt, fg.axis().tolist())), dtype=object)
    values = np.concatenate([f.values for f in traj.fields])
    rows = zip(np.repeat(t_txt, len(xi_txt)).tolist(), np.tile(xi_txt, len(t_txt)).tolist(),
               values.real.tolist(), values.imag.tolist())
    l2 = [float(np.sqrt(np.sum(np.abs(f.values) ** 2) * fg.dxi)) for f in traj.fields]
    return ({"family": rec, "scheme": traj.scheme, "times": traj.times.tolist(), "l2_norms": l2},
            ["t", "xi", "re", "im"], rows)


def _task_price(cfg):
    sym, rec = build_symbol(cfg)
    fg = _freq_grid(cfg)
    g_hat = _payoff_hat(cfg, fg)
    xs = _x_points(cfg, "price")
    tau = _in_range("price.tau", _cfg(cfg, "price.tau"), 0.0, lo_open=False)
    vals = spectral.conditional_expectation(sym, g_hat, tau, xs)
    _stage(f"priced at {len(xs)} points")
    x, value = xs.tolist(), np.real(vals).tolist()
    return {"family": rec, "tau": tau, "x": x, "value": value}, ["x", "value"], zip(x, value)


def _task_density(cfg):
    sym, rec = build_symbol(cfg)
    fg = _freq_grid(cfg)
    t = _in_range("density.t", _cfg(cfg, "density.t"), 0.0)
    xs = _x_points(cfg, "density")
    vals = spectral.density(sym, t, xs, fg)
    mass = spectral.density_mass(sym, t, fg)
    _stage(f"density at {len(xs)} points, window mass={mass:.6f}")
    x, value = xs.tolist(), vals.tolist()
    return ({"family": rec, "t": t, "mass": float(mass), "x": x, "value": value},
            ["x", "value"], zip(x, value))


def _task_catalog(cfg):
    _stage(f"catalog: {len(CATALOG)} families")
    return ({"catalog": [{"family": f, "condition": c, "sobolev_index": i}
                         for f, c, i in CATALOG]},
            ["family", "condition", "sobolev_index"], CATALOG)


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
    """Run the configured task, write <task>.json and <task>.csv into `out_dir`;
    returns the process exit code."""
    task = cfg.get("task")
    if task not in _TASKS:
        raise ConfigError(f"task must be one of {_TASKS}, got {task!r}")
    os.makedirs(out_dir, exist_ok=True)
    payload, columns, rows = _RUNNERS[task](cfg)
    write_json(payload, cfg, os.path.join(out_dir, f"{task}.json"))
    if columns is not None:
        emit_plot_data(rows, columns, cfg, os.path.join(out_dir, f"{task}.csv"))
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
