"""Spans around the library's public entry points, installed from outside.

The tracer wraps functions by rebinding module attributes: every module of
the `levysobolev` package that binds a wrapped function object (for example
`cli` importing `sobolev_index` from `indices`) gets the wrapper, and
`uninstall` puts the originals back.  `Symbol.__call__` is wrapped on the
class.  Spans live in memory as lists

    [name, start, end, parent_index, request_id, extra, raised]

and are written out by the caller at the end of a run.  This module imports
only the standard library at import time, so the child runner can time
`import levysobolev` after importing it.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

NAME, START, END, PARENT, REQUEST, EXTRA, RAISED = range(7)

# (module, attribute, span name).  The layer of a span is the part of its
# name before the first dot.  Helper spans ("<layer>.helper") count towards
# their parent's name when the parent is in the same layer.
TARGETS = [
    ("symbols", "make_symbol", "symbols.build"),
    ("symbols", "stable_symbol_1d", "symbols.build"),
    ("measures", "cgmy_density", "measures.build"),
    ("measures", "nig_density", "measures.build"),
    ("measures", "gh_expansion_density", "measures.build"),
    ("measures", "power_law_density", "measures.build"),
    ("measures", "tabulated_density", "measures.build"),
    ("measures", "density_symbol", "measures.build"),
    ("measures", "split_symmetric", "measures.build"),
    ("measures", "symbol_parts_from_density", "measures.parts"),
    ("measures", "bg_index", "measures.jump_index"),
    ("measures", "gamma_index", "measures.jump_index"),
    ("measures", "verify_appendix_bounds", "measures.other"),
    ("indices", "sobolev_index", "indices.sobolev_index"),
    ("indices", "fit_continuity_exponent", "indices.fit"),
    ("indices", "fit_garding_exponent", "indices.fit"),
    ("indices", "_residual_growth", "indices.fit"),
    ("indices", "_lower_order_exponent", "indices.fit"),
    ("indices", "cross_check", "indices.other"),
    ("indices", "smoothness_moments", "indices.other"),
    ("spectral", "verify_form_inequalities", "spectral.form"),
    ("spectral", "conditional_expectation", "spectral.invert"),
    ("spectral", "density", "spectral.invert"),
    ("spectral", "_invert_at", "spectral.invert"),
    ("spectral", "evolve", "spectral.evolve"),
    ("spectral", "density_grid", "spectral.fft"),
    ("spectral", "density_mass", "spectral.fft"),
    ("spectral", "sobolev_norm", "spectral.helper"),
    ("spectral", "re_a_weighted_norm", "spectral.helper"),
    ("spectral", "bilinear_form", "spectral.helper"),
    ("spectral", "conj_symmetrize", "spectral.helper"),
    ("spectral", "char_fn_field", "spectral.helper"),
    ("cli", "write_json", "cli.write"),
    ("cli", "emit_plot_data", "cli.write"),
]


def _package_modules():
    return [m for k, m in sorted(sys.modules.items())
            if m is not None and (k == "levysobolev" or k.startswith("levysobolev."))]


def _invert_extra(args, kwargs):
    """Phase-matrix size of spectral._invert_at(grid, vals, x_points)."""
    import numpy as np

    grid, x_points = args[0], args[2]
    return {"phase_entries": int(grid.N ** grid.d * (np.asarray(x_points).size // grid.d))}


_EXTRAS = {"_invert_at": _invert_extra}


def _call_extra(args, kwargs):
    """Points of one Symbol.__call__; quadrature points are kept to count repeats."""
    import numpy as np

    sym, xi = args
    arr = np.asarray(xi, dtype=float)
    pts = tuple(arr.reshape(-1).tolist()) if sym.eval_mode == "quadrature" else None
    return {"n": arr.size // sym.d, "sym": id(sym), "pts": pts}


class Tracer:
    """In-memory span recorder; `request` tags the spans of the current request."""

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []
        self._patches = []

    @contextlib.contextmanager
    def span(self, name, extra=None):
        """Record a span around the body, child of the innermost open span."""
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self.request, extra, False]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        try:
            yield span
        except BaseException:
            span[RAISED] = True
            raise
        finally:
            span[END] = time.perf_counter()
            self._stack.pop()

    def adopt(self, spans, under) -> None:
        """Append spans recorded by a child process as descendants of span `under`."""
        base = len(self.spans)
        parent = next(i for i in range(base - 1, -1, -1) if self.spans[i] is under)
        for span in spans:
            span = list(span)
            span[PARENT] = base + span[PARENT] if span[PARENT] >= 0 else parent
            span[REQUEST] = self.request
            self.spans.append(span)

    def wrap(self, name, fn, extra=None):
        """`fn` recording a span per call; `name` may be a function of the arguments."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name(args) if callable(name) else name,
                             extra(args, kwargs) if extra else None):
                return fn(*args, **kwargs)

        wrapper.__perfbench_original__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every target in every loaded `levysobolev` module."""
        import levysobolev.cli  # noqa: F401 - loads every module that binds a target
        from levysobolev import measures, symbols

        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        for mod_name, attr, span in TARGETS:
            original = getattr(sys.modules[f"levysobolev.{mod_name}"], attr)
            wrapper = self.wrap(span, original, _EXTRAS.get(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        # scipy's quad is wrapped only where measures binds it
        self._set(measures, "quad", self.wrap("measures.quad", measures.quad))

        call = symbols.Symbol.__call__
        self._set(symbols.Symbol, "__call__", self.wrap(
            lambda args: f"symbols.call.{args[0].eval_mode}", call, _call_extra))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            setattr(owner, attr, value)


def wrapped_names() -> list:
    """Names of `levysobolev` module attributes (and Symbol.__call__) that are wrappers."""
    from levysobolev.symbols import Symbol

    found = [f"{mod.__name__}.{attr}" for mod in _package_modules()
             for attr, value in vars(mod).items() if hasattr(value, "__perfbench_original__")]
    if hasattr(Symbol.__call__, "__perfbench_original__"):
        found.append("levysobolev.symbols.Symbol.__call__")
    return found


def count_warnings(caught) -> int:
    """IntegrationWarning and RuntimeWarning among recorded warnings."""
    from scipy.integrate import IntegrationWarning

    return sum(issubclass(w.category, (IntegrationWarning, RuntimeWarning)) for w in caught)


# --------------------------------------------------------------------------
# per-layer metrics from spans
# --------------------------------------------------------------------------

def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _ancestors(spans, i):
    p = spans[i][PARENT]
    while p >= 0:
        yield p
        p = spans[p][PARENT]


def layer_metrics(spans, requests) -> dict:
    """Per-layer metrics over the spans whose request id is in `requests`.

    Self time is a span's duration minus the time its child spans cover; a
    helper span's self time counts towards its parent's name.
    """
    sel = [i for i, s in enumerate(spans) if s[REQUEST] in requests]
    dur = {i: spans[i][END] - spans[i][START] for i in sel}
    covered = defaultdict(float)
    for i in sel:
        if spans[i][PARENT] >= 0:
            covered[spans[i][PARENT]] += dur[i]
    name = {}
    for i in sel:  # parents are recorded before their children
        n, p = spans[i][NAME], spans[i][PARENT]
        if n.endswith(".helper") and p in name and _layer(name[p]) == _layer(n):
            n = name[p]
        name[i] = n
    self_s, calls, total = defaultdict(float), Counter(), defaultdict(float)
    for i in sel:
        self_s[name[i]] += dur[i] - covered[i]
        calls[spans[i][NAME]] += 1
        total[spans[i][NAME]] += dur[i]

    def extras(prefix, key):
        return [spans[i][EXTRA][key] for i in sel
                if spans[i][NAME].startswith(prefix) and spans[i][EXTRA]
                and key in spans[i][EXTRA]]

    def parent_layer(i):
        p = spans[i][PARENT]
        return _layer(spans[p][NAME]) if p >= 0 else None

    quad_pts = [p for pts in extras("symbols.call.quadrature", "pts") for p in pts]
    distinct = {(spans[i][EXTRA]["sym"], u) for i in sel
                if spans[i][NAME] == "symbols.call.quadrature" for u in spans[i][EXTRA]["pts"]}
    phase = sum(extras("spectral.invert", "phase_entries"))
    return {
        "symbols.points.closed_form": sum(extras("symbols.call.closed-form", "n")),
        "symbols.points.quadrature": sum(extras("symbols.call.quadrature", "n")),
        "symbols.distinct_frac.quadrature": len(distinct) / len(quad_pts) if quad_pts else 1.0,
        "symbols.self_s": self_s["symbols.call.closed-form"] + self_s["symbols.call.quadrature"],
        "measures.parts.calls": calls["measures.parts"],
        "measures.parts.self_s": self_s["measures.parts"],
        "measures.quad.calls": calls["measures.quad"],
        "measures.quad.s": total["measures.quad"],
        "measures.jump_index.self_s": self_s["measures.jump_index"],
        "measures.jump_index.quad_calls": sum(
            1 for i in sel if spans[i][NAME] == "measures.quad"
            and any(spans[a][NAME] == "measures.jump_index" for a in _ancestors(spans, i))),
        "measures.warnings": sum(extras("bench.request", "warnings"))
        + sum(extras("cli.process", "warnings")),
        "measures.failures": sum(1 for i in sel if spans[i][RAISED]
                                 and _layer(spans[i][NAME]) == "measures"
                                 and parent_layer(i) != "measures"),
        "indices.calls": calls["indices.sobolev_index"],
        "indices.self_s": sum(v for k, v in self_s.items() if _layer(k) == "indices"),
        "indices.points_requested": sum(spans[i][EXTRA]["n"] for i in sel
                                        if spans[i][NAME].startswith("symbols.call.")
                                        and parent_layer(i) == "indices"),
        "indices.fit_calls": calls["indices.fit"],
        "spectral.form.self_s": self_s["spectral.form"],
        "spectral.invert.self_s": self_s["spectral.invert"],
        "spectral.invert.phase_entries": phase,
        "spectral.invert.bytes_computed": 16 * phase,
        "spectral.evolve.self_s": self_s["spectral.evolve"],
        "spectral.fft.self_s": self_s["spectral.fft"],
        "cli.import_s": total["cli.import"],
        "cli.process_s": total["cli.process"],
        "cli.write_s": total["cli.write"],
        "cli.output_bytes": sum(extras("cli.process", "bytes")),
        "cli.exit_nonzero": sum(1 for rc in extras("cli.process", "rc") if rc != 0),
    }


def build_metrics(spans, requests) -> dict:
    """Time building closed-form symbols and densities, outermost spans only.

    Density construction nested in a symbol build (make_symbol attaches the
    NIG and CGMY densities) counts as density build time only.
    """
    sb = mb = mb_in_sb = 0.0
    for i, s in enumerate(spans):
        if s[REQUEST] not in requests or not s[NAME].endswith(".build"):
            continue
        layers = [_layer(spans[a][NAME]) for a in _ancestors(spans, i)]
        d = s[END] - s[START]
        if s[NAME] == "symbols.build" and "symbols" not in layers:
            sb += d
        elif s[NAME] == "measures.build" and "measures" not in layers:
            mb += d
            mb_in_sb += d if "symbols" in layers else 0.0
    return {"symbols.build_s": sb - mb_in_sb, "measures.density_build_s": mb}
