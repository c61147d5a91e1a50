"""Levy symbols, Sobolev/jump-activity indices, and a Fourier-spectral PIDE solver.

`import levysobolev` loads only `errors`.  Every other exported name imports
its submodule on first access (PEP 562) and is looked up there on every
access, so a CLI process can set up its environment before numpy loads and
a rebinding of the submodule's attribute shows through the package.
"""

import importlib

from .errors import (
    ConfigError,
    DegenerateSymbol,
    DivergentIntegral,
    EvalOverflow,
    FitUnstable,
    GridMismatch,
    Inconsistent,
    InvalidParams,
    IoError,
    LevySobolevError,
    MissingField,
    NonpositiveRealPart,
    QuadratureFailure,
    TailTooFat,
    TailUnbounded,
    UnknownFamily,
    UnstableScheme,
)

__version__ = "0.1.0"

_LAZY = {
    **dict.fromkeys((
        "GridSpec",
        "IndexReport",
        "analytic_index",
        "cross_check",
        "fit_continuity_exponent",
        "fit_garding_exponent",
        "smoothness_moments",
        "sobolev_index",
    ), "indices"),
    **dict.fromkeys((
        "BoundReport",
        "LevyDensity",
        "bg_index",
        "cgmy_density",
        "density_symbol",
        "gamma_index",
        "gh_expansion_density",
        "nig_density",
        "power_law_density",
        "split_symmetric",
        "symbol_parts_from_density",
        "tabulated_density",
        "verify_appendix_bounds",
    ), "measures"),
    **dict.fromkeys((
        "FormReport",
        "FrequencyGrid",
        "SpectralField",
        "Trajectory",
        "bilinear_form",
        "conditional_expectation",
        "conj_symmetrize",
        "density",
        "density_grid",
        "density_mass",
        "evolve",
        "re_a_weighted_norm",
        "sobolev_norm",
        "verify_form_inequalities",
    ), "spectral"),
    **dict.fromkeys((
        "BrownianParams",
        "CauchyParams",
        "CGMYParams",
        "GHParams",
        "NIGParams",
        "PowerLawParams",
        "Stable1dParams",
        "StudentTParams",
        "Symbol",
        "TabulatedParams",
        "check_semistable_scaling",
        "make_symbol",
        "params_from_record",
        "params_to_record",
        "stable_symbol_1d",
        "symbol_from_callable",
    ), "symbols"),
}

__all__ = sorted({*(k for k, v in globals().items()
                   if isinstance(v, type) and issubclass(v, LevySobolevError)), *_LAZY})


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_LAZY})
