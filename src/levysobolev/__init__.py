"""Levy symbols, Sobolev/jump-activity indices, and a Fourier-spectral PIDE solver."""

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
from .indices import (
    GridSpec,
    IndexReport,
    analytic_index,
    cross_check,
    fit_continuity_exponent,
    fit_garding_exponent,
    smoothness_moments,
    sobolev_index,
)
from .spectral import (
    FormReport,
    FrequencyGrid,
    SpectralField,
    Trajectory,
    bilinear_form,
    conditional_expectation,
    conj_symmetrize,
    density,
    density_grid,
    density_mass,
    evolve,
    re_a_weighted_norm,
    sobolev_norm,
    verify_form_inequalities,
)
from .symbols import (
    BrownianParams,
    CauchyParams,
    CGMYParams,
    GHParams,
    NIGParams,
    PowerLawParams,
    Stable1dParams,
    StudentTParams,
    Symbol,
    TabulatedParams,
    check_semistable_scaling,
    make_symbol,
    params_from_record,
    params_to_record,
    stable_symbol_1d,
    symbol_from_callable,
)

__version__ = "0.1.0"

# only density-backed work needs measures; its names load it on first
# access (PEP 562), so the other CLI tasks skip its import
_MEASURES_NAMES = frozenset({
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
})


def __getattr__(name):
    if name in _MEASURES_NAMES:
        from . import measures
        return getattr(measures, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_MEASURES_NAMES})
