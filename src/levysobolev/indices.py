"""Sobolev-index estimation from symbol samples.

The index alpha of a symbol requires *both* growth conditions at once:

    |A(xi)|    <= C1 (1 + |xi|^2)^{alpha/2}      (continuity)
    Re A(xi)   >= C2 |xi|^alpha - lower order     (Garding)

Both are asymptotic statements, so the estimators below fit log-log slopes
of |A| and Re A along rays, on the top half (in log radius) of the grid.
The continuity exponent takes the max over directions and the Garding
exponent the min, matching the uniform-in-xi quantifiers.  An index is
declared only when the two agree within `tol`, the continuity ratio
|A|/(1+r)^alpha is not still growing (this is what rules out the
|u| log|u| symbols of non-strict 1-stable laws at any tol), and the fitted
lower-order exponent stays below alpha.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np

from .errors import (
    DegenerateSymbol,
    FitUnstable,
    InvalidParams,
    MissingField,
    NonpositiveRealPart,
    TailUnbounded,
    UnknownFamily,
)
from .fitting import linear_fit
from .symbols import (
    BrownianParams,
    CauchyParams,
    CGMYParams,
    GHParams,
    NIGParams,
    Stable1dParams,
    StudentTParams,
    Symbol,
)

SUB_POLYNOMIAL_SLOPE = 0.1   # below this the growth is declared non-polynomial
RESIDUAL_GROWTH_TOL = 0.03   # max admissible growth of |A|/(1+r)^alpha


@dataclass(frozen=True)
class GridSpec:
    """Radial log grid and unit directions of every fit; a refusal names its field first."""

    r_min: float = 1e2
    r_max: float = 1e6
    points_per_decade: int = 16
    n_directions: int = 32  # for d > 1; d = 1 always uses {+1, -1}

    def __post_init__(self):
        if self.r_min < 1.0:
            raise InvalidParams("r_min must be >= 1")
        if self.r_max / self.r_min < 1e2:
            raise InvalidParams("r_max must be >= 100 r_min: two decades of radii")
        if self.points_per_decade < 4:
            raise InvalidParams("points_per_decade must be >= 4")
        if self.n_directions < 1:
            raise InvalidParams("n_directions must be >= 1")

    def radii(self) -> np.ndarray:
        decades = np.log10(self.r_max / self.r_min)
        n = max(int(round(decades * self.points_per_decade)) + 1, 16)
        return np.geomspace(self.r_min, self.r_max, n)

    def directions(self, d: int) -> np.ndarray:
        if d == 1:
            return np.array([[1.0], [-1.0]])
        if d == 2:
            ang = 2.0 * np.pi * np.arange(self.n_directions) / self.n_directions
            return np.column_stack([np.cos(ang), np.sin(ang)])
        rng = np.random.default_rng(421)
        v = rng.standard_normal((self.n_directions, d))
        return v / np.linalg.norm(v, axis=1, keepdims=True)


def _ray_values(symbol: Symbol, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """A on all rays: returns (radii, values[n_dir, n_r]).  In d = 1 the -1 ray
    is the conjugate of the +1 ray, A(-xi) = conj(A(xi)), when that symmetry is
    known (catalog and density-backed symbols); other symbols evaluate both."""
    r = grid.radii()
    # params first: reading `density` of a catalog symbol would build it
    if symbol.d == 1 and (symbol.params is not None or symbol.density is not None):
        plus = symbol(r)
        return r, np.vstack([plus, np.conj(plus)])
    dirs = grid.directions(symbol.d)
    pts = (dirs[:, None, :] * r[None, :, None]).reshape(-1, symbol.d)
    vals = symbol(pts if symbol.d > 1 else pts[:, 0])
    return r, vals.reshape(len(dirs), len(r))


def _top_half(r: np.ndarray) -> slice:
    return slice(len(r) // 2, None)


def fit_continuity_exponent(symbol: Symbol, grid: GridSpec = GridSpec()):
    """Max over directions of the log-log slope of |A(r e)| on the top half.

    Returns (alpha_cont, diagnostics); diagnostics carry per-direction slopes,
    the worst R^2 and the sub-polynomial flag.
    """
    return _continuity_fit(*_ray_values(symbol, grid))


def _continuity_fit(r: np.ndarray, vals: np.ndarray):
    mags = np.abs(vals)
    if mags.max() <= 1e-14:
        raise DegenerateSymbol("symbol vanishes on the whole fit grid")
    win = _top_half(r)
    n = len(r)
    q3, q4 = slice(n // 2, 3 * n // 4), slice(3 * n // 4, None)
    slopes, r2s, s3s, s4s = [], [], [], []
    for row in mags:
        lrow = np.log(np.maximum(row, 1e-300))
        slope, _, r2 = linear_fit(np.log(r[win]), lrow[win])
        slopes.append(slope)
        r2s.append(r2)
        s3s.append(linear_fit(np.log(r[q3]), lrow[q3])[0])
        s4s.append(linear_fit(np.log(r[q4]), lrow[q4])[0])
    alpha = float(np.max(slopes))
    s3, s4 = float(np.max(s3s)), float(np.max(s4s))
    # log-growing symbols masquerade as a tiny power; they betray themselves
    # by a local slope that is both small and still falling across the window
    sub_poly = alpha < SUB_POLYNOMIAL_SLOPE or (
        alpha < 2.0 * SUB_POLYNOMIAL_SLOPE and s4 <= 0.85 * s3
    )
    diag = {
        "slopes": [float(s) for s in slopes],
        "r2_min": float(np.min(r2s)),
        "slope_q3": s3,
        "slope_q4": s4,
        "sub_polynomial": bool(sub_poly),
    }
    return alpha, diag


def fit_garding_exponent(symbol: Symbol, grid: GridSpec = GridSpec()):
    """Min over directions of the log-log slope of Re A(r e) on the top half.

    The Garding condition only constrains Re A beyond some threshold N; when
    the plain top-half fit is poor the fit start is advanced past the
    crossover until R^2 >= 0.995 (at least 8 points are kept).
    """
    return _garding_fit(*_ray_values(symbol, grid))


def _garding_fit(r: np.ndarray, vals: np.ndarray):
    re = vals.real
    win = _top_half(r)
    if np.any(re[:, win] <= 0.0):
        raise NonpositiveRealPart("Re A <= 0 inside the fit range")
    slopes, r2s = [], []
    for row in re:
        lr, ly = np.log(r[win]), np.log(row[win])
        slope, _, r2 = linear_fit(lr, ly)
        start = 0
        while r2 < 0.995 and len(lr) - start > 8:
            start += max(1, len(lr) // 8)
            slope, _, r2 = linear_fit(lr[start:], ly[start:])
        slopes.append(slope)
        r2s.append(r2)
    alpha = float(np.min(slopes))
    diag = {"slopes": [float(s) for s in slopes], "r2_min": float(np.min(r2s))}
    return alpha, diag


def _lower_order_exponent(r: np.ndarray, vals: np.ndarray, alpha: float):
    """Exponent of the deficit C2 r^alpha - Re A (0 when no deficit)."""
    re_min = vals.real.min(axis=0)
    top_decade = r >= r[-1] / 10.0
    c2 = 0.95 * float(np.min(re_min[top_decade] / r[top_decade] ** alpha))
    if c2 <= 0:
        return float("nan"), c2
    deficit = c2 * r**alpha - re_min
    pos = deficit > 1e-12 * np.maximum(re_min, 1e-300)
    if pos.sum() < 8:
        return 0.0, c2
    slope, _, _ = linear_fit(np.log(r[pos]), np.log(deficit[pos]))
    return float(max(slope, 0.0)), c2


def _residual_growth(r: np.ndarray, vals: np.ndarray, alpha: float) -> float:
    """Top-half growth slope of |A(r e)|/(1+r)^alpha (0 for a true index)."""
    ratio = np.abs(vals) / (1.0 + r[None, :]) ** alpha
    win = _top_half(r)
    worst = -np.inf
    for row in ratio:
        slope, _, _ = linear_fit(np.log(r[win]), np.log(np.maximum(row[win], 1e-300)))
        worst = max(worst, slope)
    return float(worst)


# --------------------------------------------------------------------------
# reports
# --------------------------------------------------------------------------

@dataclass
class IndexReport:
    alpha_cont: float
    alpha_gard: Optional[float]
    sobolev_index: Optional[float]
    sub_polynomial: bool
    residual_growth: Optional[float]
    beta_lower: Optional[float]
    garding_c2: Optional[float]
    r2_cont: float
    r2_gard: Optional[float]
    tol: float
    beta: Optional[float] = None
    gamma: Optional[float] = None
    verdicts: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    # (radii, values[n_dir, n_r]) the fits used; not part of the record
    rays: Optional[tuple] = field(default=None, repr=False, compare=False)

    def to_record(self) -> dict:
        """The compared fields (all but `rays`), dicts copied one level deep."""
        return {f.name: copy.copy(getattr(self, f.name)) for f in fields(self) if f.compare}

    @classmethod
    def from_record(cls, rec: dict) -> "IndexReport":
        return cls(**rec)


def index_verdict(symbol: Symbol, grid: GridSpec = GridSpec(),
                  tol: float = 0.05) -> IndexReport:
    """Combine the two exponent fits into an index verdict.

    The index is declared iff the growth is genuinely polynomial, the two
    exponents agree within tol, alpha_gard lands in (0, 2], the continuity
    ratio at alpha_gard has stopped growing, and the fitted lower-order
    exponent of the Garding deficit stays below alpha_gard.  The declared
    value is the fitted alpha_gard, never rounded to a catalog constant.
    The rays are evaluated once and shared by every fit (`report.rays`).
    beta and gamma are left None; sobolev_index adds them.
    """
    r, vals = _ray_values(symbol, grid)
    alpha_cont, diag_c = _continuity_fit(r, vals)
    report = IndexReport(
        alpha_cont=alpha_cont,
        alpha_gard=None,
        sobolev_index=None,
        sub_polynomial=diag_c["sub_polynomial"],
        residual_growth=None,
        beta_lower=None,
        garding_c2=None,
        r2_cont=diag_c["r2_min"],
        r2_gard=None,
        tol=tol,
        diagnostics={"cont_slopes": diag_c["slopes"]},
        rays=(r, vals),
    )
    try:
        alpha_gard, diag_g = _garding_fit(r, vals)
    except NonpositiveRealPart:
        report.diagnostics["garding"] = "nonpositive real part on fit range"
        return report
    report.alpha_gard = alpha_gard
    report.r2_gard = diag_g["r2_min"]
    report.diagnostics["gard_slopes"] = diag_g["slopes"]
    if report.sub_polynomial:
        return report

    growth = _residual_growth(r, vals, alpha_gard)
    beta_lower, c2 = _lower_order_exponent(r, vals, alpha_gard)
    report.residual_growth = growth
    report.beta_lower = None if np.isnan(beta_lower) else beta_lower
    report.garding_c2 = c2

    agrees = abs(alpha_cont - alpha_gard) <= tol
    in_range = 0.0 < alpha_gard <= 2.0 + tol
    settled = growth <= RESIDUAL_GROWTH_TOL
    lower_ok = (not np.isnan(beta_lower)) and beta_lower < alpha_gard - 1e-9
    if agrees and in_range and settled and lower_ok:
        report.sobolev_index = float(min(alpha_gard, 2.0))
    return report


def sobolev_index(symbol: Symbol, grid: GridSpec = GridSpec(),
                  tol: float = 0.05) -> IndexReport:
    """index_verdict plus, for a density-backed symbol whose verdict got past
    the Garding fit and the sub-polynomial check, the jump-activity indices
    beta = bg_index and gamma = gamma_index of its Levy density (a
    FitUnstable is recorded in diagnostics["jump_indices"])."""
    report = index_verdict(symbol, grid, tol)
    if report.alpha_gard is None or report.sub_polynomial:
        return report
    if symbol.density is not None:
        from .measures import bg_index, gamma_index
        try:
            report.beta = bg_index(symbol.density)
            report.gamma = gamma_index(symbol.density)
        except FitUnstable as exc:
            report.diagnostics["jump_indices"] = str(exc)
    return report


# (family, condition, Sobolev index) of the analytic catalog
CATALOG = (
    ("brownian", "positive definite sigma", "2"),
    ("nig", "alpha^2 > <beta, Delta beta>", "1"),
    ("cauchy", "c > 0", "1"),
    ("student_t", "f > 0", "1"),
    ("gh", "expansion C1/x^2 + C2/|x| + C3/x", "1"),
    ("cgmy", "0 < Y < 2", "Y"),
    ("vg", "CGMY with Y = 0", "none"),
    ("stable1d", "alpha != 1, strict (beta=0, tau=0 if alpha<1)", "alpha"),
    ("stable1d", "alpha = 1 strict (beta = 0)", "1"),
    ("stable1d", "alpha = 1, beta != 0", "none"),
)


def analytic_index(family) -> Optional[float]:
    """The catalog value: Brownian 2, NIG/Cauchy/Student-t/GH 1, CGMY Y
    (none for Y = 0), stable alpha with the strictness provisos.

    Accepts a parameter record or a family-name string; a name resolves
    only when its CATALOG rows give one constant ("gh_numeric" is "gh").
    """
    if isinstance(family, str):
        name = family.lower().replace("-", "_")
        name = "gh" if name == "gh_numeric" else name
        values = {idx for fam, _, idx in CATALOG if fam == name}
        try:
            # unknown names, several rows (stable1d) and "Y" (cgmy) all fail here
            (value,) = values
            return None if value == "none" else float(value)
        except ValueError:
            raise UnknownFamily(f"no catalog entry for {family!r}") from None
    if isinstance(family, BrownianParams):
        sigma = np.atleast_2d(np.asarray(family.sigma, dtype=float))
        if np.linalg.eigvalsh(0.5 * (sigma + sigma.T)).min() > 0:
            return 2.0
        raise UnknownFamily("degenerate Brownian part is outside the catalog")
    if isinstance(family, (NIGParams, CauchyParams, StudentTParams, GHParams)):
        return 1.0
    if isinstance(family, CGMYParams):
        return family.Y if 0.0 < family.Y < 2.0 else None
    if isinstance(family, Stable1dParams):
        a = family.alpha
        if a == 1.0:
            return 1.0 if family.beta == 0.0 else None
        if a > 1.0:
            return a
        return a if (family.beta == 0.0 and family.tau == 0.0) else None
    raise UnknownFamily(f"no catalog entry for {type(family).__name__}")


def _upper_gamma_bound(a: float, x: float) -> float:
    """An upper bound of Gamma(a, x) = int_x^inf s^(a-1) e^-s ds, a, x > 0:
    x^(a-1) e^-x if a <= 1; that times x/(x - a + 1) if x > a - 1 (the
    tangent at x of the concave log integrand); else Gamma(a), or inf.
    Taken in logs, so x^(a-1) cannot overflow where e^-x underflows."""
    if a <= 1.0 or x > a - 1.0:
        head = math.exp((a - 1.0) * math.log(x) - x)
        return head if a <= 1.0 else head * x / (x - a + 1.0)
    return math.gamma(a) if a < 171.0 else math.inf


def smoothness_moments(symbol: Symbol, t: float, n_max: int,
                       grid: GridSpec = GridSpec()) -> list[float]:
    """Moments M_n = int |xi|^n |mu_hat_t(xi)| dxi for n = 0..n_max (d = 1).

    |mu_hat_t(xi)| = e^{-t Re A(xi)}; the integral is truncated where the
    fitted Garding bound Re A >= c2 |xi|^alpha certifies a tail remainder
    below 1e-8 M_n (by _upper_gamma_bound, without scipy).  [0, 10]
    and each doubling segment beyond are one adaptive Gauss-Kronrod run
    (`measures._adapt`, tolerance 1.49e-8 as QUADPACK's default).
    """
    if symbol.d != 1:
        raise InvalidParams("moments are implemented for d = 1")
    if t <= 0:
        raise InvalidParams("t must be positive")
    r, vals = _ray_values(symbol, grid)
    try:
        alpha, _ = _garding_fit(r, vals)
    except NonpositiveRealPart as exc:
        raise TailUnbounded("no Garding fit available") from exc
    top = r >= grid.r_max / 10.0
    re_vals = vals[0, top].real
    c2 = 0.9 * float(np.min(re_vals / r[top] ** alpha))
    if alpha <= 0 or c2 <= 0:
        raise TailUnbounded("fitted Garding bound is not positive")

    from .measures import _adapt, _rule

    lam = t * c2

    def tail_bound(n: int, cut: float) -> float:
        a = (n + 1.0) / alpha
        return 2.0 / alpha * lam ** (-a) * _upper_gamma_bound(a, lam * cut**alpha)

    def segment(n: int, a: float, b: float) -> float:
        # 2 int_a^b x^n e^{-t Re A(x)} dx by adaptive Gauss-Kronrod 21, one
        # symbol call per round on all new nodes
        rule = _rule(lambda x: x**n * np.exp(-t * np.real(symbol(x))))
        val, _ = _adapt(rule, [a], [b], [0], 200, 1.49e-8, 1.49e-8)
        return 2.0 * float(val[0])

    moments = []
    for n in range(n_max + 1):
        cut = 10.0
        main = segment(n, 0.0, cut)
        while tail_bound(n, cut) > 1e-8 * max(main, 1e-300) and cut < grid.r_max:
            main += segment(n, cut, 2.0 * cut)
            cut *= 2.0
        if tail_bound(n, cut) > 1e-8 * main:
            raise TailUnbounded(f"tail certificate not reached for n = {n}")
        moments.append(float(main))
    return moments


def cross_check(report: IndexReport) -> dict:
    """Inequality verdicts beta >= gamma and beta >= index (the latter only
    when the index is < 2); each verdict carries its numeric slack."""
    if report.beta is None or report.gamma is None:
        raise MissingField("report carries no beta/gamma estimates")
    verdicts = {
        "beta_ge_gamma": {
            "passed": bool(report.beta >= report.gamma - 0.05),
            "slack": float(report.beta - report.gamma),
        }
    }
    if report.sobolev_index is None:
        raise MissingField("report carries no Sobolev index")
    if report.sobolev_index < 2.0 - 1e-6:
        verdicts["beta_ge_index"] = {
            "passed": bool(report.beta >= report.sobolev_index - 0.05),
            "slack": float(report.beta - report.sobolev_index),
            "applicable": True,
        }
    else:
        verdicts["beta_ge_index"] = {"passed": True, "slack": 0.0, "applicable": False}
    report.verdicts.update(verdicts)
    return verdicts
