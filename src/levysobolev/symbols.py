"""Levy process symbols A(xi): the family records and the closed-form catalog.

The symbol of a Levy process with characteristics (b, sigma, F) w.r.t. a
truncation h is

    A(xi) = 1/2 <xi, sigma xi> + i<xi, b>
            - int ( e^{-i<xi,y>} - 1 + i<xi,h(y)> ) F(dy),

equivalently A(xi) = -theta(-i xi) for the cumulant theta, so that
mu_hat_t(xi) = e^{-t A(-xi)} (see conventions.py).  Each family below
implements A in closed form; the density-backed families (gh, powerlaw,
tabulated) go through the quadrature route of measures.py.

Complex powers (M - iu)^Y, (G + iu)^Y in the CGMY exponent use the principal
branch; both bases have strictly positive real part for G, M > 0, so no
branch cut is crossed.  The Student-t Bessel factor is evaluated through the
scaled form K_v(z) e^z so the log subtraction stays finite out to |u| ~ 1e6.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import MISSING, dataclass, fields
from functools import cached_property
from typing import Callable, ClassVar

import numpy as np

from .errors import EvalOverflow, InvalidParams

_SANITY_POINTS = 64
_HERMITIAN_TOL = 1e-10
_REAL_PART_TOL = 1e-10


class Truncation(enum.Enum):
    """Drift convention h of the Levy-Khintchine formula."""

    IDENTITY = "identity"       # h(x) = x (special semimartingale)
    UNIT_BALL = "unit_ball"     # h(x) = x * 1_{|x|<1}


# --------------------------------------------------------------------------
# family parameter records
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BrownianParams:
    """sigma is the covariance matrix (scalar accepted for d=1)."""

    family: ClassVar[str] = "brownian"
    sigma: tuple | float = 1.0
    b: tuple | float = 0.0


@dataclass(frozen=True)
class NIGParams:
    family: ClassVar[str] = "nig"
    alpha: float
    beta: tuple | float = 0.0
    delta: float = 1.0
    mu: tuple | float = 0.0
    Delta: tuple | None = None  # defaults to identity


@dataclass(frozen=True)
class CauchyParams:
    family: ClassVar[str] = "cauchy"
    c: float = 1.0
    gamma: tuple | float = 0.0


@dataclass(frozen=True)
class StudentTParams:
    """Degrees of freedom f; the Bessel order is delta = f/4 unless given."""

    family: ClassVar[str] = "student_t"
    f: float
    delta: float | None = None
    mu: float = 0.0


@dataclass(frozen=True)
class CGMYParams:
    family: ClassVar[str] = "cgmy"
    C: float
    G: float
    M: float
    Y: float
    zero_drift: bool = False  # True forces triplet (0, 0, F); default is the
    # compensated drift b = int x F(dx) for Y < 1 and (0, 0, F) for Y >= 1


@dataclass(frozen=True)
class Stable1dParams:
    family: ClassVar[str] = "stable1d"
    alpha: float
    c: float = 1.0
    beta: float = 0.0
    tau: float = 0.0


@dataclass(frozen=True)
class GHParams:
    family: ClassVar[str] = "gh"  # C1/x^2 + C2/|x| + C3/x, damped by e^{-damping |x|}
    C1: float = 1.0
    C2: float = 0.0
    C3: float = 0.0
    damping: float = 1.0


@dataclass(frozen=True)
class PowerLawParams:
    family: ClassVar[str] = "powerlaw"  # Levy density coef/|x|^{1+Y} on all of R
    Y: float
    coef: float = 1.0


@dataclass(frozen=True)
class TabulatedParams:
    family: ClassVar[str] = "tabulated"
    path: str  # CSV of x,f(x) rows ('#' starts a comment), log-log interpolated


# each family's params dataclass is the one owner of its name and record keys
FAMILIES = {cls.family: cls for cls in (
    BrownianParams, NIGParams, CauchyParams, StudentTParams, CGMYParams, Stable1dParams,
    GHParams, PowerLawParams, TabulatedParams)}


def _as_vector(v, d: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(np.asarray(v, dtype=float))
    if arr.shape == (1,) and d > 1:
        arr = np.full(d, arr[0])
    if arr.shape != (d,):
        raise InvalidParams(f"{name} must be a length-{d} vector, got shape {arr.shape}")
    return arr


def _as_matrix(m, d: int, name: str) -> np.ndarray:
    if m is None:
        return np.eye(d)
    arr = np.asarray(m, dtype=float)
    if arr.ndim == 0:
        arr = arr * np.eye(d)
    if arr.shape != (d, d):
        raise InvalidParams(f"{name} must be {d}x{d}, got shape {arr.shape}")
    return arr


def _check_symmetric_psd(m: np.ndarray, name: str, tol: float = 1e-12) -> None:
    if not np.allclose(m, m.T, atol=tol, rtol=0.0):
        raise InvalidParams(f"{name} must be symmetric within {tol:g} elementwise")
    eigs = np.linalg.eigvalsh(0.5 * (m + m.T))
    if eigs.min() < -tol:
        raise InvalidParams(f"{name} must be positive semidefinite (min eigenvalue {eigs.min():g})")


# --------------------------------------------------------------------------
# triplet
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyTriplet:
    """Characteristics (b, sigma, F) with an explicit truncation convention.

    `levy_density` is any object exposing a vectorized density ``f`` and an
    optional ``finite_variation`` flag (see measures.LevyDensity); it is only
    inspected, never imported, to keep this module density-free.
    """

    dimension: int
    b: np.ndarray
    sigma: np.ndarray
    levy_density: object | None = None
    truncation: Truncation = Truncation.IDENTITY

    def __post_init__(self):
        d = self.dimension
        if d < 1:
            raise InvalidParams("dimension must be a positive integer")
        object.__setattr__(self, "b", _as_vector(self.b, d, "b"))
        object.__setattr__(self, "sigma", _as_matrix(self.sigma, d, "sigma"))
        _check_symmetric_psd(self.sigma, "sigma")
        if self.truncation is Truncation.IDENTITY and self.levy_density is not None:
            if not _density_has_finite_compensator(self.levy_density):
                raise InvalidParams(
                    "truncation h(x)=x requires int_{|x|>1} |x| f(x) dx < infinity"
                )


def _density_has_finite_compensator(density) -> bool:
    # With h(x)=x the compensator needs the *large*-jump first moment. Trust a
    # declared tag for the small-jump side; probe the tail numerically.
    xs = np.geomspace(1.0, 1e4, 200)
    try:
        vals = xs * (np.abs(density.f(xs)) + np.abs(density.f(-xs)))
    except Exception as exc:
        raise InvalidParams(
            f"levy_density.f failed on a float array ({type(exc).__name__}: {exc})"
        ) from exc
    partial = np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(xs))
    if partial[-1] == 0.0:
        return True
    tail_growth = partial[-1] - partial[len(partial) // 2]
    return bool(tail_growth <= 0.05 * partial[-1] + 1e-30)


# --------------------------------------------------------------------------
# the Symbol object
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Symbol:
    """Evaluable map xi -> A(xi) in C, immutable after construction.

    `fn` maps an (n, d) float array to an (n,) complex array.  Evaluations
    are pure; the lazily cached attributes are the frozen quadratic-bound
    constant, which is value-deterministic, and the backing Levy density,
    which `build_density` builds (and checks) on first access.
    """

    d: int
    family: str
    params: object | None
    fn: Callable[[np.ndarray], np.ndarray]
    eval_mode: str = "closed-form"  # or "quadrature"
    build_density: Callable[[], object] | None = None  # () -> backing Levy density

    @cached_property
    def density(self):
        """The Levy density backing this symbol, or None; built on first access."""
        return None if self.build_density is None else self.build_density()

    def __call__(self, xi):
        arr = np.asarray(xi, dtype=float)
        scalar = arr.ndim == 0 or (self.d > 1 and arr.ndim == 1)
        pts = arr.reshape(-1, self.d)
        if not np.all(np.isfinite(pts)):
            raise InvalidParams("xi must be finite")
        out = np.asarray(self.fn(pts), dtype=complex)
        if not np.all(np.isfinite(out)):
            raise EvalOverflow(f"{self.family} symbol overflowed at |xi| ~ {np.abs(pts).max():g}")
        if scalar:
            return complex(out[0])
        return out.reshape(arr.shape if self.d == 1 else arr.shape[:-1])

    def char_fn(self, t: float, xi):
        """mu_hat_t(xi) = e^{-t A(-xi)}; |result| <= 1 since Re A >= 0."""
        if t <= 0:
            raise InvalidParams("t must be positive")
        return np.exp(-t * self(np.negative(np.asarray(xi, dtype=float))))

    @cached_property
    def quadratic_bound_constant(self) -> float:
        """C with |A(xi)| <= C (1+|xi|)^2, fitted once on |xi| <= 1e6 and frozen."""
        from .indices import GridSpec
        r = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 512)))
        ratios = []
        for e in GridSpec(n_directions=8).directions(self.d):
            xi = np.outer(r, e)
            vals = self(xi if self.d > 1 else xi[:, 0])
            ratios.append(np.abs(vals) / (1.0 + r) ** 2)
        return float(1.01 * np.max(ratios))

    def __add__(self, other: "Symbol") -> "Symbol":
        if not isinstance(other, Symbol) or other.d != self.d:
            return NotImplemented
        f1, f2 = self.fn, other.fn
        return Symbol(
            d=self.d,
            family=f"sum({self.family},{other.family})",
            params=None,
            fn=lambda pts: f1(pts) + f2(pts),
            eval_mode="quadrature" if "quadrature" in (self.eval_mode, other.eval_mode)
            else "closed-form",
        )


def symbol_from_callable(fn, d: int = 1, family: str = "custom",
                         eval_mode: str = "closed-form", **kw) -> Symbol:
    """Wrap a vectorized map (n,d)->complex (n,) as a Symbol (no sanity check)."""
    return Symbol(d=d, family=family, params=None, fn=fn, eval_mode=eval_mode, **kw)


# --------------------------------------------------------------------------
# closed-form evaluators
# --------------------------------------------------------------------------

def _brownian_fn(sigma: np.ndarray, b: np.ndarray):
    def fn(pts):
        quad = 0.5 * np.einsum("ni,ij,nj->n", pts, sigma, pts)
        return quad + 1j * (pts @ b)
    return fn


def _nig_fn(alpha, beta, delta, mu, Delta):
    gamma0 = math.sqrt(alpha**2 - float(beta @ Delta @ beta))

    def fn(pts):
        # z = alpha^2 - <beta - iu, Delta (beta - iu)>, non-Hermitian bilinear sum
        uDu = np.einsum("ni,ij,nj->n", pts, Delta, pts)
        bDu = pts @ (Delta @ beta)
        z_re = gamma0**2 + uDu
        z_im = 2.0 * bDu
        mod = np.hypot(z_re, z_im)
        # half-angle square root (the paper's formula): principal since Re z > 0
        sq = np.sqrt(0.5 * (mod + z_re)) + 1j * np.sign(z_im) * np.sqrt(
            np.maximum(0.5 * (mod - z_re), 0.0)
        )
        return delta * (sq - gamma0) + 1j * (pts @ mu)
    return fn


def _cauchy_fn(c, gamma_vec):
    def fn(pts):
        return c * np.linalg.norm(pts, axis=1) + 1j * (pts @ gamma_vec)
    return fn


def _student_t_fn(dd: float, mu: float):
    # A(u) = -log K_dd(2 sqrt(dd)|u|) - dd log|u| - c0 + i mu u, with c0 fixed
    # by A(0) = 0; evaluated via kve = K e^z to stay finite for |u| <= 1e6.
    from scipy.special import kve, loggamma
    c0 = math.log(2.0) - float(loggamma(dd)) + 0.5 * dd * math.log(dd)

    def fn(pts):
        u = pts[:, 0]
        au = np.abs(u)
        out = np.zeros(len(u), dtype=complex)
        nz = au > 1e-150
        z = 2.0 * math.sqrt(dd) * au[nz]
        log_k = np.log(kve(dd, z)) - z
        out[nz] = -log_k - dd * np.log(au[nz]) - c0
        return out + 1j * mu * u
    return fn


# Cephes Gamma (Moshier, Methods and Programs for Mathematical Functions,
# 1989), the rational approximation scipy.special.gamma evaluates
_GAMMA_P = (1.60119522476751861407e-4, 1.19135147006586384913e-3, 1.04213797561761569935e-2,
            4.76367800457137231464e-2, 2.07448227648435975150e-1, 4.94214826801497100753e-1,
            9.99999999999999996796e-1)
_GAMMA_Q = (-2.31581873324120129819e-5, 5.39605580493303397842e-4, -4.45641913851797240494e-3,
            1.18139785222060435552e-2, 3.58236398605498653373e-2, -2.34591795718243348568e-1,
            7.14304917030273074085e-2, 1.00000000000000000320e0)


def _polevl(x: float, coef: tuple) -> float:
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _gamma(x: float) -> float:
    """Gamma(x) bit for bit as scipy.special.gamma, for finite non-integer
    x with |x| <= 2 and for x = 1, 2: Cephes's steps in Cephes's order.
    The returns inside the loops are its `small` branch near a pole."""
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 0.0:
        if x > -1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


def _cgmy_fn(C, G, M, Y, zero_drift: bool):
    # A(u) = -C Gamma(-Y) [ (M+iu)^Y - M^Y + (G-iu)^Y - G^Y ]          (b = int xF, Y<1)
    # minus i*u*C Gamma(1-Y)(M^{Y-1} - G^{Y-1}) for the (0,0,F) triplet.
    # Y = 1 uses the analytic limit; Y = 0 is variance gamma.  _gamma, not
    # math.gamma: math.gamma differs from scipy's in the last bits.
    if Y not in (0.0, 1.0):
        g = _gamma(-Y)
        # constants via numpy's complex power so A(0) cancels bitwise
        m_y, g_y = np.complex128(M) ** Y, np.complex128(G) ** Y
    if zero_drift and Y != 1.0:
        g_drift = _gamma(1.0 - Y)
        drift = M ** (Y - 1.0) - G ** (Y - 1.0)

    def fn(pts):
        u = pts[:, 0]
        iu = 1j * u
        if Y == 1.0:
            a = -C * ((M + iu) * np.log((M + iu) / M) + (G - iu) * np.log((G - iu) / G))
            return a
        if Y == 0.0:
            a = C * (np.log((M + iu) / M) + np.log((G - iu) / G))
        else:
            a = -C * g * ((M + iu) ** Y - m_y + (G - iu) ** Y - g_y)
        if zero_drift:
            a = a - iu * C * g_drift * drift
        return a
    return fn


def _stable1d_fn(alpha, c, beta, tau):
    def fn(pts):
        u = pts[:, 0]
        au = np.abs(u)
        out = np.zeros(len(u), dtype=complex)
        nz = au > 0
        if alpha == 1.0:
            # A(u) = c|u| (1 - i beta (2/pi) sgn(u) log|u|) + i tau u
            out[nz] = c * au[nz] * (
                1.0 - 1j * beta * (2.0 / np.pi) * np.sign(u[nz]) * np.log(au[nz])
            )
        else:
            out[nz] = c * au[nz] ** alpha
        return out + 1j * tau * u
    return fn


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def _density_builder(name: str, *args):
    """() -> measures.<name>(*args); measures (and scipy.integrate) load on the call."""
    def build():
        from . import measures
        return getattr(measures, name)(*args)
    return build


def make_symbol(params, d: int | None = None) -> Symbol:
    """Build the symbol of the params of any family in FAMILIES.

    Raises InvalidParams naming the violated constraint.  A closed-form
    symbol has been checked on a fixed 64-point sanity grid (hermitian
    symmetry, nonnegative real part, finiteness); a density-backed one
    (gh, powerlaw, tabulated) is measures.density_symbol, unchecked.  The
    Levy density of a CGMY or 1-d NIG symbol is built, and checked, on first
    access of `Symbol.density`.
    """
    if isinstance(params, BrownianParams):
        b = np.atleast_1d(np.asarray(params.b, dtype=float))
        d = d or len(b)
        b = _as_vector(params.b, d, "b")
        sigma = _as_matrix(params.sigma, d, "sigma")
        _check_symmetric_psd(sigma, "sigma")
        sym = Symbol(d, "brownian", params, _brownian_fn(sigma, b))
    elif isinstance(params, NIGParams):
        beta = np.atleast_1d(np.asarray(params.beta, dtype=float))
        d = d or len(beta)
        beta = _as_vector(params.beta, d, "beta")
        mu = _as_vector(params.mu, d, "mu")
        Delta = _as_matrix(params.Delta, d, "Delta")
        _check_symmetric_psd(Delta, "Delta")
        if np.linalg.eigvalsh(Delta).min() <= 0:
            raise InvalidParams("Delta must be positive definite")
        if params.delta <= 0:
            raise InvalidParams("delta must be positive")
        if params.alpha <= 0:
            raise InvalidParams("NIG requires alpha > 0")
        if params.alpha**2 <= float(beta @ Delta @ beta):
            raise InvalidParams("NIG requires alpha^2 > <beta, Delta beta>")
        build = None
        if d == 1 and float(Delta[0, 0]) == 1.0:
            build = _density_builder("nig_density", params.alpha, float(beta[0]), params.delta)
        sym = Symbol(d, "nig", params, _nig_fn(params.alpha, beta, params.delta, mu, Delta),
                     build_density=build)
    elif isinstance(params, CauchyParams):
        g = np.atleast_1d(np.asarray(params.gamma, dtype=float))
        d = d or len(g)
        g = _as_vector(params.gamma, d, "gamma")
        if params.c <= 0:
            raise InvalidParams("Cauchy requires c > 0")
        sym = Symbol(d, "cauchy", params, _cauchy_fn(params.c, g))
    elif isinstance(params, StudentTParams):
        if params.f <= 0:
            raise InvalidParams("student-t requires f > 0")
        dd = params.f / 4.0 if params.delta is None else params.delta
        if dd <= 0:
            raise InvalidParams("student-t requires delta > 0")
        sym = Symbol(1, "student_t", params, _student_t_fn(dd, params.mu))
    elif isinstance(params, CGMYParams):
        if min(params.C, params.G, params.M) <= 0:
            raise InvalidParams("CGMY requires C, G, M > 0")
        if not 0.0 <= params.Y < 2.0:
            raise InvalidParams("CGMY requires 0 <= Y < 2")
        zero = params.zero_drift or params.Y >= 1.0
        sym = Symbol(1, "vg" if params.Y == 0.0 else "cgmy", params,
                     _cgmy_fn(params.C, params.G, params.M, params.Y, zero),
                     build_density=_density_builder(
                         "cgmy_density", params.C, params.G, params.M, params.Y))
    elif isinstance(params, Stable1dParams):
        return stable_symbol_1d(params)
    elif isinstance(params, GHParams):
        from . import measures
        return measures.density_symbol(measures.gh_expansion_density(
            params.C1, params.C2, params.C3, params.damping))
    elif isinstance(params, PowerLawParams):
        from . import measures
        return measures.density_symbol(measures.power_law_density(params.coef, params.Y), b=0.0)
    elif isinstance(params, TabulatedParams):
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                data = np.loadtxt(params.path, delimiter=",", comments="#", ndmin=2)
        except (OSError, ValueError) as exc:
            raise InvalidParams(f"cannot read x,f rows of {params.path!r}: {exc}") from exc
        if data.shape[0] == 0 or data.shape[1] < 2:
            raise InvalidParams(f"tabulated file {params.path!r} has no x,f rows")
        x, f = data[:, 0], data[:, 1]
        from . import measures
        return measures.density_symbol(measures.tabulated_density(x, f))
    else:
        raise InvalidParams(f"unknown parameter record {type(params).__name__}")
    _sanity_check(sym)
    return sym


def stable_symbol_1d(params: Stable1dParams) -> Symbol:
    """Strictly alpha-stable symbol c|u|^alpha + i tau u for alpha != 1, and
    the canonical 1-stable form c|u|(1 - i beta (2/pi) sgn(u) log|u|) + i tau u.

    The skewed form for alpha != 1 is not provided (only the strict case
    beta = 0 has an explicit symbol here); requesting it raises InvalidParams.
    """
    a = params.alpha
    if not 0.0 < a <= 2.0:
        raise InvalidParams("stable requires alpha in (0, 2]")
    if params.c <= 0:
        raise InvalidParams("stable requires c > 0")
    if not -1.0 <= params.beta <= 1.0:
        raise InvalidParams("stable requires beta in [-1, 1]")
    if a != 1.0 and params.beta != 0.0:
        raise InvalidParams("skewed stable symbol is only available for alpha = 1")
    sym = Symbol(1, "stable1d", params, _stable1d_fn(a, params.c, params.beta, params.tau))
    _sanity_check(sym)
    return sym


def check_semistable_scaling(symbol: Symbol, a: float, b: float, c, grid) -> float:
    """max over the grid of |a A(u) - A(b u) - i<c,u>| (0 certifies scaling)."""
    if a <= 0 or b <= 0:
        raise InvalidParams("scaling requires a > 0 and b > 0")
    pts = np.asarray(grid, dtype=float)
    if pts.size == 0:
        raise InvalidParams("grid must be nonempty")
    if symbol.d == 1:
        pts = pts.reshape(-1)
        cu = np.asarray(c, dtype=float) * pts
    else:
        pts = pts.reshape(-1, symbol.d)
        cu = pts @ _as_vector(c, symbol.d, "c")
    res = a * symbol(pts) - symbol(b * pts) - 1j * cu
    return float(np.abs(res).max())


def _sanity_grid(d: int) -> np.ndarray:
    rng = np.random.default_rng(97 + d)
    pts = rng.uniform(-50.0, 50.0, size=(_SANITY_POINTS - 4, d))
    extra = np.zeros((4, d))
    extra[1, 0], extra[2, 0], extra[3, 0] = 1.0, -1e3, 1e5
    return np.vstack([extra, pts])


def _sanity_check(sym: Symbol) -> None:
    pts = _sanity_grid(sym.d)
    vals = sym(pts if sym.d > 1 else pts[:, 0])
    mirror = sym(-pts if sym.d > 1 else -pts[:, 0])
    herm = np.abs(vals - np.conj(mirror))
    if np.any(herm > _HERMITIAN_TOL * (1.0 + np.abs(vals))):
        raise InvalidParams(f"{sym.family}: hermitian symmetry A(xi)=conj(A(-xi)) violated")
    r2 = 1.0 + np.sum(pts**2, axis=1)
    if np.any(vals.real < -_REAL_PART_TOL * r2):
        raise InvalidParams(f"{sym.family}: negative real part detected")


# --------------------------------------------------------------------------
# flat key-value serialization (CLI config surface)
# --------------------------------------------------------------------------

def _fmt_mat(m) -> str:
    arr = np.atleast_2d(np.asarray(m, dtype=float))
    return ";".join(",".join(repr(float(x)) for x in row) for row in arr)


def _parse_mat(s):
    """'a' -> float, 'a,b' -> flat tuple, 'a,b;c,d' -> tuple of rows."""
    rows = [tuple(float(x) for x in row.split(",")) for row in str(s).split(";")]
    if len(rows) > 1:
        return tuple(rows)
    return rows[0] if len(rows[0]) > 1 else rows[0][0]


def _parser(field):
    """Text decoder of a params field, chosen by its declared type."""
    if field.type.startswith("tuple"):
        return _parse_mat
    if field.type == "bool":
        return lambda s: (s.strip().lower() in ("1", "true", "yes")
                          if isinstance(s, str) else bool(s))
    return str if field.type == "str" else float


def params_to_record(params) -> dict:
    """Flat record {family, field: value}: tuples as 'a,b;c,d', None left out."""
    rec = {"family": params.family}
    for f in fields(params):
        value = getattr(params, f.name)
        if value is not None:
            rec[f.name] = _fmt_mat(value) if f.type.startswith("tuple") else value
    return rec


def params_from_record(rec: dict):
    """The params of the record's family (values may be text); a `vg` record
    is CGMY with Y = 0 unless Y is given.  An unknown family or key, a missing
    required key or an unreadable value raises InvalidParams naming the key first.
    """
    r = dict(rec)
    fam = str(r.pop("family", "")).lower().replace("-", "_")
    if fam == "vg":
        fam, r = "cgmy", {"Y": 0.0, **r}
    if fam not in FAMILIES:
        raise InvalidParams(f"family: unknown family {fam!r}; known: {', '.join(FAMILIES)}, vg")
    known = {f.name: f for f in fields(FAMILIES[fam])}
    kw = {}
    for key, value in r.items():
        if key not in known:
            raise InvalidParams(f"{key}: not a {fam} parameter (keys: {', '.join(known)})")
        try:
            kw[key] = _parser(known[key])(value)
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"{key}: cannot read {value!r} ({exc})") from exc
    for name, f in known.items():
        if name not in kw and f.default is MISSING:
            raise InvalidParams(f"{name}: required by a {fam} record")
    return FAMILIES[fam](**kw)
