"""Levy densities and the quadrature route to the pure-jump symbol.

For a real-valued pure-jump process with density f and truncation h(x) = x,
the symbol splits along the symmetric part f_s(x) = (f(x) + f(-x))/2 and the
antisymmetric part f_as = f - f_s:

    A_fs(u)  = -int (cos(ux) - 1) f_s(x) dx            (real, >= 0)
    A_fas(u) = i int (sin(ux) - ux) f_as(x) dx         (purely imaginary)

The integrands are singular at 0 like |x|^{-1-Y}.  The graded rule in s of
x = s^10 below integrates them from the origin, singularity included, with
1 - cos(ux) taken as 2 sin(ux/2)^2 and sin(ux) - ux whole: its O(u^3 x^3)
cancels the rounding noise of an f_as differenced from f.  A call whose
error estimate misses the budget 1e-9 (1 + u^2) raises QuadratureFailure.

Each part is one globally adaptive run over [0, r_eff] (`_integrate`): every
round evaluates f_s or f_as once, at the nodes of all new panels, and bisects
the panels whose error is largest.  Below the oscillation cutoff 30/|u| the
rule is QUADPACK's 21-point Gauss-Kronrod pair with its error estimate: from
the origin in s of x = s^10, on panels graded toward s = 0 plus the
geometric remainder below them, elsewhere on geometric thirds of decade
panels.  Beyond the cutoff a Filon-Clenshaw-Curtis rule interpolates w on 25
Chebyshev points and takes sin(ux) or 1 - cos(ux) exactly through modified
Chebyshev moments (Piessens and Branders), its error the distance to the
13-point result.  Panels split at EPS_INNER = 1e-4, the edge of the graded
rule, and at the density's `knots` (the nodes of a tabulated density, where
it has a kink).  The u-independent first moments of f_as and the tails
beyond r_eff use the same rules and are cached on the density.

The antisymmetric part requires int |x f_as| dx < infinity, at 0 and, for
h(x) = x, over the large jumps; local exponents judge that precondition and
DivergentIntegral is raised when it fails.  With an infinite cutoff, the mass
of f_s and the first moment of f_as beyond the outer limit r_eff are added
when r_eff stops at its cap.  No QUADPACK call is made, and scipy is
imported only by an explicit `quad` call: the NIG density's Bessel function
is `k1e`, Cephes' K_1(z) e^z in numpy.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import DivergentIntegral, FitUnstable, Inconsistent, InvalidParams, \
    QuadratureFailure
from .fitting import linear_fit
from .symbols import Symbol, symbol_from_callable

EPS_INNER = 1e-4          # upper edge of the graded inner rule in x = s^10
_LIMIT = 400              # bisections per adaptive run at most
_TOL_ABS = 1e-13          # absolute and relative tolerances of the runs that
_TOL_REL = 1e-11          # do not depend on u: moments, tails and gamma's G(r)
_TREND_TOL = 0.05         # log-log slope tolerance of the Appendix bound verdicts


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported on each call.

    The density route no longer calls it.  The name is looked up at call
    time and never rebound, so a wrapper set on `measures.quad` sees every
    call made through it.
    """
    from scipy.integrate import quad as scipy_quad
    return scipy_quad(*args, **kwargs)


# --------------------------------------------------------------------------
# densities
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyDensity:
    """Lebesgue density of a one-dimensional Levy measure.

    `cutoff` is the radius beyond which f is numerically negligible (may be
    inf when the tail is handled analytically by the weighted rules).

    `f_s_exact`/`f_as_exact` optionally give cancellation-free forms of the
    symmetric/antisymmetric parts; without them `f_s`/`f_as` difference f,
    which loses the antisymmetric part below |x| ~ 1e-14 in double
    precision.  The symbol parts stay within their budget either way: the
    kernel sin(ux) - ux cancels that noise near 0.  The built-in families
    all provide them, and theirs return a scalar for a float x.

    `levy_condition_proven` marks a family whose parameter checks prove
    int (x^2 ^ 1) f dx and int |x f_as| dx finite; `_divergent_end`'s rule for
    both, blind to Y just below 2 and running no quadrature, is then skipped.

    `knots` lists, sorted, the |x| where f is not smooth (the nodes of a
    tabulated density); every quadrature over a range containing one splits
    there.

    The density carries its parts f = f_s + f_as, f_s even and f_as odd,
    checked at construction for symmetry and |f_as| <= f_s, and a cache of
    the u-independent quadrature results, the first moments ("m1", outer) of
    f_as and the f_s mass and f_as moment beyond r_eff, of whether f_as
    vanishes and of a passed f_as integrability check; a copy made by
    `dataclasses.replace` starts with an empty cache.  InvalidParams when f
    raises TypeError or ValueError on a float array.
    """

    f: Callable[[np.ndarray], np.ndarray]
    cutoff: float = np.inf
    name: str = "density"
    f_s_exact: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_as_exact: Optional[Callable[[np.ndarray], np.ndarray]] = None
    levy_condition_proven: bool = False
    knots: tuple = ()
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        xs = np.geomspace(1e-8, min(self.cutoff, 1e3), 40)
        try:
            vals = np.concatenate([self.f(xs), self.f(-xs)])
        except (TypeError, ValueError) as exc:
            raise InvalidParams(f"{self.name}: f failed on a float array "
                                f"({type(exc).__name__}: {exc})") from exc
        if np.any(vals < -1e-12 * (1.0 + np.abs(vals))):
            raise InvalidParams(f"{self.name}: density must be nonnegative")
        if not self.levy_condition_proven and _divergent_end(
                self, lambda x: np.minimum(x * x, 1.0) * self.f(x)) is not None:
            raise InvalidParams(f"{self.name}: int (x^2 ^ 1) f(x) dx does not converge")
        xs = np.geomspace(1e-7, max(1.0, min(self.cutoff, 1e2)), 64)
        xs = np.concatenate([xs, -xs])
        fs, fa = self.f_s(xs), self.f_as(xs)
        if np.any(np.abs(fs - self.f_s(-xs)) > 1e-12 * (1.0 + np.abs(fs))):
            raise InvalidParams("f_s failed the symmetry check")
        if np.any(np.abs(fa) > fs * (1.0 + 1e-12) + 1e-300):
            raise InvalidParams("antisymmetric part exceeds symmetric part")

    @cached_property
    def f_s(self) -> Callable[[np.ndarray], np.ndarray]:
        """The even part; differences f when no `f_s_exact` is given."""
        return _differenced(self.f, 1.0) if self.f_s_exact is None else self.f_s_exact

    @cached_property
    def f_as(self) -> Callable[[np.ndarray], np.ndarray]:
        """The odd part; differences f when no `f_as_exact` is given."""
        return _differenced(self.f, -1.0) if self.f_as_exact is None else self.f_as_exact

    @cached_property
    def r_eff(self) -> float:
        """Outer integration limit: the cutoff, else where f_s(r) r^2 <= 1e-20."""
        if np.isfinite(self.cutoff):
            return float(self.cutoff)
        r = 1.0
        while r < 1e9 and self.f_s(np.array([r]))[0] * r * r > 1e-20:
            r *= 2.0
        return r


def _knots_in(knots, a: float, b: float) -> tuple:
    """The knots strictly inside (a, b)."""
    return knots[bisect_right(knots, a):bisect_left(knots, b)]


def _differenced(f, sign: float):
    """x -> (f(x) + sign f(-x))/2: the even part of f at sign 1, the odd at -1."""
    def part(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (f(x) + sign * f(-x))
    return part


def _off_origin(kernel, odd: bool = False):
    """The part x -> kernel(|x|), times sgn(x) when `odd`, and 0 at x = 0.

    `kernel` is a formula valid for |x| > 0.  A float x is taken as a 0-d array.
    """
    def part(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = np.sign(x) * kernel(ax) if odd else kernel(ax)
        return np.where(ax > 0, out, 0.0)
    return part


def cgmy_density(C: float, G: float, M: float, Y: float) -> LevyDensity:
    """f(x) = C e^{-M x}/x^{1+Y} for x > 0 and C e^{G x}/|x|^{1+Y} for x < 0."""
    if min(C, G, M) <= 0 or not 0.0 <= Y < 2.0:
        raise InvalidParams("CGMY density requires C, G, M > 0 and 0 <= Y < 2")

    def f(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        rate = np.where(x >= 0, M, G)
        with np.errstate(divide="ignore", over="ignore"):
            out = C * np.exp(-rate * ax) / ax ** (1.0 + Y)
        return np.where(ax > 0, out, 0.0)

    f_s = _off_origin(lambda ax: 0.5 * C * (np.exp(-G * ax) + np.exp(-M * ax))
                      / ax ** (1.0 + Y))

    # e^{-M|x|} - e^{-G|x|} = -sgn(G-M) e^{-min|x|} expm1(-|G-M||x|): no
    # cancellation as |x| -> 0 and no overflow at the cutoff
    as_scale, lo_rate, gap = -0.5 * float(np.sign(G - M)) * C, min(G, M), abs(G - M)
    f_as = _off_origin(lambda ax: as_scale * np.exp(-lo_rate * ax) * np.expm1(-gap * ax)
                       / ax ** (1.0 + Y), odd=True)

    return LevyDensity(f=f, cutoff=740.0 / min(G, M),
                       name=f"cgmy(C={C},G={G},M={M},Y={Y})",
                       f_s_exact=f_s, f_as_exact=f_as, levy_condition_proven=True)


# Cephes k1.c (Moshier, Methods and Programs for Mathematical Functions,
# 1989): Chebyshev coefficients in z^2 - 2 of z K_1(z) - z log(z/2) I_1(z)
# on [0, 2], and in 8/z - 2 of K_1(z) e^z sqrt(z) on (2, inf)
_K1_A = (-7.02386347938628759343e-18, -2.42744985051936593393e-15,
         -6.66690169419932900609e-13, -1.41148839263352776110e-10,
         -2.21338763073472585583e-8, -2.43340614156596823496e-6,
         -1.73028895751305206302e-4, -6.97572385963986435018e-3,
         -1.22611180822657148235e-1, -3.53155960776544875667e-1,
         1.52530022733894777053e0)
_K1_B = (-5.75674448366501715755e-18, 1.79405087314755922667e-17,
         -5.68946255844285935196e-17, 1.83809354436663880070e-16,
         -6.05704724837331885336e-16, 2.03870316562433424052e-15,
         -7.01983709041831346144e-15, 2.47715442448130437068e-14,
         -8.97670518232499435011e-14, 3.34841966607842919884e-13,
         -1.28917396095102890680e-12, 5.13963967348173025100e-12,
         -2.12996783842756842877e-11, 9.21831518760500529508e-11,
         -4.19035475934189648750e-10, 2.01504975519703286596e-9,
         -1.03457624656780970260e-8, 5.74108412545004946722e-8,
         -3.50196060308781257119e-7, 2.40648494783721712015e-6,
         -1.93619797416608296024e-5, 1.95215518471351631108e-4,
         -2.85781685962277938680e-3, 1.03923736576817238437e-1,
         2.72062619048444266945e0)
# 1/(k! (k+1)!) for k = 19 ... 0: I_1(z) = (z/2) sum_k (z^2/4)^k/(k! (k+1)!),
# whose 20 terms reach roundoff on [0, 2]
_I1_SERIES = tuple(1.0 / (math.factorial(k) * math.factorial(k + 1)) for k in range(19, -1, -1))


def _chbevl(x, coef):
    """Cephes chbevl: the Chebyshev series in x/2 with `coef` highest order first."""
    b0, b1, b2 = coef[0], 0.0, 0.0
    for c in coef[1:]:
        b2, b1 = b1, b0
        b0 = x * b1 - b2 + c
    return 0.5 * (b0 - b2)


def k1e(z):
    """K_1(z) e^z, the exponentially scaled modified Bessel function of order 1.

    Cephes' k1e in numpy, with its steps in its order: bit for bit as
    scipy.special.k1e for z > 2, and within a few ulp for z <= 2, where I_1
    is its power series instead of Cephes' Chebyshev fit.  As with
    scipy.special.kve(1, z), k1e(0) is inf and a negative or NaN z gives
    NaN; k1e(inf) is 0, as scipy.special.k1e gives.  A 0-d z gives a numpy
    scalar.
    """
    z = np.asarray(z, dtype=float)
    out = np.empty(z.shape)
    near = z <= 2.0
    zn, zf = z[near], z[~near]
    out[~near] = _chbevl(8.0 / zf - 2.0, _K1_B) / np.sqrt(zf)
    q = 0.25 * zn * zn
    i1 = _I1_SERIES[0]
    for c in _I1_SERIES[1:]:
        i1 = i1 * q + c
    half = 0.5 * zn
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        kn = (np.log(half) * (half * i1) + _chbevl(zn * zn - 2.0, _K1_A) / zn) * np.exp(zn)
    # where z/2 underflows to 0, log(z/2) I_1(z) is -inf * 0; K_1(z) ~ 1/z is inf
    out[near] = np.where(half == 0.0, np.inf, kn)
    return out[()]


def nig_density(alpha: float, beta: float = 0.0, delta: float = 1.0) -> LevyDensity:
    """f(x) = (delta*alpha/pi) e^{beta x} K_1(alpha |x|)/|x|; head (delta/pi)/x^2.

    K_1 is evaluated through `k1e`, so building and integrating the density
    imports nothing from scipy.
    """
    if alpha <= 0 or delta <= 0 or abs(beta) >= alpha:
        raise InvalidParams("NIG density requires alpha > 0, delta > 0, |beta| < alpha")

    coef = delta * alpha / np.pi

    def f(x):
        # e^{beta x} K_1(alpha|x|) = k1e(alpha|x|) e^{beta x - alpha|x|}
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = coef * k1e(alpha * ax) * np.exp(beta * x - alpha * ax) / ax
        return np.where(ax > 0, np.nan_to_num(out, posinf=0.0), 0.0)

    def kernel(ax, odd):
        # e^{-alpha ax} cosh/sinh(beta ax) in hyp, overflow-safe at both ends
        z = beta * ax
        small = np.abs(z) <= 350.0
        zs = np.where(small, z, 0.0)
        lead = 0.5 * np.exp(np.abs(z) - alpha * ax)
        hyp = np.where(small, np.exp(-alpha * ax) * (np.sinh(zs) if odd else np.cosh(zs)),
                       lead * (np.sign(z) if odd else 1.0))
        return np.nan_to_num(coef * k1e(alpha * ax) * hyp / ax, posinf=0.0)

    f_s = _off_origin(lambda ax: kernel(ax, False))
    f_as = _off_origin(lambda ax: kernel(ax, True), odd=True)

    return LevyDensity(f=f, cutoff=740.0 / (alpha - abs(beta)),
                       name=f"nig(alpha={alpha},beta={beta},delta={delta})",
                       f_s_exact=f_s, f_as_exact=f_as, levy_condition_proven=True)


def power_law_density(coef: float, Y: float) -> LevyDensity:
    """The power law coef/|x|^{1+Y} on all of R (the Appendix test densities)."""
    if coef <= 0 or not 0.0 < Y < 2.0:
        raise InvalidParams("power law requires coef > 0 and Y in (0, 2)")

    def f(x):
        ax = np.abs(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore", over="ignore"):
            return np.where(ax > 0, coef / ax ** (1.0 + Y), 0.0)

    return LevyDensity(f=f, cutoff=np.inf, name=f"powerlaw(c={coef},Y={Y})",
                       levy_condition_proven=True)


def gh_expansion_density(C1: float, C2: float = 0.0, C3: float = 0.0,
                         damping: float = 1.0) -> LevyDensity:
    """Local GH-type expansion C1/x^2 + C2/|x| + C3/x, exponentially damped.

    Only the behaviour near 0 is canonical; the e^{-damping |x|} tail stands
    in for the full-line values a user would otherwise have to supply.
    """
    if C1 <= 0 or damping <= 0:
        raise InvalidParams("GH expansion requires C1 > 0 and damping > 0")

    def f(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            head = C1 / ax**2 + C2 / ax + C3 / x
        return np.where(ax > 0, np.maximum(head, 0.0) * np.exp(-damping * ax), 0.0)

    # below x_clamp neither sign is clipped, so the split is available in
    # closed form (differencing would cancel the odd C3/x term near 0);
    # beyond it f is differenced, and only there
    x_clamp = C1 / (abs(C3) - C2) if abs(C3) > C2 else np.inf

    def clamped(near, far):
        def part(x):
            x = np.asarray(x, dtype=float)
            out, beyond = near(x), np.abs(x) >= x_clamp
            out[beyond] = far(x[beyond])
            return out
        return part

    f_s = clamped(_off_origin(lambda ax: (C1 / ax**2 + C2 / ax) * np.exp(-damping * ax)),
                  _differenced(f, 1.0))
    f_as = clamped(_off_origin(lambda ax: C3 / ax * np.exp(-damping * ax), odd=True),
                   _differenced(f, -1.0))

    return LevyDensity(f=f, cutoff=740.0 / damping, name="gh_expansion",
                       f_s_exact=f_s, f_as_exact=f_as)


def tabulated_density(x_points, f_values) -> LevyDensity:
    """Log-log interpolation of (x, f(x)) samples, one branch per sign of x.

    Beyond the table each branch continues as the power law of its edge
    segment.  The nodes are the density's knots.
    """
    x_points = np.asarray(x_points, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    valid = np.isfinite(x_points) & (x_points != 0) & np.isfinite(f_values) & (f_values >= 0)
    if not np.all(valid):
        raise InvalidParams("tabulated density needs finite x != 0 and finite f >= 0")
    pos = x_points > 0
    branches = {}
    for sign, mask in ((1.0, pos), (-1.0, ~pos)):
        if len(np.unique(np.abs(x_points[mask]))) < max(mask.sum(), 2):
            raise InvalidParams("need at least two samples per sign of x, each |x| once")
        lx = np.log(np.abs(x_points[mask]))
        lf = np.log(np.maximum(f_values[mask], 1e-300))
        order = np.argsort(lx)
        lx, lf = lx[order], lf[order]
        # one node 1e3 beyond each end in log x, on the edge slope: np.interp
        # then extrapolates the edge power laws over the whole double range
        s_lo = (lf[1] - lf[0]) / (lx[1] - lx[0])
        s_hi = (lf[-1] - lf[-2]) / (lx[-1] - lx[-2])
        branches[sign] = (np.concatenate(([lx[0] - 1e3], lx, [lx[-1] + 1e3])),
                          np.concatenate(([lf[0] - 1e3 * s_lo], lf, [lf[-1] + 1e3 * s_hi])))
    (lx_pos, lf_pos), (lx_neg, lf_neg) = branches[1.0], branches[-1.0]

    def sides(ax):
        # (f(ax), f(-ax)) for ax >= 0; both vanish at 0
        lq = np.log(ax)
        return (np.exp(np.interp(lq, lx_pos, lf_pos, left=-np.inf)),
                np.exp(np.interp(lq, lx_neg, lf_neg, left=-np.inf)))

    def f(x):
        x = np.asarray(x, dtype=float)
        with np.errstate(divide="ignore"):
            right, left = sides(np.abs(x))
        return np.where(x > 0, right, left)

    def half(ax, sign):
        right, left = sides(ax)
        return 0.5 * (right + sign * left)

    f_s = _off_origin(lambda ax: half(ax, 1.0))
    f_as = _off_origin(lambda ax: half(ax, -1.0), odd=True)

    return LevyDensity(f=f, cutoff=float(np.abs(x_points).max()), name="tabulated",
                       f_s_exact=f_s, f_as_exact=f_as,
                       knots=tuple(np.unique(np.abs(x_points)).tolist()))


# --------------------------------------------------------------------------
# symmetric / antisymmetric split
# --------------------------------------------------------------------------

def split_symmetric(density: LevyDensity) -> LevyDensity:
    """The density itself: it carries its checked parts f_s and f_as."""
    return density


# --------------------------------------------------------------------------
# array quadrature rules
# --------------------------------------------------------------------------

# QUADPACK's 21-point Gauss-Kronrod pair on [-1, 1]: the nodes ascending, the
# Kronrod weights, and the 10-point Gauss weights at every other node
_XK = (0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
       0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0)
_WK = (0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
       0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
       0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
       0.123491976262065851077600525165586, 0.134709217311473325928054001771707,
       0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
       0.149445554002916905664936468389821)
_WG = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
       0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
       0.295524224714752870173892994651338)
_GK_T = np.array([-x for x in _XK[:-1]] + list(_XK[::-1]))
_GK_W = np.array(_WK[:-1] + _WK[::-1])
_GK_WG = np.zeros(21)
_GK_WG[1:10:2], _GK_WG[11::2] = _WG, _WG[::-1]


def _cheb_coef(n: int) -> np.ndarray:
    """Chebyshev coefficients of the degree-n interpolant at cos(j pi/n), j = 0..n."""
    j = np.arange(n + 1)
    m = 2.0 / n * np.cos(np.pi * np.outer(j, j) / n)
    m[:, [0, n]] *= 0.5
    m[[0, n], :] *= 0.5
    return m


# Filon-Clenshaw-Curtis: 25 nodes cos(j pi/24); rows 0-24 give the degree-24
# coefficients, rows 25-49 the degree-12 ones from every other node
_CC_T = np.cos(np.pi * np.arange(25) / 24.0)
_CC_COEF = np.zeros((50, 25))
_CC_COEF[:25] = _cheb_coef(24)
_CC_COEF[25:38, ::2] = _cheb_coef(12)
_CC_MASS = np.array([2.0 / (1.0 - k * k) if k % 2 == 0 else 0.0 for k in range(25)])
_CC_W = _CC_MASS @ _CC_COEF[:25]          # Clenshaw-Curtis weights, for the roundoff floor
_MOM_T, _MOM_W = np.polynomial.legendre.leggauss(64)
_MOM_CHEB = np.polynomial.chebyshev.chebvander(_MOM_T, 24).T
_MOM_SERIES = 50.0        # |theta| from which the moments are summed by parts
# T_k^(m)(1) = prod_{j<m} (k^2 - j^2)/(2j + 1) and T_k^(m)(-1) = (-1)^(k+m) T_k^(m)(1)
_CHEB_D_HI = np.cumprod(np.hstack([np.ones((25, 1)), (np.arange(25.0)[:, None] ** 2
                                                      - np.arange(24.0) ** 2)
                                   / (2.0 * np.arange(24.0) + 1.0)]), axis=1)
_CHEB_D_LO = _CHEB_D_HI * (-1.0) ** np.add.outer(np.arange(25), np.arange(25))

_GRADE = 4.0              # ratio of the graded panels toward a singular end
_PER_DECADE = 3           # geometric starting panels per decade away from the origin
_S_MIN = 1e-10            # lowest graded edge of x = s^10: x stays above 1e-100
_ROUND_CAP = 2048         # panels bisected per round at most (bounds the node arrays)
_EPS = np.finfo(float).eps


def _panel_nodes(a, b, t):
    """Nodes (rows: panels [a_i, b_i]) of the rule with nodes t on [-1, 1], and half-widths."""
    h = 0.5 * (b - a)
    return h[:, None] * t + (0.5 * (b + a))[:, None], h


def _cheb_moments(theta):
    """int_{-1}^{1} T_k(t) e^{i theta t} dt, k = 0..24, one row per theta.

    Gauss-Legendre with 64 nodes below |theta| = 50 (the integrand is entire);
    above, the integration by parts sum_m (-1)^m [T_k^(m) e^{i theta t}]_{-1}^{1}
    / (i theta)^{m+1}, which ends at m = k and whose terms stay within a
    factor 200 of the moment there.
    """
    out = np.empty((len(theta), 25), dtype=complex)
    small = np.abs(theta) < _MOM_SERIES
    if small.any():
        out[small] = (_MOM_W * np.exp(1j * np.outer(theta[small], _MOM_T))) @ _MOM_CHEB.T
    if not small.all():
        th = theta[~small]
        z = -np.cumprod(np.broadcast_to(-1.0 / (1j * th[:, None]), (len(th), 25)), axis=1)
        out[~small] = (np.exp(1j * th)[:, None] * (z @ _CHEB_D_HI.T)
                       - np.exp(-1j * th)[:, None] * (z @ _CHEB_D_LO.T))
    return out


def _rule(w, u: float = 0.0, kernel: str = "", xmap=None):
    """The panel rules of int k(u x) w(x) dx as rule(a, b, kind) -> (value, error, floor).

    kind 0 is Gauss-Kronrod 21 in x; kind 1 Gauss-Kronrod 21 in v, with
    (x, dx/dv) = xmap(v); kind 2 Filon-Clenshaw-Curtis in x, for the
    oscillatory kernels.  k is 1 - cos ("cos", as 2 sin(ux/2)^2 in the
    Gauss-Kronrod panels), sin ("sin", sin(ux) - ux in the kind 1 panels),
    x ("x") or 1 ("").  The error is QUADPACK's: |K - G| scaled as in qk21
    for Gauss-Kronrod, the distance of the degree-24 and degree-12 Filon
    results otherwise, both raised to a roundoff floor of 50 ulp of
    int |integrand|.  w is called once per call of the rule.
    """
    def rule(a, b, kind):
        gk = kind < 2
        xg, hg = _panel_nodes(a[gk], b[gk], _GK_T)
        jac = np.ones_like(xg)
        mapped = kind[gk] == 1
        if mapped.any():
            xg[mapped], jac[mapped] = xmap(xg[mapped])
        xf, hf = _panel_nodes(a[~gk], b[~gk], _CC_T)
        x = np.concatenate([xg.ravel(), xf.ravel()])
        vals = np.asarray(w(x), dtype=float)
        val, err, floor = (np.empty(len(a)) for _ in range(3))
        k = _kernel(kernel, u, xg)
        if kernel == "sin":
            k[mapped] -= u * xg[mapped]
        val[gk], err[gk], floor[gk] = _gk21(k * jac * vals[:xg.size].reshape(xg.shape), hg)
        if xf.size:
            val[~gk], err[~gk], floor[~gk] = _filon(vals[xg.size:].reshape(xf.shape), hf,
                                                    0.5 * (a[~gk] + b[~gk]), u, kernel)
        return val, err, floor
    return rule


def _kernel(kernel: str, u: float, x):
    """The factor k(u x) of `_rule`'s integrand at the nodes x."""
    if kernel == "cos":
        return 2.0 * np.sin(0.5 * u * x) ** 2
    if kernel == "sin":
        return np.sin(u * x)
    return x if kernel == "x" else 1.0


def _gk21(f, h):
    """(value, error, roundoff floor) of the Gauss-Kronrod pair, QUADPACK's qk21 estimate."""
    k, g = f @ _GK_W, f @ _GK_WG
    resasc = np.abs(h) * (np.abs(f - 0.5 * k[:, None]) @ _GK_W)
    resabs = np.abs(h) * (np.abs(f) @ _GK_W)
    diff = np.abs(h * (k - g))
    with np.errstate(divide="ignore", invalid="ignore"):
        scaled = resasc * np.minimum(1.0, (200.0 * diff / resasc) ** 1.5)
    err = np.where((resasc > 0.0) & (diff > 0.0), scaled, diff)
    floor = 50.0 * _EPS * resabs
    return h * k, np.maximum(err, floor), floor


def _filon(f, h, c, u: float, kernel: str):
    """(value, error, roundoff floor) of Filon-Clenshaw-Curtis on panels of
    half-width h and centre c for the kernel sin or 1 - cos of u x; f holds
    w at the 25 nodes of each panel."""
    coef = (f @ _CC_COEF.T).reshape(len(f), 2, 25)
    osc = h[:, None] * np.exp(1j * u * c)[:, None] * np.einsum(
        "pik,pk->pi", coef, _cheb_moments(u * h))
    if kernel == "sin":
        val = osc.imag
    else:
        val = h[:, None] * (coef @ _CC_MASS) - osc.real
    floor = 100.0 * _EPS * np.abs(h) * (np.abs(f) @ _CC_W)
    return val[:, 0], np.maximum(np.abs(val[:, 0] - val[:, 1]), floor), floor


def _adapt(rule, a, b, kind, limit: int, epsabs: float, epsrel: float = 0.0):
    """Globally adaptive quadrature over the panels [a_i, b_i] of the given kinds.

    Every round evaluates the new panels in one call of `rule` and bisects
    the panels whose error exceeds tol/(2n), n panels, the worst _ROUND_CAP
    at most, until the summed error is within tol = max(epsabs, epsrel
    |value|), a non-finite value shows, no panel can shrink, or `limit`
    bisections are spent.  A panel at its roundoff floor or an ulp wide is
    final.  Returns the value and error summed per starting panel.
    """
    a, b, kind = (np.asarray(v) for v in (a, b, kind))
    n0 = len(a)
    origin = np.arange(n0)
    val, err, floor = rule(a, b, kind)
    spent = 0
    while True:
        total = err.sum()
        tol = max(epsabs, epsrel * abs(val.sum()))
        if not (np.isfinite(total) and np.isfinite(val.sum())) or total <= tol:
            break
        split = ((err > tol / (2.0 * len(err))) & (err > floor)
                 & (b - a > 8.0 * _EPS * np.maximum(np.abs(a), np.abs(b))))
        idx = np.flatnonzero(split)
        if not len(idx) or spent >= limit:
            break
        if len(idx) > _ROUND_CAP:
            idx = idx[np.argsort(err[idx])[-_ROUND_CAP:]]
        mid = 0.5 * (a[idx] + b[idx])
        na, nb = np.concatenate([a[idx], mid]), np.concatenate([mid, b[idx]])
        nk, no = np.tile(kind[idx], 2), np.tile(origin[idx], 2)
        nv, ne, nf = rule(na, nb, nk)
        keep = np.ones(len(a), dtype=bool)
        keep[idx] = False
        a, b, kind, origin = (np.concatenate([v[keep], nv_])
                              for v, nv_ in ((a, na), (b, nb), (kind, nk), (origin, no)))
        val, err, floor = (np.concatenate([v[keep], nv_])
                           for v, nv_ in ((val, nv), (err, ne), (floor, nf)))
        spent += len(idx)
    return (np.bincount(origin, weights=val, minlength=n0),
            np.bincount(origin, weights=err, minlength=n0))


def _graded(hi: float, lo: float):
    """Edges hi, hi/_GRADE, ... down to the last at or above lo, ascending (at least 4)."""
    n = max(int(math.log(hi / lo) / math.log(_GRADE)), 3)
    return hi * _GRADE ** -np.arange(n, -1, -1.0)


def _below_graded(parts):
    """(value, error) of the integral below the lowest graded panel.

    parts holds the integrals over the three lowest panels, lowest first.
    An integrand ~ v^p near 0 (p > -1) gives panel integrals in the ratio
    rho = _GRADE^-(p+1) and the geometric remainder I_1 rho/(1 - rho); the
    error is its distance from the remainder that the next pair predicts.
    """
    i1, i2, i3 = parts
    with np.errstate(divide="ignore", invalid="ignore"):
        rho, rho2 = i1 / i2, i2 / i3
    if not 0.0 < rho < 1.0:
        return 0.0, abs(i1) + abs(i2)
    rem = i1 * rho / (1.0 - rho)
    alt = i1 * rho2 / (1.0 - rho2) if 0.0 < rho2 < 1.0 else 0.0
    return rem, abs(rem - alt)


def _s10(s):
    """x = s^10 and dx/ds: |x|^{-q}, q < 1, becomes s^{9-10q}, bounded for q <= 0.9."""
    return s**10, 10.0 * s**9


def _geometric(panels):
    """(a, b) arrays: each panel split into _PER_DECADE geometric pieces per decade."""
    a, b = [], []
    for lo, hi in panels:
        n = max(1, math.ceil(_PER_DECADE * math.log10(hi / lo) - 1e-9))
        step = (hi / lo) ** (1.0 / n)
        edges = [lo * step**j for j in range(n)] + [hi]
        a += edges[:-1]
        b += edges[1:]
    return np.array(a), np.array(b)


# --------------------------------------------------------------------------
# A_fs and A_fas by quadrature
# --------------------------------------------------------------------------

def _panels(lo: float, hi: float, knots: tuple = ()):
    """Decade panels [a, b] covering [lo, hi] with b = min(hi, 10 a), each
    further split at the `knots` strictly inside it."""
    a = lo
    while a < hi:
        b = min(hi, a * 10.0)
        for c in _knots_in(knots, a, b):
            yield a, c
            a = c
        yield a, b
        a = b


def _inner_panels(hi: float, knots: tuple):
    """Graded panels in s of x = s^10 on [0, hi], split at the knots: (a, b).

    The three lowest panels come first: `_below_graded` adds what lies below.
    """
    edges = _graded(hi ** 0.1, _S_MIN)
    inner = np.array([k ** 0.1 for k in _knots_in(knots, 0.0, hi)])
    edges = np.union1d(edges, inner[inner > edges[0]])
    return edges[:-1], edges[1:]


def _integrate(density: LevyDensity, w, u: float, kernel: str, tol: float):
    """(int_0^r_eff k(ux) w(x) dx, its error) for the kernels "cos" and "sin"
    of `_rule` and u != 0, to the absolute tolerance tol.

    Below b = min(30/|u|, r_eff) the full integrand goes through
    Gauss-Kronrod: from 0 to min(b, EPS_INNER) in s of x = s^10 on graded
    panels, with the geometric remainder below them, where "sin" is
    sin(ux) - ux; from EPS_INNER to b on decade panels.  Beyond b the kernel
    goes into the Filon-Clenshaw-Curtis moments, on decade panels from b.
    Every panel splits at EPS_INNER and at the knots, each decade into three
    geometric pieces; one adaptive run takes them all.
    """
    r = density.r_eff
    b = min(r, 30.0 / abs(u))
    knots = tuple(sorted({*density.knots, EPS_INNER}))
    ia, ib = _inner_panels(min(b, EPS_INNER), density.knots)
    ga, gb = _geometric(_panels(EPS_INNER, b, knots))
    fa, fb = _geometric(_panels(b, r, knots))
    kind = np.repeat([1, 0, 2], [len(ia), len(ga), len(fa)])
    val, err = _adapt(_rule(w, u, kernel, _s10), np.concatenate([ia, ga, fa]),
                      np.concatenate([ib, gb, fb]), kind, _LIMIT, tol)
    rem, e_rem = _below_graded(val[:3])
    return val.sum() + rem, err.sum() + e_rem


def _moment_as(density: LevyDensity, lo: float, hi: float):
    """(2 int_lo^hi x f_as dx, its error): Gauss-Kronrod on decade panels or,
    from lo = 0, on the graded panels in s of x = s^10 plus their remainder."""
    graded = lo == 0.0
    a, b = _inner_panels(hi, density.knots) if graded else _geometric(
        _panels(lo, hi, density.knots))
    val, err = _adapt(_rule(density.f_as, kernel="x", xmap=_s10), a, b,
                      np.full(len(a), int(graded)), _LIMIT, _TOL_ABS, _TOL_REL)
    rem, e_rem = _below_graded(val[:3]) if graded else (0.0, 0.0)
    return 2.0 * (val.sum() + rem), 2.0 * (err.sum() + e_rem)


def _first_moment_as(density: LevyDensity, *, outer: bool = False):
    """(int x f_as dx, its error), with `outer` over |x| > EPS_INNER only (the
    f_as moment beyond r_eff included), else that plus the graded run from
    the origin; cached, and (0.0, 0.0) without quadrature when f_as vanishes."""
    if not _has_as(density):
        return 0.0, 0.0
    key = ("m1", outer)
    if key not in density._cache:
        if outer:
            val, err = _moment_as(density, EPS_INNER, density.r_eff)
            rest, e_rest, _ = _beyond_r_eff(density, moment=True)
        else:
            val, err = _moment_as(density, 0.0, min(EPS_INNER, density.r_eff))
            rest, e_rest = _first_moment_as(density, outer=True)
        density._cache[key] = (val + rest, err + e_rest)
    return density._cache[key]


def _near_zero(density: LevyDensity) -> np.ndarray:
    """24 log points on the six decades below EPS_INNER and every knot."""
    hi = min((EPS_INNER, *density.knots))
    return np.geomspace(1e-10 * (hi / EPS_INNER), hi, 24)


def _divergent_end(density: LevyDensity, g):
    """(end, local exponent) where int g dx appears divergent, or None.

    The exponent of |g(x)| + |g(-x)| on the `_near_zero` points must exceed
    -0.98 and, with an infinite cutoff, stay below -1.02 on 24 log points of
    [1e2, 1e4].  An end where g vanishes (below 1e-250) passes.  No
    quadrature is run.
    """
    ends = [(_near_zero(density), 1.0, -0.98, "near 0")]
    if np.isinf(density.cutoff):
        ends.append((np.geomspace(1e2, 1e4, 24), -1.0, 1.02, "over |x| > 1"))
    for xs, sign, bound, where in ends:
        vals = np.abs(g(xs)) + np.abs(g(-xs))
        if np.all(vals < 1e-250):
            continue
        slope = linear_fit(np.log(xs), np.log(np.maximum(vals, 1e-280)))[0]
        if sign * slope <= bound:
            return where, slope
    return None


def _check_as_integrable(density: LevyDensity) -> None:
    """DivergentIntegral unless int |x f_as| dx converges by `_divergent_end`'s
    rule, unless `levy_condition_proven`; a pass is cached.  With an infinite
    cutoff h(x) = x also needs the large-jump moment.  f_as = 0 passes.
    """
    if density.levy_condition_proven or ("as_integrable",) in density._cache:
        return
    end = _divergent_end(density, lambda x: x * density.f_as(x))
    if end is not None:
        where, slope = end
        need = "" if where == "near 0" else ", needed by h(x) = x"
        raise DivergentIntegral(f"{density.name}: int |x f_as(x)| dx appears divergent "
                                f"{where}{need} (local exponent {slope:.3f})")
    density._cache[("as_integrable",)] = True


def _has_as(density: LevyDensity) -> bool:
    """Whether f_as is nonzero at 256 log points on [1e-10, r_eff] or a knot; cached."""
    if ("has_as",) not in density._cache:
        xs = np.concatenate([np.geomspace(1e-10, density.r_eff, 256), density.knots])
        density._cache[("has_as",)] = not np.all(np.abs(density.f_as(xs)) < 1e-250)
    return density._cache[("has_as",)]


def _beyond_r_eff(density: LevyDensity, moment: bool):
    """(2 int_{r_eff}^inf w dx, its error, 4 |p(r_eff)|) for the part p = f_s
    and w = f_s, or with `moment` p = f_as and w = x f_as; cached.

    Zeros unless the cutoff is infinite and r_eff stopped at its cap with
    f_s(r) r^2 > 1e-20.  The substitution x = r s^-10 maps the tail to
    (0, 1], taken on graded panels plus their geometric remainder.  For a
    monotone |p|, 4 |p(r)|/|u| bounds the dropped 2 int_r^inf cos(ux) f_s or
    2 int_r^inf sin(ux) f_as.
    """
    key = ("beyond", moment)
    if key not in density._cache:
        r = density.r_eff
        out = (0.0, 0.0, 0.0)
        if np.isinf(density.cutoff) and float(density.f_s(np.array([r]))[0]) * r * r > 1e-20:
            part = density.f_as if moment else density.f_s
            rule = _rule(part, kernel="x" if moment else "",
                         xmap=lambda s: (r / s**10, 10.0 * r / s**11))
            edges = _graded(1.0, _S_MIN)
            val, err = _adapt(rule, edges[:-1], edges[1:], np.ones(len(edges) - 1, dtype=int),
                              _LIMIT, _TOL_ABS, _TOL_REL)
            rem, e_rem = _below_graded(val[:3])
            out = (2.0 * (val.sum() + rem), 2.0 * (err.sum() + e_rem),
                   4.0 * abs(float(part(np.array([r]))[0])))
        density._cache[key] = out
    return density._cache[key]


def symbol_parts_from_density(density: LevyDensity, u: float):
    """(A_fs(u), A_fas(u)) for truncation h(x) = x.

    A_fs(u) >= 0 real; A_fas(u) purely imaginary.  Each part is one adaptive
    run to 1/64 of the budget 1e-9 (1 + u^2), and QuadratureFailure is
    raised when the summed error estimate misses the budget.  A_fas
    integrates (sin ux - ux) f_as on the graded panels at the origin, where
    the factor O(u^3 x^3) cancels the rounding noise of an f_as differenced
    from f, and subtracts u times the first moment of f_as beyond them: the
    cached moment over |x| > EPS_INNER and, for |u| > 3e5, a run over
    [30/|u|, EPS_INNER].
    """
    u = float(u)
    if u == 0.0:
        return 0.0, 0.0j
    au, budget = abs(u), 1e-9 * (1.0 + u * u)
    tol = budget / 64.0
    half, e1 = _integrate(density, density.f_s, u, "cos", tol)
    beyond, e3, env = _beyond_r_eff(density, moment=False)
    err_acc = 2.0 * e1 + e3 + env / au
    a_fs = 2.0 * half + beyond

    # ---- antisymmetric part
    if not _has_as(density):
        a_fas = 0.0j
    else:
        _check_as_integrable(density)
        m1, e_m1 = _first_moment_as(density, outer=True)
        if 30.0 / au < EPS_INNER:
            short, e_short = _moment_as(density, 30.0 / au, min(EPS_INNER, density.r_eff))
            m1, e_m1 = m1 + short, e_m1 + e_short
        s, e2 = _integrate(density, density.f_as, u, "sin", tol)
        err_acc += 2.0 * e2 + au * e_m1 + _beyond_r_eff(density, moment=True)[2] / au
        a_fas = 1j * (2.0 * s - u * m1)

    if err_acc > budget:
        raise QuadratureFailure(
            f"{density.name}: error estimate {err_acc:.3g} exceeds "
            f"budget {budget:.3g} at u = {u:g}"
        )
    if not (np.isfinite(a_fs) and np.isfinite(a_fas)):
        raise QuadratureFailure(f"{density.name}: non-finite symbol part at u = {u:g}")
    return float(max(a_fs, 0.0) if a_fs > -budget else a_fs), a_fas


def density_symbol(density: LevyDensity, b: float | None = None) -> Symbol:
    """Quadrature-backed symbol for triplet (b, 0, f dx) w.r.t. h(x) = x.

    b = None selects the compensated drift b = int x F(dx) (requires the
    antisymmetric first moment to exist), in which case
    A(u) = A_fs(u) + i int sin(ux) f_as(x) dx; QuadratureFailure when |u|
    times the moment's error estimate exceeds the budget 1e-9 (1 + u^2).
    """

    def fn(pts):
        out = np.empty(len(pts), dtype=complex)
        for i, u in enumerate(pts[:, 0]):
            a_fs, a_fas = symbol_parts_from_density(density, float(u))
            drift, e_m1 = _first_moment_as(density) if b is None else (b, 0.0)
            if abs(u) * e_m1 > 1e-9 * (1.0 + u * u):
                raise QuadratureFailure(
                    f"{density.name}: first moment error {e_m1:.3g} at u = {u:g}")
            out[i] = a_fs + a_fas + 1j * u * drift
        return out

    return symbol_from_callable(fn, d=1, family=f"from_density[{density.name}]",
                                eval_mode="quadrature", build_density=lambda: density)


# --------------------------------------------------------------------------
# jump-activity indices
# --------------------------------------------------------------------------

def _pieces(edges, knots: tuple):
    """(a, b, i): the intervals [edges[i], edges[i+1]], ascending, split at
    the knots inside them so that every piece sees a smooth integrand."""
    cut = np.union1d(edges, _knots_in(knots, edges[0], edges[-1]))
    return cut[:-1], cut[1:], np.searchsorted(edges, cut[:-1], side="right") - 1


def _dyadic_samples(density: LevyDensity):
    """Nodes x, weights w and bin index of the 21-point Kronrod rule on [2^-34, 1].

    The panels are the dyadic intervals [2^-(j+1), 2^-j], j = 0..33, split at
    the knots.  Bin 0 is [1/16, 1]; bin k = 1..30 is [2^-(k+4), 2^-(k+3)], the
    last one reaching below 1e-10.
    """
    a, b, i = _pieces(2.0 ** np.arange(-34.0, 1.0), density.knots)
    x, h = _panel_nodes(a, b, _GK_T)
    return x.ravel(), (h[:, None] * _GK_W).ravel(), np.repeat(np.maximum(30 - i, 0), len(_GK_T))


def _alpha_integral_diverges(samples, alpha: float) -> bool:
    # divergence heuristic: halving the inner cutoff keeps raising the
    # partial integral by > 5% three times in a row *in the limit*; for a
    # convergent integral the increments decay geometrically, for a
    # divergent one increment/total approaches a positive constant
    x, wf, idx = samples
    parts = 2.0 * np.bincount(idx, weights=x**alpha * wf)
    total = parts[0]
    run = 0
    for inc in parts[1:]:
        total += inc
        run = run + 1 if inc > 0.05 * total else 0
    return run >= 3


def bg_index(density: LevyDensity) -> float:
    """Blumenthal-Getoor index from the local power of f_s near 0.

    Fits log f_s against log |x| on 64 log-spaced points in [1e-6, 1e-2]
    (beta = -slope - 1, clamped at 0) and cross-checks against a bisection on
    the divergence of int |x|^alpha f dx; Inconsistent when the two disagree
    by more than 0.1.  Every bisection step integrates over the dyadic
    intervals from the same Kronrod samples of f_s, taken once.
    """
    xs = np.geomspace(1e-6, 1e-2, 64)
    ys = density.f_s(xs)
    if np.any(ys <= 0):
        return 0.0  # density vanishes near the origin: finite activity
    ly = np.log(ys)
    if ly.max() - ly.min() < 0.1:
        beta_fit = 0.0  # flat: bounded density, all alpha > 0 integrable
    else:
        slope, _, r2 = linear_fit(np.log(xs), ly)
        if r2 < 0.99:
            raise FitUnstable(f"{density.name}: local power fit R^2 = {r2:.4f}")
        beta_fit = max(-slope - 1.0, 0.0)

    x, w, idx = _dyadic_samples(density)
    samples = (x, w * density.f_s(x), idx)
    lo, hi = 1e-3, 2.0
    if not _alpha_integral_diverges(samples, lo):
        beta_bisect = 0.0
    elif _alpha_integral_diverges(samples, hi):
        beta_bisect = 2.0
    else:
        for _ in range(14):
            mid = 0.5 * (lo + hi)
            if _alpha_integral_diverges(samples, mid):
                lo = mid
            else:
                hi = mid
        beta_bisect = 0.5 * (lo + hi)
    if abs(beta_fit - beta_bisect) > 0.1:
        raise Inconsistent(
            f"{density.name}: power fit {beta_fit:.3f} vs bisection {beta_bisect:.3f}"
        )
    return float(beta_fit)


def gamma_index(density: LevyDensity) -> float:
    """Lower small-jump index: 2 minus log-log slope of G(r) = int_{-r}^{r} x^2 f.

    G is taken at 48 log-spaced r in [1e-6, 0.1], in one adaptive run of the
    symbol parts' rules over x^2 f_s: from the origin to 1e-6 on the graded
    panels in s of x = s^10, with the geometric remainder below them, then
    Gauss-Kronrod between consecutive r, split at the knots.
    """
    rs = np.geomspace(1e-6, 1e-1, 48)
    ia, ib = _inner_panels(rs[0], density.knots)
    ga, gb, i = _pieces(rs, density.knots)
    bins = np.concatenate([np.zeros(len(ia), dtype=int), i + 1])
    val, _ = _adapt(_rule(lambda x: x * x * density.f_s(x), xmap=_s10),
                    np.concatenate([ia, ga]), np.concatenate([ib, gb]),
                    np.repeat([1, 0], [len(ia), len(ga)]), _LIMIT, 0.0, _TOL_REL)
    incs = 2.0 * np.bincount(bins, weights=val)
    incs[0] += 2.0 * _below_graded(val[:3])[0]
    vals = np.cumsum(incs)
    if vals[-1] <= 0:
        return 0.0
    slope, _, r2 = linear_fit(np.log(rs), np.log(np.maximum(vals, 1e-300)))
    if r2 < 0.99:
        raise FitUnstable(f"{density.name}: G(r) fit R^2 = {r2:.4f}")
    return float(np.clip(2.0 - slope, 0.0, 2.0))


# --------------------------------------------------------------------------
# Appendix bound verification
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundEntry:
    applicable: bool
    passed: bool
    constants: dict
    detail: str = ""


@dataclass(frozen=True)
class BoundReport:
    y: float
    grid_min: float
    grid_max: float
    parts: dict  # "a".."d" -> BoundEntry

    def to_record(self) -> dict:
        rec = {"Y": self.y, "grid_min": self.grid_min, "grid_max": self.grid_max}
        for k, entry in self.parts.items():
            rec[f"part_{k}_applicable"] = entry.applicable
            rec[f"part_{k}_passed"] = entry.passed
            for name, val in entry.constants.items():
                rec[f"part_{k}_{name}"] = val
        return rec


def _ratio_trend(us, ratio):
    start = min(int(len(us) * 0.75), len(us) - 8)
    top = slice(max(start, 0), None)
    pos = ratio[top] > 0
    if pos.sum() < 4:
        return -np.inf
    slope, _, _ = linear_fit(np.log(us[top][pos]), np.log(ratio[top][pos]))
    return slope


def _upper_bound(us, ratio) -> BoundEntry:
    """Verdict on |part| <= C weight from ratio = |part|/weight: it must stop growing."""
    slope = _ratio_trend(us, ratio)
    return BoundEntry(True, bool(slope <= _TREND_TOL), {"C": float(ratio.max()), "trend": slope})


def verify_appendix_bounds(density: LevyDensity, Y: float, grid) -> BoundReport:
    """Check the four growth/lower-bound relations tying A_fs, A_fas to Y.

      a)  A_fs(u) <= C (1 + |u|^Y)
      b)  A_fs(u) >= C1 |u|^Y - C2 (1 + |u|^{Y/2}),  C1 > 0
      c)  |A_fas(u)| <= C (1 + |u|^{max(1,Y)})          (Y != 1 only)
      d)  |Im A(u)| <= C (1 + |u|^Y) for the drift b = int x F(dx) when
          Y < 1 (finite variation), i.e. Im A(u) = int sin(ux) f_as(x) dx.

    Each constant is fitted as the extremal ratio over the grid; the verdict
    asks whether the bound is *asymptotically sustainable*: the fitted ratio
    must not keep growing (a, c, d) resp. decaying to zero (b) over the top
    quarter of the grid (at least 8 points), within a log-log slope
    tolerance of _TREND_TOL.
    """
    if not 0.0 < Y < 2.0:
        raise InvalidParams("appendix bounds need Y in (0, 2)")
    us = np.sort(np.abs(np.asarray(grid, dtype=float)))
    us = us[us > 0]
    if len(us) < 8:
        raise InvalidParams("grid too small to judge a trend")
    a_fs = np.empty(len(us))
    a_fas = np.empty(len(us), dtype=complex)
    for i, u in enumerate(us):
        a_fs[i], a_fas[i] = symbol_parts_from_density(density, float(u))

    parts = {}
    # a) upper bound on the symmetric part
    parts["a"] = _upper_bound(us, a_fs / (1.0 + us**Y))

    # b) Garding-type lower bound with Y' = Y/2
    ratio_b = a_fs / us**Y
    slope_b = _ratio_trend(us, ratio_b)
    c1 = float(0.95 * ratio_b[int(len(us) * 0.5):].min())
    if c1 <= 0 or slope_b < -_TREND_TOL:
        parts["b"] = BoundEntry(True, False, {"C1": max(c1, 0.0), "C2": 0.0,
                                              "trend": slope_b},
                                "coefficient of |u|^Y decays toward zero")
    else:
        low = 1.0 + us ** (Y / 2.0)
        c2 = float(max(0.0, np.max((c1 * us**Y - a_fs) / low)))
        parts["b"] = BoundEntry(True, True, {"C1": c1, "C2": c2, "trend": slope_b})

    # c) antisymmetric growth (Y != 1)
    mag = np.abs(a_fas)
    if abs(Y - 1.0) < 1e-9:
        parts["c"] = BoundEntry(False, True, {}, "Y = 1 excluded by the lemma")
    elif np.all(mag < 1e-250):
        parts["c"] = BoundEntry(True, True, {"C": 0.0}, "antisymmetric part vanishes")
    else:
        parts["c"] = _upper_bound(us, mag / (1.0 + us ** max(1.0, Y)))

    # d) finite-variation drift bound
    if Y < 1.0:
        m1, _ = _first_moment_as(density)
        mag_d = np.abs(a_fas.imag + us * m1)  # = |int sin(ux) f_as dx|
        if np.all(mag_d < 1e-250):
            parts["d"] = BoundEntry(True, True, {"C": 0.0}, "no antisymmetric part")
        else:
            parts["d"] = _upper_bound(us, mag_d / (1.0 + us**Y))
    else:
        parts["d"] = BoundEntry(False, True, {}, "paths not of finite variation")

    return BoundReport(y=Y, grid_min=float(us.min()), grid_max=float(us.max()),
                       parts=parts)
