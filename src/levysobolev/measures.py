"""Levy densities and the quadrature route to the pure-jump symbol.

For a real-valued pure-jump process with density f and truncation h(x) = x,
the symbol splits along the symmetric part f_s(x) = (f(x) + f(-x))/2 and the
antisymmetric part f_as = f - f_s:

    A_fs(u)  = -int (cos(ux) - 1) f_s(x) dx            (real, >= 0)
    A_fas(u) = i int (sin(ux) - ux) f_as(x) dx         (purely imaginary)

The integrands are singular at 0 like |x|^{-1-Y}.  Quadrature strategy, with
eps = 1e-4 fixed:

  * on [-eps, eps] the declared power-law head C/|x|^{1+Y} is integrated
    semi-analytically through the substitution t = |u| x, which reduces it to
    I_Y(z) = int_0^z (1 - cos t) / t^{1+Y} dt at z = eps |u| (series for small
    z, closed-form total minus an oscillatory tail for large z), keeping the
    achieved tolerance uniform in u;
  * the remainder f_s - C/|x|^{1+Y} on [-eps, eps] and everything outside is
    handled by adaptive quadrature, with the oscillatory factors cos(ux),
    sin(ux) delegated to weighted (QAWO/QAWF) rules.

Every range away from the origin is integrated by one panel rule: decade
panels [a, min(10 a, hi)], additionally capped at 60 radians of phase
(width 60/|u|) below the oscillation cutoff 30/|u|, and split at the
density's `knots` (the nodes of a tabulated density, where it has a kink),
one `quad` call per panel with values and |errors| summed.  The two ranges
integrated by a single call take the knots as breakpoints instead.  Beyond
the cutoff the plain masses int w over the panels do not depend on u; they
sit on the decade ladder eps*10^k and are cached on the density, panel by
panel.

The antisymmetric part requires int |x f_as| dx < infinity; that precondition
is probed numerically and DivergentIntegral raised when it fails.  QUADPACK
passes one float at a time; the built-in parts evaluate it as a numpy scalar.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from scipy.integrate import quad
from scipy.special import kve

from .errors import DivergentIntegral, FitUnstable, Inconsistent, InvalidParams, \
    NotOneDimensional, QuadratureFailure
from .fitting import linear_fit
from .symbols import Symbol, _gamma, symbol_from_callable

EPS_INNER = 1e-4          # fixed split radius between singular head and the rest
_SERIES_CUT = 4.0         # switch point for I_Y between series and tail form
_PHASE_CAP = 60.0         # radians of phase per panel below the oscillation cutoff
_QUAD_KW = dict(limit=400, epsabs=1e-13, epsrel=1e-11)


# --------------------------------------------------------------------------
# densities
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class LevyDensity:
    """Lebesgue density of a one-dimensional Levy measure.

    `y_hint`/`c_hint` declare the power-law head f_s(x) ~ c_hint |x|^{-1-Y}
    near 0 (Y in [0,2)); `finite_variation` tags int_{[-1,1]} |x| f dx < inf;
    `cutoff` is the radius beyond which f is numerically negligible (may be
    inf when the tail is handled analytically by the weighted rules).

    `f_s_exact`/`f_as_exact` optionally give cancellation-free forms of the
    symmetric/antisymmetric parts; without them `f_s`/`f_as` difference f,
    which loses the antisymmetric part below |x| ~ 1e-14 in double
    precision.  The built-in families all provide them, and theirs return
    a scalar for a float x.

    `levy_condition_proven` marks a family whose parameter checks already
    prove int (x^2 ^ 1) f dx < inf; the numerical probe of that integral,
    which cannot tell Y just below 2 from Y = 2, is then skipped.

    `knots` lists, sorted, the |x| where f is not smooth (the nodes of a
    tabulated density); every quadrature over a range containing one splits
    there.

    The density carries its parts f = f_s + f_as, f_s even and f_as odd,
    checked at construction for symmetry and |f_as| <= f_s, and a cache of
    the u-independent quadrature results, ("m1", eps) and (tag, a, b) per
    panel, and of a passed f_as integrability probe; a copy made by
    `dataclasses.replace` starts with an empty cache.
    """

    f: Callable[[np.ndarray], np.ndarray]
    y_hint: Optional[float] = None
    c_hint: Optional[float] = None
    finite_variation: Optional[bool] = None
    cutoff: float = np.inf
    name: str = "density"
    d: int = 1
    f_s_exact: Optional[Callable[[np.ndarray], np.ndarray]] = None
    f_as_exact: Optional[Callable[[np.ndarray], np.ndarray]] = None
    levy_condition_proven: bool = False
    knots: tuple = ()
    _cache: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.d != 1:
            raise NotOneDimensional("densities are one-dimensional here")
        if self.y_hint is not None and not 0.0 <= self.y_hint < 2.0:
            raise InvalidParams("singularity hint Y must lie in [0, 2)")
        xs = np.geomspace(1e-8, min(self.cutoff, 1e3), 40)
        vals = np.concatenate([self.f(xs), self.f(-xs)])
        if np.any(vals < -1e-12 * (1.0 + np.abs(vals))):
            raise InvalidParams(f"{self.name}: density must be nonnegative")
        if not self.levy_condition_proven and not _levy_condition_holds(self):
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

    @cached_property
    def pure_head(self) -> bool:
        """True when f_s is exactly its power-law head on the whole line."""
        if self.y_hint is None or not self.c_hint or not np.isinf(self.cutoff):
            return False
        xs = np.geomspace(1e-8, 1e6, 30)
        head = self.c_hint / xs ** (1.0 + self.y_hint)
        return bool(np.all(np.abs(self.f_s(xs) - head) <= 1e-13 * head))


def _knots_in(knots, a: float, b: float) -> tuple:
    """The knots strictly inside (a, b)."""
    return knots[bisect_right(knots, a):bisect_left(knots, b)]


def _with_breaks(kw: dict, pts) -> dict:
    """`quad` keywords kw plus breakpoints pts, if any.

    QUADPACK refuses more breakpoints than its subinterval limit, so a dense
    table raises the limit.
    """
    if not pts:
        return kw
    return dict(kw, points=pts, limit=max(kw["limit"], 2 * len(pts)))


def _levy_condition_holds(density: LevyDensity) -> bool:
    f = density.f
    # small-jump side: per-decade increments of int x^2 f must keep decaying;
    # non-decaying increments signal int_0 x^2 f = infinity (x^2 f ~ x^{-1-s})
    def decade(k):
        a, b = 10.0 ** (-k), 10.0 ** (-k + 1)
        return quad(lambda x: x * x * (f(x) + f(-x)), a, b,
                    **_with_breaks(_QUAD_KW, _knots_in(density.knots, a, b)))[0]
    prev, flat_run = decade(1), 0
    for k in range(2, 10):
        cur = decade(k)
        flat_run = flat_run + 1 if cur >= 0.98 * prev - 1e-300 and cur > 0 else 0
        if flat_run >= 3:
            return False
        prev = cur
    if not np.isfinite(density.cutoff):
        tail = quad(lambda x: f(x) + f(-x), 1.0, np.inf, **_QUAD_KW)
        return np.isfinite(tail[0])
    return True


def _differenced(f, sign: float):
    """x -> (f(x) + sign f(-x))/2: the even part of f at sign 1, the odd at -1."""
    def part(x):
        x = np.asarray(x, dtype=float)
        return 0.5 * (f(x) + sign * f(-x))
    return part


def _off_origin(kernel, odd: bool = False):
    """The part x -> kernel(|x|), times sgn(x) when `odd`, and 0 at x = 0.

    `kernel` is a formula valid for |x| > 0.  A float x gives a numpy scalar
    with the bits the array branch gives for x as a 0-d array.
    """
    def part(x):
        if isinstance(x, float):
            if not abs(x) > 0.0:
                return 0.0
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                out = kernel(np.float64(abs(x)))
            return -out if odd and x < 0.0 else out
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

    return LevyDensity(f=f, y_hint=Y, c_hint=C, finite_variation=Y < 1.0,
                       cutoff=740.0 / min(G, M), name=f"cgmy(C={C},G={G},M={M},Y={Y})",
                       f_s_exact=f_s, f_as_exact=f_as, levy_condition_proven=True)


def nig_density(alpha: float, beta: float = 0.0, delta: float = 1.0) -> LevyDensity:
    """f(x) = (delta*alpha/pi) e^{beta x} K_1(alpha |x|)/|x|; head (delta/pi)/x^2."""
    if alpha <= 0 or delta <= 0 or abs(beta) >= alpha:
        raise InvalidParams("NIG density requires alpha > 0, delta > 0, |beta| < alpha")

    coef = delta * alpha / np.pi

    def f(x):
        # e^{beta x} K_1(alpha|x|) = kve(1, alpha|x|) e^{beta x - alpha|x|}
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            out = coef * kve(1.0, alpha * ax) * np.exp(beta * x - alpha * ax) / ax
        return np.where(ax > 0, np.nan_to_num(out, posinf=0.0), 0.0)

    def kernel(ax, odd):
        # e^{-alpha ax} cosh/sinh(beta ax) in hyp, overflow-safe at both ends
        z = beta * ax
        small = np.abs(z) <= 350.0
        zs = np.where(small, z, 0.0)
        lead = 0.5 * np.exp(np.abs(z) - alpha * ax)
        hyp = np.where(small, np.exp(-alpha * ax) * (np.sinh(zs) if odd else np.cosh(zs)),
                       lead * (np.sign(z) if odd else 1.0))
        return np.nan_to_num(coef * kve(1.0, alpha * ax) * hyp / ax, posinf=0.0)

    f_s = _off_origin(lambda ax: kernel(ax, False))
    f_as = _off_origin(lambda ax: kernel(ax, True), odd=True)

    return LevyDensity(f=f, y_hint=1.0, c_hint=delta / np.pi, finite_variation=False,
                       cutoff=740.0 / (alpha - abs(beta)),
                       name=f"nig(alpha={alpha},beta={beta},delta={delta})",
                       f_s_exact=f_s, f_as_exact=f_as, levy_condition_proven=True)


def power_law_density(coef: float, Y: float) -> LevyDensity:
    """Pure head coef/|x|^{1+Y} on all of R (the Appendix test densities)."""
    if coef <= 0 or not 0.0 < Y < 2.0:
        raise InvalidParams("power law requires coef > 0 and Y in (0, 2)")

    def f(x):
        ax = np.abs(np.asarray(x, dtype=float))
        with np.errstate(divide="ignore"):
            return np.where(ax > 0, coef / ax ** (1.0 + Y), 0.0)

    return LevyDensity(f=f, y_hint=Y, c_hint=coef, finite_variation=False,
                       cutoff=np.inf, name=f"powerlaw(c={coef},Y={Y})",
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
            if isinstance(x, float):
                return near(x) if abs(x) < x_clamp else far(x)
            x = np.asarray(x, dtype=float)
            out, beyond = near(x), np.abs(x) >= x_clamp
            out[beyond] = far(x[beyond])
            return out
        return part

    f_s = clamped(_off_origin(lambda ax: (C1 / ax**2 + C2 / ax) * np.exp(-damping * ax)),
                  _differenced(f, 1.0))
    f_as = clamped(_off_origin(lambda ax: C3 / ax * np.exp(-damping * ax), odd=True),
                   _differenced(f, -1.0))

    return LevyDensity(f=f, y_hint=1.0, c_hint=C1, finite_variation=False,
                       cutoff=740.0 / damping, name="gh_expansion",
                       f_s_exact=f_s, f_as_exact=f_as)


def tabulated_density(x_points, f_values) -> LevyDensity:
    """Log-log interpolation of (x, f(x)) samples, one branch per sign of x.

    Beyond the table each branch continues as the power law of its edge
    segment.  The nodes are the density's knots.  The head hints y_hint and
    c_hint are fitted on the innermost quarter of the x > 0 samples.
    """
    x_points = np.asarray(x_points, dtype=float)
    f_values = np.asarray(f_values, dtype=float)
    if np.any(f_values < 0) or np.any(x_points == 0):
        raise InvalidParams("tabulated density needs x != 0 and f >= 0")
    pos = x_points > 0
    branches = {}
    for sign, mask in ((1.0, pos), (-1.0, ~pos)):
        if mask.sum() < 2:
            raise InvalidParams("need at least two samples per sign of x")
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

    lx, lf = lx_pos[1:-1], lf_pos[1:-1]
    inner = slice(0, max(2, len(lx) // 4))
    slope = linear_fit(lx[inner], lf[inner])[0]
    y_hint = float(np.clip(-slope - 1.0, 0.0, 1.999))
    c_hint = float(np.exp(lf[0] + (1.0 + y_hint) * lx[0]))
    return LevyDensity(f=f, y_hint=y_hint, c_hint=c_hint, finite_variation=None,
                       cutoff=float(np.abs(x_points).max()), name="tabulated",
                       f_s_exact=f_s, f_as_exact=f_as,
                       knots=tuple(np.unique(np.abs(x_points)).tolist()))


# --------------------------------------------------------------------------
# symmetric / antisymmetric split
# --------------------------------------------------------------------------

def split_symmetric(density: LevyDensity) -> LevyDensity:
    """The density itself: it carries its checked parts f_s and f_as."""
    if density.d != 1:
        raise NotOneDimensional("split requires d = 1")
    return density


# --------------------------------------------------------------------------
# singular head integrals
# --------------------------------------------------------------------------

def _head_total(Y: float) -> float:
    # int_0^inf (1 - cos t)/t^{1+Y} dt, Y in (0,2); equals pi/2 at Y = 1
    if abs(Y - 1.0) < 1e-12:
        return math.pi / 2.0
    return float(_gamma(2.0 - Y) / (Y * (1.0 - Y)) * math.cos(math.pi * Y / 2.0))


def _head_partial(z: float, Y: float) -> float:
    """I_Y(z) = int_0^z (1 - cos t)/t^{1+Y} dt for z >= 0."""
    if z <= 0.0:
        return 0.0
    if z <= _SERIES_CUT:
        total, sign = 0.0, 1.0
        fact = 2.0  # (2k)! running
        for k in range(1, 40):
            p = 2 * k - Y
            term = sign * z**p / (fact * p)
            total += term
            if abs(term) < 1e-17 * max(abs(total), 1e-300):
                break
            sign = -sign
            fact *= (2 * k + 1) * (2 * k + 2)
        return total
    # large z: total minus the tail; tail = z^{-Y}/Y - int_z^inf cos(t) t^{-1-Y} dt
    osc = quad(lambda t: t ** (-1.0 - Y), z, np.inf, weight="cos", wvar=1.0,
               epsabs=1e-13, limlst=200, limit=400)[0]
    return _head_total(Y) - (z ** (-Y) / Y - osc)


# --------------------------------------------------------------------------
# A_fs and A_fas by quadrature
# --------------------------------------------------------------------------

def _panels(lo: float, hi: float, width: float = np.inf, anchor: float | None = None,
            knots: tuple = ()):
    """Panels [a, b] covering [lo, hi] with b = min(hi, 10 a, a + width).

    With an `anchor`, lo sits on the ladder anchor*10^k and the decade edge
    10 a is taken as anchor*10^(k+1): repeated multiplication by 10 drifts
    off that ladder by an ulp below the anchor and can leave a sliver panel.
    Each panel is further split at the `knots` strictly inside it.
    """
    k = round(math.log10(lo / anchor)) if anchor else 0
    a = lo
    while a < hi:
        k += 1
        b = min(hi, anchor * 10.0 ** k if anchor else a * 10.0, a + width)
        for c in _knots_in(knots, a, b):
            yield a, c
            a = c
        yield a, b
        a = b


def _panel_sum(fn, panels, kw: dict, density: LevyDensity | None = None,
               tag: str = ""):
    """Sum of quad(fn, a, b, **kw) over the panels, and of the |errors|.

    With a `density`, each panel's result is stored on it under (tag, a, b)
    and reused; callers do so only for u-independent masses at _QUAD_KW.
    """
    cache = {} if density is None else density._cache
    total, err = 0.0, 0.0
    for a, b in panels:
        if (tag, a, b) not in cache:
            cache[tag, a, b] = quad(fn, a, b, **kw)
        val, e = cache[tag, a, b]
        total += val
        err += abs(e)
    return total, err


def _osc_tail(w, lo: float, hi: float, u: float, trig: str, limit: int,
              skip_tol: float, anchor: float | None = None, knots: tuple = ()):
    """int_lo^hi trig(u x) w(x) dx by QAWO on decade panels split at the knots.

    Once the integration-by-parts envelope 2|w(a)|/|u| of the remaining tail
    drops below skip_tol the tail is dropped and counted as error instead.
    """
    total, err = 0.0, 0.0
    for a, b in _panels(lo, hi, anchor=anchor, knots=knots):
        env = 2.0 * abs(float(np.asarray(w(np.array([a])))[0])) / abs(u)
        if env < skip_tol:
            err += env
            break
        val, e = quad(w, a, b, weight=trig, wvar=u, epsabs=1e-13, limit=limit)
        total += val
        err += abs(e)
    return total, err


def _inner_singular_quad(w, hi: float, kw: dict, knots: tuple = ()):
    """int_0^hi w(x) dx for w with an integrable power singularity at 0.

    The substitution x = s^10 turns |x|^{-q}, q < 1, into s^{10(1-q)-1},
    bounded for q <= 0.9, so QUADPACK's error estimates become trustworthy
    (plain QAGS both under- and over-reports on such endpoint blow-ups).
    The lower limit stays above the region where x^{-(1+q)} overflows the
    double range; the excluded sliver [0, 1e-100] integrates to O(1e-20).
    The knots, mapped to s, are breakpoints of the one call.
    """
    p = 10.0
    s_lo = 1e-10  # x = s^p = 1e-100
    s_hi = hi ** (1.0 / p)
    if s_hi <= s_lo:
        return 0.0, 0.0

    def trans(s):
        x = s**p
        return w(x) * p * s ** (p - 1.0)

    pts = _knots_in(tuple(k ** (1.0 / p) for k in knots), s_lo, s_hi)
    return quad(trans, s_lo, s_hi, **_with_breaks(kw, pts))


def _one_minus_cos_region(density: LevyDensity, w, lo: float, hi: float,
                          u: float, kw: dict, skip_tol: float,
                          anchor: float, tag: str):
    """int_lo^hi (1 - cos(u x)) w(x) dx for 0 <= lo < hi.

    Below x = 30/|u| the full integrand goes through plain adaptive
    quadrature (no cancellation: everything is evaluated together); beyond
    it the cosine genuinely oscillates, so the mass and the oscillatory part
    separate safely.  The boundary is snapped up to the decade ladder
    anchor*10^k so the u-independent mass pieces are cached per density.
    """
    au = abs(u)
    width = _PHASE_CAP / au
    knots = density.knots
    integrand = lambda x: (1.0 - np.cos(u * x)) * w(x)
    total, err = 0.0, 0.0
    a = lo
    x_osc = 30.0 / au
    if x_osc > lo:
        b = min(hi, x_osc)
        if lo == 0.0:
            # integrand ~ u^2 x^2 w -> 0 at the origin: a single call works
            pts = sorted({p for p in (b * 1e-4, b * 1e-2) if lo < p < b}
                         .union(_knots_in(knots, lo, b)))
            val, e = quad(integrand, a, b, **_with_breaks(kw, pts))
        else:
            val, e = _panel_sum(integrand, _panels(a, b, width, knots=knots), kw)
        total += val
        err += abs(e)
        a = b
    if a < hi:
        snap = min(hi, anchor * 10.0 ** np.ceil(np.log10(a / anchor) - 1e-12))
        if a < snap:
            val, e = _panel_sum(integrand, _panels(a, snap, width, knots=knots), kw)
            total += val
            err += e
            a = snap
        if a < hi:
            mass, e1 = _panel_sum(w, _panels(a, hi, anchor=anchor, knots=knots), _QUAD_KW,
                                  density, tag)
            osc, e2 = _osc_tail(w, a, hi, u, "cos", kw["limit"], skip_tol, anchor, knots)
            total += mass - osc
            err += e1 + e2
    return total, err


def _first_moment_as(density: LevyDensity, eps: float):
    key = ("m1", eps)
    if key not in density._cache:
        moment = lambda x: x * density.f_as(x)
        inner, e1 = _inner_singular_quad(moment, eps, _QUAD_KW, density.knots)
        outer, e2 = _panel_sum(moment, _panels(eps, density.r_eff, knots=density.knots), _QUAD_KW)
        density._cache[key] = (2.0 * (inner + outer), 2.0 * (abs(e1) + abs(e2)))
    return density._cache[key]


def _check_as_integrable(density: LevyDensity) -> None:
    """DivergentIntegral unless int |x f_as| dx converges at 0; a pass is cached.

    The exponent is fitted over six decades below EPS_INNER, or below the
    smallest knot: a fit across it would mix the table with its extrapolated head.
    """
    if ("as_integrable",) in density._cache:
        return
    hi = min((EPS_INNER, *density.knots))
    xs = np.geomspace(1e-10 * (hi / EPS_INNER), hi, 24)
    vals = np.abs(xs * density.f_as(xs)) + np.abs(xs * density.f_as(-xs))
    if not np.all(vals < 1e-250):
        slope = linear_fit(np.log(xs), np.log(np.maximum(vals, 1e-280)))[0]
        if slope <= -0.98:
            raise DivergentIntegral(
                f"{density.name}: int |x f_as(x)| dx appears divergent near 0 "
                f"(local exponent {slope:.3f})"
            )
    density._cache[("as_integrable",)] = True


def symbol_parts_from_density(density: LevyDensity, u: float,
                              eps: float = EPS_INNER, refine: int = 1):
    """(A_fs(u), A_fas(u)) for truncation h(x) = x.

    A_fs(u) >= 0 real; A_fas(u) purely imaginary.  Combined absolute
    tolerance 1e-9 (1 + u^2).  QUADPACK's error estimates are conservative
    on strongly singular integrands, so when they exceed the budget the
    result is validated against a run at eps/2 with `refine` doubled and the
    observed difference taken as the error; QuadratureFailure only when that
    too misses the budget.  `refine` > 1 starts from the deeper budgets.
    """
    u = float(u)
    if u == 0.0:
        return 0.0, 0.0j
    budget = 1e-9 * (1.0 + u * u)
    a_fs, a_fas, err_acc = _symbol_parts_once(density, u, eps, refine)
    if err_acc > budget:
        b_fs, b_fas, _ = _symbol_parts_once(density, u, eps / 2.0, 2 * refine)
        err_acc = abs(a_fs - b_fs) + abs(a_fas - b_fas)
        a_fs, a_fas = b_fs, b_fas
    if err_acc > budget:
        raise QuadratureFailure(
            f"{density.name}: error estimate {err_acc:.3g} exceeds "
            f"budget {budget:.3g} at u = {u:g}"
        )
    if not (np.isfinite(a_fs) and np.isfinite(a_fas)):
        raise QuadratureFailure(f"{density.name}: non-finite symbol part at u = {u:g}")
    return float(max(a_fs, 0.0) if a_fs > -budget else a_fs), a_fas


def _symbol_parts_once(density: LevyDensity, u: float, eps: float, refine: int):
    au = abs(u)
    budget = 1e-9 * (1.0 + u * u)
    kw = dict(_QUAD_KW)
    kw["limit"] = _QUAD_KW["limit"] * refine
    # QAGS may stop at either tolerance; the absolute one tracks the spec'd
    # budget so smooth-but-kinky densities are not over-resolved
    kw["epsabs"] = max(_QUAD_KW["epsabs"], budget / (64.0 * refine))
    err_acc = 0.0

    Y = density.y_hint
    C = density.c_hint if density.c_hint is not None else 0.0
    use_head = Y is not None and C > 0.0 and Y > 0.0

    # drop oscillatory tails only once they are irrelevant both absolutely
    # and relative to the budget (the envelope decays fast, so this costs
    # at most a few extra segments)
    skip_tol = max(1e-13, 1e-5 * budget)
    if use_head and density.pure_head:
        # f_s = C/|x|^{1+Y} exactly: the substitution integral covers the line
        a_fs = 2.0 * C * au**Y * _head_total(Y)
    else:
        if use_head:
            head = 2.0 * C * au**Y * _head_partial(eps * au, Y)

            def g(x):
                return density.f_s(x) - C / np.abs(x) ** (1.0 + Y)
        else:
            head = 0.0
            g = density.f_s
        rem, e1 = _one_minus_cos_region(density, g, 0.0, eps, u, kw, skip_tol,
                                        anchor=eps, tag="g")
        outer, e2 = _one_minus_cos_region(density, density.f_s, eps, density.r_eff, u, kw,
                                          skip_tol, anchor=eps, tag="fs")
        err_acc += e1 + e2
        a_fs = head + 2.0 * (rem + outer)

    # ---- antisymmetric part
    fa_probe = np.abs(density.f_as(np.array([eps / 3, eps, 3 * eps])))
    if np.all(fa_probe < 1e-250):
        a_fas = 0.0j
    else:
        _check_as_integrable(density)
        m1, e_m1 = _first_moment_as(density, eps)
        err_acc += abs(e_m1)
        hi = density.r_eff
        x1 = float(np.clip(30.0 / au, eps, hi))
        lo = min(eps, x1)
        sin_w = lambda x: np.sin(u * x) * density.f_as(x)
        s_total, e = _inner_singular_quad(sin_w, lo, kw, density.knots)
        err_acc += abs(e)
        if lo < x1:
            val, e = _panel_sum(sin_w, _panels(lo, x1, _PHASE_CAP / au, knots=density.knots), kw)
            s_total += val
            err_acc += abs(e)
        if x1 < hi:
            s_out, e = _osc_tail(density.f_as, x1, hi, u, "sin", kw["limit"], skip_tol,
                                 knots=density.knots)
            s_total += s_out
            err_acc += abs(e)
        a_fas = 1j * (2.0 * s_total - u * m1)

    return a_fs, a_fas, err_acc


def density_symbol(density: LevyDensity, b: float | None = None) -> Symbol:
    """Quadrature-backed symbol for triplet (b, 0, f dx) w.r.t. h(x) = x.

    b = None selects the compensated drift b = int x F(dx) (requires the
    antisymmetric first moment to exist), in which case
    A(u) = A_fs(u) + i int sin(ux) f_as(x) dx.
    """

    def fn(pts):
        out = np.empty(len(pts), dtype=complex)
        for i, u in enumerate(pts[:, 0]):
            a_fs, a_fas = symbol_parts_from_density(density, float(u))
            val = a_fs + a_fas
            if b is None:
                m1, _ = _first_moment_as(density, EPS_INNER)
                val += 1j * u * m1
            else:
                val += 1j * u * b
            out[i] = val
        return out

    return symbol_from_callable(fn, d=1, family=f"from_density[{density.name}]",
                                eval_mode="quadrature", build_density=lambda: density)


# --------------------------------------------------------------------------
# jump-activity indices
# --------------------------------------------------------------------------

def _dyadic_samples(density: LevyDensity):
    """Nodes x, weights w and bin index of a Gauss-Legendre rule on [2^-34, 1].

    Bin 0 is [1/16, 1]; bin k = 1..30 is [2^-(k+4), 2^-(k+3)], the last one
    reaching below 1e-10.  Every dyadic interval [c/2, c] is split at the
    knots and each piece gets 16 nodes, so each piece sees a smooth integrand.
    """
    t, wt = np.polynomial.legendre.leggauss(16)
    xs, ws, idx = [], [], []
    c, j = 1.0, 0
    while c > 1e-10:
        edges = (c / 2.0, *_knots_in(density.knots, c / 2.0, c), c)
        for a, b in zip(edges[:-1], edges[1:]):
            xs.append(0.5 * (b - a) * t + 0.5 * (b + a))
            ws.append(0.5 * (b - a) * wt)
            idx.append(np.full(len(t), max(j - 3, 0)))
        c /= 2.0
        j += 1
    return np.concatenate(xs), np.concatenate(ws), np.concatenate(idx)


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
    intervals from the same Gauss-Legendre samples of f_s, taken once.
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
    """Lower small-jump index: 2 minus log-log slope of G(r) = int_{-r}^{r} x^2 f."""
    rs = np.geomspace(1e-6, 1e-1, 48)
    edges = np.concatenate(([0.0], rs))
    vals = np.cumsum([2.0 * quad(lambda x: x * x * density.f_s(x), a, b,
                                 **_with_breaks(_QUAD_KW, _knots_in(density.knots, a, b)))[0]
                      for a, b in zip(edges[:-1], edges[1:])])
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


def _ratio_trend(us, ratio, top_frac=0.25):
    start = min(int(len(us) * (1.0 - top_frac)), len(us) - 8)
    top = slice(max(start, 0), None)
    pos = ratio[top] > 0
    if pos.sum() < 4:
        return -np.inf
    slope, _, _ = linear_fit(np.log(us[top][pos]), np.log(ratio[top][pos]))
    return slope


def _upper_bound(us, ratio, trend_tol: float) -> BoundEntry:
    """Verdict on |part| <= C weight from ratio = |part|/weight: it must stop growing."""
    slope = _ratio_trend(us, ratio)
    return BoundEntry(True, bool(slope <= trend_tol), {"C": float(ratio.max()), "trend": slope})


def verify_appendix_bounds(density: LevyDensity, Y: float, grid,
                           trend_tol: float = 0.05) -> BoundReport:
    """Check the four growth/lower-bound relations tying A_fs, A_fas to Y.

      a)  A_fs(u) <= C (1 + |u|^Y)
      b)  A_fs(u) >= C1 |u|^Y - C2 (1 + |u|^{Y/2}),  C1 > 0
      c)  |A_fas(u)| <= C (1 + |u|^{max(1,Y)})          (Y != 1 only)
      d)  |Im A(u)| <= C (1 + |u|^Y) for the finite-variation drift
          b = int x F(dx), i.e. Im A(u) = int sin(ux) f_as(x) dx.

    Each constant is fitted as the extremal ratio over the grid; the verdict
    asks whether the bound is *asymptotically sustainable*: the fitted ratio
    must not keep growing (a, c, d) resp. decaying to zero (b) over the top
    half of the grid, within a log-log slope tolerance of 0.05.
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
    parts["a"] = _upper_bound(us, a_fs / (1.0 + us**Y), trend_tol)

    # b) Garding-type lower bound with Y' = Y/2
    ratio_b = a_fs / us**Y
    slope_b = _ratio_trend(us, ratio_b)
    c1 = float(0.95 * ratio_b[int(len(us) * 0.5):].min())
    if c1 <= 0 or slope_b < -trend_tol:
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
        parts["c"] = _upper_bound(us, mag / (1.0 + us ** max(1.0, Y)), trend_tol)

    # d) finite-variation drift bound
    if density.finite_variation:
        m1, _ = _first_moment_as(density, EPS_INNER)
        mag_d = np.abs(a_fas.imag + us * m1)  # = |int sin(ux) f_as dx|
        if np.all(mag_d < 1e-250):
            parts["d"] = BoundEntry(True, True, {"C": 0.0}, "no antisymmetric part")
        else:
            parts["d"] = _upper_bound(us, mag_d / (1.0 + us**Y), trend_tol)
    else:
        parts["d"] = BoundEntry(False, True, {}, "paths not of finite variation")

    return BoundReport(y=Y, grid_min=float(us.min()), grid_max=float(us.max()),
                       parts=parts)
