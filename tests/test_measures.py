import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from levysobolev import measures as M
from levysobolev import symbols as S
from levysobolev.errors import (
    DivergentIntegral,
    Inconsistent,
    InvalidParams,
    NotOneDimensional,
    QuadratureFailure,
)

# the CLI test's table: exp(-2|x|)/|x|^2.2 at +-geomspace(1e-7, 20, 60)
TABLE_X = np.concatenate([-np.geomspace(1e-7, 20, 60)[::-1], np.geomspace(1e-7, 20, 60)])


def _table(scale=1.0):
    fs = scale * np.exp(-2 * np.abs(TABLE_X)) / np.abs(TABLE_X) ** 2.2
    return M.tabulated_density(TABLE_X, fs)


# ---------------------------------------------------------------------------
# densities and splits
# ---------------------------------------------------------------------------


def test_cgmy_split_closed_form():
    d = M.cgmy_density(1.0, 2.0, 4.0, 0.5)
    sp = M.split_symmetric(d)
    xs = np.array([-0.7, -0.1, 0.1, 0.7, 2.0])
    expect_s = 0.5 * (np.exp(-2.0 * np.abs(xs)) + np.exp(-4.0 * np.abs(xs))) \
        / np.abs(xs) ** 1.5
    assert np.allclose(sp.f_s(xs), expect_s, rtol=1e-12)


def test_split_symmetric_density_has_zero_antisymmetric_part():
    d = M.cgmy_density(1.0, 5.0, 5.0, 0.5)
    sp = M.split_symmetric(d)
    xs = np.geomspace(1e-6, 10.0, 50)
    assert np.abs(sp.f_as(xs)).max() == 0.0


def test_split_direct_algebra():
    base = lambda x: np.exp(-np.abs(x)) / np.abs(x) ** 1.2
    f = lambda x: base(np.asarray(x, dtype=float)) * (1.0 + 0.5 * np.sign(x))
    d = M.LevyDensity(f=f, y_hint=0.2, c_hint=1.0, finite_variation=True,
                      cutoff=700.0, name="skewed")
    sp = M.split_symmetric(d)
    xs = np.array([0.3, 1.1, -0.4])
    assert np.allclose(sp.f_as(xs), 0.5 * np.sign(xs) * base(xs), rtol=1e-12)
    assert np.allclose(sp.f_s(xs), base(xs), rtol=1e-12)


def test_antisymmetric_cannot_exceed_symmetric():
    f = lambda x: np.where(np.asarray(x) > 0, 1.0, 0.1) / np.abs(x) ** 1.2 \
        * np.exp(-np.abs(x))
    # f >= 0 so |f_as| <= f_s automatically; break it with a signed "density"
    bad = lambda x: np.sign(x) / np.abs(x) ** 1.2 * np.exp(-np.abs(x))
    with pytest.raises(InvalidParams, match="nonnegative"):
        M.LevyDensity(f=bad, cutoff=700.0)


def test_levy_condition_rejects_too_singular():
    with pytest.raises(InvalidParams, match="does not converge"):
        M.LevyDensity(f=lambda x: 1.0 / np.abs(x) ** 3.2, cutoff=np.inf,
                      name="too-singular")


def test_levy_condition_proven_by_family_parameters(monkeypatch):
    # Y just below 2 is a Levy measure, but its decade increments of
    # int x^2 f shrink too slowly for the numerical probe; the closed-form
    # families skip it
    monkeypatch.setattr(M, "quad", lambda *a, **k: pytest.fail("probe ran"))
    for d in (M.cgmy_density(1.0, 5.0, 5.0, 1.99), M.power_law_density(1.0, 1.999),
              M.nig_density(2.0, 0.5, 1.0)):
        assert d.levy_condition_proven


def test_split_requires_one_dimension():
    d = M.cgmy_density(1.0, 5.0, 5.0, 0.5)
    object.__setattr__(d, "d", 2)
    with pytest.raises(NotOneDimensional):
        M.split_symmetric(d)


def test_density_checks_its_parts_when_built():
    f = lambda x: np.exp(-np.abs(x)) / np.abs(x) ** 1.5
    kw = dict(f=f, y_hint=0.5, c_hint=1.0, cutoff=50.0, levy_condition_proven=True)
    with pytest.raises(InvalidParams, match="f_s failed the symmetry check"):
        M.LevyDensity(**kw, f_s_exact=lambda x: f(x) * (1.0 + 0.1 * np.sign(x)))
    with pytest.raises(InvalidParams, match="antisymmetric part exceeds symmetric part"):
        M.LevyDensity(**kw, f_as_exact=lambda x: 2.0 * np.sign(x) * f(x))
    # the density is its own split; a copy starts with an empty quadrature cache
    d = M.cgmy_density(1.0, 2.0, 4.0, 0.5)
    assert M.split_symmetric(d) is d
    M.symbol_parts_from_density(d, 3.0)
    assert d._cache
    assert dataclasses.replace(d, name="copy")._cache == {}


def _user_density():
    # a user density without exact parts; f is written not to warn at 0
    def f(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        with np.errstate(divide="ignore"):
            return np.where(ax > 0, (1.0 + 0.5 * np.tanh(x)) * np.exp(-ax) / ax ** 1.5, 0.0)
    return M.LevyDensity(f=f, y_hint=0.5, c_hint=1.0, cutoff=700.0, name="user")


EVERY_DENSITY = {
    "cgmy-G<M": lambda: M.cgmy_density(1.0, 2.0, 4.0, 1.5),
    "cgmy-G>M": lambda: M.cgmy_density(1.0, 5.0, 3.0, 0.7),
    "nig": lambda: M.nig_density(10.0, 3.0, 1.0),
    "nig-big-beta-x": lambda: M.nig_density(5.0, -4.9, 2.0),   # |beta x| > 350 beyond 71
    "gh": lambda: M.gh_expansion_density(0.5, 0.1, 0.05, 1.0),  # x_clamp = inf
    "gh-clamped": lambda: M.gh_expansion_density(0.5, 0.05, 0.3, 1.0),  # x_clamp = 2
    "table": _table,
    "power-law": lambda: M.power_law_density(1.0, 1.3),
    "user": _user_density,
}


@pytest.mark.parametrize("make", EVERY_DENSITY.values(), ids=EVERY_DENSITY.keys())
def test_float_and_array_parts_agree(make):
    # QUADPACK calls f_s/f_as with one float at a time: that path must give
    # the bits the array code gives on the same x as a 0-d array (what the
    # callbacks evaluated before the float path existed), and match the
    # vectorised evaluation to 4 ulp -- numpy's array `**` runs a SIMD pow
    # that can round 1-2 ulp away from its scalar `**` on AVX-512 CPUs;
    # every other step runs the same ufunc loops
    d = make()
    xs = np.concatenate([[0.0, 2.0, -2.0], np.geomspace(1e-9, 1e3, 13),
                         -np.geomspace(1e-9, 1e3, 13)])
    for part in (d.f_s, d.f_as):
        scalar = [part(float(x)) for x in xs]
        assert all(np.ndim(v) == 0 for v in scalar)
        scalar = np.array(scalar, dtype=float)
        zero_d = np.array([part(np.array(x)) for x in xs], dtype=float)
        assert [v.hex() for v in scalar] == [v.hex() for v in zero_d]
        np.testing.assert_array_max_ulp(scalar, part(xs), maxulp=4)
        assert part(0.0) == 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn in (d.f, d.f_s, d.f_as):
            for x in (0.0, -0.0, np.array([0.0]), np.array([0.0, 1.0, -1.0])):
                fn(x)


def test_gh_split_beyond_the_clamp():
    # C3 > C2: beyond x_clamp = C1/(C3 - C2) = 2 the negative side of the
    # expansion is clipped to 0, and the parts difference f there
    d = M.gh_expansion_density(0.5, 0.05, 0.3, 1.0)
    xs = np.array([0.1, 0.5, 1.0, 1.9, 1.999, 2.0, 2.001, 2.1, 3.0, 10.0, 50.0, 100.0])
    xs = np.concatenate([xs, -xs])
    fs, fa = d.f_s(xs), d.f_as(xs)
    # to rounding of the parts: f cancels to nearly 0 just inside -x_clamp
    assert np.all(np.abs(fs + fa - d.f(xs)) <= 1e-13 * fs)
    assert np.array_equal(d.f_s(-xs), fs)
    assert np.array_equal(d.f_as(-xs), -fa)
    assert np.all(d.f(xs[(xs <= -2.0)]) == 0.0)
    assert np.all(np.abs(fa) <= fs)
    for x, s in zip(xs, fs):
        assert abs(d.f_s(float(x)) + d.f_as(float(x)) - d.f(x)) <= 1e-13 * s


def test_antisymmetric_integrability_is_probed_once(monkeypatch):
    calls = [0]
    fit = M.linear_fit

    def counting_fit(*args):
        calls[0] += 1
        return fit(*args)

    monkeypatch.setattr(M, "linear_fit", counting_fit)
    d = M.cgmy_density(1.0, 2.0, 4.0, 1.5)
    for u in (3.0, 30.0, -5.0):
        M.symbol_parts_from_density(d, u)
    assert calls[0] == 1
    # a divergent first moment is refused on every call, and nothing is cached
    f = lambda x: (1.0 + 0.9 * np.sign(x)) * np.exp(-np.abs(x)) / np.abs(x) ** 2.2
    skew = M.LevyDensity(f=f, y_hint=1.2, c_hint=1.0, finite_variation=False,
                         cutoff=700.0, name="skew-heavy")
    calls[0] = 0
    for u in (2.0, 2.0, 7.0):
        with pytest.raises(DivergentIntegral):
            M.symbol_parts_from_density(skew, u)
    assert calls[0] == 3


def test_tabulated_density_loglog_interp():
    xs = np.concatenate([-np.geomspace(1e-6, 10, 40)[::-1], np.geomspace(1e-6, 10, 40)])
    fs = 1.0 / np.abs(xs) ** 2.2 * np.exp(-np.abs(xs))
    d = M.tabulated_density(xs, fs)
    probe = np.array([0.003, -0.3, 1.7])
    assert np.allclose(d.f(probe), 1.0 / np.abs(probe) ** 2.2 * np.exp(-np.abs(probe)),
                       rtol=0.05)
    assert d.y_hint == pytest.approx(1.2, abs=0.1)


def test_tabulated_branches_extrapolate_edge_power_laws():
    # a skewed table with different nodes per side; the padded branches must
    # reproduce the plain two-branch log-log interpolant inside the table
    # and the edge power laws outside it
    xp, xn = np.geomspace(1e-7, 20.0, 60), np.geomspace(3e-7, 15.0, 45)
    fp, fn = np.exp(-2 * xp) / xp ** 2.2, 0.4 * np.exp(-3 * xn) / xn ** 1.9
    d = M.tabulated_density(np.concatenate([-xn, xp]), np.concatenate([fn, fp]))
    sp = M.split_symmetric(d)
    assert d.knots == tuple(np.unique(np.concatenate([xn, xp])))

    def branch(nodes, vals, q):
        lx, lf = np.log(nodes), np.log(vals)
        lq = np.log(q)
        out = np.interp(lq, lx, lf)
        lo, hi = lq < lx[0], lq > lx[-1]
        out[lo] = lf[0] + (lf[1] - lf[0]) / (lx[1] - lx[0]) * (lq[lo] - lx[0])
        out[hi] = lf[-1] + (lf[-1] - lf[-2]) / (lx[-1] - lx[-2]) * (lq[hi] - lx[-1])
        return np.exp(out)

    def old_f(x):
        ax = np.abs(x)
        return np.where(x > 0, branch(xp, fp, ax), branch(xn, fn, ax))

    nodes = np.concatenate([xp, xn])
    inside = np.concatenate([np.geomspace(3e-7, 15.0, 301),
                             nodes[(nodes >= 3e-7) & (nodes <= 15.0)]])
    outside = np.concatenate([np.geomspace(1e-120, 9.9e-8, 50), np.geomspace(21.0, 1e5, 20)])
    for ax, check in ((inside, np.testing.assert_array_equal),
                      (outside, lambda a, b: np.testing.assert_allclose(a, b, rtol=1e-12))):
        x = np.concatenate([ax, -ax])
        check(d.f(x), old_f(x))
        check(sp.f_s(x), 0.5 * (old_f(x) + old_f(-x)))
        check(sp.f_as(x), 0.5 * (old_f(x) - old_f(-x)))
    assert d.f(0.0) == sp.f_s(0.0) == sp.f_as(0.0) == 0.0


# ---------------------------------------------------------------------------
# symbol parts by quadrature
# ---------------------------------------------------------------------------


def test_pure_power_law_gives_pi_u():
    sp = M.split_symmetric(M.power_law_density(1.0, 1.0))
    for u in (3.0, 0.5, 100.0, 1e4):
        a_fs, a_fas = M.symbol_parts_from_density(sp, u)
        assert a_fs == pytest.approx(np.pi * u, rel=1e-10)
        assert a_fas == 0.0


def test_parts_at_zero():
    sp = M.split_symmetric(M.cgmy_density(1.0, 2.0, 4.0, 0.5))
    assert M.symbol_parts_from_density(sp, 0.0) == (0.0, 0.0j)


def test_cgmy_parts_match_closed_form_real():
    sym = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 0.5))
    sp = M.split_symmetric(M.cgmy_density(1.0, 5.0, 5.0, 0.5))
    a_fs, _ = M.symbol_parts_from_density(sp, 10.0)
    assert a_fs == pytest.approx(sym(10.0).real, rel=1e-6)


@pytest.mark.parametrize("Y", [0.5, 1.0, 1.5, pytest.param(1.8, marks=pytest.mark.filterwarnings(
    "ignore::scipy.integrate.IntegrationWarning"))])
def test_closed_form_vs_quadrature_cgmy(Y):
    # full-symbol agreement on |u| <= 100 at 1e-6 relative; the closed form
    # is the natural-drift symbol A_fs + i S(u) below Y = 1 and the
    # zero-drift symbol A_fs + A_fas from Y = 1 on
    sym = S.make_symbol(S.CGMYParams(1.0, 2.0, 4.0, Y))
    sp = M.split_symmetric(M.cgmy_density(1.0, 2.0, 4.0, Y))
    m1 = M._first_moment_as(sp, M.EPS_INNER)[0]
    for u in np.geomspace(0.5, 100.0, 9):
        a_fs, a_fas = M.symbol_parts_from_density(sp, float(u))
        if Y < 1.0:
            a_quad = a_fs + 1j * (a_fas.imag + u * m1)
        else:
            a_quad = a_fs + a_fas
        closed = sym(float(u))
        assert abs(a_quad - closed) <= 1e-6 * max(abs(closed), 1e-12)


@pytest.mark.parametrize("G, M_", [(1.52, 4.78), (4.78, 1.52)])
def test_closed_form_vs_quadrature_cgmy_strong_skew(G, M_):
    # max(G, M)/min(G, M) > 2.9: f_as must stay finite out to the cutoff
    sym = S.make_symbol(S.CGMYParams(1.0, G, M_, 1.5))
    sp = M.split_symmetric(M.cgmy_density(1.0, G, M_, 1.5))
    for u in (-100.0, -7.0, 0.5, 3.0, 30.0, 100.0):
        a_fs, a_fas = M.symbol_parts_from_density(sp, u)
        closed = sym(u)
        assert abs(a_fs + a_fas - closed) <= 1e-6 * abs(closed)


@pytest.mark.parametrize("u", [5e6, -5e6, 2e7, -2e7])
def test_closed_form_vs_quadrature_cgmy_sub_eps_ladder(u):
    # 30/|u| < eps/10: the cached masses of the head remainder start below
    # eps on the ladder eps*10^k, k < 0
    sym = S.make_symbol(S.CGMYParams(1.0, 2.0, 4.0, 1.5))
    sp = M.split_symmetric(M.cgmy_density(1.0, 2.0, 4.0, 1.5))
    a_fs, a_fas = M.symbol_parts_from_density(sp, u)
    closed = sym(u)
    assert abs(a_fs + a_fas - closed) <= 1e-6 * abs(closed)


@pytest.mark.parametrize("density, calls", [
    (M.cgmy_density(1.0, 2.0, 4.0, 1.5), 110),
    (M.nig_density(10.0, 2.0, 1.0), 101),
    (M.gh_expansion_density(0.5, 0.1, 0.05, 1.0), 111),
])
def test_symbol_parts_quad_call_count(density, calls, monkeypatch):
    # deterministic work gate: QUADPACK calls of a fresh split over a fixed
    # u sequence, u-independent panel masses cached after the first u
    count = [0]

    def counting_quad(*args, **kwargs):
        count[0] += 1
        return quad(*args, **kwargs)

    monkeypatch.setattr(M, "quad", counting_quad)
    sp = M.split_symmetric(density)
    for u in (0.5, 3.0, 30.0, 100.0, 1e4, 1e6, -100.0):
        M.symbol_parts_from_density(sp, u)
    assert count[0] == calls


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_nonfinite_part_raises_quadrature_failure():
    f = lambda x: np.exp(-np.abs(x)) / np.abs(x) ** 1.5

    def f_as(x):  # finite near the origin, NaN in the tail
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < 1.0, 0.5 * np.sign(x) * f(x), np.nan)

    d = M.LevyDensity(f=f, y_hint=0.5, c_hint=1.0, finite_variation=True,
                      cutoff=50.0, name="nan-tail", f_as_exact=f_as)
    sp = M.split_symmetric(d)
    with pytest.raises(QuadratureFailure, match="non-finite"):
        M.symbol_parts_from_density(sp, 3.0)


def test_nig_quadrature_matches_closed_form(nig_skew):
    sp = M.split_symmetric(M.nig_density(10.0, 3.0, 1.0))
    b = 3.0 / np.sqrt(91.0)
    for u in np.geomspace(0.5, 100.0, 7):
        a_fs, a_fas = M.symbol_parts_from_density(sp, float(u))
        a_quad = 1j * u * b + a_fs + a_fas
        closed = nig_skew(float(u))
        assert abs(a_quad - closed) <= 1e-6 * abs(closed)


def test_quadrature_refinement_stable():
    sp = M.split_symmetric(M.cgmy_density(1.0, 5.0, 5.0, 1.5))
    for u in (3.0, 300.0):
        a1, _ = M.symbol_parts_from_density(sp, u)
        a2, _ = M.symbol_parts_from_density(sp, u, eps=M.EPS_INNER / 2, refine=2)
        assert abs(a1 - a2) <= 1e-8 * abs(a1)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_refined_call_validates_against_a_deeper_run():
    # the table without its knots: the panels straddle its kinks, so the
    # error estimate at u = 3 and refine = 2 (3.3e-8) misses the 1e-8
    # budget; the eps/4, refine = 4 cross-check shows the value is good
    table = _table()
    sp = M.split_symmetric(M.LevyDensity(f=table.f, y_hint=table.y_hint,
                                         c_hint=table.c_hint, cutoff=table.cutoff,
                                         name="table-without-knots"))
    a1, b1 = M.symbol_parts_from_density(sp, 3.0)
    a2, b2 = M.symbol_parts_from_density(sp, 3.0, eps=M.EPS_INNER / 2, refine=2)
    assert abs(a1 - a2) + abs(b1 - b2) <= 1e-8


def test_tabulated_route_has_no_failure_band():
    # the kinks at the table nodes used to defeat the error estimate for
    # u in about [0.69, 1.76]; scaled tables are the benchmark's inputs
    sp = M.split_symmetric(_table())
    for u in np.geomspace(0.3, 30.0, 40):
        a_fs, _ = M.symbol_parts_from_density(sp, float(u))
        assert a_fs > 0.0
    for scale in (0.9, 1.1):
        sp = M.split_symmetric(_table(scale))
        for u in (0.71, 2.7, 18.8):
            assert M.symbol_parts_from_density(sp, u)[0] > 0.0


def test_tabulated_route_raises_no_integration_warning():
    # pyproject.toml ignores IntegrationWarning suite-wide; here it counts
    table = _table()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sp = M.split_symmetric(table)
        for u in (0.3, 1.0, 3.0, 30.0, 1e3, 1e4):
            M.symbol_parts_from_density(sp, u)
        M.bg_index(table)
        M.gamma_index(table)
    assert [w for w in caught if issubclass(w.category, IntegrationWarning)] == []


def test_dense_table_has_more_knots_than_the_subinterval_limit():
    # about 490 nodes in [0, eps]: the single call there gets more
    # breakpoints than QUADPACK's default 400 subintervals allow
    x = np.geomspace(1e-9, 20.0, 1000)
    xs = np.concatenate([-x[::-1], x])
    d = M.tabulated_density(xs, np.exp(-2 * np.abs(xs)) / np.abs(xs) ** 2.2)
    assert len(M._knots_in(d.knots, 0.0, M.EPS_INNER)) > M._QUAD_KW["limit"]
    a_fs, a_fas = M.symbol_parts_from_density(M.split_symmetric(d), 3.0)
    closed = S.make_symbol(S.CGMYParams(1.0, 2.0, 2.0, 1.2))(3.0)
    assert a_fs + a_fas == pytest.approx(closed, rel=1e-4)
    assert M.gamma_index(d) == pytest.approx(1.2, abs=0.05)


@pytest.mark.parametrize("args, panels", [
    ((1e-4, 700.0, np.inf, 1e-4), [(0.0001, 0.001), (0.001, 0.01), (0.01, 0.1), (0.1, 1.0),
                                   (1.0, 10.0), (10.0, 100.0), (100.0, 700.0)]),
    ((0.0015, 0.3, 20.0, None), [(0.0015, 0.015), (0.015, 0.15), (0.15, 0.3)]),
    ((1e-4, 3e-3, 6e-3, None), [(0.0001, 0.001), (0.001, 0.003)]),
    ((3e-3, 2.5, 0.6, None), [(0.003, 0.03), (0.03, 0.3), (0.3, 0.8999999999999999),
                              (0.8999999999999999, 1.5), (1.5, 2.1), (2.1, 2.5)]),
    ((1e-4, 0.0316227766016838, np.inf, 1e-4), [(0.0001, 0.001), (0.001, 0.01),
                                                (0.01, 0.0316227766016838)]),
])
def test_panels_without_knots_are_unchanged(args, panels):
    assert list(M._panels(*args, knots=())) == panels


def test_panels_split_at_interior_knots():
    knots = (5e-5, 1e-3, 3e-3, 0.5, 0.7, 800.0)
    got = list(M._panels(1e-4, 700.0, anchor=1e-4, knots=knots))
    assert got == [(0.0001, 0.001), (0.001, 0.003), (0.003, 0.01), (0.01, 0.1),
                   (0.1, 0.5), (0.5, 0.7), (0.7, 1.0), (1.0, 10.0), (10.0, 100.0),
                   (100.0, 700.0)]


def test_a_fs_nonnegative():
    for dens in (M.cgmy_density(1.0, 2.0, 4.0, 1.2), M.power_law_density(0.5, 0.7)):
        sp = M.split_symmetric(dens)
        for u in (0.1, 1.0, 47.0):
            a_fs, _ = M.symbol_parts_from_density(sp, u)
            assert a_fs >= 0.0


def test_a_fas_purely_imaginary():
    sp = M.split_symmetric(M.cgmy_density(1.0, 2.0, 4.0, 0.5))
    _, a_fas = M.symbol_parts_from_density(sp, 7.0)
    assert a_fas.real == 0.0
    assert a_fas.imag != 0.0


def test_divergent_antisymmetric_first_moment():
    # |x f_as| ~ |x|^{-1.2} near 0: the Lemma precondition fails
    f = lambda x: (1.0 + 0.9 * np.sign(x)) * np.exp(-np.abs(x)) / np.abs(x) ** 2.2
    d = M.LevyDensity(f=f, y_hint=1.2, c_hint=1.0, finite_variation=False,
                      cutoff=700.0, name="skew-heavy")
    sp = M.split_symmetric(d)
    with pytest.raises(DivergentIntegral):
        M.symbol_parts_from_density(sp, 2.0)


def test_asymmetric_table_head_is_divergent():
    # e^{-3x} and e^{-2x} sides: below the smallest node each side extrapolates
    # its own edge power law, so x f_as ~ |x|^{-1.2} there and is not integrable
    fs = np.where(TABLE_X > 0, np.exp(-3 * TABLE_X), np.exp(2 * TABLE_X)) \
        / np.abs(TABLE_X) ** 2.2
    d = M.tabulated_density(TABLE_X, fs)
    with pytest.raises(DivergentIntegral, match="local exponent"):
        M._check_as_integrable(d)
    with pytest.raises(DivergentIntegral):
        M.symbol_parts_from_density(d, 3.0)


@pytest.mark.parametrize("make", [
    _table,
    lambda: M.cgmy_density(1.0, 2.0, 4.0, 1.5),
    lambda: M.nig_density(10.0, 3.0, 1.0),
    lambda: M.gh_expansion_density(1.0, 0.5, 0.3, 1.0),
])
def test_integrable_first_moments_pass_the_probe(make):
    M._check_as_integrable(make())


def test_head_total_is_the_scipy_gamma_formula_bitwise():
    from scipy.special import gamma
    for Y in np.random.default_rng(5).uniform(1e-6, 2.0 - 1e-6, 2000).tolist():
        want = float(gamma(2.0 - Y) / (Y * (1.0 - Y)) * math.cos(math.pi * Y / 2.0))
        assert M._head_total(Y) == want


def test_density_symbol_route():
    sym = M.density_symbol(M.cgmy_density(1.0, 5.0, 5.0, 0.5))
    closed = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 0.5))
    for u in (1.0, 10.0):
        assert abs(sym(u) - closed(u)) <= 1e-6 * abs(closed(u))
    assert sym.eval_mode == "quadrature"
    assert sym.density is not None


# ---------------------------------------------------------------------------
# jump-activity indices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("Y,expect", [(0.5, 0.5), (1.5, 1.5)])
def test_bg_index_cgmy(Y, expect):
    assert M.bg_index(M.cgmy_density(1.0, 5.0, 5.0, Y)) == pytest.approx(expect, abs=0.02)


def test_bg_index_bounded_density():
    d = M.LevyDensity(f=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
                      finite_variation=True, cutoff=10.0, name="gauss")
    assert M.bg_index(d) == 0.0


def test_bg_index_inconsistent_raises():
    # hints describe a 1/x^2 head but the fit window sees pure 1/x^{1.2}:
    # fabricate disagreement by a density whose local power changes
    f = lambda x: np.where(np.abs(x) < 1e-3,
                           1.0 / np.abs(x) ** 1.5,
                           1e-3 ** 0.7 / np.abs(x) ** 2.2) * np.exp(-np.abs(x))
    d = M.LevyDensity(f=f, finite_variation=False, cutoff=700.0, name="kinked")
    with pytest.raises((Inconsistent, M.FitUnstable)):
        M.bg_index(d)


def test_bg_index_makes_no_quad_call(monkeypatch):
    densities = (_table(), M.cgmy_density(1.0, 5.0, 5.0, 1.5), M.nig_density(10.0, 3.0, 1.0))
    count = [0]

    def counting_quad(*args, **kwargs):
        count[0] += 1
        return quad(*args, **kwargs)

    monkeypatch.setattr(M, "quad", counting_quad)
    for d in densities:
        M.bg_index(d)
    assert count[0] == 0


@pytest.mark.parametrize("density", [M.cgmy_density(1.0, 2.0, 4.0, 1.5),
                                     M.nig_density(10.0, 3.0, 1.0), _table()],
                         ids=["cgmy", "nig", "table"])
@pytest.mark.parametrize("alpha", [0.3, 1.0, 1.9])
def test_dyadic_samples_integrate_each_interval(density, alpha):
    # the shared Gauss-Legendre samples against quad on [1/16, 1] and each
    # dyadic [c/2, c], c = 2^-4 ... 2^-33, split at the knots
    sp = M.split_symmetric(density)
    x, w, idx = M._dyadic_samples(sp)
    got = np.bincount(idx, weights=x**alpha * w * sp.f_s(x))
    edges = [(1.0 / 16.0, 1.0)] + [(2.0 ** -(j + 1), 2.0 ** -j) for j in range(4, 34)]
    assert len(got) == len(edges)
    for val, (a, b) in zip(got, edges):
        ref = quad(lambda t: t**alpha * sp.f_s(t), a, b, epsabs=0.0, epsrel=1e-13,
                   limit=200, points=M._knots_in(sp.knots, a, b) or None)[0]
        assert val == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("Y,expect", [(1.2, 1.2)])
def test_gamma_index_cgmy(Y, expect):
    assert M.gamma_index(M.cgmy_density(1.0, 5.0, 5.0, Y)) == pytest.approx(expect, abs=0.05)


def test_gamma_index_bounded():
    d = M.LevyDensity(f=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
                      finite_variation=True, cutoff=10.0, name="gauss")
    assert M.gamma_index(d) == 0.0


def test_gamma_index_cauchy_type():
    assert M.gamma_index(M.power_law_density(1.0, 1.0)) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("Y", [0.3, 0.8, 1.2, 1.6])
def test_beta_ge_gamma(Y):
    d = M.cgmy_density(1.0, 5.0, 5.0, Y)
    assert M.bg_index(d) >= M.gamma_index(d) - 0.05


# ---------------------------------------------------------------------------
# appendix bounds
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def bound_grid():
    return np.geomspace(1.0, 1e4, 33)


def test_appendix_bounds_cgmy(bound_grid):
    sp = M.split_symmetric(M.cgmy_density(1.0, 5.0, 5.0, 1.5))
    rep = M.verify_appendix_bounds(sp, 1.5, bound_grid)
    assert rep.parts["a"].passed and rep.parts["b"].passed and rep.parts["c"].passed
    assert not rep.parts["d"].applicable  # infinite variation at Y = 1.5


def test_appendix_bounds_power_law(bound_grid):
    sp = M.split_symmetric(M.power_law_density(1.0, 1.0))
    rep = M.verify_appendix_bounds(sp, 1.0, bound_grid)
    assert rep.parts["a"].passed and rep.parts["b"].passed
    # A_fs(u) = pi |u| exactly: fitted C1 just under pi
    assert rep.parts["b"].constants["C1"] == pytest.approx(0.95 * np.pi, rel=1e-6)


def test_appendix_bounds_asymmetric_fv(bound_grid):
    sp = M.split_symmetric(M.cgmy_density(1.0, 2.0, 4.0, 0.5))
    rep = M.verify_appendix_bounds(sp, 0.5, bound_grid)
    assert all(rep.parts[k].passed for k in "abcd")
    assert rep.parts["d"].applicable


def test_appendix_bounds_vg_fails_b(bound_grid):
    sp = M.split_symmetric(M.cgmy_density(1.0, 5.0, 5.0, 0.0))
    for Y in (0.3, 0.5, 1.0):
        rep = M.verify_appendix_bounds(sp, Y, bound_grid)
        assert not rep.parts["b"].passed


def test_bound_report_record(bound_grid):
    sp = M.split_symmetric(M.power_law_density(1.0, 1.0))
    rec = M.verify_appendix_bounds(sp, 1.0, bound_grid).to_record()
    assert rec["part_a_passed"] and rec["Y"] == 1.0
