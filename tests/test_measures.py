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
    xs = np.array([-0.7, -0.1, 0.1, 0.7, 2.0])
    expect_s = 0.5 * (np.exp(-2.0 * np.abs(xs)) + np.exp(-4.0 * np.abs(xs))) \
        / np.abs(xs) ** 1.5
    assert np.allclose(d.f_s(xs), expect_s, rtol=1e-12)


def test_split_symmetric_density_has_zero_antisymmetric_part():
    d = M.cgmy_density(1.0, 5.0, 5.0, 0.5)
    xs = np.geomspace(1e-6, 10.0, 50)
    assert np.abs(d.f_as(xs)).max() == 0.0


def test_split_direct_algebra():
    base = lambda x: np.exp(-np.abs(x)) / np.abs(x) ** 1.2
    f = lambda x: base(np.asarray(x, dtype=float)) * (1.0 + 0.5 * np.sign(x))
    d = M.LevyDensity(f=f, cutoff=700.0, name="skewed")
    xs = np.array([0.3, 1.1, -0.4])
    assert np.allclose(d.f_as(xs), 0.5 * np.sign(xs) * base(xs), rtol=1e-12)
    assert np.allclose(d.f_s(xs), base(xs), rtol=1e-12)


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


def test_levy_condition_rejects_divergent_big_jump_mass():
    # bounded near 0, but int_{|x|>1} f dx = inf: not a Levy measure
    for power in (0.8, 1.0):
        f = lambda x, p=power: np.minimum(1.0, np.abs(np.asarray(x, dtype=float)) ** -p)
        with pytest.raises(InvalidParams, match="does not converge"):
            M.LevyDensity(f=f, cutoff=np.inf, name=f"tail-{power}")


def test_levy_condition_proven_by_family_parameters(monkeypatch):
    # Y just below 2 is a Levy measure, but the local-exponent rule cannot
    # tell it from Y = 2; the closed-form families skip it
    monkeypatch.setattr(M, "quad", lambda *a, **k: pytest.fail("quad ran"))
    for d in (M.cgmy_density(1.0, 5.0, 5.0, 1.99), M.power_law_density(1.0, 1.999),
              M.nig_density(2.0, 0.5, 1.0)):
        assert d.levy_condition_proven
    # every other density is judged without quadrature
    for d in (M.gh_expansion_density(0.5, 0.1, 0.05), _table(), _user_density()):
        assert not d.levy_condition_proven


def test_vanishing_first_moment_runs_no_quadrature(monkeypatch):
    monkeypatch.setattr(M, "quad", lambda *a, **k: pytest.fail("quad ran"))
    for d in (M.power_law_density(1.0, 0.5), M.cgmy_density(1.0, 3.0, 3.0, 0.5), _table()):
        for outer in (False, True):
            m1, err = M._first_moment_as(d, outer=outer)
            assert (m1.hex(), err.hex()) == ((0.0).hex(), (0.0).hex())


def test_density_failing_on_arrays_raises_invalid_params():
    scalar_only = lambda x: float(np.exp(-abs(x)))  # TypeError on arrays of size > 1
    with pytest.raises(InvalidParams, match="failed on a float array") as info:
        M.LevyDensity(f=scalar_only, cutoff=50.0)
    assert isinstance(info.value.__cause__, TypeError)


def test_density_checks_its_parts_when_built():
    f = lambda x: np.exp(-np.abs(x)) / np.abs(x) ** 1.5
    kw = dict(f=f, cutoff=50.0, levy_condition_proven=True)
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


def test_k1e_is_cephes_k1e():
    # bit for bit above 2, where both sum k1.c's Chebyshev series B; at and
    # below 2 the power series of I_1 puts a few ulp between them
    from scipy.special import k1e
    rng = np.random.default_rng(0)
    far = np.concatenate([np.nextafter(2.0, 3.0) + rng.uniform(0.0, 48.0, 20000),
                          np.geomspace(np.nextafter(2.0, 3.0), 1e300, 20000)])
    assert np.array_equal(M.k1e(far), k1e(far))
    near = np.concatenate([2.0 - rng.uniform(0.0, 2.0, 20000), np.geomspace(1e-300, 2.0, 20000)])
    ref = k1e(near)
    assert np.all(np.abs(M.k1e(near) - ref) <= 8 * np.spacing(ref))


def test_k1e_matches_amos_kve():
    from scipy.special import kve
    z = np.geomspace(1e-300, 1e3, 100001)
    ref = kve(1.0, z)
    assert np.max(np.abs(M.k1e(z) - ref) / ref) <= 4e-15


def test_k1e_edge_values():
    from scipy.special import kve
    z = np.array([0.0, -0.0, 5e-324, 1e-310, -1.0, -3.0, np.nan])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = M.k1e(z)
        assert M.k1e(np.inf) == 0.0
    assert np.array_equal(out, kve(1.0, z), equal_nan=True)
    assert out[0] == np.inf
    # a 0-d z gives the numpy scalar of the same z in an array; shape is kept
    zero_d = M.k1e(np.array(1.5))
    assert isinstance(zero_d, np.float64) and zero_d == M.k1e([1.5])[0] == M.k1e(1.5)
    grid = np.array([[0.5, 3.0], [2.0, 40.0]])
    assert np.array_equal(M.k1e(grid), M.k1e(grid.ravel()).reshape(2, 2))


def _user_density():
    # a user density without exact parts; f is written not to warn at 0
    def f(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        with np.errstate(divide="ignore"):
            return np.where(ax > 0, (1.0 + 0.5 * np.tanh(x)) * np.exp(-ax) / ax ** 1.5, 0.0)
    return M.LevyDensity(f=f, cutoff=700.0, name="user")


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
    # a user may call f_s/f_as with one float: it must give the bits of the
    # same x as a 0-d array, and match the vectorised evaluation to 4 ulp --
    # numpy's array `**` runs a SIMD pow that can round 1-2 ulp away from its
    # scalar `**` on AVX-512 CPUs; every other step runs the same ufunc loops
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

    # GH proves no moment by its parameters, so it is probed; building it
    # runs the Levy-condition rule, before the count starts
    d = M.gh_expansion_density(0.5, 0.1, 0.05, 1.0)
    monkeypatch.setattr(M, "linear_fit", counting_fit)
    for u in (3.0, 30.0, -5.0):
        M.symbol_parts_from_density(d, u)
    assert calls[0] == 1
    # a divergent first moment is refused on every call, and nothing is cached
    f = lambda x: (1.0 + 0.9 * np.sign(x)) * np.exp(-np.abs(x)) / np.abs(x) ** 2.2
    skew = M.LevyDensity(f=f, cutoff=700.0, name="skew-heavy")
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
    assert M.gamma_index(d) == pytest.approx(1.2, abs=0.1)


def test_tabulated_branches_extrapolate_edge_power_laws():
    # a skewed table with different nodes per side; the padded branches must
    # reproduce the plain two-branch log-log interpolant inside the table
    # and the edge power laws outside it
    xp, xn = np.geomspace(1e-7, 20.0, 60), np.geomspace(3e-7, 15.0, 45)
    fp, fn = np.exp(-2 * xp) / xp ** 2.2, 0.4 * np.exp(-3 * xn) / xn ** 1.9
    d = M.tabulated_density(np.concatenate([-xn, xp]), np.concatenate([fn, fp]))
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
        check(d.f_s(x), 0.5 * (old_f(x) + old_f(-x)))
        check(d.f_as(x), 0.5 * (old_f(x) - old_f(-x)))
    assert d.f(0.0) == d.f_s(0.0) == d.f_as(0.0) == 0.0


# ---------------------------------------------------------------------------
# symbol parts by quadrature
# ---------------------------------------------------------------------------


def test_pure_power_law_gives_pi_u():
    sp = M.power_law_density(1.0, 1.0)
    for u in (3.0, 0.5, 100.0, 1e4):
        a_fs, a_fas = M.symbol_parts_from_density(sp, u)
        assert a_fs == pytest.approx(np.pi * u, rel=1e-10)
        assert a_fas == 0.0


def test_parts_at_zero():
    sp = M.cgmy_density(1.0, 2.0, 4.0, 0.5)
    assert M.symbol_parts_from_density(sp, 0.0) == (0.0, 0.0j)


def test_cgmy_parts_match_closed_form_real():
    sym = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 0.5))
    sp = M.cgmy_density(1.0, 5.0, 5.0, 0.5)
    a_fs, _ = M.symbol_parts_from_density(sp, 10.0)
    assert a_fs == pytest.approx(sym(10.0).real, rel=1e-6)


@pytest.mark.parametrize("Y", [0.5, 1.0, 1.5, 1.8])
def test_closed_form_vs_quadrature_cgmy(Y):
    # full-symbol agreement on |u| <= 100 at 1e-6 relative; the closed form
    # is the natural-drift symbol A_fs + i S(u) below Y = 1 and the
    # zero-drift symbol A_fs + A_fas from Y = 1 on
    sym = S.make_symbol(S.CGMYParams(1.0, 2.0, 4.0, Y))
    sp = M.cgmy_density(1.0, 2.0, 4.0, Y)
    m1 = M._first_moment_as(sp)[0]
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
    sp = M.cgmy_density(1.0, G, M_, 1.5)
    for u in (-100.0, -7.0, 0.5, 3.0, 30.0, 100.0):
        a_fs, a_fas = M.symbol_parts_from_density(sp, u)
        closed = sym(u)
        assert abs(a_fs + a_fas - closed) <= 1e-6 * abs(closed)


@pytest.mark.parametrize("u", [5e6, -5e6, 2e7, -2e7])
def test_closed_form_vs_quadrature_cgmy_sub_eps_ladder(u):
    # 30/|u| < eps/10: the graded rule ends below eps, and Filon panels
    # cover the rest of [0, eps]
    sym = S.make_symbol(S.CGMYParams(1.0, 2.0, 4.0, 1.5))
    sp = M.cgmy_density(1.0, 2.0, 4.0, 1.5)
    a_fs, a_fas = M.symbol_parts_from_density(sp, u)
    closed = sym(u)
    assert abs(a_fs + a_fas - closed) <= 1e-6 * abs(closed)


WORK_U = (0.5, 3.0, 30.0, 100.0, 1e4, 1e6, -100.0)


def _counted(density):
    """The density with counting parts, and its [array calls, points] per part."""
    count = {"f_s": [0, 0], "f_as": [0, 0]}

    def counting(name, part):
        def f(x):
            count[name][0] += 1
            count[name][1] += np.size(x)
            return part(x)
        return f

    d = dataclasses.replace(density, f_s_exact=counting("f_s", density.f_s),
                            f_as_exact=counting("f_as", density.f_as))
    count["f_s"][:] = count["f_as"][:] = [0, 0]   # the checks made at construction
    return d, count


def _f_only(density):
    # the density given by f alone: both parts differenced from f
    return M.LevyDensity(f=density.f, cutoff=density.cutoff, name=f"f-only {density.name}")


@pytest.mark.parametrize("density, work", [
    (M.cgmy_density(1.0, 2.0, 4.0, 1.5), {"f_s": [12, 5852], "f_as": [13, 6436]}),
    (M.nig_density(10.0, 2.0, 1.0), {"f_s": [10, 5368], "f_as": [12, 6002]}),
    (M.gh_expansion_density(0.5, 0.1, 0.05, 1.0), {"f_s": [11, 5985], "f_as": [12, 6554]}),
    (_f_only(M.cgmy_density(1.0, 2.0, 4.0, 1.5)), {"f_s": [12, 5852], "f_as": [15, 6484]}),
], ids=["cgmy", "nig", "gh", "cgmy-f-only"])
def test_symbol_parts_integrand_work(density, work):
    # deterministic work gate: array calls of each part and the points they
    # take, over a fixed u sequence on a fresh density (first moment and
    # f_as probes included); the f-only row runs the compensated kernel on
    # a differenced f_as
    d, count = _counted(density)
    for u in WORK_U:
        M.symbol_parts_from_density(d, u)
    assert count == work


def test_symbol_parts_make_no_quad_call(monkeypatch):
    # array rules only, with the Filon cutoff 30/|u| above eps and, at u = 1e7, below it
    monkeypatch.setattr(M, "quad", lambda *a, **k: pytest.fail("quad ran"))
    for density in (M.cgmy_density(1.0, 2.0, 4.0, 1.5), M.nig_density(10.0, 2.0, 1.0),
                    M.gh_expansion_density(0.5, 0.1, 0.05, 1.0), _table()):
        for u in (*WORK_U, 4.0 / M.EPS_INNER, -4.1 / M.EPS_INNER, 1e7):
            M.symbol_parts_from_density(density, u)


# Exact A_fs, by mpmath at 40 digits: of CGMY(1, 2, 4, 1.5) + NIG(10, 2, 1)
# from the two closed forms, and of the table below from the piecewise power
# law it interpolates (its edge law below 1e-7, nothing beyond 20)
HEAD_SUM_A_FS = {0.3: 0.10096936007994291, 1.7: 3.1615979679939987, 3.0: 9.455776106038735}
X2_TABLE_A_FS = {0.3: 0.15701941865298347, 1.7: 4.781113665779951, 10.0: 106.58296427293439}


def _head_sum():
    cg, ng = M.cgmy_density(1.0, 2.0, 4.0, 1.5), M.nig_density(10.0, 2.0, 1.0)
    return M.LevyDensity(f=lambda x: cg.f(x) + ng.f(x), cutoff=cg.cutoff, name="cgmy+nig",
                         f_s_exact=lambda x: cg.f_s(x) + ng.f_s(x),
                         f_as_exact=lambda x: cg.f_as(x) + ng.f_as(x),
                         levy_condition_proven=True)


def _x2_table():
    xs = np.geomspace(1e-7, 20.0, 80)
    xs = np.concatenate([-xs[::-1], xs])
    ax = np.abs(xs)
    return M.tabulated_density(xs, np.exp(-2.0 * ax) * (ax ** -2.5 + ax ** -2.0))


@pytest.mark.parametrize("make, refs", [(_head_sum, HEAD_SUM_A_FS), (_x2_table, X2_TABLE_A_FS)],
                         ids=["cgmy+nig", "x2-table"])
def test_second_head_term_within_budget(make, refs):
    # a second head term at least as singular as x^-2 under Y = 1.5 leaves a
    # remainder w with (1 - cos ux) w -> const at 0, where 1 - cos(ux) has
    # lost its digits; the half-angle form keeps them
    d = make()
    for u, ref in refs.items():
        a_fs, _ = M.symbol_parts_from_density(d, u)
        assert abs(a_fs - ref) <= 0.01 * 1e-9 * (1.0 + u * u)


def _skew_table(sign=1.0):
    # e^{-2x} and e^{-3|x|} sides under |x|^-1.7: Y < 1, so x f_as is integrable
    return M.tabulated_density(sign * TABLE_X, np.where(TABLE_X > 0, np.exp(-2.0 * TABLE_X),
                                                        np.exp(3.0 * TABLE_X))
                               / np.abs(TABLE_X) ** 1.7)


def _gh_differenced():
    gh = M.gh_expansion_density(0.5, 0.1, 0.05, 1.0)
    return M.LevyDensity(f=gh.f, cutoff=gh.cutoff, name="gh-differenced")


def _unproven_cgmy(C, G, M_, Y):
    # the CGMY density with its exact parts but not its Levy-condition proof
    c = M.cgmy_density(C, G, M_, Y)
    return M.LevyDensity(f=c.f, cutoff=c.cutoff, name="cgmy-unproven",
                         f_s_exact=c.f_s_exact, f_as_exact=c.f_as_exact)


@pytest.mark.parametrize("args", [(1.0, 2.0, 4.0, 1.9), (1.0, 5.0, 5.0, 1.9)],
                         ids=["skew", "symmetric"])
def test_unproven_cgmy_parts_match_closed_form(args):
    # the graded rule in x = s^10 takes the x^{-1-Y} singularity of f_s
    # from the origin: at Y = 1.9 it leaves the whole (1 - cos ux) f_s ~
    # x^-0.9 to the graded panels in s, whose geometric remainder below
    # x = 1e-100 carries about 1e-10 of the part
    d, sym = _unproven_cgmy(*args), S.make_symbol(S.CGMYParams(*args))
    for u in (1.0, 10.0, 100.0, 1e4):
        a_fs, a_fas = M.symbol_parts_from_density(d, u)
        assert abs(a_fs + a_fas - sym(u)) <= 1e-3 * 1e-9 * (1.0 + u * u), u


def test_graded_panels_stay_where_the_head_is_finite():
    # at u = 1e10 the inner range is [0, 3e-9]; its graded panels still end
    # at s = 1e-10, x = 1e-100, where C x^{-1-Y} at Y = 1.985 stays finite
    sym = S.make_symbol(S.CGMYParams(1.0, 2.0, 4.0, 1.985))
    a_fs, a_fas = M.symbol_parts_from_density(M.cgmy_density(1.0, 2.0, 4.0, 1.985), 1e10)
    assert abs(a_fs + a_fas - sym(1e10)) <= 1e-3 * 1e-9 * (1.0 + 1e20)


@pytest.mark.parametrize("Y", [0.3, 1.0, 1.985])
@pytest.mark.parametrize("u", [0.3, -30.0, 1e3, 1e6, -1e7, 1e8])
def test_cgmy_parts_at_the_extremes_of_y_and_u(Y, u):
    # the graded rule in x = s^10 takes the whole x^{-1-Y} singularity of
    # f_s from the origin, at the mildest and the strongest head and from
    # 30/|u| far above EPS_INNER to 3e-7 below it
    sym = S.make_symbol(S.CGMYParams(1.0, 2.0, 4.0, Y, zero_drift=True))
    a_fs, a_fas = M.symbol_parts_from_density(M.cgmy_density(1.0, 2.0, 4.0, Y), u)
    assert abs(a_fs + a_fas - sym(u)) <= 0.01 * 1e-9 * (1.0 + u * u)


@pytest.mark.parametrize("G, M_", [(2.0, 4.0), (5.0, 5.5), (4.0, 2.0)])
def test_skewed_cgmy_near_y_two_is_not_refused(G, M_):
    # x f_as ~ x^{-Y} (M - G) x is integrable for every Y < 2; the family
    # proves it, so the local-exponent rule, blind just below Y = 2, is skipped
    sym = S.make_symbol(S.CGMYParams(1.0, G, M_, 1.985))
    d = M.cgmy_density(1.0, G, M_, 1.985)
    for u in (1.0, 10.0, 100.0, 1e4):
        a_fs, a_fas = M.symbol_parts_from_density(d, u)
        assert abs(a_fs + a_fas - sym(u)) <= 0.05 * 1e-9 * (1.0 + u * u), u


@pytest.mark.parametrize("make, make_ref, scale, flip", [
    *((lambda Y=Y, c=c: M.cgmy_density(c ** Y, 2.0 / c, 4.0 / c, Y),
       lambda Y=Y: M.cgmy_density(1.0, 2.0, 4.0, Y), c, 1.0)
      for Y in (0.5, 1.5, 1.9) for c in (0.5, 3.0)),
    *((lambda c=c: M.tabulated_density(c * TABLE_X, _table().f(TABLE_X) / c), _table, c, 1.0)
      for c in (0.5, 3.0)),
    (lambda: _skew_table(-1.0), _skew_table, 1.0, -1.0),
    (_gh_differenced, lambda: M.gh_expansion_density(0.5, 0.1, 0.05, 1.0), 1.0, 1.0),
], ids=[*(f"cgmy{Y}-dilated{c}" for Y in (0.5, 1.5, 1.9) for c in (0.5, 3.0)),
        "table-dilated0.5", "table-dilated3.0", "skew-table-reflected", "gh-differenced"])
def test_density_route_metamorphic(make, make_ref, scale, flip):
    # a density rescaled to x -> c x has the parts of the original at c u,
    # a reflected one flips A_fas, and differencing f changes nothing; each
    # pair runs through different panels, knots and cut points
    d, ref = make(), make_ref()
    for u in (0.3, 1.7, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6):
        a_fs, a_fas = M.symbol_parts_from_density(d, u)
        r_fs, r_fas = M.symbol_parts_from_density(ref, scale * u)
        tol = 0.01 * 1e-9 * (1.0 + min(u, scale * u) ** 2)
        assert abs(a_fs - r_fs) <= tol, u
        assert abs(a_fas - flip * r_fas) <= tol, u


@pytest.mark.parametrize("density, params, drift, u", [
    (M.cgmy_density(1.0, 2.0, 4.0, 1.5), S.CGMYParams(1.0, 2.0, 4.0, 1.5), 0.0, 1e6),
    (M.cgmy_density(1.0, 2.0, 4.0, 1.5), S.CGMYParams(1.0, 2.0, 4.0, 1.5), 0.0, 3e6),
    *((M.nig_density(10.0, 2.0, 1.0), S.NIGParams(alpha=10.0, beta=2.0, delta=1.0),
       2.0 / np.sqrt(96.0), u) for u in (1e6, 3e6, 1e7)),
], ids=["cgmy-1e6", "cgmy-3e6", "nig-1e6", "nig-3e6", "nig-1e7"])
def test_parts_at_large_u(density, params, drift, u):
    # 30/|u| < EPS_INNER: sin(u x) oscillates inside [0, EPS_INNER]
    a_fs, a_fas = M.symbol_parts_from_density(density, u)
    closed = S.make_symbol(params)(u)
    assert abs(1j * u * drift + a_fs + a_fas - closed) <= 1e-3 * 1e-9 * (1.0 + u * u)


def test_patched_quad_sees_every_later_call(monkeypatch):
    # M.quad imports scipy on each call and never rebinds the module name,
    # so a wrapper set after the first call still sees every QUADPACK call;
    # the density route and the jump indices make none
    import scipy.integrate
    first = M.quad
    first(lambda x: x, 0.0, 1.0)
    assert M.quad is first
    seen, made = [0], [0]
    scipy_quad = scipy.integrate.quad

    def counting_scipy(*args, **kwargs):
        made[0] += 1
        return scipy_quad(*args, **kwargs)

    def counting(*args, **kwargs):
        seen[0] += 1
        return first(*args, **kwargs)

    monkeypatch.setattr(scipy.integrate, "quad", counting_scipy)
    monkeypatch.setattr(M, "quad", counting)
    d = M.nig_density(10.0, 2.0, 1.0)
    for u in (0.5, 30.0, -100.0, -1e5):
        M.symbol_parts_from_density(d, u)
    M.gamma_index(M.LevyDensity(f=d.f, cutoff=d.cutoff, name="no hints"))
    assert seen[0] == made[0] == 0
    M.quad(lambda x: x, 0.0, 1.0)
    assert seen[0] == made[0] == 1


def test_nonfinite_part_raises_quadrature_failure():
    f = lambda x: np.exp(-np.abs(x)) / np.abs(x) ** 1.5

    def f_as(x):  # finite near the origin, NaN in the tail
        x = np.asarray(x, dtype=float)
        return np.where(np.abs(x) < 1.0, 0.5 * np.sign(x) * f(x), np.nan)

    d = M.LevyDensity(f=f, cutoff=50.0, name="nan-tail", f_as_exact=f_as)
    with pytest.raises(QuadratureFailure, match="non-finite"):
        M.symbol_parts_from_density(d, 3.0)


def test_nig_quadrature_matches_closed_form(nig_skew):
    sp = M.nig_density(10.0, 3.0, 1.0)
    b = 3.0 / np.sqrt(91.0)
    for u in np.geomspace(0.5, 100.0, 7):
        a_fs, a_fas = M.symbol_parts_from_density(sp, float(u))
        a_quad = 1j * u * b + a_fs + a_fas
        closed = nig_skew(float(u))
        assert abs(a_quad - closed) <= 1e-6 * abs(closed)


def test_first_moment_error_counts_times_u():
    # A_fas = i (2 s - u m1): an error e of the cached moment over
    # |x| > EPS_INNER is an error |u| e of A_fas.  With e = budget/2, the call
    # must refuse rather than count e alone and return
    sp = M.cgmy_density(1.0, 2.0, 4.0, 1.5)
    u = 100.0
    budget = 1e-9 * (1.0 + u * u)
    m1, _ = M._first_moment_as(sp, outer=True)
    sp._cache[("m1", True)] = (m1, 0.5 * budget)
    with pytest.raises(QuadratureFailure, match="exceeds budget"):
        M.symbol_parts_from_density(sp, u)


def test_tabulated_route_has_no_failure_band():
    # the kinks at the table nodes used to defeat the error estimate for
    # u in about [0.69, 1.76]; scaled tables are the benchmark's inputs
    sp = _table()
    for u in np.geomspace(0.3, 30.0, 40):
        a_fs, _ = M.symbol_parts_from_density(sp, float(u))
        assert a_fs > 0.0
    for scale in (0.9, 1.1):
        sp = _table(scale)
        for u in (0.71, 2.7, 18.8):
            assert M.symbol_parts_from_density(sp, u)[0] > 0.0


def test_tabulated_route_raises_no_integration_warning():
    # pyproject.toml ignores IntegrationWarning suite-wide; here it counts
    table = _table()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for u in (0.3, 1.0, 3.0, 30.0, 1e3, 1e4):
            M.symbol_parts_from_density(table, u)
        M.bg_index(table)
        M.gamma_index(table)
    assert [w for w in caught if issubclass(w.category, IntegrationWarning)] == []


def test_dense_table_has_more_knots_than_the_subinterval_limit():
    # about 490 nodes in [0, eps]: the single call there gets more
    # breakpoints than QUADPACK's default 400 subintervals allow
    x = np.geomspace(1e-9, 20.0, 1000)
    xs = np.concatenate([-x[::-1], x])
    d = M.tabulated_density(xs, np.exp(-2 * np.abs(xs)) / np.abs(xs) ** 2.2)
    assert len(M._knots_in(d.knots, 0.0, M.EPS_INNER)) > M._LIMIT
    a_fs, a_fas = M.symbol_parts_from_density(d, 3.0)
    closed = S.make_symbol(S.CGMYParams(1.0, 2.0, 2.0, 1.2))(3.0)
    assert a_fs + a_fas == pytest.approx(closed, rel=1e-4)
    assert M.gamma_index(d) == pytest.approx(1.2, abs=0.05)


@pytest.mark.parametrize("args, panels", [
    ((1e-4, 700.0), [(0.0001, 0.001), (0.001, 0.01), (0.01, 0.1), (0.1, 1.0),
                     (1.0, 10.0), (10.0, 100.0), (100.0, 700.0)]),
    ((0.0015, 0.3), [(0.0015, 0.015), (0.015, 0.15), (0.15, 0.3)]),
    ((1e-4, 3e-3), [(0.0001, 0.001), (0.001, 0.003)]),
    ((3e-3, 2.5), [(0.003, 0.03), (0.03, 0.3), (0.3, 2.5)]),
    ((1e-4, 0.0316227766016838), [(0.0001, 0.001), (0.001, 0.01),
                                  (0.01, 0.0316227766016838)]),
])
def test_panels_without_knots_are_unchanged(args, panels):
    assert list(M._panels(*args, knots=())) == panels


def test_panels_split_at_interior_knots():
    knots = (5e-5, 1e-3, 3e-3, 0.5, 0.7, 800.0)
    got = list(M._panels(1e-4, 700.0, knots=knots))
    assert got == [(0.0001, 0.001), (0.001, 0.003), (0.003, 0.01), (0.01, 0.1),
                   (0.1, 0.5), (0.5, 0.7), (0.7, 1.0), (1.0, 10.0), (10.0, 100.0),
                   (100.0, 700.0)]


def test_a_fs_nonnegative():
    for dens in (M.cgmy_density(1.0, 2.0, 4.0, 1.2), M.power_law_density(0.5, 0.7)):
        for u in (0.1, 1.0, 47.0):
            a_fs, _ = M.symbol_parts_from_density(dens, u)
            assert a_fs >= 0.0


def test_a_fas_purely_imaginary():
    sp = M.cgmy_density(1.0, 2.0, 4.0, 0.5)
    _, a_fas = M.symbol_parts_from_density(sp, 7.0)
    assert a_fas.real == 0.0
    assert a_fas.imag != 0.0


def test_divergent_antisymmetric_first_moment():
    # |x f_as| ~ |x|^{-1.2} near 0: the Lemma precondition fails
    f = lambda x: (1.0 + 0.9 * np.sign(x)) * np.exp(-np.abs(x)) / np.abs(x) ** 2.2
    d = M.LevyDensity(f=f, cutoff=700.0, name="skew-heavy")
    with pytest.raises(DivergentIntegral):
        M.symbol_parts_from_density(d, 2.0)


def _heavy_skew_tail():
    # x f_as ~ x^{-1/2}/2 at infinity: h(x) = x has no compensator
    f = lambda x: (1.0 + 0.5 * np.sign(x)) / (np.abs(x) ** 0.5 * (1.0 + np.abs(x)))
    return M.LevyDensity(f=f, cutoff=np.inf, name="heavy-skew")


def test_identity_truncation_needs_the_large_jump_moment():
    with pytest.raises(DivergentIntegral, match=r"h\(x\) = x"):
        M.symbol_parts_from_density(_heavy_skew_tail(), 1.0)
    with pytest.raises(DivergentIntegral, match=r"h\(x\) = x"):
        M.density_symbol(_heavy_skew_tail())(1.0)


def test_symmetric_heavy_tails_still_evaluate():
    from scipy.special import beta, gamma, kv
    # f_as = 0, so no first moment is needed however heavy the tail
    a_fs, a_fas = M.symbol_parts_from_density(M.power_law_density(1.0, 0.5), 3.0)
    assert a_fs == pytest.approx(2.0 * 3.0 ** 0.5 * S._head_total(0.5), rel=1e-10)
    assert a_fas == 0.0
    # f = (1+x^2)^{-3/4} keeps f_s(r) r^2 > 1e-20 past the r_eff cap 2^30;
    # the mass beyond it (about 1.2e-4) is part of A_fs
    d = M.LevyDensity(f=lambda x: (1.0 + np.asarray(x, dtype=float) ** 2) ** -0.75,
                      cutoff=np.inf, name="t-like")
    for u in (1.0, 10.0):
        exact = beta(0.5, 0.25) - 2.0 * np.sqrt(np.pi) / gamma(0.75) \
            * (u / 2.0) ** 0.25 * kv(0.25, u)
        a_fs, a_fas = M.symbol_parts_from_density(d, u)
        assert abs(a_fs - exact) <= 1e-9 * (1.0 + u * u)
        assert a_fas == 0.0


def test_slowly_converging_large_jump_moment():
    # x f_as ~ x^{-1.5}/2 at infinity, so int_{|x|>1} |x f_as| converges;
    # r_eff stops at its cap 2^30 and the moment beyond it is part of A_fas.
    # References from mpmath; the first moment is exactly pi/2
    f = lambda x: (1.0 + 0.5 * np.sign(x)) / (np.abs(x) ** 0.5 * (1.0 + np.abs(x)) ** 2)
    d = M.LevyDensity(f=f, cutoff=np.inf, name="slow-skew")
    a_fs, a_fas = M.symbol_parts_from_density(d, 1.0)
    assert abs(a_fs - 0.776497775053063) <= 2e-9
    assert a_fas.real == 0.0
    assert abs(a_fas.imag + 1.156716478807495) <= 2e-9
    assert M._first_moment_as(d)[0] == pytest.approx(np.pi / 2, abs=1e-12)


def test_antisymmetric_part_away_from_the_origin():
    # f_as = 0 on |x| <= 1: the antisymmetric part is found on the whole range
    def f(x):
        x = np.asarray(x, dtype=float)
        ax = np.abs(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.exp(-ax) * ax ** -1.5 * (1.0 + 0.5 * np.sign(x) * (ax > 1.0))
        return np.where(ax > 0, out, 0.0)
    d = M.LevyDensity(f=f, cutoff=60.0, name="outer-skew")
    for u in (1.0, 5.0):
        ref = quad(lambda x: (np.sin(u * x) - u * x) * np.exp(-x) * x ** -1.5, 1.0, 60.0,
                   epsabs=1e-15, limit=200)[0]
        _, a_fas = M.symbol_parts_from_density(d, u)
        assert a_fas.real == 0.0
        assert a_fas.imag == pytest.approx(ref, abs=1e-12)


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
        assert S._head_total(Y) == want


def test_density_symbol_route():
    sym = M.density_symbol(M.cgmy_density(1.0, 5.0, 5.0, 0.5))
    closed = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 0.5))
    for u in (1.0, 10.0):
        assert abs(sym(u) - closed(u)) <= 1e-6 * abs(closed(u))
    assert sym.eval_mode == "quadrature"
    assert sym.density is not None


def test_compensated_drift_counts_its_moment_error():
    # b = None adds i u m1 back; for an f-only law m1 carries the noise of
    # the differenced f_as near 0, and |u| times its error estimate is
    # counted against the budget even though the parts meet it
    d = _f_only(M.cgmy_density(1.62, 11.1, 11.0, 1.94))
    M.symbol_parts_from_density(d, 3.0)
    assert 3.0 * M._first_moment_as(d)[1] > 1e-9 * (1.0 + 3.0 ** 2)
    with pytest.raises(QuadratureFailure, match="first moment error"):
        M.density_symbol(d)(3.0)
    # a given drift needs no moment
    assert np.isfinite(M.density_symbol(d, b=0.0)(3.0))


# ---------------------------------------------------------------------------
# jump-activity indices
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("Y,expect", [(0.5, 0.5), (1.5, 1.5)])
def test_bg_index_cgmy(Y, expect):
    assert M.bg_index(M.cgmy_density(1.0, 5.0, 5.0, Y)) == pytest.approx(expect, abs=0.02)


def test_bg_index_bounded_density():
    d = M.LevyDensity(f=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
                      cutoff=10.0, name="gauss")
    assert M.bg_index(d) == 0.0


def test_bg_index_inconsistent_raises():
    # hints describe a 1/x^2 head but the fit window sees pure 1/x^{1.2}:
    # fabricate disagreement by a density whose local power changes
    f = lambda x: np.where(np.abs(x) < 1e-3,
                           1.0 / np.abs(x) ** 1.5,
                           1e-3 ** 0.7 / np.abs(x) ** 2.2) * np.exp(-np.abs(x))
    d = M.LevyDensity(f=f, cutoff=700.0, name="kinked")
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
    x, w, idx = M._dyadic_samples(density)
    got = np.bincount(idx, weights=x**alpha * w * density.f_s(x))
    edges = [(1.0 / 16.0, 1.0)] + [(2.0 ** -(j + 1), 2.0 ** -j) for j in range(4, 34)]
    assert len(got) == len(edges)
    for val, (a, b) in zip(got, edges):
        ref = quad(lambda t: t**alpha * density.f_s(t), a, b, epsabs=0.0, epsrel=1e-13,
                   limit=200, points=M._knots_in(density.knots, a, b) or None)[0]
        assert val == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("Y,expect", [(1.2, 1.2)])
def test_gamma_index_cgmy(Y, expect):
    assert M.gamma_index(M.cgmy_density(1.0, 5.0, 5.0, Y)) == pytest.approx(expect, abs=0.05)


def _gamma_by_quad(d):
    # G(r) by QUADPACK at 1e-13 relative, [0, 1e-6] through x = s^10
    rs = np.geomspace(1e-6, 1e-1, 48)
    kn = np.asarray(d.knots)
    w = lambda x: x * x * d.f_s(x)

    def between(a, b, pts, fn):
        p = pts[(pts > a) & (pts < b)]
        return quad(fn, a, b, epsabs=0.0, epsrel=1e-13, limit=200,
                    points=p if len(p) else None)[0]

    s_hi = rs[0] ** 0.1
    incs = [between(1e-10, s_hi, kn ** 0.1, lambda s: w(s ** 10) * 10.0 * s ** 9)]
    incs += [between(a, b, kn, w) for a, b in zip(rs[:-1], rs[1:])]
    slope = np.polyfit(np.log(rs), np.log(2.0 * np.cumsum(incs)), 1)[0]
    return float(np.clip(2.0 - slope, 0.0, 2.0))


@pytest.mark.parametrize("make", [
    *(lambda Y=Y: M.cgmy_density(1.0, 2.0, 4.0, Y) for Y in (0.2, 0.5, 1.5, 1.9)),
    lambda: M.nig_density(10.0, 2.0, 1.0),
    lambda: M.gh_expansion_density(0.5, 0.1, 0.05, 1.0),
    _table,
    lambda: M.power_law_density(1.0, 1.3),
    _x2_table,
    _skew_table,
    lambda: _skew_table(-1.0),
    *(lambda Y=Y: _unproven_cgmy(1.0, 2.0, 4.0, Y) for Y in (0.5, 1.5)),
], ids=["cgmy0.2", "cgmy0.5", "cgmy1.5", "cgmy1.9", "nig", "gh", "table", "powerlaw",
        "x2-table", "skew-table", "skew-table-reflected", "unproven-cgmy0.5",
        "unproven-cgmy1.5"])
def test_gamma_index_matches_quadrature(make, monkeypatch):
    d = make()
    ref = _gamma_by_quad(d)
    monkeypatch.setattr(M, "quad", lambda *a, **k: pytest.fail("quad called"))
    assert abs(M.gamma_index(d) - ref) <= 1e-8


def test_gamma_index_bounded():
    d = M.LevyDensity(f=lambda x: np.exp(-np.asarray(x, dtype=float) ** 2),
                      cutoff=10.0, name="gauss")
    assert M.gamma_index(d) == 0.0


def test_gamma_index_cauchy_type():
    assert M.gamma_index(M.power_law_density(1.0, 1.0)) == pytest.approx(1.0, abs=0.05)


@pytest.mark.parametrize("Y", [0.1, 1.0, 1.99])
def test_gamma_index_of_a_power_law_is_its_exponent(Y):
    # G(r) = 2 r^{2-Y}/(2-Y) exactly: the graded panels from the origin leave
    # the log-log slope at 2 - Y to roundoff
    assert abs(M.gamma_index(M.power_law_density(1.0, Y)) - Y) <= 1e-12


def test_gamma_index_needs_no_family_form():
    # CGMY(1, 2, 4, 1.9) given by f alone differences f for f_s; its gamma
    # is the family density's
    c = M.cgmy_density(1.0, 2.0, 4.0, 1.9)
    d = M.LevyDensity(f=c.f, cutoff=c.cutoff, name="cgmy f-only")
    assert M.gamma_index(d) == pytest.approx(M.gamma_index(c), rel=1e-12, abs=0.0)


def test_gamma_index_of_a_reflected_table():
    # f_s of a table and of its reflection x -> -x are the same function
    assert M.gamma_index(_skew_table()) == M.gamma_index(_skew_table(-1.0))


@pytest.mark.parametrize("Y", [0.3, 1.0, 1.7, 1.95])
def test_power_law_parts_by_quadrature_match_the_closed_form(Y):
    # the density takes the general route out to the r_eff cap 2^30 and the
    # mass beyond; at Y = 1.95 its tail map reaches x ~ 1e109 without a warning
    d, sym = M.power_law_density(1.0, Y), S.make_symbol(S.PowerLawParams(Y=Y))
    assert sym.eval_mode == "closed-form"
    for u in (0.1, -1.0, 100.0, -1e4, 1e6):
        a_fs, a_fas = M.symbol_parts_from_density(d, u)
        assert abs(a_fs + a_fas - sym(u)) <= 0.05 * 1e-9 * (1.0 + u * u), u


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
    sp = M.cgmy_density(1.0, 5.0, 5.0, 1.5)
    rep = M.verify_appendix_bounds(sp, 1.5, bound_grid)
    assert rep.parts["a"].passed and rep.parts["b"].passed and rep.parts["c"].passed
    assert not rep.parts["d"].applicable  # infinite variation at Y = 1.5


def test_appendix_bounds_power_law(bound_grid):
    sp = M.power_law_density(1.0, 1.0)
    rep = M.verify_appendix_bounds(sp, 1.0, bound_grid)
    assert rep.parts["a"].passed and rep.parts["b"].passed
    # A_fs(u) = pi |u| exactly: fitted C1 just under pi
    assert rep.parts["b"].constants["C1"] == pytest.approx(0.95 * np.pi, rel=1e-6)


def test_appendix_bounds_asymmetric_fv(bound_grid):
    sp = M.cgmy_density(1.0, 2.0, 4.0, 0.5)
    rep = M.verify_appendix_bounds(sp, 0.5, bound_grid)
    assert all(rep.parts[k].passed for k in "abcd")
    assert rep.parts["d"].applicable


def test_appendix_bounds_power_law_finite_variation(bound_grid):
    # Y < 1: int_{[-1,1]} |x| f dx = 2 coef/(1 - Y) is finite, so part d applies
    d = M.power_law_density(1.0, 0.5)
    rep = M.verify_appendix_bounds(d, 0.5, bound_grid)
    assert rep.parts["d"].applicable and rep.parts["d"].passed
    # the verdict follows the Y it is given
    assert not M.verify_appendix_bounds(d, 1.5, bound_grid).parts["d"].applicable


def test_appendix_bounds_vg_fails_b(bound_grid):
    sp = M.cgmy_density(1.0, 5.0, 5.0, 0.0)
    for Y in (0.3, 0.5, 1.0):
        rep = M.verify_appendix_bounds(sp, Y, bound_grid)
        assert not rep.parts["b"].passed


def test_bound_report_record(bound_grid):
    sp = M.power_law_density(1.0, 1.0)
    rec = M.verify_appendix_bounds(sp, 1.0, bound_grid).to_record()
    assert rec["part_a_passed"] and rec["Y"] == 1.0
