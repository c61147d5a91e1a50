import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from levysobolev import indices as I
from levysobolev import measures as M
from levysobolev import symbols as S
from levysobolev.errors import (
    DegenerateSymbol,
    FitUnstable,
    InvalidParams,
    MissingField,
    NonpositiveRealPart,
    TailUnbounded,
    UnknownFamily,
)
from levysobolev.fitting import linear_fit

# ---------------------------------------------------------------------------
# grid
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(InvalidParams):
        I.GridSpec(r_min=0.5)
    with pytest.raises(InvalidParams):
        I.GridSpec(r_min=1e3, r_max=1e4)
    g = I.GridSpec()
    r = g.radii()
    assert r[0] == 1e2 and r[-1] == 1e6


# ---------------------------------------------------------------------------
# continuity fits
# ---------------------------------------------------------------------------


def test_continuity_brownian(brownian):
    alpha, diag = I.fit_continuity_exponent(brownian)
    assert alpha == pytest.approx(2.0, abs=0.01)
    assert not diag["sub_polynomial"]


def test_continuity_cauchy(cauchy):
    alpha, _ = I.fit_continuity_exponent(cauchy)
    assert alpha == pytest.approx(1.0, abs=0.01)


def test_continuity_vg_flagged(vg_sym):
    alpha, diag = I.fit_continuity_exponent(vg_sym)
    assert diag["sub_polynomial"]
    assert alpha < 0.2


def test_degenerate_symbol():
    zero = S.symbol_from_callable(lambda pts: np.zeros(len(pts), dtype=complex), d=1)
    with pytest.raises(DegenerateSymbol):
        I.fit_continuity_exponent(zero)


# ---------------------------------------------------------------------------
# Garding fits
# ---------------------------------------------------------------------------


def test_garding_nig(nig_skew):
    alpha, _ = I.fit_garding_exponent(nig_skew)
    assert alpha == pytest.approx(1.0, abs=0.02)


def test_garding_cgmy(cgmy15):
    alpha, _ = I.fit_garding_exponent(cgmy15)
    assert alpha == pytest.approx(1.5, abs=0.02)


def test_garding_student_t(student_t):
    alpha, _ = I.fit_garding_exponent(student_t)
    assert alpha == pytest.approx(1.0, abs=0.05)


def test_garding_nonpositive_real_part():
    drift_only = S.symbol_from_callable(
        lambda pts: 1j * pts[:, 0], d=1, family="pure-drift")
    with pytest.raises(NonpositiveRealPart):
        I.fit_garding_exponent(drift_only)


def test_garding_fit_advances_its_window():
    # on [1, 100] CGMY(1, 5, 5, 0.5) still bends toward its r^0.5 law: the
    # top-half fit has R^2 0.992 < 0.995, so the window moves up the radii
    sym = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 0.5))
    r, vals = I._ray_values(sym, I.GridSpec(r_min=1.0, r_max=100.0))
    win = I._top_half(r)
    plain = linear_fit(np.log(r[win]), np.log(vals.real[0, win]))
    assert plain[0] == pytest.approx(0.9039, abs=1e-4) and plain[2] < 0.995
    alpha, diag = I._garding_fit(r, vals)
    assert alpha == pytest.approx(0.8276, abs=1e-4)
    assert diag["r2_min"] == pytest.approx(0.9965, abs=1e-4)


def test_index_verdict_records_a_nonpositive_real_part():
    # a pure drift has Re A = 0: no Garding fit and no index, with the reason
    rep = I.index_verdict(S.make_symbol(S.BrownianParams(sigma=0.0, b=1.0)))
    assert rep.sobolev_index is None and rep.alpha_gard is None
    assert rep.diagnostics["garding"] == "nonpositive real part on fit range"


# ---------------------------------------------------------------------------
# the index itself: catalog recovery
# ---------------------------------------------------------------------------

CATALOG = [
    (S.BrownianParams(sigma=1.0, b=0.0), 2.0),
    (S.BrownianParams(sigma=1.0, b=0.7), 2.0),
    (S.NIGParams(alpha=10.0, beta=3.0, delta=1.0, mu=0.0), 1.0),
    (S.CauchyParams(c=1.0, gamma=0.0), 1.0),
    (S.StudentTParams(f=4.0), 1.0),
    (S.CGMYParams(1.0, 5.0, 5.0, 0.5), 0.5),
    (S.CGMYParams(1.0, 5.0, 5.0, 1.0), 1.0),
    (S.CGMYParams(1.0, 5.0, 5.0, 1.2), 1.2),
    (S.CGMYParams(1.0, 5.0, 5.0, 1.5), 1.5),
    (S.CGMYParams(1.0, 5.0, 5.0, 1.8), 1.8),
    (S.CGMYParams(1.0, 2.0, 4.0, 0.5), 0.5),
    (S.Stable1dParams(alpha=0.3, c=1.0), 0.3),
    (S.Stable1dParams(alpha=0.7, c=1.0), 0.7),
    (S.Stable1dParams(alpha=1.0, c=1.0), 1.0),
    (S.Stable1dParams(alpha=1.6, c=1.0), 1.6),
]


@pytest.mark.parametrize("params,expected", CATALOG,
                         ids=[f"{type(p).__name__}-{e}" for p, e in CATALOG])
def test_catalog_recovery(params, expected):
    rep = I.sobolev_index(S.make_symbol(params))
    assert rep.sobolev_index is not None
    assert rep.sobolev_index == pytest.approx(expected, abs=0.05)
    assert rep.sobolev_index == pytest.approx(rep.alpha_gard, abs=1e-12)


@pytest.mark.parametrize("tol", [0.05, 0.2])
def test_negative_control_vg(vg_sym, tol):
    rep = I.sobolev_index(vg_sym, tol=tol)
    assert rep.sobolev_index is None
    assert rep.sub_polynomial


@pytest.mark.parametrize("tol", [0.05, 0.2])
def test_negative_control_nonstrict_one_stable(tol):
    sym = S.stable_symbol_1d(S.Stable1dParams(alpha=1.0, c=1.0, beta=0.5))
    rep = I.sobolev_index(sym, tol=tol)
    assert rep.sobolev_index is None


def _sum(a, b):
    # the symbol of the sum of two independent Levy processes
    return S.symbol_from_callable(lambda pts: a.fn(pts) + b.fn(pts), d=1)


def test_sum_symbol_takes_max(brownian, nig_sym):
    rep = I.sobolev_index(_sum(brownian, nig_sym))
    assert rep.sobolev_index == pytest.approx(2.0, abs=0.05)


def test_monotone_garding_for_sums(cauchy):
    cg05 = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 0.5))
    a_sum, _ = I.fit_garding_exponent(_sum(cauchy, cg05))
    a1, _ = I.fit_garding_exponent(cauchy)
    a2, _ = I.fit_garding_exponent(cg05)
    assert a_sum >= max(a1, a2) - 0.05


def test_scaling_invariance_of_fits(cgmy15):
    doubled = S.symbol_from_callable(lambda pts: 2.0 * cgmy15.fn(pts), d=1)
    a1, _ = I.fit_continuity_exponent(cgmy15)
    a2, _ = I.fit_continuity_exponent(doubled)
    g1, _ = I.fit_garding_exponent(cgmy15)
    g2, _ = I.fit_garding_exponent(doubled)
    assert a1 == pytest.approx(a2, abs=1e-6)
    assert g1 == pytest.approx(g2, abs=1e-6)


def test_index_report_round_trip(cgmy15):
    rep = I.sobolev_index(cgmy15)
    rec = rep.to_record()
    back = I.IndexReport.from_record(rec)
    assert back.to_record() == rec


def test_d3_brownian_index():
    # d = 3 samples seeded random unit directions
    dirs = I.GridSpec().directions(3)
    assert dirs.shape == (32, 3)
    np.testing.assert_allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=1e-15)
    sym = S.make_symbol(S.BrownianParams(sigma=tuple(map(tuple, np.eye(3))), b=(0.0,) * 3))
    assert I.sobolev_index(sym).sobolev_index == pytest.approx(2.0, abs=1e-12)


def test_d2_nig_index():
    sym = S.make_symbol(S.NIGParams(alpha=10.0, beta=(3.0, 1.0), delta=1.0,
                                    mu=(0.0, 0.0)))
    rep = I.sobolev_index(sym)
    assert rep.sobolev_index == pytest.approx(1.0, abs=0.05)


def test_gamma_le_garding_for_pure_jump():
    # gamma never exceeds the Garding exponent by more than fit error
    for Y in (0.6, 1.2, 1.5):
        sym = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, Y))
        g, _ = I.fit_garding_exponent(sym)
        assert M.gamma_index(sym.density) <= g + 0.1


# ---------------------------------------------------------------------------
# shared rays and Hermitian mirroring
# ---------------------------------------------------------------------------

MIRRORED = {
    "brownian": S.BrownianParams(sigma=1.0, b=0.3),
    "nig": S.NIGParams(alpha=10.0, beta=3.0, delta=1.0, mu=0.2),
    "cauchy": S.CauchyParams(c=1.0, gamma=0.5),
    "student_t": S.StudentTParams(f=4.0, mu=0.3),
    **{f"cgmy_{Y}": S.CGMYParams(1.0, 2.0, 4.0, Y) for Y in (0.0, 0.7, 1.0, 1.5)},
    **{f"stable_{a}": S.Stable1dParams(alpha=a, c=1.0) for a in (0.3, 1.0, 1.6)},
    "stable_0.7_drift": S.Stable1dParams(alpha=0.7, c=1.0, tau=0.4),
    "stable_1_nonstrict": S.Stable1dParams(alpha=1.0, c=1.0, beta=0.5, tau=0.2),
}


@pytest.mark.parametrize("name", sorted(MIRRORED))
def test_mirrored_ray_is_bit_exact(name):
    # the licence for evaluating only the +1 ray: A(-r) == conj(A(r)) bitwise
    sym = S.make_symbol(MIRRORED[name])
    r = I.GridSpec().radii()
    assert np.array_equal(sym(-r), np.conj(sym(r)))


def test_mirrored_ray_is_bit_exact_for_gh_density():
    sym = M.density_symbol(M.gh_expansion_density(C1=0.5, C2=0.1, C3=0.05, damping=1.0))
    r = I.GridSpec(r_max=1e5, points_per_decade=8).radii()
    assert np.array_equal(sym(-r), np.conj(sym(r)))


def test_one_dimensional_index_evaluates_each_radius_once(cgmy15):
    seen = []

    def counting(pts):
        seen.extend(pts[:, 0].tolist())
        return cgmy15.fn(pts)

    grid = I.GridSpec()
    rep = I.sobolev_index(dataclasses.replace(cgmy15, fn=counting), grid)
    assert sorted(seen) == grid.radii().tolist()
    assert rep.to_record() == I.sobolev_index(cgmy15, grid).to_record()


@pytest.mark.parametrize("params", [
    S.CauchyParams(c=1.0), S.StudentTParams(f=4.0),
    S.NIGParams(alpha=10.0, beta=3.0, delta=1.0), S.CGMYParams(1.0, 2.0, 4.0, 1.5),
    S.CGMYParams(1.0, 5.0, 5.0, 0.0), S.Stable1dParams(alpha=1.6, c=1.0),
    S.Stable1dParams(alpha=1.0, c=1.0, beta=0.5),
], ids=["cauchy", "student_t", "nig", "cgmy", "vg", "stable", "stable_nonstrict"])
def test_mirrored_index_matches_two_ray_index(params):
    # symbol_from_callable has no known symmetry, so it evaluates both rays
    sym = S.make_symbol(params)
    mirrored = I.sobolev_index(sym).to_record()
    two_ray = I.sobolev_index(S.symbol_from_callable(sym.fn)).to_record()
    # the jump indices need the density, which the bare callable lacks
    assert two_ray["beta"] is None and two_ray["gamma"] is None
    for key in ("beta", "gamma"):
        del mirrored[key], two_ray[key]
    assert mirrored == two_ray


# ---------------------------------------------------------------------------
# analytic catalog
# ---------------------------------------------------------------------------


def test_analytic_index_values():
    assert I.analytic_index("gh") == 1.0
    assert I.analytic_index(S.CGMYParams(1.0, 5.0, 5.0, 0.0)) is None
    assert I.analytic_index(S.BrownianParams(sigma=1.0, b=0.0)) == 2.0
    assert I.analytic_index(S.NIGParams(alpha=10.0)) == 1.0
    assert I.analytic_index(S.StudentTParams(f=4.0)) == 1.0
    assert I.analytic_index(S.CauchyParams()) == 1.0
    assert I.analytic_index(S.CGMYParams(1.0, 5.0, 5.0, 1.2)) == 1.2
    assert I.analytic_index(S.Stable1dParams(alpha=0.7, c=1.0)) == 0.7
    assert I.analytic_index(S.Stable1dParams(alpha=0.7, c=1.0, tau=0.5)) is None
    assert I.analytic_index(S.Stable1dParams(alpha=1.6, c=1.0, tau=0.5)) == 1.6
    assert I.analytic_index(S.Stable1dParams(alpha=1.0, c=1.0, beta=0.5)) is None
    assert I.analytic_index(S.Stable1dParams(alpha=1.0, c=1.0, tau=0.3)) == 1.0


def test_analytic_index_unknown():
    with pytest.raises(UnknownFamily):
        I.analytic_index("meixner")


def test_analytic_index_names_read_the_catalog():
    assert I.analytic_index("Brownian") == 2.0
    for name in ("nig", "cauchy", "student-t", "gh", "gh_numeric"):
        assert I.analytic_index(name) == 1.0
    assert I.analytic_index("vg") is None
    # the index of these depends on the parameters
    for name in ("cgmy", "stable1d"):
        with pytest.raises(UnknownFamily):
            I.analytic_index(name)


def test_unstable_jump_index_fit_is_recorded(cgmy15, monkeypatch):
    full = I.sobolev_index(cgmy15).to_record()

    def unstable(density):
        raise FitUnstable("local power fit R^2 = 0.5")

    monkeypatch.setattr(M, "bg_index", unstable)
    rec = I.sobolev_index(cgmy15).to_record()
    assert rec["beta"] is None and rec["gamma"] is None
    assert rec["diagnostics"].pop("jump_indices") == "local power fit R^2 = 0.5"
    for key in ("beta", "gamma"):
        del full[key], rec[key]
    assert rec == full


def test_catalog_recovery_matches_analytic():
    for params, _ in CATALOG:
        expected = I.analytic_index(params)
        fitted = I.sobolev_index(S.make_symbol(params)).sobolev_index
        assert fitted == pytest.approx(expected, abs=0.05)


# ---------------------------------------------------------------------------
# smoothness moments
# ---------------------------------------------------------------------------


def test_moments_brownian(brownian):
    mom = I.smoothness_moments(brownian, 1.0, 2)
    assert mom[0] == pytest.approx(np.sqrt(2.0 * np.pi), rel=1e-8)
    assert mom[1] == pytest.approx(2.0, rel=1e-8)  # 2 int_0^inf x e^{-x^2/2}


def test_moments_nig_all_finite(nig_sym):
    mom = I.smoothness_moments(nig_sym, 1.0, 8)
    assert len(mom) == 9
    assert all(np.isfinite(m) and m > 0 for m in mom)


def test_moments_cgmy_match_bruteforce():
    sym = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 0.5))
    mom = I.smoothness_moments(sym, 0.1, 4)
    for n in (0, 4):
        brute = 2.0 * quad(
            lambda x: x**n * np.exp(-0.1 * np.real(sym(np.asarray([x]))[0])),
            0.0, 1e5, limit=800, epsabs=1e-13, epsrel=1e-11)[0]
        assert mom[n] == pytest.approx(brute, rel=1e-6)


def test_upper_gamma_bound_is_at_least_scipys_value():
    from scipy.special import gamma, gammaincc

    eps = np.finfo(float).eps
    for a in np.linspace(0.05, 60.0, 160):
        for x in np.geomspace(1e-3, 700.0, 100):
            ref = gamma(a) * gammaincc(a, x)
            # rounding of x^(a-1) e^-x, taken as exp((a-1) log x - x)
            tol = 4 * eps * (1.0 + x + abs((a - 1.0) * np.log(x)))
            assert I._upper_gamma_bound(a, x) >= ref * (1.0 - tol)
    assert I._upper_gamma_bound(200.0, 1.0) == np.inf   # Gamma(200) overflows


def test_moments_need_garding_fit(vg_sym):
    with pytest.raises(TailUnbounded):
        # VG decays like a power, not exponentially: certificate impossible
        I.smoothness_moments(vg_sym, 1.0, 2)


# ---------------------------------------------------------------------------
# cross checks
# ---------------------------------------------------------------------------


def test_cross_check_cgmy():
    rep = I.sobolev_index(S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 1.2)))
    verdicts = I.cross_check(rep)
    assert verdicts["beta_ge_gamma"]["passed"]
    assert verdicts["beta_ge_index"]["passed"]
    assert verdicts["beta_ge_index"]["applicable"]


def test_cross_check_cauchy_beta_equals_index(cauchy):
    rep = I.sobolev_index(cauchy)
    rep.beta = M.bg_index(M.power_law_density(1.0 / np.pi, 1.0))
    rep.gamma = M.gamma_index(M.power_law_density(1.0 / np.pi, 1.0))
    verdicts = I.cross_check(rep)
    assert verdicts["beta_ge_index"]["passed"]
    assert rep.beta == pytest.approx(1.0, abs=0.02)


def test_cross_check_brownian_skips_verdict2(brownian):
    rep = I.sobolev_index(brownian)
    rep.beta, rep.gamma = 0.0, 0.0
    verdicts = I.cross_check(rep)
    assert not verdicts["beta_ge_index"]["applicable"]


def test_cross_check_missing_fields(brownian):
    rep = I.sobolev_index(brownian)
    with pytest.raises(MissingField):
        I.cross_check(rep)
