import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad

from levysobolev import measures as M
from levysobolev import symbols as S
from levysobolev.errors import EvalOverflow, InvalidParams
from levysobolev.indices import CATALOG

# ---------------------------------------------------------------------------
# constructors and validation
# ---------------------------------------------------------------------------


def test_brownian_example():
    sym = S.make_symbol(S.BrownianParams(sigma=1.0, b=0.0))
    assert sym(3.0) == pytest.approx(4.5 + 0.0j, abs=1e-14)


def test_nig_constraint_boundary():
    with pytest.raises(InvalidParams, match="alpha\\^2"):
        S.make_symbol(S.NIGParams(alpha=1.0, beta=(2.0, 0.0), delta=1.0, mu=(0.0, 0.0)))


def test_cgmy_y_range():
    with pytest.raises(InvalidParams, match="Y < 2"):
        S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 2.3))
    with pytest.raises(InvalidParams, match="C, G, M"):
        S.make_symbol(S.CGMYParams(-1.0, 5.0, 5.0, 0.5))


def test_sigma_must_be_psd():
    with pytest.raises(InvalidParams, match="semidefinite"):
        S.make_symbol(S.BrownianParams(sigma=((1.0, 0.0), (0.0, -1.0)), b=(0.0, 0.0)))
    with pytest.raises(InvalidParams, match="semidefinite"):
        S.make_symbol(S.BrownianParams(sigma=-1.0, b=0.0))
    with pytest.raises(InvalidParams, match="symmetric"):
        S.make_symbol(S.BrownianParams(sigma=((1.0, 0.5), (0.0, 1.0)), b=(0.0, 0.0)))


def test_stable_skew_requires_alpha_one():
    with pytest.raises(InvalidParams, match="alpha = 1"):
        S.stable_symbol_1d(S.Stable1dParams(alpha=0.7, c=1.0, beta=0.5))


# ---------------------------------------------------------------------------
# closed-form values
# ---------------------------------------------------------------------------


def test_cauchy_value(cauchy):
    assert cauchy(2.0) == pytest.approx(2.0 + 0.0j, abs=1e-14)


def test_nig_value(nig_sym):
    # sqrt(101) - 10, frozen from high-precision arithmetic
    assert nig_sym(1.0).real == pytest.approx(0.04987562112089027, abs=1e-12)
    assert nig_sym(1.0).imag == pytest.approx(0.0, abs=1e-14)


def test_cgmy_matches_quadrature_oracle(cgmy15):
    # independent oracle: adaptive quadrature of the Levy integral
    C, G, M, Y, u = 1.0, 5.0, 5.0, 1.5, 10.0

    def part(f):
        return quad(f, 0.0, np.inf, limit=500, epsabs=1e-13, epsrel=1e-12)[0]

    with pytest.warns(IntegrationWarning):
        re = part(lambda x: (1.0 - np.cos(u * x)) * C * np.exp(-M * x) * x ** (-1 - Y)) \
            + part(lambda x: (1.0 - np.cos(u * x)) * C * np.exp(-G * x) * x ** (-1 - Y))
    im = part(lambda x: -(np.sin(u * x) - u * x) * C * np.exp(-M * x) * x ** (-1 - Y)) \
        + part(lambda x: (np.sin(u * x) - u * x) * C * np.exp(-G * x) * x ** (-1 - Y))
    oracle = re + 1j * im
    assert abs(cgmy15(u) - oracle) <= 1e-7 * abs(oracle)


def test_student_t_matches_paper_cf_at_f4(student_t):
    # at f = 4 the paper's characteristic-function display is normalized;
    # A(u) = -log mu_hat(-u) evaluated independently via scipy's K_v
    from scipy.special import kv
    u = 2.3
    mu_hat = 2.0 * kv(1.0, 2.0 * u) / 1.0 * u  # (f/4)^{f/4} 2 K_{f/4}(sqrt f u) u^{f/4}/Gamma(f/2)
    expected = -np.log(mu_hat)
    assert student_t(u).real == pytest.approx(expected, rel=1e-12)
    assert student_t(0.0) == 0.0


def test_student_t_large_u_no_overflow(student_t):
    val = student_t(1e6)
    assert np.isfinite(val.real) and val.real > 0


def test_eval_overflow_reported():
    bad = S.symbol_from_callable(
        lambda pts: np.full(len(pts), np.inf, dtype=complex), d=1)
    with pytest.raises(EvalOverflow):
        bad(1.0)


def test_vg_value(vg_sym):
    # VG symbol is C log((1+iu/M)(1-iu/G)); real and log-growing for G = M
    u = 3.0
    assert vg_sym(u) == pytest.approx(np.log(1 + u**2 / 25.0), abs=1e-12)


def test_cgmy_y1_log_form():
    sym = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 1.0))
    u = 10.0
    expected = -((5 + 1j * u) * np.log((5 + 1j * u) / 5)
                 + (5 - 1j * u) * np.log((5 - 1j * u) / 5))
    assert sym(u) == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# stable symbols
# ---------------------------------------------------------------------------


def test_stable_one_strict():
    sym = S.stable_symbol_1d(S.Stable1dParams(alpha=1.0, c=2.0, beta=0.0, tau=0.5))
    assert sym(3.0) == pytest.approx(6.0 + 1.5j, abs=1e-12)


def test_stable_one_skewed_at_e():
    sym = S.stable_symbol_1d(S.Stable1dParams(alpha=1.0, c=1.0, beta=1.0, tau=0.0))
    assert sym(np.e) == pytest.approx(np.e * (1.0 - 2j / np.pi), rel=1e-12)


def test_stable_half():
    sym = S.stable_symbol_1d(S.Stable1dParams(alpha=0.5, c=1.0))
    assert sym(4.0) == pytest.approx(2.0 + 0.0j, abs=1e-12)
    assert sym(0.0) == 0.0


def test_scaling_relation_stable():
    sym = S.stable_symbol_1d(S.Stable1dParams(alpha=0.7, c=1.0))
    grid = np.linspace(-9.0, 9.0, 41)
    res = S.check_semistable_scaling(sym, 2.0, 2.0 ** (1 / 0.7), 0.0, grid)
    assert res <= 1e-12


def test_scaling_relation_brownian_with_drift():
    sym = S.make_symbol(S.BrownianParams(sigma=1.0, b=0.3))
    grid = np.linspace(-9.0, 9.0, 41)
    # a A(u) - A(2u) = i (a - b) drift u, cancelled by c = (4-2)*0.3
    assert S.check_semistable_scaling(sym, 4.0, 2.0, 0.6, grid) <= 1e-12


def test_scaling_relation_cauchy(cauchy):
    grid = np.linspace(-9.0, 9.0, 41)
    assert S.check_semistable_scaling(cauchy, 3.0, 3.0, 0.0, grid) <= 1e-12


# ---------------------------------------------------------------------------
# char_fn and semigroup
# ---------------------------------------------------------------------------


def test_char_fn_cauchy(cauchy):
    assert cauchy.char_fn(2.0, 1.0) == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_char_fn_brownian(brownian):
    assert brownian.char_fn(1.0, 2.0) == pytest.approx(np.exp(-2.0), rel=1e-12)


def test_char_fn_at_zero(cgmy15, nig_sym, cauchy):
    for sym in (cgmy15, nig_sym, cauchy):
        assert sym.char_fn(1.0, 0.0) == pytest.approx(1.0, abs=1e-14)
        assert sym(0.0) == 0.0


def test_semigroup_consistency(cgmy15, nig_skew, student_t):
    xi = np.linspace(-30.0, 30.0, 13)
    for sym in (cgmy15, nig_skew, student_t):
        lhs = sym.char_fn(0.7, xi) * sym.char_fn(0.4, xi)
        rhs = sym.char_fn(1.1, xi)
        assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


# ---------------------------------------------------------------------------
# invariants on random points
# ---------------------------------------------------------------------------

ALL_1D = [
    S.BrownianParams(sigma=1.0, b=0.4),
    S.NIGParams(alpha=10.0, beta=3.0, delta=1.0, mu=0.2),
    S.CauchyParams(c=2.0, gamma=0.5),
    S.StudentTParams(f=4.0, mu=0.1),
    S.CGMYParams(1.0, 2.0, 4.0, 0.5),
    S.CGMYParams(1.0, 5.0, 5.0, 1.5),
    S.CGMYParams(1.0, 5.0, 5.0, 0.0),
    S.Stable1dParams(alpha=1.0, c=1.0, beta=0.7, tau=0.3),
    S.Stable1dParams(alpha=1.6, c=2.0),
]


@pytest.mark.parametrize("params", ALL_1D, ids=lambda p: type(p).__name__ + str(ALL_1D.index(p) if p in ALL_1D else ""))
def test_hermitian_and_real_part(params, rng):
    sym = S.make_symbol(params)
    xi = rng.uniform(-50.0, 50.0, size=1000)
    vals = sym(xi)
    mirror = sym(-xi)
    assert np.all(np.abs(vals - np.conj(mirror)) <= 1e-10 * (1.0 + np.abs(vals)))
    assert np.all(vals.real >= -1e-10 * (1.0 + xi**2))


@pytest.mark.parametrize("params", ALL_1D[:6], ids=lambda p: type(p).__name__)
def test_quadratic_bound_frozen_constant(params, rng):
    sym = S.make_symbol(params)
    c = sym.quadratic_bound_constant
    assert c == sym.quadratic_bound_constant  # frozen
    r = rng.uniform(0.0, 1e6, size=400)
    vals = np.abs(sym(r))
    assert np.all(vals <= c * (1.0 + r) ** 2 * (1.0 + 1e-6))


@settings(max_examples=60, deadline=None)
@given(xi=st.floats(-200.0, 200.0), t=st.floats(0.01, 20.0))
def test_char_fn_modulus_bounded(xi, t):
    sym = S.make_symbol(S.NIGParams(alpha=10.0, beta=3.0, delta=1.0, mu=0.2))
    assert abs(sym.char_fn(t, xi)) <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(xi=st.floats(-1e4, 1e4))
def test_hermitian_property_cgmy(xi):
    sym = S.make_symbol(S.CGMYParams(1.0, 2.0, 4.0, 1.2))
    assert abs(sym(xi) - np.conj(sym(-xi))) <= 1e-10 * (1.0 + abs(sym(xi)))


# ---------------------------------------------------------------------------
# drift conventions
# ---------------------------------------------------------------------------


def test_cgmy_natural_drift_kills_linear_term():
    # with b = int x F(dx) the linear term cancels and Im A ~ u^{Y-1} decays
    sym = S.make_symbol(S.CGMYParams(1.0, 2.0, 4.0, 0.5))
    ratio = abs(sym(400.0).imag) / abs(sym(100.0).imag)
    assert ratio == pytest.approx(0.5, abs=0.1)  # ~ 4^{Y-1}


def test_cgmy_zero_drift_keeps_linear_term():
    sym = S.make_symbol(S.CGMYParams(1.0, 2.0, 4.0, 0.5, zero_drift=True))
    ratio = abs(sym(400.0).imag) / abs(sym(100.0).imag)
    assert ratio == pytest.approx(4.0, abs=0.3)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


@pytest.mark.parametrize("lo, hi", [(-2.0, 0.0), (-1.0, 1.0), (0.0, 2.0)])
def test_gamma_is_scipys_bit_for_bit(lo, hi):
    from scipy.special import gamma
    xs = np.random.default_rng(int(10 * lo) + 50).uniform(lo, hi, 100_000)
    ours = [S._gamma(float(x)) for x in xs]
    assert np.array_equal(_bits(ours), _bits(gamma(xs)))


def test_gamma_near_integers_and_at_one_and_two():
    from scipy.special import gamma
    offsets = np.geomspace(1e-16, 1e-6, 200)
    xs = np.concatenate([c + s * offsets for c in (-1.0, 0.0, 1.0) for s in (-1.0, 1.0)])
    xs = np.append(xs[(xs != -1.0) & (xs != 0.0)], [1.0, 2.0])
    ours = [S._gamma(float(x)) for x in xs]
    assert np.array_equal(_bits(ours), _bits(gamma(xs)))
    assert S._gamma(1.0) == S._gamma(2.0) == 1.0


def _cgmy_reference(C, G, M, Y, zero_drift, u):
    # the closed form as written with scipy's gamma, evaluated per call
    from scipy.special import gamma
    iu = 1j * u
    if Y == 1.0:
        return -C * ((M + iu) * np.log((M + iu) / M) + (G - iu) * np.log((G - iu) / G))
    if Y == 0.0:
        a = C * (np.log((M + iu) / M) + np.log((G - iu) / G))
    else:
        m_y, g_y = np.complex128(M) ** Y, np.complex128(G) ** Y
        a = -C * gamma(-Y) * ((M + iu) ** Y - m_y + (G - iu) ** Y - g_y)
    if zero_drift:
        a = a - iu * C * gamma(1.0 - Y) * (M ** (Y - 1.0) - G ** (Y - 1.0))
    return a


@pytest.mark.parametrize("zero_drift", [False, True])
def test_cgmy_symbol_is_the_scipy_gamma_formula_bitwise(zero_drift):
    rng = np.random.default_rng(11)
    u = np.concatenate([[0.0], np.geomspace(1e-4, 1e5, 300), -np.geomspace(1e-4, 1e5, 300)])
    for Y in [0.0, 0.5, 1.0, 1.5, 1.99, *rng.uniform(0.0, 2.0, 20)]:
        C, G, M = rng.uniform(0.2, 3.0), rng.uniform(0.5, 9.0), rng.uniform(0.5, 9.0)
        got = S.make_symbol(S.CGMYParams(C, G, M, Y, zero_drift=zero_drift))(u)
        want = _cgmy_reference(C, G, M, Y, zero_drift or Y >= 1.0, u)
        assert np.array_equal(_bits(got.view(float)), _bits(want.view(float))), Y


# ---------------------------------------------------------------------------
# multivariate and sums
# ---------------------------------------------------------------------------


def test_nig_multivariate_hermitian(rng):
    sym = S.make_symbol(S.NIGParams(alpha=10.0, beta=(3.0, 1.0), delta=1.0,
                                    mu=(0.1, -0.2)))
    pts = rng.uniform(-50.0, 50.0, size=(500, 2))
    vals, mirror = sym(pts), sym(-pts)
    assert np.all(np.abs(vals - np.conj(mirror)) <= 1e-10 * (1.0 + np.abs(vals)))
    assert np.all(vals.real >= -1e-10 * (1.0 + np.sum(pts**2, axis=1)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

ROUND_TRIP = [
    S.BrownianParams(sigma=1.0, b=0.4),
    S.BrownianParams(sigma=((2.0, 0.5), (0.5, 1.0)), b=(0.1, -0.2)),
    S.NIGParams(alpha=10.0, beta=(3.0, 0.0), delta=1.0, mu=(0.0, 0.0),
                Delta=((1.0, 0.1), (0.1, 1.0))),
    S.CauchyParams(c=2.0, gamma=0.5),
    S.StudentTParams(f=4.0, mu=0.1),
    S.StudentTParams(f=3.0, delta=0.9, mu=0.0),
    S.CGMYParams(1.0, 2.0, 4.0, 0.5, zero_drift=True),
    S.Stable1dParams(alpha=1.0, c=1.0, beta=0.7, tau=0.3),
    S.GHParams(C1=0.5, C2=0.1, C3=0.05, damping=2.0),
    S.PowerLawParams(Y=1.3, coef=2.0),
    S.TabulatedParams(path="dens.csv"),
]


@pytest.mark.parametrize("params", ROUND_TRIP, ids=lambda p: type(p).__name__)
def test_params_record_round_trip(params):
    rec = S.params_to_record(params)
    assert S.params_from_record(rec) == params
    # records survive string round-trips (the CLI text surface)
    rec_str = {k: str(v) for k, v in rec.items()}
    assert S.params_from_record(rec_str) == params


def test_unknown_family_record():
    with pytest.raises(InvalidParams, match="unknown family"):
        S.params_from_record({"family": "meixner"})


# one decodable record per family name, so that CATALOG and FAMILIES cannot drift apart
FAMILY_RECORDS = {
    "brownian": {}, "nig": {"alpha": 10.0}, "cauchy": {}, "student_t": {"f": 4.0},
    "gh": {}, "cgmy": {"C": 1.0, "G": 2.0, "M": 4.0, "Y": 0.5},
    "vg": {"C": 1.0, "G": 2.0, "M": 4.0}, "stable1d": {"alpha": 1.5},
    "powerlaw": {"Y": 1.3}, "tabulated": {"path": "dens.csv"},
}


@pytest.mark.parametrize("name", sorted({fam for fam, _, _ in CATALOG} | set(S.FAMILIES)))
def test_every_family_name_decodes(name):
    params = S.params_from_record({"family": name, **FAMILY_RECORDS[name]})
    assert S.FAMILIES[params.family] is type(params)


def test_record_refuses_what_it_cannot_mean():
    assert S.params_from_record({"family": "vg", "C": 1, "G": 2, "M": 4}) == \
        S.CGMYParams(1.0, 2.0, 4.0, 0.0)
    with pytest.raises(InvalidParams, match="^Y: required"):
        S.params_from_record({"family": "cgmy", "C": 1, "G": 2, "M": 4})
    with pytest.raises(InvalidParams, match="^C: not a cauchy parameter"):
        S.params_from_record({"family": "cauchy", "c": 1.0, "C": 5})
    with pytest.raises(InvalidParams, match="^c: cannot read 'abc'"):
        S.params_from_record({"family": "cauchy", "c": "abc"})


def test_gh_record_builds_the_gh_density_symbol():
    sym = S.make_symbol(S.params_from_record(
        {"family": "gh", "C1": "0.5", "C2": "0.1", "C3": "0.05"}))
    ref = M.density_symbol(M.gh_expansion_density(0.5, 0.1, 0.05))
    u = np.array([-30.0, -1.0, 0.5, 3.0])
    np.testing.assert_array_equal(sym(u), ref(u))


@pytest.mark.parametrize("params, reference", [
    (S.CGMYParams(1.0, 2.0, 4.0, 1.5), lambda: M.cgmy_density(1.0, 2.0, 4.0, 1.5)),
    (S.CGMYParams(0.7, 5.0, 3.0, 0.0), lambda: M.cgmy_density(0.7, 5.0, 3.0, 0.0)),
    (S.NIGParams(alpha=10.0, beta=3.0, delta=0.8), lambda: M.nig_density(10.0, 3.0, 0.8)),
    (S.PowerLawParams(Y=1.3, coef=2.0), lambda: M.power_law_density(2.0, 1.3)),
])
def test_catalog_density_is_built_on_first_access(params, reference, monkeypatch):
    builds = []
    for name in ("cgmy_density", "nig_density", "power_law_density"):
        monkeypatch.setattr(M, name, lambda *a, _f=getattr(M, name): builds.append(a) or _f(*a))
    monkeypatch.setattr(M, "quad", lambda *a, **k: pytest.fail("quad called"))
    sym = S.make_symbol(params)
    assert builds == []  # nothing built until the density is read
    dens = sym.density
    assert len(builds) == 1 and sym.density is dens
    ref = reference()
    x = np.concatenate([-np.geomspace(1e-8, 50.0, 97), [0.0], np.geomspace(1e-8, 50.0, 97)])
    for part in ("f", "f_s", "f_as"):
        np.testing.assert_array_equal(getattr(dens, part)(x), getattr(ref, part)(x))
    assert (dens.cutoff, dens.name) == (ref.cutoff, ref.name)


def test_symbols_without_a_density():
    assert S.make_symbol(S.CauchyParams(c=1.0)).density is None
    assert S.make_symbol(S.NIGParams(alpha=10.0, beta=(1.0, 0.0))).density is None
    with pytest.raises(InvalidParams, match="alpha > 0"):
        S.make_symbol(S.NIGParams(alpha=-10.0))

