import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

from levysobolev import spectral as SP
from levysobolev import symbols as S
from levysobolev.errors import (
    GridMismatch,
    InvalidParams,
    TailTooFat,
    UnstableScheme,
)


@pytest.fixture(scope="module")
def grid():
    return SP.FrequencyGrid(1, 4096, 64.0)


@pytest.fixture(scope="module")
def gauss_field(grid):
    return SP.SpectralField.from_function(grid, lambda xi: np.exp(-xi**2 / 2))


# ---------------------------------------------------------------------------
# grids and fields
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(InvalidParams):
        SP.FrequencyGrid(1, 100, 64.0)   # not a power of two
    with pytest.raises(InvalidParams):
        SP.FrequencyGrid(1, 4, 64.0)     # too small
    with pytest.raises(InvalidParams):
        SP.FrequencyGrid(3, 16, 64.0)    # d > 2
    g = SP.FrequencyGrid(1, 16, 8.0)
    assert g.dxi == 1.0
    assert g.spatial_period == pytest.approx(2.0 * np.pi)


def test_conj_symmetry_detection(grid, rng):
    real_spatial = SP.SpectralField.from_function(
        grid, lambda xi: np.exp(-xi**2) * (np.cos(xi) + 1j * np.sin(xi)))
    assert real_spatial.is_conj_symmetric(1e-12)
    noise = SP.SpectralField(grid, rng.standard_normal(grid.shape)
                             + 1j * rng.standard_normal(grid.shape))
    assert not noise.is_conj_symmetric(1e-6)
    assert SP.conj_symmetrize(noise).is_conj_symmetric(1e-12)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def test_norm_zero_field(grid):
    z = SP.SpectralField(grid, np.zeros(grid.shape, dtype=complex))
    assert SP.sobolev_norm(z, 0.7) == 0.0


def test_norm_box(grid):
    box = SP.SpectralField.from_function(grid, lambda xi: (np.abs(xi) <= 1.0) * 1.0)
    assert SP.sobolev_norm(box, 0.0) == pytest.approx(2.0, abs=2 * grid.dxi)


def test_norm_gaussian_s1(grid, gauss_field):
    # oracle: int e^{-xi^2} (1+|xi|)^2 dxi via the three Gaussian moments
    oracle = quad(lambda x: np.exp(-x**2) * (1 + abs(x)) ** 2, -np.inf, np.inf)[0]
    analytic = np.sqrt(np.pi) + 2.0 + np.sqrt(np.pi) / 2.0
    assert oracle == pytest.approx(analytic, rel=1e-10)
    assert SP.sobolev_norm(gauss_field, 1.0) == pytest.approx(analytic, abs=5e-4)


def test_norm_interleaving(grid, gauss_field, rng):
    rand = SP.SpectralField(grid, rng.standard_normal(grid.shape)
                            + 1j * rng.standard_normal(grid.shape))
    for field in (gauss_field, rand):
        norms = [SP.sobolev_norm(field, s) for s in (-0.5, 0.0, 0.7, 1.0, 2.0)]
        assert all(a <= b * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


def test_re_a_weighted_norm(grid, gauss_field, brownian):
    # weight 1 + xi^2/2 against e^{-xi^2}
    expect = quad(lambda x: np.exp(-x**2) * (1 + x**2 / 2), -np.inf, np.inf)[0]
    assert SP.re_a_weighted_norm(gauss_field, brownian) == pytest.approx(expect, rel=1e-6)


def test_operator_norm_bound(grid, cgmy15, rng):
    c = SP.operator_norm_constant(cgmy15, grid, 1.5)
    pts = grid.axis()
    a = cgmy15(pts)
    w = (1.0 + np.abs(pts))
    for _ in range(100):
        vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
        u = SP.SpectralField(grid, vals)
        au = SP.SpectralField(grid, a * vals)
        s = 0.8
        lhs = np.sum(np.abs(au.values) ** 2 * w ** (2 * (s - 1.5))) * grid.dxi
        rhs = c**2 * np.sum(np.abs(u.values) ** 2 * w ** (2 * s)) * grid.dxi
        assert lhs <= rhs * (1 + 1e-12)


# ---------------------------------------------------------------------------
# bilinear form
# ---------------------------------------------------------------------------


def test_bilinear_zero(grid, cgmy15):
    z = SP.SpectralField(grid, np.zeros(grid.shape, dtype=complex))
    assert SP.bilinear_form(cgmy15, z, z) == 0.0


def test_bilinear_brownian_gaussian(grid, gauss_field, brownian):
    val = SP.bilinear_form(brownian, gauss_field, gauss_field)
    assert val.real == pytest.approx(np.sqrt(np.pi) / 4.0, abs=1e-6)
    assert val.imag == pytest.approx(0.0, abs=1e-12)


def test_bilinear_cauchy_box(grid, cauchy):
    box2 = SP.SpectralField.from_function(grid, lambda xi: (np.abs(xi) <= 2.0) * 1.0)
    val = SP.bilinear_form(cauchy, box2, box2)
    assert val.real == pytest.approx(4.0, abs=2 * grid.dxi)


def test_bilinear_grid_mismatch(grid, gauss_field, brownian):
    other = SP.FrequencyGrid(1, 512, 32.0)
    v = SP.SpectralField.from_function(other, lambda xi: np.exp(-xi**2))
    with pytest.raises(GridMismatch):
        SP.bilinear_form(brownian, gauss_field, v)


def test_parseval_real_part_identity(grid, cgmy15, rng):
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    u = SP.SpectralField(grid, vals)
    a = cgmy15(grid.axis())
    direct = np.sum(a.real * np.abs(vals) ** 2) * grid.dxi
    form = SP.bilinear_form(cgmy15, u, u)
    assert form.real == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# inequality verification
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def form_grid():
    return SP.FrequencyGrid(1, 512, 64.0)


def test_form_brownian(form_grid, brownian):
    rep = SP.verify_form_inequalities(brownian, 2.0, 500, form_grid, seed=0)
    assert rep.passed
    assert rep.garding_c2 >= 0.2
    assert rep.trial_min_slack >= 0.0
    assert rep.garding_c3 <= 1e6


def test_form_cgmy(form_grid, cgmy15):
    rep = SP.verify_form_inequalities(cgmy15, 1.5, 200, form_grid, seed=0)
    assert rep.passed and rep.garding_c2 > 0


def test_form_vg_fails(form_grid, vg_sym):
    for alpha in (0.2, 0.6, 1.0, 1.5, 2.0):
        rep = SP.verify_form_inequalities(vg_sym, alpha, 20, form_grid, seed=0)
        assert not rep.passed


def test_form_report_reproducible(form_grid, nig_skew):
    r1 = SP.verify_form_inequalities(nig_skew, 1.0, 50, form_grid, seed=7)
    r2 = SP.verify_form_inequalities(nig_skew, 1.0, 50, form_grid, seed=7)
    assert r1.to_record() == r2.to_record()
    assert SP.FormReport.from_record(r1.to_record()).to_record() == r1.to_record()


def test_form_im_re_ratio_finite(form_grid, nig_skew):
    rep = SP.verify_form_inequalities(nig_skew, 1.0, 20, form_grid, seed=0)
    assert np.isfinite(rep.im_over_one_plus_re)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_heat_semigroup_exact(grid, gauss_field, brownian):
    traj = SP.evolve(brownian, gauss_field, None, 1.0, 4, "exact")
    expect = np.exp(-grid.axis() ** 2)
    assert np.abs(traj.fields[-1].values - expect).max() <= 1e-14


def test_evolve_semigroup_property(grid, gauss_field, cgmy15):
    a = SP.evolve(cgmy15, gauss_field, None, 0.4, 4, "exact").fields[-1]
    b = SP.evolve(cgmy15, a, None, 0.6, 6, "exact").fields[-1]
    c = SP.evolve(cgmy15, gauss_field, None, 1.0, 5, "exact").fields[-1]
    denom = np.abs(c.values).max()
    assert np.abs(b.values - c.values).max() <= 1e-12 * max(denom, 1.0)


def _scheme_error(sym, field, scheme, K, grid):
    traj = SP.evolve(sym, field, None, 0.5, K, scheme)
    exact = np.exp(-0.5 * sym(grid.axis())) * field.values
    return np.sqrt(np.sum(np.abs(traj.fields[-1].values - exact) ** 2) * grid.dxi)


def test_scheme_orders(grid, gauss_field, cgmy15):
    for scheme, order in (("implicit_euler", 1.0), ("crank_nicolson", 2.0)):
        e1 = _scheme_error(cgmy15, gauss_field, scheme, 32, grid)
        e2 = _scheme_error(cgmy15, gauss_field, scheme, 64, grid)
        assert np.log2(e1 / e2) == pytest.approx(order, abs=0.1)


def test_exact_scheme_contraction(grid, gauss_field, cgmy15):
    traj = SP.evolve(cgmy15, gauss_field, None, 1.0, 10, "exact")
    l2 = [np.sum(np.abs(f.values) ** 2) for f in traj.fields]
    assert all(b <= a * (1 + 1e-14) for a, b in zip(l2, l2[1:]))


def test_exact_scheme_constant_source(grid, cauchy):
    g0 = SP.SpectralField.from_function(grid, lambda xi: np.exp(-xi**2))
    src = SP.SpectralField.from_function(grid, lambda xi: np.cos(xi) * np.exp(-xi**2 / 4))
    traj = SP.evolve(cauchy, g0, lambda t: src.values, 1.0, 9, "exact")
    a = cauchy(grid.axis())
    nz = np.abs(a) > 0
    expect = np.exp(-a) * g0.values
    expect[nz] += (1.0 - np.exp(-a[nz])) / a[nz] * src.values[nz]
    expect[~nz] += src.values[~nz]
    assert np.abs(traj.fields[-1].values - expect).max() <= 1e-13


def test_crank_nicolson_unstable_reported():
    bad = S.symbol_from_callable(
        lambda pts: np.full(len(pts), -1.0, dtype=complex), d=1)
    g = SP.FrequencyGrid(1, 16, 4.0)
    f0 = SP.SpectralField.from_function(g, lambda xi: np.exp(-xi**2))
    with pytest.raises(UnstableScheme):
        SP.evolve(bad, f0, None, 1.0, 4, "crank_nicolson")


def test_scheme_name_normalization(grid, gauss_field, brownian):
    t1 = SP.evolve(brownian, gauss_field, None, 0.5, 2, "CrankNicolson")
    assert t1.scheme == "crank_nicolson"
    with pytest.raises(InvalidParams):
        SP.evolve(brownian, gauss_field, None, 0.5, 2, "leapfrog")


# ---------------------------------------------------------------------------
# conditional expectation (pricing) and densities
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def fine_grid():
    return SP.FrequencyGrid(1, 2**14, 64.0)


@pytest.fixture(scope="module")
def gauss_payoff_hat(fine_grid):
    # payoff g(x) = e^{-x^2/2}: g_hat = sqrt(2 pi) e^{-xi^2/2}
    return SP.SpectralField.from_function(
        fine_grid, lambda xi: np.sqrt(2 * np.pi) * np.exp(-xi**2 / 2))


def test_inversion_identity(fine_grid, gauss_payoff_hat, brownian):
    xs = np.linspace(-3, 3, 13)
    vals = SP.conditional_expectation(brownian, gauss_payoff_hat, 0.0, xs)
    assert np.abs(vals - np.exp(-xs**2 / 2)).max() <= 1e-8


def test_brownian_gaussian_convolution(fine_grid, gauss_payoff_hat, brownian):
    xs = np.linspace(-4, 4, 17)
    vals = SP.conditional_expectation(brownian, gauss_payoff_hat, 1.0, xs)
    expect = np.exp(-xs**2 / 4) / np.sqrt(2.0)
    assert np.abs(vals - expect).max() <= 1e-10


def test_cauchy_convolution_vs_quadrature(cauchy):
    # the |xi| kink of the Cauchy symbol makes the Riemann sum O(dxi^2)
    # accurate, so this test runs on a finer grid than the smooth cases
    g = SP.FrequencyGrid(1, 2**16, 64.0)
    payoff = SP.SpectralField.from_function(
        g, lambda xi: np.sqrt(2 * np.pi) * np.exp(-xi**2 / 2))
    xs = np.array([-1.0, 0.0, 0.7, 2.0])
    vals = SP.conditional_expectation(cauchy, payoff, 1.0, xs)

    def oracle(x):
        # E g(L_1 + x) with the Cauchy(1) density 1/(pi (1 + y^2))
        return quad(lambda y: np.exp(-(x + y) ** 2 / 2) / (np.pi * (1 + y**2)),
                    -np.inf, np.inf, limit=400, epsabs=1e-12)[0]

    for x, v in zip(xs, vals):
        assert v == pytest.approx(oracle(x), abs=1e-6)


def test_tail_too_fat_reported(brownian, cauchy):
    small = SP.FrequencyGrid(1, 64, 2.0)
    wide = SP.SpectralField.from_function(small, lambda xi: 1.0 / (1.0 + xi**2))
    with pytest.raises(TailTooFat):
        SP.conditional_expectation(brownian, wide, 0.1, [0.0])
    with pytest.raises(TailTooFat):
        SP.density(cauchy, 1.0, [0.0], small)


def test_density_cauchy_at_zero(cauchy):
    g = SP.FrequencyGrid(1, 2**14, 24.0)
    val = SP.density(cauchy, 1.0, [0.0], g)[0]
    assert val == pytest.approx(1.0 / np.pi, abs=1e-6)


def test_density_brownian_at_zero(brownian):
    g = SP.FrequencyGrid(1, 2**12, 24.0)
    val = SP.density(brownian, 1.0, [0.0], g)[0]
    assert val == pytest.approx(1.0 / np.sqrt(2 * np.pi), abs=1e-10)


def test_density_mass_and_positivity(cauchy, nig_sym):
    for sym, grid in ((cauchy, SP.FrequencyGrid(1, 2**14, 24.0)),
                      (nig_sym, SP.FrequencyGrid(1, 2**13, 200.0))):
        mass = SP.density_mass(sym, 1.0, grid)
        assert mass == pytest.approx(1.0, abs=1e-4)
        x, p = SP.density_grid(sym, 1.0, grid)
        assert p.min() >= -1e-6


def test_density_grid_matches_direct(cauchy):
    g = SP.FrequencyGrid(1, 512, 24.0)
    x, p = SP.density_grid(cauchy, 1.0, g)
    sample = slice(200, 312, 7)
    direct = SP.density(cauchy, 1.0, x[sample], g)
    assert np.abs(p[sample] - direct).max() <= 1e-12
    # 2-d: p[i, j] is the density at (x_i, x_j)
    cauchy2 = S.make_symbol(S.CauchyParams(c=1.0, gamma=(0.0, 0.0)))
    g2 = SP.FrequencyGrid(2, 64, 40.0)
    x, p = SP.density_grid(cauchy2, 1.0, g2)
    idx = np.arange(20, 44, 5)
    pts = np.array([[x[i], x[j]] for i in idx for j in idx])
    direct = SP.density(cauchy2, 1.0, pts, g2)
    assert np.abs(p[np.ix_(idx, idx)].ravel() - direct).max() <= 1e-12


@pytest.mark.parametrize("t", [0.0, -1.0])
def test_nonpositive_time_raises_invalid_params(cauchy, t):
    # all three go through Symbol.char_fn, which owns the t > 0 check
    g = SP.FrequencyGrid(1, 512, 24.0)
    with pytest.raises(InvalidParams, match="t must be positive"):
        SP.density_grid(cauchy, t, g)
    with pytest.raises(InvalidParams, match="t must be positive"):
        SP.density_mass(cauchy, t, g)
    with pytest.raises(InvalidParams, match="t must be positive"):
        SP.density(cauchy, t, [0.0], g)


def test_char_fn_field_is_symbol_char_fn_on_the_modes(nig_skew):
    g = SP.FrequencyGrid(1, 256, 32.0)
    phi = SP.char_fn_field(nig_skew, 0.7, g)
    assert np.array_equal(phi.values, nig_skew.char_fn(0.7, g.axis()))
    nig2 = S.make_symbol(S.NIGParams(alpha=8.0, beta=(1.0, 0.5), delta=1.0, mu=(0.0, 0.0)))
    g2 = SP.FrequencyGrid(2, 16, 8.0)
    phi2 = SP.char_fn_field(nig2, 0.7, g2)
    assert np.array_equal(phi2.values.ravel(), nig2.char_fn(0.7, g2.points()))


def test_nig_density_against_monte_carlo(nig_sym):
    # NIG(10, 0, 1, 0) at t = 1 is Normal-variance mixture with an inverse
    # Gaussian subordinator: V ~ IG(mean delta/gamma0, shape delta^2)
    rng = np.random.default_rng(12345)
    n = 1_000_000
    v = rng.wald(0.1, 1.0, size=n)
    x = np.sqrt(v) * rng.standard_normal(n)
    grid = SP.FrequencyGrid(1, 2**13, 200.0)
    edges = np.linspace(-1.0, 1.0, 26)
    mids = 0.5 * (edges[1:] + edges[:-1])
    pe = SP.density(nig_sym, 1.0, edges, grid)
    pm = SP.density(nig_sym, 1.0, mids, grid)
    p_bin = (pe[:-1] + 4.0 * pm + pe[1:]) / 6.0 * (edges[1] - edges[0])
    counts, _ = np.histogram(x, bins=edges)
    sigma = np.sqrt(p_bin * (1.0 - p_bin) / n)
    z = np.abs(counts / n - p_bin) / sigma
    assert z.max() <= 3.0


def test_grid_refinement_stability(brownian, gauss_payoff_hat, fine_grid):
    xs = np.linspace(-2, 2, 9)
    v1 = SP.conditional_expectation(brownian, gauss_payoff_hat, 0.7, xs)
    big = SP.FrequencyGrid(1, 2**15, 128.0)
    payoff_big = SP.SpectralField.from_function(
        big, lambda xi: np.sqrt(2 * np.pi) * np.exp(-xi**2 / 2))
    v2 = SP.conditional_expectation(brownian, payoff_big, 0.7, xs)
    assert np.abs(v1 - v2).max() <= 1e-6


def test_d2_density_brownian():
    sym = S.make_symbol(S.BrownianParams(sigma=((1.0, 0.0), (0.0, 1.0)),
                                         b=(0.0, 0.0)))
    g = SP.FrequencyGrid(2, 128, 16.0)
    val = SP.density(sym, 1.0, [[0.0, 0.0]], g)[0]
    assert val == pytest.approx(1.0 / (2 * np.pi), abs=1e-8)
    assert SP.density_mass(sym, 1.0, g) == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# the inversion routine: chirp-z and chunked dense paths
# ---------------------------------------------------------------------------


def _dense_reference(grid, vals, x):
    """The unchunked sum (2 pi)^{-d} exp(-i x . xi) @ (vals dxi^d)."""
    x = np.asarray(x, dtype=float).reshape(-1, grid.d)
    w = vals.reshape(-1) * grid.dxi**grid.d
    return (np.exp(-1j * (x @ grid.points().T)) @ w) / (2 * np.pi) ** grid.d


def _decaying_noise(grid, rng):
    # complex, not conjugate-symmetric, and negligible on the outer shell
    vals = rng.standard_normal(grid.shape) + 1j * rng.standard_normal(grid.shape)
    return vals * np.exp(-(6.0 * grid.radii() / grid.Xi) ** 2)


@pytest.fixture()
def path_calls(monkeypatch):
    calls = []
    chirp_z = SP._chirp_z
    monkeypatch.setattr(SP, "_chirp_z", lambda *a: calls.append(a) or chirp_z(*a))
    return calls


# Agreement of two float64 sums is limited by the rounding of the phases
# x xi, about eps max|x| Xi per term; max|x| Xi <= 1280 here.
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed,N,M,x0,x1", [
    (1, 8, 5000, -3.0, 4.0),        # M >> N: 2.6e4 chirp cycles
    (2, 16, 2, 5.0, -5.0),          # decreasing
    (3, 64, 4999, 10.0, -10.0),
    (4, 512, 3001, 2.5, 9.0),       # offset x_0, x never reaches 0
    (5, 2048, 2047, -5.0, 5.0),
    (6, 4096, 41, -5.0, 5.0),       # the CLI default
    (7, 2**14, 2, -10.0, 10.0),     # N >> M
    (8, 2**14, 255, 7.0, -2.0),
    (9, 2**14, 3, -20.0, -19.0),
])
def test_chirp_z_matches_dense_reference(path_calls, seed, N, M, x0, x1):
    rng = np.random.default_rng(seed)
    grid = SP.FrequencyGrid(1, N, float(rng.uniform(8.0, 64.0)))
    vals = _decaying_noise(grid, rng)
    x = np.linspace(x0, x1, M)
    out = SP._invert_at(grid, vals, x)
    assert len(path_calls) == 1
    scale = np.abs(vals).sum() * grid.dxi / (2 * np.pi)
    assert np.abs(out - _dense_reference(grid, vals, x)).max() <= 1e-12 * scale


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d,x", [
    (1, np.array([-1.0, 0.0, 0.7, 2.0, 2.5])),      # not equispaced
    (1, np.array([0.3])),                          # M = 1
    (1, np.array([1.5, 1.5, 1.5])),                # repeated: h = 0
    (1, np.linspace(-5, 5, 600) ** 3),             # smooth but not uniform
    (2, np.array([[0.0, 0.0], [1.0, -0.5], [2.0, 3.0]])),
    (2, np.column_stack([np.linspace(-3, 3, 300)] * 2)),
])
def test_dense_path_matches_reference(path_calls, d, x):
    rng = np.random.default_rng(11)
    grid = SP.FrequencyGrid(d, 1024 if d == 1 else 64, 24.0)
    vals = _decaying_noise(grid, rng)
    out = SP._invert_at(grid, vals, x)
    assert not path_calls
    ref = _dense_reference(grid, vals, x)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


def test_dense_path_blocks_rows(monkeypatch):
    # more rows than one block holds: the blocks must tile the output
    rng = np.random.default_rng(12)
    grid = SP.FrequencyGrid(1, 256, 24.0)
    vals = _decaying_noise(grid, rng)
    x = rng.uniform(-5, 5, 1000)
    monkeypatch.setattr(SP, "_PHASE_BLOCK", 3 * 256 + 1)
    out = SP._invert_at(grid, vals, x)
    ref = _dense_reference(grid, vals, x)
    assert np.abs(out - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_tail_too_fat_on_both_paths(path_calls):
    small = SP.FrequencyGrid(1, 64, 2.0)
    flat = np.ones(small.shape, dtype=complex)
    for x in (np.linspace(-1, 1, 11), np.array([0.0, 0.4, 0.5])):
        with pytest.raises(TailTooFat):
            SP._invert_at(small, flat, x)
    assert not path_calls   # the tail check runs before either path


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_inversion_memory_is_bounded(nig_skew):
    # the unchunked phase matrix at N = M = 4096 alone is 268 MB
    grid = SP.FrequencyGrid(1, 4096, 64.0)
    phi = SP.char_fn_field(nig_skew, 1.0, grid).values
    x = np.linspace(-5, 5, 4096)
    scattered = x + np.linspace(0, 1e-3, 4096) ** 2
    assert _peak_bytes(lambda: SP._invert_at(grid, phi, x)) < 4e6
    assert _peak_bytes(lambda: SP._invert_at(grid, phi, scattered)) < 64e6


def test_import_leaves_scipy_signal_out():
    code = "import sys, levysobolev; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0
