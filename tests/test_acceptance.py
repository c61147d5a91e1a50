"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is fixed here, nothing is calibrated at run
time.
"""

import time

import numpy as np
import pytest

from levysobolev import indices as I
from levysobolev import measures as M
from levysobolev import spectral as SP
from levysobolev import symbols as S


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# 1. index catalog recovery, +-0.05, < 5 s per family
# ---------------------------------------------------------------------------

CATALOG = [
    ("brownian", S.BrownianParams(sigma=1.0, b=0.0), 2.0),
    ("nig", S.NIGParams(alpha=10.0, beta=3.0, delta=1.0, mu=0.0), 1.0),
    ("cauchy", S.CauchyParams(c=1.0, gamma=0.0), 1.0),
    ("student_t", S.StudentTParams(f=4.0), 1.0),
    ("cgmy_0.5", S.CGMYParams(1.0, 5.0, 5.0, 0.5), 0.5),
    ("cgmy_1.0", S.CGMYParams(1.0, 5.0, 5.0, 1.0), 1.0),
    ("cgmy_1.2", S.CGMYParams(1.0, 5.0, 5.0, 1.2), 1.2),
    ("cgmy_1.5", S.CGMYParams(1.0, 5.0, 5.0, 1.5), 1.5),
    ("cgmy_1.8", S.CGMYParams(1.0, 5.0, 5.0, 1.8), 1.8),
    ("stable_0.3", S.Stable1dParams(alpha=0.3, c=1.0), 0.3),
    ("stable_0.7", S.Stable1dParams(alpha=0.7, c=1.0), 0.7),
    ("stable_1.0", S.Stable1dParams(alpha=1.0, c=1.0), 1.0),
    ("stable_1.6", S.Stable1dParams(alpha=1.6, c=1.0), 1.6),
]


def test_criterion_1_index_catalog():
    worst = 0.0
    slow = []
    for name, params, expected in CATALOG:
        t0 = time.perf_counter()
        rep = I.sobolev_index(S.make_symbol(params))
        elapsed = time.perf_counter() - t0
        if elapsed >= 5.0:
            slow.append((name, elapsed))
        assert rep.sobolev_index is not None, f"{name}: no index declared"
        err = abs(rep.sobolev_index - expected)
        worst = max(worst, err)
        assert err <= 0.05, f"{name}: fitted {rep.sobolev_index:.4f} vs {expected}"
    _report("1 (index catalog)", worst <= 0.05 and not slow,
            f"13 families within +-0.05 (worst |err| = {worst:.4f}), "
            f"all under 5 s per family")


# ---------------------------------------------------------------------------
# 2. negative controls at tol = 0.05 and tol = 0.2
# ---------------------------------------------------------------------------


def test_criterion_2_negative_controls():
    vg = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 0.0))
    nonstrict = S.stable_symbol_1d(S.Stable1dParams(alpha=1.0, c=1.0, beta=0.5))
    results = {}
    for tol in (0.05, 0.2):
        results[("vg", tol)] = I.sobolev_index(vg, tol=tol).sobolev_index
        results[("1stable", tol)] = I.sobolev_index(nonstrict, tol=tol).sobolev_index
    ok = all(v is None for v in results.values())
    _report("2 (negative controls)", ok,
            f"VG and non-strict 1-stable yield no index at tol 0.05 and 0.2: "
            f"{ {k: v for k, v in results.items()} }")


# ---------------------------------------------------------------------------
# 3. index inequalities for CGMY across Y
# ---------------------------------------------------------------------------


def test_criterion_3_index_inequalities():
    rows = []
    ok = True
    for y in (0.3, 0.5, 0.8, 1.0, 1.2, 1.5, 1.8):
        rep = I.sobolev_index(S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, y)))
        assert rep.sobolev_index is not None and rep.beta is not None
        verdicts = I.cross_check(rep)
        ok = ok and verdicts["beta_ge_gamma"]["passed"] \
            and verdicts["beta_ge_index"]["passed"]
        rows.append((y, round(rep.beta, 3), round(rep.gamma, 3),
                     round(rep.sobolev_index, 3)))
    _report("3 (beta >= gamma, beta >= index)", ok,
            f"(Y, beta, gamma, index) = {rows}")


# ---------------------------------------------------------------------------
# 4. bilinear form inequalities over 500 seeded random fields
# ---------------------------------------------------------------------------


def test_criterion_4_form_inequalities():
    grid = SP.FrequencyGrid(1, 512, 64.0)
    members = [
        (S.BrownianParams(sigma=1.0, b=0.0), 2.0),
        (S.CauchyParams(c=1.0, gamma=0.0), 1.0),
        (S.NIGParams(alpha=10.0, beta=3.0, delta=1.0, mu=0.0), 1.0),
        (S.StudentTParams(f=4.0), 1.0),
        (S.CGMYParams(1.0, 5.0, 5.0, 0.5), 0.5),
        (S.CGMYParams(1.0, 5.0, 5.0, 1.2), 1.2),
        (S.CGMYParams(1.0, 5.0, 5.0, 1.5), 1.5),
        (S.Stable1dParams(alpha=0.7, c=1.0), 0.7),
        (S.Stable1dParams(alpha=1.6, c=1.0), 1.6),
    ]
    c2s = {}
    ok = True
    for params, alpha in members:
        rep = SP.verify_form_inequalities(S.make_symbol(params), alpha, 500,
                                          grid, seed=0)
        ok = ok and rep.passed and rep.garding_c2 > 0 and rep.trial_min_slack >= 0
        c2s[f"{type(params).__name__}:{alpha}"] = round(rep.garding_c2, 4)
    vg = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 0.0))
    vg_fails = all(
        not SP.verify_form_inequalities(vg, a, 50, grid, seed=0).passed
        for a in (0.2, 0.5, 1.0, 1.5, 2.0))
    _report("4 (continuity + Garding verdicts)", ok and vg_fails,
            f"9 members pass with c2 > 0 over 500 fields ({c2s}); "
            f"VG fails for every alpha >= 0.2")


# ---------------------------------------------------------------------------
# 5. solver correctness, total < 30 s
# ---------------------------------------------------------------------------


def test_criterion_5_solver():
    t0 = time.perf_counter()
    # (a) Brownian heat kernel at N = 2^12, Xi = 64
    br = S.make_symbol(S.BrownianParams(sigma=1.0, b=0.0))
    grid = SP.FrequencyGrid(1, 2**12, 64.0)
    payoff = SP.SpectralField.from_function(
        grid, lambda xi: np.sqrt(2 * np.pi) * np.exp(-xi**2 / 2))
    xs = np.linspace(-4.0, 4.0, 81)
    vals = SP.conditional_expectation(br, payoff, 1.0, xs)
    err_a = float(np.abs(vals - np.exp(-xs**2 / 4) / np.sqrt(2)).max())

    # (b) Cauchy density at x = 0, t = 1
    ca = S.make_symbol(S.CauchyParams(c=1.0, gamma=0.0))
    err_b = abs(SP.density(ca, 1.0, [0.0], SP.FrequencyGrid(1, 2**14, 24.0))[0]
                - 1.0 / np.pi)

    # (c) semigroup property of the exact scheme
    cg = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 1.5))
    g1 = SP.evolve(cg, payoff, None, 0.4, 4, "exact").fields[-1]
    g2 = SP.evolve(cg, g1, None, 0.6, 6, "exact").fields[-1]
    g3 = SP.evolve(cg, payoff, None, 1.0, 5, "exact").fields[-1]
    err_c = float(np.abs(g2.values - g3.values).max()
                  / max(np.abs(g3.values).max(), 1.0))

    # (d) self-convergence orders against the exact propagator
    def order(scheme):
        def err(k):
            tr = SP.evolve(cg, payoff, None, 0.5, k, scheme)
            exact = np.exp(-0.5 * cg(grid.axis())) * payoff.values
            return np.sqrt(np.sum(np.abs(tr.fields[-1].values - exact) ** 2))
        return float(np.log2(err(32) / err(64)))

    ord_ie, ord_cn = order("implicit_euler"), order("crank_nicolson")
    elapsed = time.perf_counter() - t0
    ok = (err_a < 1e-6 and err_b < 1e-6 and err_c <= 1e-12
          and abs(ord_ie - 1.0) <= 0.1 and abs(ord_cn - 2.0) <= 0.1
          and elapsed < 30.0)
    _report("5 (solver correctness)", ok,
            f"heat L_inf {err_a:.2e}; cauchy p(0) err {err_b:.2e}; "
            f"semigroup {err_c:.2e}; orders IE {ord_ie:.3f} / CN {ord_cn:.3f}; "
            f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6. closed form vs quadrature on |u| <= 100
# ---------------------------------------------------------------------------


def test_criterion_6_closed_form_vs_quadrature():
    us = np.geomspace(0.5, 100.0, 17)
    worst = 0.0
    # CGMY, asymmetric to exercise the antisymmetric machinery
    sym = S.make_symbol(S.CGMYParams(1.0, 2.0, 4.0, 1.5))
    sp = M.cgmy_density(1.0, 2.0, 4.0, 1.5)
    for u in us:
        a_fs, a_fas = M.symbol_parts_from_density(sp, float(u))
        closed = sym(float(u))
        worst = max(worst, abs((a_fs + a_fas) - closed) / abs(closed))
    # NIG 1-d with skew
    nig = S.make_symbol(S.NIGParams(alpha=10.0, beta=3.0, delta=1.0, mu=0.0))
    nsp = M.nig_density(10.0, 3.0, 1.0)
    b = 3.0 / np.sqrt(91.0)
    for u in us:
        a_fs, a_fas = M.symbol_parts_from_density(nsp, float(u))
        closed = nig(float(u))
        worst = max(worst, abs((1j * u * b + a_fs + a_fas) - closed) / abs(closed))
    _report("6 (closed form vs quadrature)", worst <= 1e-6,
            f"CGMY and NIG agree to {worst:.2e} relative on |u| <= 100")


# ---------------------------------------------------------------------------
# 7. smoothness consequences
# ---------------------------------------------------------------------------


def test_criterion_7_smoothness():
    nig = S.make_symbol(S.NIGParams(alpha=10.0, beta=0.0, delta=1.0, mu=0.0))
    cg = S.make_symbol(S.CGMYParams(1.0, 5.0, 5.0, 1.5))
    mom_nig = I.smoothness_moments(nig, 1.0, 8)
    mom_cg = I.smoothness_moments(cg, 1.0, 8)
    finite = all(np.isfinite(m) and m > 0 for m in mom_nig + mom_cg)
    mass_nig = SP.density_mass(nig, 1.0, SP.FrequencyGrid(1, 2**13, 200.0))
    mass_cg = SP.density_mass(cg, 1.0, SP.FrequencyGrid(1, 2**12, 100.0))
    mass_ok = abs(mass_nig - 1.0) <= 1e-4 and abs(mass_cg - 1.0) <= 1e-4
    _report("7 (smoothness consequences)", finite and mass_ok,
            f"M0..M8 finite w/ certified tails (NIG M8 = {mom_nig[8]:.3g}, "
            f"CGMY M8 = {mom_cg[8]:.3g}); masses {mass_nig:.6f}, {mass_cg:.6f}")
