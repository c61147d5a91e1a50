"""Differential oracle for the density route.

A seeded, stratified draw of CGMY and NIG laws: 12 of each, 4 `u` per law.
The quadrature parts of each family density must match the closed-form
symbol within the route's budget 1e-9 (1 + u^2), each part on its own. The
same density given by `f` alone (both parts differenced from f) must match
the family density's parts within the same budget, also where 30/|u| falls
below the graded panels' edge EPS_INNER.
"""

import numpy as np
import pytest

from levysobolev import measures as M
from levysobolev import symbols as S

N_SETS = 12
U_EDGES = np.linspace(np.log10(0.3), 5.0, 5)   # four log-u strata on [0.3, 1e5]


def _stratified(rng, lo, hi, n):
    edges = np.linspace(lo, hi, n + 1)
    return edges[:-1] + rng.uniform(0.0, 1.0, n) * np.diff(edges)


def _draw():
    """(label, family density, closed-form symbol, drift, us) per parameter set."""
    rng = np.random.default_rng(13)
    cases = []
    for Y in _stratified(rng, 0.05, 1.97, N_SETS):
        C, G, M_ = 10.0 ** rng.uniform(-1.0, 1.0), *10.0 ** rng.uniform(-0.3, 1.5, 2)
        params = S.CGMYParams(C, G, M_, float(Y), zero_drift=True)
        cases.append((f"cgmy(C={C:.3g},G={G:.3g},M={M_:.3g},Y={Y:.3f})",
                      M.cgmy_density(C, G, M_, float(Y)), params, 0.0, float(Y)))
    for alpha in 10.0 ** _stratified(rng, -0.5, 1.5, N_SETS):
        beta, delta = alpha * rng.uniform(-0.95, 0.95), 10.0 ** rng.uniform(-0.5, 0.5)
        params = S.NIGParams(alpha=float(alpha), beta=float(beta), delta=float(delta))
        drift = delta * beta / np.sqrt(alpha * alpha - beta * beta)
        cases.append((f"nig(alpha={alpha:.3g},beta={beta:.3g},delta={delta:.3g})",
                      M.nig_density(float(alpha), float(beta), float(delta)), params,
                      float(drift), 1.0))
    return [(label, d, p, drift, Y, 10.0 ** _stratified(rng, U_EDGES[0], U_EDGES[-1], 4))
            for label, d, p, drift, Y in cases]


CASES = _draw()
IDS = [c[0] for c in CASES]


def _budget(u):
    return 1e-9 * (1.0 + u * u)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_family_density_matches_closed_form(case):
    _, density, params, drift, _, us = case
    sym = S.make_symbol(params)
    for u in np.concatenate([us, -us[:1]]):
        a_fs, a_fas = M.symbol_parts_from_density(density, float(u))
        closed = sym(float(u)) - 1j * u * drift
        assert abs(a_fs - closed.real) <= _budget(u), u
        assert abs(a_fas.imag - closed.imag) <= _budget(u), u


def _assert_f_only_matches(label, family, us):
    density = M.LevyDensity(f=family.f, cutoff=family.cutoff, name=f"f-only {label}")
    for u in us:
        a_fs, a_fas = M.symbol_parts_from_density(density, float(u))
        r_fs, r_fas = M.symbol_parts_from_density(family, float(u))
        assert abs(a_fs - r_fs) <= _budget(u), u
        assert abs(a_fas - r_fas) <= _budget(u), u


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_f_only_density_matches_its_family(case):
    label, family, _, _, _, us = case
    _assert_f_only_matches(label, family, us)


# the skewed CGMY laws from Y = 1.5 on, whose differenced f_as is noisiest
# near 0; from |u| = 3e5 on the graded panels end at 30/|u| < EPS_INNER
LARGE_U_CASES = [c for c in CASES if c[0].startswith("cgmy") and c[4] >= 1.5]


@pytest.mark.parametrize("case", LARGE_U_CASES, ids=[c[0] for c in LARGE_U_CASES])
def test_f_only_density_matches_its_family_at_large_u(case):
    label, family, _, _, _, _ = case
    _assert_f_only_matches(label, family, (4e5, -1e6, 3e7))
