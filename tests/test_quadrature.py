"""The phi rules of the ray engine: the Gauss-Kronrod table, and the
error-controlled refinement of closed-form rows (v alone with a ray
primitive: level pieces of indicators, weight integrals)."""

import cmath
import math
import subprocess
import sys

import numpy as np
import pytest

from sectorlab import (IndexSet, LpSpace, OrbitResolution, Sector, annuli_union,
                       dc_sufficient_series, exp_decay, indicator, orbit_norm, orbit_norms,
                       orbit_profile, vertical_exp)
from sectorlab import quadrature

from test_conformance import indicator_oracle

# ---------------------------------------------------------------------------
# the G10K21 table


def test_kronrod_rule_is_exact_to_degree_31_and_not_32():
    x, wk, _ = quadrature.kronrod_rule()
    for d in range(32):
        exact = 2.0 / (d + 1) if d % 2 == 0 else 0.0
        assert abs(wk @ x ** d - exact) <= 1e-15, d
    # the first monomial the 21-point rule misses: 4.4e-12, far above rounding
    assert abs(wk @ x ** 32 - 2.0 / 33) > 1e-13


def test_embedded_gauss_rule_is_leggauss_10():
    x, _, wg = quadrature.kronrod_rule()
    gx, gw = np.polynomial.legendre.leggauss(10)
    on = wg > 0
    assert on.sum() == 10 and not on[::2].any()
    np.testing.assert_allclose(x[on], gx, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(wg[on], gw, rtol=0.0, atol=1e-15)


def test_kronrod_weights_are_positive_and_nodes_symmetric():
    x, wk, wg = quadrature.kronrod_rule()
    assert len(x) == 21 and np.all(np.diff(x) > 0) and x[10] == 0.0
    assert np.all(wk > 0) and np.all(wg >= 0)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(wk, wk[::-1]) and np.array_equal(wg, wg[::-1])


def test_the_library_does_not_import_scipy():
    code = "import sys, sectorlab; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# ---------------------------------------------------------------------------
# refinement

ALPHA = 1.4
# exp_decay, annulus [3, 4], at a step of the alpha = 1.4 orbit grids: the
# initial G10K21 panels alone miss the oracle by 7.5e-9
HARD_STEP = 1.617 - 3.495j


def _hard_case():
    sector = Sector(ALPHA)
    return LpSpace(exp_decay(), 2.0, sector), indicator(annuli_union([3], sector))


def _panel_calls(monkeypatch):
    """Record the rows of every batch of panels `_kronrod_rows` evaluates:
    the initial panels, then the halves of each round's bisections."""
    calls = []
    sums = quadrature._kronrod_sums

    def counted(v, alpha, tau, rc, R, row, *args):
        calls.append(row.copy())
        return sums(v, alpha, tau, rc, R, row, *args)

    monkeypatch.setattr(quadrature, "_kronrod_sums", counted)
    return calls


def test_hard_row_is_refined_and_meets_the_oracle(monkeypatch):
    space, f = _hard_case()
    ref = indicator_oracle("exp_decay", [(3.0, 4.0, -ALPHA, ALPHA)], HARD_STEP, ALPHA)
    calls = _panel_calls(monkeypatch)
    got = orbit_norm(space, f, HARD_STEP) ** 2
    assert len(calls) > 1  # at least one round of bisections
    assert got == pytest.approx(ref, rel=1e-10, abs=0.0)
    monkeypatch.setattr(quadrature, "_MAX_ROUNDS", 0)
    assert orbit_norm(space, f, HARD_STEP) ** 2 != pytest.approx(ref, rel=1e-9, abs=0.0)


def test_row_that_never_meets_its_tolerance_stops_at_the_round_cap(monkeypatch):
    space, f = _hard_case()
    expect = orbit_norm(space, f, HARD_STEP)
    calls = _panel_calls(monkeypatch)
    # a negative tolerance that every estimate exceeds, so every round bisects every panel
    monkeypatch.setattr(quadrature, "_PHI_RTOL", -1.0)
    got = orbit_norm(space, f, HARD_STEP)
    assert len(calls) == 1 + quadrature._MAX_ROUNDS
    assert [len(c) for c in calls[1:]] == [2 * len(calls[0]) * 2 ** k
                                            for k in range(quadrature._MAX_ROUNDS)]
    assert math.isfinite(got) and got == pytest.approx(expect, rel=1e-12, abs=0.0)


def test_orbit_grid_and_series_reruns_are_bit_identical():
    space, f = _hard_case()
    res = OrbitResolution(n_r=12, n_theta=6)
    grids = [orbit_profile(space, f, 8.0, res).norms for _ in range(2)]
    assert grids[0].tobytes() == grids[1].tobytes()
    for alpha in (math.pi / 4, ALPHA):
        terms = [dc_sufficient_series(vertical_exp(), IndexSet.all_naturals(), 60,
                                      Sector(alpha)).terms for _ in range(2)]
        assert terms[0].tobytes() == terms[1].tobytes()


def test_a_rows_value_does_not_depend_on_its_batch():
    space, f = _hard_case()
    ts = np.array([HARD_STEP, 0.5, 2.0 * cmath.exp(1.2j), 6.0 - 1.0j])
    batch = orbit_norms(space, f, ts)
    singles = np.concatenate([orbit_norms(space, f, ts[i:i + 1]) for i in range(len(ts))])
    assert batch.tobytes() == singles.tobytes()
