"""The ray engine's building blocks: the Gauss-Kronrod table, the phi
panels, the rho-intervals of the pieces against a scalar reference,
the error-controlled refinement of closed-form rows (v alone with a ray
primitive: level pieces of indicators, weight integrals), and that a
row's value, closed-form or general, does not depend on its batch."""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sectorlab import (IndexSet, LpSpace, OrbitResolution, Sector, annuli_union, bump,
                       custom_function, custom_weight, dc_sufficient_series, exp_decay,
                       indicator, linear_combination, orbit_norm, orbit_norms, orbit_profile,
                       vertical_exp)
from sectorlab import quadrature

from test_conformance import indicator_oracle

ALPHA = 1.4

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
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


# ---------------------------------------------------------------------------
# phi panels


def test_rows_with_no_angle_inside_get_exactly_their_base_panels():
    alpha = 1.0
    # nan, both edges, beyond an edge, and angles that wrap to outside
    angles = np.array([[np.nan, alpha, -alpha, 1.3, 2.0 * np.pi + 1.2, -3.0]])
    flat = np.ones(angles.shape, bool)
    for v, reach in ((exp_decay(), 5.0), (vertical_exp(), 1.0), (vertical_exp(), 30.0)):
        n = max(2, int(quadrature._angular_panels(v, 2.0 * alpha, np.array([reach]))[0]))
        row, a, b, code = quadrature._panels(v, alpha, np.array([reach]), angles, flat, 2)
        edges = -alpha + 2.0 * alpha * (np.arange(n + 1) / n)
        assert np.array_equal(row, np.zeros(n, int))
        assert np.array_equal(a, edges[:-1]) and np.array_equal(b, edges[1:])
        assert np.array_equal(code, np.zeros(n, int))


def test_a_rows_panels_do_not_depend_on_its_batch():
    rng = np.random.default_rng(7)
    alpha = 0.9
    angles = rng.uniform(-1.5, 1.5, (6, 8))
    angles[rng.random(angles.shape) < 0.3] = np.nan
    angles[1] = 2.0  # no angle inside
    angles[2, 1] = angles[2, 0] + 1e-5  # a close pair, 5-step grading
    angles[3, 1] = angles[3, 0] + 1e-7  # a closer pair, the 12-step bridge
    flat = rng.random(angles.shape) < 0.5
    reach = np.array([0.5, 3.0, 1.0, 8.0, 12.0, 2.0])
    for v in (exp_decay(), vertical_exp()):
        row, a, b, code = quadrature._panels(v, alpha, reach, angles, flat, 2)
        assert np.all(np.diff(row) >= 0) and np.all(b - a > 1e-12)
        assert np.array_equal(np.unique(row), np.arange(len(angles)))
        for i in range(len(angles)):
            alone = quadrature._panels(v, alpha, reach[i:i + 1], angles[i:i + 1], flat[i:i + 1], 2)
            mine = row == i
            assert not alone[0].any() and np.all(np.diff(a[mine]) > 0)
            for x, y in zip((a, b, code), alone[1:]):
                assert np.array_equal(x[mine], y)


def test_a_close_tangent_and_corner_pair_gets_the_twelve_step_bridge():
    alpha = 1.0
    width = 2.0 * alpha / 2  # exp_decay is radial: the 2 base panels
    x0 = 0.1
    gap = width / 4.0 ** 7  # closer than width / 4^5: 5 steps do not bridge it
    x1 = x0 + gap
    row, a, b, code = quadrature._panels(exp_decay(), alpha, np.array([4.0]), np.array([[x1, x0]]),
                                         np.array([[False, True]]), 2)
    g = x1 - x0
    steps = g * 4.0 ** np.arange(1, 7)  # the steps shorter than a panel, 6 > 5
    expect = np.sort(np.concatenate([[-alpha, 0.0, alpha, x0, x1], x0 - steps, x1 + steps]))
    assert np.array_equal(row, np.zeros(len(expect) - 1, int))
    # to rounding: the angles are wrapped to (-pi, pi] first, and 4^6 scales that
    np.testing.assert_allclose(a, expect[:-1], rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(b, expect[1:], rtol=0.0, atol=1e-12)
    # only the ends at the tangent ray are flat: the right end of the panel
    # before it (code 2) and the left end of the panel after it (code 1)
    i = np.argmin(np.abs(expect - x0))
    assert np.array_equal(np.flatnonzero(code), [i - 1, i]) and list(code[i - 1:i + 1]) == [2, 1]
    # a pair closer than width / 4^12 is too close to bridge: no graded edges
    x1 = x0 + width / 4.0 ** 13
    row, a, b, code = quadrature._panels(exp_decay(), alpha, np.array([4.0]), np.array([[x1, x0]]),
                                         np.array([[False, True]]), 2)
    np.testing.assert_allclose(a, [-alpha, 0.0, x0, x1], rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(b, [0.0, x0, x1, alpha], rtol=0.0, atol=1e-15)
    assert list(code) == [0, 2, 1, 0]


# ---------------------------------------------------------------------------
# the rho-intervals of the pieces


def _reference_intervals(tau: complex, rect, phi: float, R):
    """The rho-intervals of {rho >= 0 : rho e^{i phi} + tau in rect,
    rho <= R}, one node at a time: every circle root (math.sqrt) and span
    crossing is a breakpoint, and the midpoint of each piece between
    breakpoints decides by |z| and atan2 whether it is inside."""
    r_lo, r_hi, th_lo, th_hi = rect
    e = complex(math.cos(phi), math.sin(phi))
    d = tau.real * e.real + tau.imag * e.imag
    top = R if R is not None else r_hi + abs(tau) + 1.0
    cuts = [0.0, top]
    for r in (r_lo, r_hi):
        disc = d * d - abs(tau) ** 2 + r * r
        if disc > 0:
            cuts += [-d - math.sqrt(disc), -d + math.sqrt(disc)]
    if not math.isnan(th_lo):
        for th in (th_lo, th_hi):
            k = math.sin(phi - th)
            if k != 0.0:
                cuts.append(-(tau * cmath.exp(-1j * th)).imag / k)
    cuts = sorted(c for c in cuts if 0.0 <= c <= top)
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        z = tau + 0.5 * (a + b) * e
        inside = r_lo <= abs(z) <= r_hi and (
            math.isnan(th_lo) or th_lo <= math.atan2(z.imag, z.real) <= th_hi)
        if inside and b > a:
            if out and out[-1][1] == a:
                out[-1] = (out[-1][0], b)
            else:
                out.append((a, b))
    return out


@pytest.mark.parametrize("rects, centres, taus, R", [
    # a full-span annulus at in-sector steps: the span cuts are skipped
    ([(1.0, 3.0, -ALPHA, ALPHA)], [0.0], [0.0, 2.0 * cmath.exp(0.3j), 0.4 - 0.9j], None),
    # a partial span: the half-plane cuts bind
    ([(1.0, 3.0, -0.2, 0.5)], [0.0], [0.0, 1.5 * cmath.exp(0.7j), 0.8 - 0.2j], None),
    # a disc (nan span) about a centre off the sector
    ([(0.0, 1.5, math.nan, math.nan)], [0.0], [-1.0 + 0.5j, 0.3, 2.0 - 2.5j], None),
    # truncation at R
    ([(1.0, 5.0, -ALPHA, ALPHA)], [0.0], [0.0, 0.5 + 0.2j, 1.2 * cmath.exp(-1.1j)], 3.5),
    # a rectangle and a disc about 1.2 + 0.4i in one row: interval 2 * piece + part
    ([(1.0, 3.0, -0.2, 0.5), (0.0, 1.5, math.nan, math.nan)], [0.0, 1.2 + 0.4j],
     [0.0, 1.5 * cmath.exp(0.7j), 0.8 - 0.2j], 4.0),
], ids=["free-annulus", "partial-rect", "disc", "truncated", "rect-and-disc"])
def test_piece_intervals_match_a_scalar_reference(rects, centres, taus, R):
    rng = np.random.default_rng(3)
    rows, m, n_phi = len(taus), len(rects), 9
    tau = np.array(taus, dtype=complex)[:, None] - np.array(centres)
    rc = np.array(rects)[None]
    phi = np.sort(rng.uniform(-ALPHA, ALPHA, (rows, n_phi)), axis=1)
    lo, hi = quadrature._piece_intervals(tau, rc, phi, ALPHA, R)
    assert lo.shape == hi.shape == (2 * m, rows, n_phi)
    empty = hi <= lo
    assert np.all(lo[empty] == 0.0) and np.all(hi[empty] == 0.0)
    live = 0
    for i in range(rows):
        for j in range(n_phi):
            for piece in range(m):
                got = [(lo[2 * piece + c, i, j], hi[2 * piece + c, i, j]) for c in (0, 1)
                       if not empty[2 * piece + c, i, j]]
                ref = _reference_intervals(complex(tau[i, piece]), rects[piece], phi[i, j], R)
                assert len(got) == len(ref), (i, j, piece, got, ref)
                for (a, b), (ra, rb) in zip(got, ref):
                    assert a == pytest.approx(ra, rel=1e-13, abs=1e-13 * rb)
                    assert b == pytest.approx(rb, rel=1e-13)
                live += len(ref)
    assert live > rows * n_phi * m // 2  # most nodes cross the pieces


@pytest.mark.parametrize("tau", [0j, 1.3 - 0.4j])
def test_an_unbounded_disc_gives_no_split_angle(tau):
    # the disc [0, inf] of a custom function without a support radius,
    # truncated at R: its outer circle has no tangent and never meets
    # |s| = R, and its inner one (r = 0) only splits at arg(-tau), outside
    # the sector, so no panel of the sector is split
    rc = np.array([[[0.0, np.inf, np.nan, np.nan]]])
    angles, flat = quadrature._piece_angles(np.array([[tau]]), rc, 5.0)
    assert not np.any(np.abs(np.angle(np.exp(1j * angles))) < ALPHA) and not flat.any()


# ---------------------------------------------------------------------------
# refinement

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


def _batch_case(case):
    """An LpSpace and a function at alpha = 1.4 whose rows take each path:
    closed-form level pieces, and general rows of a bump, an
    indicator-minus-bump combination, a custom function, and an indicator
    under a weight with no ray primitive."""
    sector = Sector(ALPHA)
    ring = indicator(annuli_union([3], sector))
    v, f = {
        "indicator": (exp_decay(), ring),
        "bump": (exp_decay(), bump(2.0 + 0.3j, 0.8)),
        "indicator-minus-bump": (exp_decay(), linear_combination(
            [(1.0, ring), (-1.0, bump(3.2 + 0.4j, 0.8))])),
        "custom-function": (exp_decay(), custom_function(
            lambda z: np.maximum(0.0, 1.0 - np.abs(z - 2.5) / 1.2) ** 2, support_radius=3.7)),
        "custom-weight": (custom_weight(lambda z: np.exp(-np.abs(z))), ring),
    }[case]
    return LpSpace(v, 2.0, sector), f


@pytest.mark.parametrize("case", ["indicator", "bump", "indicator-minus-bump",
                                  "custom-function", "custom-weight"])
def test_a_rows_value_does_not_depend_on_its_batch(case):
    space, f = _batch_case(case)
    ts = np.array([HARD_STEP, 0.5, 2.0 * cmath.exp(1.2j), 6.0 - 1.0j])
    batch = orbit_norms(space, f, ts)
    singles = np.concatenate([orbit_norms(space, f, ts[i:i + 1]) for i in range(len(ts))])
    assert np.count_nonzero(batch) >= 2
    assert batch.tobytes() == singles.tobytes()
