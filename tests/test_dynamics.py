import math

import numpy as np
import pytest

from sectorlab import (DomainError, IndexSet, LpSpace, OrbitResolution,
                       PolarRect, RectUnionSet, Sector, annuli_union,
                       build_witness, bump, custom_function, custom_weight,
                       density_estimates, exp_decay, indicator, level_density,
                       linear_combination, lp_norm, orbit_norm, orbit_norms,
                       orbit_profile, pair_diagnostic, poly_decay, translate_function,
                       unboundedness_diagnostic, vertical_exp)
from sectorlab import quadrature

FAST = OrbitResolution(n_r=64, n_theta=24)


@pytest.fixture
def exp_space(sector):
    return LpSpace(exp_decay(), 2.0, sector)


@pytest.fixture
def vert_space(sector):
    return LpSpace(vertical_exp(), 2.0, sector)


class TestOrbitProfile:
    def test_zero_function_gives_zero_grid(self, exp_space):
        grid = orbit_profile(exp_space, indicator(RectUnionSet([])), 10.0, FAST)
        assert np.all(grid.norms == 0.0)

    def test_witness_nodes_stay_above_delta(self, exp_space, sector):
        pkg = build_witness(exp_decay(), IndexSet.all_naturals(), 2.0, sector,
                            k_cap=24)
        grid = orbit_profile(exp_space, pkg.f, 10.0, FAST)
        assert grid.norms.min() >= pkg.delta

    def test_vertical_weight_upper_half_decay(self, vert_space, sector):
        # far nodes see a vanished translate of the unit-ball indicator
        f = indicator(annuli_union([0], sector))
        grid = orbit_profile(vert_space, f, 30.0, FAST)
        far_upper = (grid.radii[:, None] > 2.0) & (grid.thetas[None, :] > 0)
        assert np.all(grid.norms[far_upper] < 0.1)

    def test_grid_radius_validation(self, exp_space):
        for R in (0.0, np.nan):
            with pytest.raises(DomainError, match="orbit_profile.R"):
                orbit_profile(exp_space, bump(1 + 0j, 0.5), R, FAST)

    @pytest.mark.parametrize("bad", [dict(n_r=0), dict(n_r=1), dict(n_r=2.5),
                                     dict(n_r=True), dict(n_theta=0), dict(n_theta=-3)])
    def test_bad_resolution_rejected(self, bad):
        with pytest.raises(DomainError):
            OrbitResolution(**bad)

    def test_coarsest_resolution_measures_exactly(self, exp_space, sector):
        f = indicator(annuli_union([0, 1], sector))
        grid = orbit_profile(exp_space, f, 6.0, OrbitResolution(n_r=np.int64(2), n_theta=1))
        sched = np.array([1.0, 3.0, 6.0])
        sub = level_density(grid, 0.3, "sub", sched).profile
        sup = level_density(grid, 0.3, "super", sched).profile
        assert np.all(sub.errors == 0.0) and np.all(sup.errors == 0.0)
        assert np.allclose(sub.ratios + sup.ratios, 1.0, rtol=0.0, atol=1e-15)

    def test_csv_export_shape(self, exp_space, sector):
        grid = orbit_profile(exp_space, indicator(annuli_union([0], sector)),
                             5.0, OrbitResolution(n_r=4, n_theta=3))
        lines = grid.to_csv().splitlines()
        assert lines[0] == "t_r,t_theta,norm"
        assert len(lines) == 1 + 4 * 3


def _grid_kinds(sector):
    a = indicator(annuli_union([0, 2], sector))
    b = indicator(RectUnionSet([PolarRect(1.0, 2.5, -sector.alpha / 2, sector.alpha / 3)]))
    cap = bump(1.5 * np.exp(0.1j), 0.7)
    return {"indicator": a,
            "indicator-difference": linear_combination([(1.0, a), (-1.0, b)]),
            "bump": cap,
            "indicator-minus-bump": linear_combination([(1.0, a), (-1.0, cap)])}


class TestGridFromEngine:
    """Every node of an orbit grid is the engine's norm of that translate."""

    @pytest.mark.parametrize("alpha", [0.3, math.pi / 4, 1.4])
    @pytest.mark.parametrize("kind", ["indicator", "indicator-difference", "bump",
                                      "indicator-minus-bump"])
    def test_nodes_equal_orbit_norm(self, alpha, kind):
        sector = Sector(alpha)
        space = LpSpace(poly_decay(), 3.0, sector)
        f = _grid_kinds(sector)[kind]
        grid = orbit_profile(space, f, 6.0, OrbitResolution(n_r=5, n_theta=4))
        nodes = grid.radii[:, None] * np.exp(1j * grid.thetas[None, :])
        singles = np.array([[orbit_norm(space, f, t) for t in row] for row in nodes])
        assert np.any(singles > 0)
        assert np.allclose(grid.norms, singles, rtol=1e-12, atol=0.0)

    def test_far_nodes_are_exactly_zero(self, sector):
        # beyond |t| = reach the support of the translate misses the sector
        space = LpSpace(vertical_exp(), 2.0, sector)
        for f, reach in ((indicator(annuli_union([0, 1], sector)), 2.0),
                         (bump(1.0 + 0.5j, 0.5), abs(1.0 + 0.5j) + 0.5)):
            grid = orbit_profile(space, f, 20.0, OrbitResolution(n_r=24, n_theta=6))
            far = grid.radii > reach * (1 + 1e-9)
            assert far.any() and grid.norms[~far].max() > 0.0
            assert np.all(grid.norms[far] == 0.0)

    def test_unbounded_custom_function_raises(self, exp_space):
        f = custom_function(lambda z: np.exp(-np.abs(z)))
        with pytest.raises(DomainError):
            orbit_profile(exp_space, f, 5.0, OrbitResolution(n_r=4, n_theta=3))

    def test_custom_function_uses_the_generic_grid(self, exp_space):
        f = custom_function(lambda z: np.maximum(0.0, 1.0 - np.abs(z - 2.0)) ** 2,
                            support_radius=3.0)
        grid = orbit_profile(exp_space, f, 4.0, OrbitResolution(n_r=3, n_theta=2))
        nodes = grid.radii[:, None] * np.exp(1j * grid.thetas[None, :])
        singles = np.array([[orbit_norm(exp_space, f, t) for t in row] for row in nodes])
        assert np.allclose(grid.norms, singles, rtol=1e-12, atol=0.0)


def _rows_sent(monkeypatch):
    """Record the number of engine rows each batch of orbit norms sends."""
    sent = []
    rows = quadrature.ray_rows

    def counted(v, alpha, p, tau, *args):
        sent.append(len(tau))
        return rows(v, alpha, p, tau, *args)

    monkeypatch.setattr(quadrature, "ray_rows", counted)
    return sent


def _mirror_kinds(sector):
    annuli = indicator(annuli_union([0, 2], sector))
    cap = bump(1.5 + 0j, 0.7)
    return {"indicator": annuli, "bump": cap,
            "indicator-minus-bump": linear_combination([(1.0, annuli), (-1.0, cap)])}


def _asymmetric_kinds(sector):
    """Inputs that are not their own mirror image, each one engine row per
    step: one rectangle, or the general path."""
    a = sector.alpha
    ring = indicator(annuli_union([1], sector))
    partial = indicator(RectUnionSet([PolarRect(1.0, 2.5, -a / 2, a / 3)]))
    off_axis = bump(1.5 * np.exp(0.1j), 0.7)
    return {"partial-span": (poly_decay(), partial),
            "off-axis-bump": (poly_decay(), off_axis),
            "offset-off-axis": (poly_decay(), translate_function(ring, 0.6 + 0.1j, sector)),
            "vertical-exp": (vertical_exp(), ring),
            "non-radial-weight": (custom_weight(lambda z: np.exp(-np.abs(z))), ring),
            "one-asymmetric-term": (poly_decay(),
                                    linear_combination([(1.0, ring), (-1.0, off_axis)]))}


def _singles(space, f, grid):
    nodes = grid.radii[:, None] * np.exp(1j * grid.thetas[None, :])
    return np.array([[orbit_norm(space, f, t) for t in row] for row in nodes])


class TestMirror:
    """A radial weight and a function equal to its mirror image give
    ||T_t f|| = ||T_{conj t} f||: one step of each pair is computed."""

    @pytest.mark.parametrize("alpha", [0.3, math.pi / 4, 1.4])
    @pytest.mark.parametrize("n_theta", [5, 6])
    @pytest.mark.parametrize("kind", ["indicator", "bump", "indicator-minus-bump"])
    def test_symmetric_grid_columns_pair(self, alpha, n_theta, kind):
        sector = Sector(alpha)
        space = LpSpace(poly_decay(), 3.0, sector)
        f = _mirror_kinds(sector)[kind]
        grid = orbit_profile(space, f, 6.0, OrbitResolution(n_r=3, n_theta=n_theta))
        assert np.array_equal(grid.thetas, -grid.thetas[::-1])
        assert np.array_equal(grid.norms, grid.norms[:, ::-1])
        singles = _singles(space, f, grid)
        assert np.any(singles > 0)
        assert np.allclose(grid.norms, singles, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.3, math.pi / 4, 1.4])
    @pytest.mark.parametrize("kind", ["partial-span", "off-axis-bump", "offset-off-axis",
                                      "vertical-exp", "non-radial-weight",
                                      "one-asymmetric-term"])
    def test_asymmetric_input_takes_every_step(self, monkeypatch, alpha, kind):
        sector = Sector(alpha)
        v, f = _asymmetric_kinds(sector)[kind]
        space = LpSpace(v, 2.0, sector)
        sent = _rows_sent(monkeypatch)
        grid = orbit_profile(space, f, 3.0, OrbitResolution(n_r=3, n_theta=4))
        assert sum(sent) == grid.norms.size
        singles = _singles(space, f, grid)
        assert np.any(singles > 0)
        assert np.allclose(grid.norms, singles, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_theta, columns", [(16, 8), (15, 8)])
    def test_symmetric_grid_sends_one_step_per_pair(self, monkeypatch, sector, n_theta,
                                                    columns):
        space = LpSpace(exp_decay(), 2.0, sector)
        sent = _rows_sent(monkeypatch)
        orbit_profile(space, indicator(annuli_union([1], sector)), 20.0,
                      OrbitResolution(n_r=48, n_theta=n_theta))
        assert sum(sent) == 48 * columns

    def test_asymmetric_grid_sends_every_step(self, monkeypatch, sector):
        space = LpSpace(exp_decay(), 2.0, sector)
        f = indicator(RectUnionSet([PolarRect(1.0, 2.0, -sector.alpha, 0.5 * sector.alpha)]))
        sent = _rows_sent(monkeypatch)
        orbit_profile(space, f, 20.0, OrbitResolution(n_r=48, n_theta=16))
        assert sum(sent) == 48 * 16

    def test_steps_pair_in_any_order(self, monkeypatch, sector):
        space = LpSpace(exp_decay(), 2.0, sector)
        f = _mirror_kinds(sector)["indicator"]
        base = np.array([1.0 + 0.5j, 2.0 - 0.3j, 0.7 + 0j, 3.0 + 1.0j])
        ts = np.concatenate([base, base.conj(), base[::-1]])
        ts = ts[[5, 0, 11, 2, 7, 9, 1, 4, 3, 6, 8, 10]]
        sent = _rows_sent(monkeypatch)
        got = orbit_norms(space, f, ts)
        # 0.7 is its own conjugate; each piece of the two annuli is a row
        assert sum(sent) == 2 * 4
        expect = [orbit_norm(space, f, t) for t in ts]
        assert np.allclose(got, expect, rtol=1e-12, atol=0.0)


class TestLevelDensity:
    def test_zero_grid_superlevel_empty(self, exp_space):
        grid = orbit_profile(exp_space, indicator(RectUnionSet([])), 10.0, FAST)
        prof = level_density(grid, 0.5, "super", np.linspace(2, 10, 5))
        assert np.all(prof.profile.ratios == 0.0)

    def test_complementation(self, exp_space, sector):
        f = indicator(annuli_union([0, 1], sector))
        grid = orbit_profile(exp_space, f, 12.0, FAST)
        sched = np.linspace(2, 12, 6)
        sub = level_density(grid, 0.7, "sub", sched)
        sup = level_density(grid, 0.7, "super", sched)
        assert np.allclose(sub.profile.ratios + sup.profile.ratios, 1.0, atol=1e-9)

    def test_monotone_in_threshold(self, exp_space, sector):
        f = indicator(annuli_union([0, 1], sector))
        grid = orbit_profile(exp_space, f, 12.0, FAST)
        sched = np.linspace(2, 12, 6)
        prev_super = None
        prev_sub = None
        for thr in (0.2, 0.6, 1.0, 1.5):
            sup = level_density(grid, thr, "super", sched).profile.ratios
            sub = level_density(grid, thr, "sub", sched).profile.ratios
            if prev_super is not None:
                assert np.all(sup <= prev_super + 1e-12)
                assert np.all(sub >= prev_sub - 1e-12)
            prev_super, prev_sub = sup, sub

    def test_schedule_beyond_grid_rejected(self, exp_space, sector):
        grid = orbit_profile(exp_space, indicator(annuli_union([0], sector)),
                             10.0, FAST)
        with pytest.raises(DomainError):
            level_density(grid, 0.5, "super", np.array([5.0, 11.0]))

    @pytest.mark.parametrize("schedule", [[], [0.0, 1.0], [-1.0]])
    def test_bad_schedule_rejected(self, exp_space, sector, schedule):
        grid = orbit_profile(exp_space, indicator(annuli_union([0], sector)),
                             10.0, OrbitResolution(n_r=4, n_theta=2))
        with pytest.raises(DomainError):
            level_density(grid, 0.5, "super", schedule)

    def test_threshold_validation(self, exp_space, sector):
        grid = orbit_profile(exp_space, indicator(annuli_union([0], sector)),
                             10.0, FAST)
        with pytest.raises(DomainError):
            level_density(grid, 0.0, "super", np.array([5.0]))
        with pytest.raises(DomainError):
            level_density(grid, 0.5, "above", np.array([5.0]))

    def test_vertical_example_sublevel_majority(self, vert_space, sector):
        # the unit-ball indicator under the vertical weight: small norms
        # on (at least) half the sector in the tail
        f = indicator(annuli_union([0], sector))
        grid = orbit_profile(vert_space, f, 60.0,
                             OrbitResolution(n_r=96, n_theta=32))
        sched = np.geomspace(5.0, 60.0, 8)
        sub = level_density(grid, 0.1, "sub", sched)
        est = density_estimates(sub.profile, 4)
        assert est.lower >= 0.5 - 0.05


class TestPairDiagnostic:
    def test_identical_pair(self, exp_space, sector):
        f = indicator(annuli_union([0, 2], sector))
        diag = pair_diagnostic(exp_space, f, f, 0.1, 0.1, 10.0, FAST)
        assert np.allclose(diag.prox.profile.ratios, 1.0, atol=1e-12)
        assert np.all(diag.separation.profile.ratios == 0.0)
        assert "inconsistent" in diag.summary

    def test_witness_offset_pair_is_dc_consistent(self, exp_space, sector):
        # (g, g + f_witness): the difference is exactly the witness
        pkg = build_witness(exp_decay(), IndexSet.all_naturals(), 2.0, sector,
                            k_cap=24)
        g = bump(0.5 + 0j, 0.4)
        x = linear_combination([(1.0, g), (1.0, pkg.f)])
        diag = pair_diagnostic(exp_space, x, g, epsilon=0.05,
                               delta=pkg.delta / 2, R=15.0, resolution=FAST)
        assert diag.separation_upper >= 0.95
        assert "consistent" in diag.summary or diag.prox_upper < 0.95

    def test_symmetry_exact(self, exp_space, sector):
        x = indicator(annuli_union([0], sector))
        y = bump(1.0 + 0.1j, 0.5)
        d1 = pair_diagnostic(exp_space, x, y, 0.2, 0.1, 10.0, FAST)
        d2 = pair_diagnostic(exp_space, y, x, 0.2, 0.1, 10.0, FAST)
        assert np.array_equal(d1.prox.profile.ratios, d2.prox.profile.ratios)
        assert np.array_equal(d1.separation.profile.ratios,
                              d2.separation.profile.ratios)

    def test_compact_pair_under_vertical_weight(self, vert_space, sector):
        x = indicator(annuli_union([0], sector))
        y = bump(0.5 + 0j, 0.3)
        diag = pair_diagnostic(vert_space, x, y, 0.1, 0.1, 40.0,
                               OrbitResolution(n_r=80, n_theta=24))
        assert diag.prox_upper >= 0.5 - 0.05

    def test_threshold_validation(self, exp_space, sector):
        f = indicator(annuli_union([0], sector))
        with pytest.raises(DomainError):
            pair_diagnostic(exp_space, f, f, 0.0, 0.1, 5.0, FAST)


class TestUnboundedness:
    def test_bounded_orbit_estimates_vanish(self, exp_space, sector):
        f = indicator(annuli_union([0], sector))
        grid = orbit_profile(exp_space, f, 15.0, FAST)
        rep = unboundedness_diagnostic(grid, [0.5, 1.0, 2.0],
                                       np.linspace(3, 15, 5))
        assert not rep.consistent
        assert rep.upper_estimates[-1] <= 0.05

    def test_zero_function(self, exp_space):
        grid = orbit_profile(exp_space, indicator(RectUnionSet([])), 10.0, FAST)
        rep = unboundedness_diagnostic(grid, [1.0, 2.0], np.linspace(2, 10, 4))
        assert np.all(rep.upper_estimates == 0.0)

    def test_thresholds_must_increase(self, exp_space, sector):
        grid = orbit_profile(exp_space, indicator(annuli_union([0], sector)),
                             10.0, FAST)
        # an empty list is refused too: no estimate is not "every estimate"
        for thresholds in ([2.0, 1.0], []):
            with pytest.raises(DomainError, match="unboundedness_diagnostic.thresholds"):
                unboundedness_diagnostic(grid, thresholds, np.linspace(2, 10, 4))

    def test_membership_in_space_guarded(self, exp_space):
        # a function with unbounded support cannot even be normed without
        # a truncation, mirroring "not in the space" rejections upstream
        f = custom_function(lambda z: np.ones(z.shape))
        with pytest.raises(DomainError):
            lp_norm(exp_space, f)


class TestSeparationTranslationInvariance:
    def test_separation_density_stable_under_orbit_shift(self, exp_space, sector):
        # finite-horizon form of the invariance of the semi-irregular set:
        # translating the witness moves its separation set by a bounded
        # offset, which the tail upper estimate cannot see
        pkg = build_witness(exp_decay(), IndexSet.all_naturals(), 2.0, sector,
                            k_cap=40)
        sched = np.geomspace(4.0, 25.0, 8)
        res = OrbitResolution(n_r=72, n_theta=24)
        base = orbit_profile(exp_space, pkg.f, 25.0, res)
        shifted_fn = translate_function(pkg.f, sector.from_complex(1.5 + 0.5j),
                                        sector)
        shifted = orbit_profile(exp_space, shifted_fn, 25.0, res)
        u1 = density_estimates(
            level_density(base, pkg.delta, "super", sched).profile, 4).upper
        u2 = density_estimates(
            level_density(shifted, pkg.delta, "super", sched).profile, 4).upper
        assert abs(u1 - u2) <= 0.05
