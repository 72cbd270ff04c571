import numpy as np
import pytest

from sectorlab import (DomainError, IndexSet, OracleSet, PolarRect,
                       RectUnionSet, Sector, annuli_density_bound, annuli_union,
                       density_estimates, density_profile, measure_profile,
                       translate_set, RadiusSchedule)

from conftest import ALPHA


def full_span(r_lo, r_hi):
    return PolarRect(r_lo, r_hi, -ALPHA, ALPHA)


class TestDensityProfile:
    def test_full_sector_all_ones(self, sector):
        A = RectUnionSet([full_span(0, 300)])
        prof = density_profile(A, RadiusSchedule(1.0, 1.25, 24), sector)
        assert np.allclose(prof.ratios, 1.0, atol=1e-14)
        assert np.all(prof.errors == 0.0)

    def test_bounded_set_decays_as_closed_form(self, sector):
        A = RectUnionSet([full_span(0, 5)])  # the truncation of radius 5
        radii = RadiusSchedule(1.0, 1.6, 11).radii
        prof = density_profile(A, radii, sector)
        expected = np.minimum(1.0, 25.0 / radii ** 2)
        assert np.allclose(prof.ratios, expected, rtol=1e-13)

    def test_even_annuli_tail_near_half(self, sector):
        K = IndexSet.evens()
        A = annuli_union(K.members_up_to(260), sector)
        radii = np.unique(np.concatenate(
            [np.geomspace(1.0, 250.0, 20), np.arange(1.0, 251.0)]))
        prof = density_profile(A, radii, sector)
        est = density_estimates(prof, window=int((radii >= 100).sum()))
        assert abs(est.upper - 0.5) <= 0.02
        assert abs(est.lower - 0.5) <= 0.02

    def test_measure_zero_set_gives_zeros(self, sector):
        prof = density_profile(RectUnionSet([]), RadiusSchedule(), sector)
        assert np.all(prof.ratios == 0.0)

    def test_empty_schedule_rejected(self, sector):
        with pytest.raises(DomainError):
            density_profile(RectUnionSet([]), np.array([]), sector)

    @pytest.mark.parametrize("radii", [[np.nan], [1.0, np.inf], [2.0, -np.inf]])
    def test_schedule_radius_not_finite_is_refused(self, sector, radii):
        # nan used to give a nan profile, and inf a ratio of 0
        A = annuli_union([0, 2], sector)
        with pytest.raises(DomainError, match="finite"):
            density_profile(A, radii, sector)

    def test_complementation_of_exact_ratios(self, sector):
        # evens and odds partition the sector up to radius 41
        A = annuli_union(IndexSet.evens().members_up_to(40), sector)
        B = annuli_union(IndexSet.arithmetic(1, 2).members_up_to(40), sector)
        radii = np.linspace(1.0, 41.0, 81)
        pa = density_profile(A, radii, sector)
        pb = density_profile(B, radii, sector)
        assert np.allclose(pa.ratios + pb.ratios, 1.0, atol=1e-12)

    def test_oracle_profile_raises_translate_is_exact(self, sector):
        # the translate as a plain membership oracle has no exact measure;
        # translate_set gives the exact type, whose errors are 0
        A = annuli_union(range(0, 30, 2), sector)
        t0 = 1.0 + 0.5j
        shifted = OracleSet(lambda z: A.member(z + t0), "evens - t0")
        radii = np.linspace(5, 25, 5)
        with pytest.raises(DomainError):
            density_profile(shifted, radii, sector)
        exact = density_profile(translate_set(A, t0, sector, "minus"), radii, sector)
        assert np.all(exact.errors == 0.0)
        assert np.all((exact.ratios > 0.0) & (exact.ratios < 1.0))

    def test_rect_spans_are_clipped_to_the_sector(self):
        # a span of [-1, 1] in a sector of half-angle pi/4 counts only
        # its part inside the sector
        A = RectUnionSet([PolarRect(0, 1, -1.0, 1.0)])
        prof = density_profile(A, [1.0, 2.0], Sector(np.pi / 4))
        assert np.allclose(prof.ratios, [1.0, 0.25], rtol=1e-15, atol=0.0)
        # a span inside the sector keeps its floats
        inside = RectUnionSet([PolarRect(0, 1, -0.5, 0.7)])
        got, _ = measure_profile(inside, [0.5, 2.0], Sector(np.pi / 4))
        # (th_hi - th_lo) * (min(r, r_hi)^2 - r_lo^2) / 2
        assert got.tolist() == [(0.7 - -0.5) * (0.5 ** 2 - 0.0 ** 2) / 2.0,
                                (0.7 - -0.5) * (1.0 ** 2 - 0.0 ** 2) / 2.0]


class TestDensityEstimates:
    def test_constant_profile(self, sector):
        A = RectUnionSet([full_span(0, 500)])
        prof = density_profile(A, RadiusSchedule(1.0, 1.3, 12), sector)
        est = density_estimates(prof, 6)
        assert est.upper == est.lower == 1.0
        assert est.trend == "settled"

    def test_bounded_set_upper_bound_formula(self, sector):
        A = RectUnionSet([full_span(0, 5)])
        sched = RadiusSchedule(1.0, 1.26, 21)  # reaches past r=100
        prof = density_profile(A, sched, sector)
        window = 6
        est = density_estimates(prof, window)
        r_min_window = sched.radii[-window]
        assert est.upper <= 25.0 / r_min_window ** 2 + 1e-12
        assert est.lower <= est.upper
        assert est.trend in ("settled", "falling")

    def test_window_validation(self, sector):
        prof = density_profile(RectUnionSet([full_span(0, 2)]),
                               RadiusSchedule(1.0, 1.5, 5), sector)
        for window in (0, -3, 6):
            with pytest.raises(DomainError):
                density_estimates(prof, window)

    def test_trend_flags_unsettled_tail(self, sector):
        A = RectUnionSet([full_span(0, 5)])
        prof = density_profile(A, RadiusSchedule(1.0, 1.5, 8), sector)
        est = density_estimates(prof, 5)
        assert est.trend == "falling"
        assert not est.settled


class TestAnnuliDensityBound:
    def test_full_naturals(self):
        assert annuli_density_bound(IndexSet.all_naturals(), 10) == 1.0

    def test_evens(self):
        assert annuli_density_bound(IndexSet.evens(), 10) == pytest.approx(0.25)

    def test_nonsquares(self):
        # 10 squares in [1, 100]
        got = annuli_density_bound(IndexSet.nonsquares(), 100)
        assert got == pytest.approx(0.81, abs=1e-14)

    def test_plain_iterable_accepted(self):
        assert annuli_density_bound(range(1, 6), 10) == pytest.approx(0.25)

    def test_bad_horizon(self):
        with pytest.raises(DomainError):
            annuli_density_bound(IndexSet.evens(), 0)


class TestTranslationInvariance:
    def test_upper_estimates_track_under_translation(self, sector, rng):
        # light version of the acceptance criterion: one seeded set
        A = annuli_union([k for k in range(100) if rng.uniform() < 0.5] or [0],
                         sector)
        t0 = 2.0 + 1.0j
        radii = np.unique(np.concatenate(
            [np.geomspace(1.0, 100.0, 15), np.arange(1.0, 101.0)]))
        window = int((radii >= 70).sum())
        pa = density_profile(A, radii, sector)
        pt = density_profile(translate_set(A, t0, sector, "minus"), radii, sector)
        ua = density_estimates(pa, window).upper
        ut = density_estimates(pt, window).upper
        assert abs(ua - ut) <= 0.03


class TestCsvExport:
    def test_columns_and_determinism(self, sector):
        A = annuli_union([0, 2], sector)
        prof = density_profile(A, RadiusSchedule(1.0, 1.5, 6), sector)
        text = prof.to_csv()
        assert text.splitlines()[0] == "r,ratio,error"
        assert len(text.splitlines()) == 7
        assert text == density_profile(
            A, RadiusSchedule(1.0, 1.5, 6), sector).to_csv()
