import json
import math

import numpy as np
import pytest

from sectorlab import (DomainError, GridConfig, OracleSet, PolarRect,
                       RectUnionSet, Sector, annuli_union, measure_in_truncation,
                       measure_profile, normalize, translate_set,
                       truncated_measure)

from conftest import (ALPHA, inclusion_exclusion_measure,
                      midpoint_measure_oracle, random_small_rects)


def full_span(r_lo, r_hi):
    return PolarRect(r_lo, r_hi, -ALPHA, ALPHA)


class TestNormalize:
    def test_overlapping_full_span_merge(self):
        u = RectUnionSet([full_span(0, 2), full_span(1, 3)])
        assert u.rects == (full_span(0, 3),)
        oracle = inclusion_exclusion_measure([full_span(0, 2), full_span(1, 3)])
        assert u.measure == pytest.approx(oracle, rel=1e-12)

    def test_empty(self):
        assert RectUnionSet([]).rects == ()
        assert RectUnionSet([]).measure == 0.0

    def test_disjoint_unchanged(self):
        rects = [full_span(0, 1), full_span(2, 3)]
        assert RectUnionSet(rects).rects == tuple(rects)

    def test_idempotent(self, rng):
        for _ in range(20):
            u = RectUnionSet(random_small_rects(rng, n_max=5))
            assert normalize(u).rects == u.rects

    def test_measure_preserving_random(self, rng):
        for _ in range(30):
            rects = random_small_rects(rng, n_max=5)
            u = RectUnionSet(rects)
            assert u.measure == pytest.approx(
                inclusion_exclusion_measure(rects), rel=1e-12)

    def test_partial_angular_overlap_stays_exact(self):
        a = PolarRect(0, 1, -ALPHA, 0.0)
        b = PolarRect(0, 1, -ALPHA / 2, ALPHA)
        u = RectUnionSet([a, b])
        assert u.measure == pytest.approx(inclusion_exclusion_measure([a, b]), rel=1e-14)
        # fragments with identical radial structure merge back to one rect
        assert u.rects == (PolarRect(0, 1, -ALPHA, ALPHA),)


class TestMembership:
    def test_vs_naive_loop(self, rng):
        for _ in range(10):
            rects = random_small_rects(rng, n_max=5)
            u = RectUnionSet(rects)
            z = rng.uniform(0, 5, 500) * np.exp(1j * rng.uniform(-ALPHA, ALPHA, 500))
            naive = np.zeros(len(z), dtype=bool)
            for t in rects:  # raw rects, not the normalized form
                r, th = np.abs(z), np.angle(z)
                naive |= ((r >= t.r_lo) & (r <= t.r_hi)
                          & (th >= t.th_lo) & (th <= t.th_hi))
            assert np.array_equal(u.member(z), naive)

    def test_boundaries_inclusive(self):
        u = RectUnionSet([full_span(1, 2)])
        assert u.contains_point(1.0 + 0j)
        assert u.contains_point(2.0 + 0j)
        assert not u.contains_point(2.0000001 + 0j)


class TestMeasureInTruncation:
    def test_annulus_clip_closed_form(self, sector):
        A = RectUnionSet([full_span(1, 2)])
        got = measure_in_truncation(A, 1.5, sector)
        assert got == pytest.approx((math.pi / 4) * 1.25, rel=1e-14)
        oracle = midpoint_measure_oracle(
            lambda z: (np.abs(z) >= 1) & (np.abs(z) <= 2) & (np.abs(z) < 1.5), 1.6)
        assert got == pytest.approx(oracle, rel=1e-5)

    def test_empty_set(self, sector):
        assert measure_in_truncation(RectUnionSet([]), 3.0, sector) == 0.0

    def test_full_sector_oracle_grid(self, sector):
        oracle = OracleSet(lambda z: np.ones(z.shape, dtype=bool), "full sector")
        got = measure_in_truncation(oracle, 2.0, sector)
        assert got == pytest.approx(truncated_measure(sector, 2.0), rel=1e-12)

    def test_monotone_in_radius_and_inclusion(self, rng, sector):
        small = RectUnionSet(random_small_rects(rng))
        big = RectUnionSet(list(small.rects) + [full_span(0, 5)])
        prev_s = prev_b = 0.0
        for r in np.linspace(0.5, 6, 12):
            ms = measure_in_truncation(small, r, sector)
            mb = measure_in_truncation(big, r, sector)
            assert ms >= prev_s and mb >= prev_b
            assert mb >= ms
            prev_s, prev_b = ms, mb

    @pytest.mark.parametrize("bad", [dict(n_r=0), dict(n_r=2.5), dict(n_theta=-3),
                                     dict(n_theta=0), dict(theta_step=0.0),
                                     dict(theta_step=-0.01), dict(theta_step="0.01")])
    def test_bad_grid_config_rejected(self, bad):
        with pytest.raises(DomainError):
            GridConfig(**bad)

    def test_bad_radius(self, sector):
        with pytest.raises(DomainError):
            measure_in_truncation(RectUnionSet([]), 0.0, sector)


class TestTranslateSet:
    def test_minus_pointwise(self, sector):
        A = RectUnionSet([full_span(2, 3)])
        shifted = translate_set(A, 1.0 + 0j, sector, "minus")
        assert bool(shifted.member(np.array([1.5 + 0j]))[0])  # 2.5 is in A
        assert not bool(shifted.member(np.array([2.5 + 0j]))[0])  # 3.5 is not

    def test_plus_then_minus_roundtrip(self, sector, rng):
        A = RectUnionSet(random_small_rects(rng))
        t0 = 0.8 + 0.2j
        back = translate_set(translate_set(A, t0, sector, "plus"), t0, sector, "minus")
        z = rng.uniform(0, 5, 400) * np.exp(1j * rng.uniform(-ALPHA, ALPHA, 400))
        assert np.array_equal(back.member(z), A.member(z))

    def test_offset_outside_sector_rejected(self, sector):
        with pytest.raises(DomainError):
            translate_set(RectUnionSet([]), 1j, sector, "minus")

    def test_measured_in_its_own_sector_only(self, sector):
        shifted = translate_set(RectUnionSet([full_span(0, 2)]), 0.5, sector, "minus")
        with pytest.raises(DomainError):
            measure_profile(shifted, [1.0], Sector(0.3))

    def test_bad_direction(self, sector):
        with pytest.raises(DomainError):
            translate_set(RectUnionSet([]), 1.0, sector, "sideways")

    def test_translation_sandwich(self, sector, rng):
        # mu(A ∩ D_{r+r0}) - mu(D_{r+r0}) + mu(D_r) <= mu((A-t0) ∩ D_r)
        #                                           <= mu(A ∩ D_{r+r0})
        cfg = GridConfig(n_r=400, n_theta=512)
        for _ in range(5):
            A = RectUnionSet([full_span(k, k + 1)
                              for k in range(20) if rng.uniform() < 0.5]
                             or [full_span(0, 1)])
            r0 = rng.uniform(0.3, 2.0)
            t0 = r0 * np.exp(1j * rng.uniform(-ALPHA, ALPHA))
            shifted = translate_set(A, t0, sector, "minus")
            radii = np.linspace(2.0, 18.0, 9)
            est, _ = measure_profile(shifted, radii, sector, cfg)
            for r, m in zip(radii, est):
                mu_r = truncated_measure(sector, r)
                mu_rr = truncated_measure(sector, r + r0)
                upper = A.clipped_measure(r + r0)
                lower = upper - mu_rr + mu_r
                assert m >= lower - 1e-3 * mu_r
                assert m <= upper + 1e-3 * mu_r


class TestAnnuliUnion:
    def test_single(self, sector):
        u = annuli_union([0], sector)
        assert len(u.rects) == 1
        assert u.measure == pytest.approx(math.pi / 4, rel=1e-15)

    def test_adjacent_merge(self, sector):
        u = annuli_union([1, 2], sector)
        assert u.rects == (full_span(1, 3),)
        # mu(D_3) - mu(D_1) = 9*alpha - alpha = 2*pi at alpha = pi/4
        assert u.measure == pytest.approx(2 * math.pi, rel=1e-15)

    def test_empty(self, sector):
        assert annuli_union([], sector).is_empty

    def test_negative_rejected(self, sector):
        with pytest.raises(DomainError):
            annuli_union([-1], sector)


class TestJsonRoundTrip:
    def test_round_trip(self, rng):
        u = RectUnionSet(random_small_rects(rng))
        again = RectUnionSet.from_json(u.to_json())
        assert again == u

    def test_shape_of_payload(self):
        u = RectUnionSet([full_span(0, 1)])
        payload = json.loads(u.to_json())
        assert payload == [{"r_lo": 0.0, "r_hi": 1.0,
                            "th_lo": -ALPHA, "th_hi": ALPHA}]
