import json
import math

import numpy as np
import pytest

from sectorlab import sets
from sectorlab import (DomainError, OracleSet, PolarRect,
                       RectUnionSet, Sector, TranslatedRectUnion, annuli_union,
                       measure_in_truncation, measure_profile, normalize,
                       translate_set, truncated_measure)

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

    def test_oracle_set_has_no_measure(self, sector):
        oracle = OracleSet(lambda z: np.ones(z.shape, dtype=bool), "full sector")
        with pytest.raises(DomainError):
            measure_in_truncation(oracle, 2.0, sector)
        with pytest.raises(DomainError):
            measure_profile(oracle, [1.0, 2.0], sector)
        full = RectUnionSet([full_span(0, 3)])
        assert measure_in_truncation(full, 2.0, sector) == pytest.approx(
            truncated_measure(sector, 2.0), rel=1e-15)

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

    @pytest.mark.parametrize("direction", ["minus", "plus"])
    def test_same_direction_translates_compose(self, sector, rng, direction):
        A = RectUnionSet(random_small_rects(rng))
        t0, t1 = 0.8 + 0.2j, 0.5 - 0.3j
        twice = translate_set(translate_set(A, t0, sector, direction), t1, sector,
                              direction)
        assert twice == translate_set(A, t0 + t1, sector, direction)
        z = rng.uniform(0, 5, 400) * np.exp(1j * rng.uniform(-ALPHA, ALPHA, 400))
        inner = translate_set(A, t0, sector, direction).member
        if direction == "minus":
            composed = inner(z + t1)
        else:
            composed = sector.membership_mask(z - t1) & inner(z - t1)
        assert np.array_equal(twice.member(z), composed)
        mixed = translate_set(translate_set(A, t0, sector, "plus"), t1, sector, "minus")
        with pytest.raises(DomainError):
            measure_profile(mixed, [1.0], sector)

    def test_offset_outside_sector_rejected(self, sector):
        with pytest.raises(DomainError):
            translate_set(RectUnionSet([]), 1j, sector, "minus")

    @pytest.mark.parametrize("t0", [-1.0, 1j])
    def test_a_direct_translate_outside_the_sector_is_refused(self, sector, t0):
        # its measure window rests on t0 lying in the sector
        with pytest.raises(DomainError, match="TranslatedRectUnion.t0"):
            TranslatedRectUnion(annuli_union([0, 1], sector), t0, "minus", sector)

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
        for _ in range(5):
            A = RectUnionSet([full_span(k, k + 1)
                              for k in range(20) if rng.uniform() < 0.5]
                             or [full_span(0, 1)])
            r0 = rng.uniform(0.3, 2.0)
            t0 = r0 * np.exp(1j * rng.uniform(-ALPHA, ALPHA))
            shifted = translate_set(A, t0, sector, "minus")
            radii = np.linspace(2.0, 18.0, 9)
            est, _ = measure_profile(shifted, radii, sector)
            for r, m in zip(radii, est):
                mu_r = truncated_measure(sector, r)
                mu_rr = truncated_measure(sector, r + r0)
                upper = measure_in_truncation(A, r + r0, sector)
                lower = upper - mu_rr + mu_r
                assert m >= lower - 1e-3 * mu_r
                assert m <= upper + 1e-3 * mu_r


def _calls(monkeypatch, name):
    """The arguments of each call of `sets.<name>`, in call order."""
    calls, fn = [], getattr(sets, name)

    def counted(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(sets, name, counted)
    return calls


class TestTranslatedProfile:
    # |t0| = 1.118 at alpha = pi/4, where the cone bound reads 1: a "minus"
    # pair is cut on (r_lo - |t0|, r_hi), a "plus" pair on
    # (r_lo - |t0|, r_hi + |t0|)
    @pytest.mark.parametrize("direction, cut", [("minus", 3), ("plus", 5)])
    def test_a_profile_takes_one_area_pass(self, sector, monkeypatch, direction, cut):
        A = annuli_union([1, 4], sector)
        calls = _calls(monkeypatch, "_annular_sector_areas")
        measure_profile(translate_set(A, 1.0 + 0.5j, sector, direction),
                        [0.5, 1.5, 2.5, 4.5, 6.0], sector)
        # one row per rectangle for its in-wedge area, then the cut pairs
        assert [len(r) for *_, r, _ in calls] == [2 + cut]

    @pytest.mark.parametrize("direction, rect, edges", [
        ("minus", full_span(1, 3), 0), ("plus", full_span(1, 3), 2),
        ("minus", PolarRect(1, 3, -0.3, 0.4), 2)])
    def test_edges_beyond_a_sector_edge_line_are_skipped(self, sector, monkeypatch,
                                                          direction, rect, edges):
        # the edges of a full-span "minus" translate lie outside the sector
        calls = _calls(monkeypatch, "_cut_sum")
        measure_profile(translate_set(RectUnionSet([rect]), 1.0 + 0.5j, sector, direction),
                        [2.0], sector)
        assert len(calls) == 3 + edges  # two arcs of the rectangle and one of |s| = r


class TestAnnuliUnion:
    def test_one_rect_per_run(self, sector):
        K = [9, 0, 1, 2, 5, 6, 2]
        u = annuli_union(K, sector)
        assert u.rects == (full_span(0, 3), full_span(5, 7), full_span(9, 10))
        assert u == RectUnionSet(full_span(k, k + 1) for k in K)
        assert len(annuli_union(range(171), sector).rects) == 1

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
        with pytest.raises(DomainError, match="got -2"):
            annuli_union([3, -1, -2], sector)

    @pytest.mark.parametrize("K", [[0, math.nan], [math.nan], [0, math.inf],
                                   [1, -math.inf]])
    def test_an_index_that_is_not_finite_is_rejected(self, sector, K):
        with pytest.raises(DomainError):
            annuli_union(K, sector)


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
