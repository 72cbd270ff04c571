import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from sectorlab import (ConfigError, DomainError, EvaluationError, IndexSet,
                       InvalidWeightError, LpSpace, PolarRect, RectUnionSet,
                       Sector, annuli_union, bump, custom_function,
                       custom_weight, dc_sufficient_series, exp_decay,
                       function_from_spec, indicator, indicator_orbit_norms,
                       linear_combination, lp_norm, orbit_norm, orbit_norms,
                       poly_decay, translate_function, translate_set, vertical_exp)
from sectorlab import quadrature
from sectorlab.geometry import cone_factor

from conftest import ALPHA, random_small_rects


def exp_space(p=2.0):
    return LpSpace(exp_decay(), p, Sector(ALPHA))


def s_space_norm_oracle(t: complex, bands: tuple[float, float], p: float) -> float:
    """Norm of the translated band indicator, derived in s-polar coordinates.

    Along each angle the membership |s+t| in [bands] is solved as explicit
    radial intervals and the radial factor rho*exp(-rho) is integrated in
    closed form; only the angular integral is numerical (scipy ``quad``).
    The library integrates in the same coordinates but shares neither the
    closed-form radial integral nor the adaptive angular rule; the
    u-polar oracles of test_conformance.py share not even the coordinates.
    """
    def radial_intervals(phi):
        d = (t * np.exp(-1j * phi)).real
        tt = abs(t) ** 2

        def disk(R):
            disc = d * d - (tt - R * R)
            if disc <= 0:
                return None
            return (max(-d - math.sqrt(disc), 0.0), max(-d + math.sqrt(disc), 0.0))

        big = disk(bands[1])
        small = disk(bands[0])
        if big is None or big[1] <= 0:
            return []
        segs = [big]
        if small is not None and small[1] > small[0]:
            lo, hi = small
            segs = [(big[0], min(lo, big[1])), (max(hi, big[0]), big[1])]
            segs = [(a, b) for a, b in segs if b > a]
        return segs

    def antideriv(r):  # integral of r e^{-r}
        return -(1.0 + r) * math.exp(-r)

    def angular(phi):
        return sum(antideriv(b) - antideriv(a) for a, b in radial_intervals(phi))

    val, _ = integrate.quad(angular, -ALPHA, ALPHA,
                            epsabs=1e-13, epsrel=1e-13, limit=400)
    return val ** (1.0 / p)


class TestLpNorm:
    @pytest.mark.parametrize("p", [0.5, "2", [2.0], None, True, math.nan])
    def test_exponent_must_be_a_real_number_at_least_one(self, sector, p):
        with pytest.raises(DomainError):
            LpSpace(exp_decay(), p, sector)

    def test_numpy_and_integer_exponents_are_accepted(self, sector):
        for p in (1, np.int64(3), np.float64(2.0)):
            assert LpSpace(exp_decay(), p, sector).p == p

    def test_indicator_ball_closed_form(self, sector):
        # integral of rho e^{-rho} over [0,1] is 1 - 2/e, times the angular span
        space = LpSpace(exp_decay(), 1.0, sector)
        f = indicator(annuli_union([0], sector))
        res = lp_norm(space, f)
        expected = (math.pi / 2) * (1 - 2 / math.e)
        assert res.value == pytest.approx(expected, rel=1e-12)
        assert res.tail == 0.0

    def test_zero_function(self, sector):
        assert lp_norm(exp_space(), indicator(RectUnionSet([]))).value == 0.0

    def test_partition_consistency_with_series_terms(self, sector):
        # norm^p of the K-annuli indicator equals the series partial sum
        space = LpSpace(exp_decay(), 2.0, sector)
        K = IndexSet.all_naturals()
        f = indicator(annuli_union(K.members_up_to(20), sector))
        series = dc_sufficient_series(exp_decay(), K, 20, sector)
        assert lp_norm(space, f).value ** 2 == pytest.approx(
            series.value, rel=1e-12)

    def test_translated_indicator_vs_independent_oracle(self, sector, rng):
        space = exp_space(2.0)
        f = indicator(annuli_union([1, 2], sector))  # bands [1, 3]
        for _ in range(5):
            t = rng.uniform(0, 2.5) * np.exp(1j * rng.uniform(-ALPHA, ALPHA))
            mine = orbit_norm(space, f, sector.from_complex(t))
            oracle = s_space_norm_oracle(complex(t), (1.0, 3.0), 2.0)
            assert mine == pytest.approx(oracle, abs=2e-8)

    def test_truncation_tail_semantics(self, sector):
        space = exp_space()
        f = indicator(annuli_union([0, 1], sector))  # support radius 2
        full = lp_norm(space, f)
        cut = lp_norm(space, f, R=1.0)
        assert full.tail == 0.0
        assert cut.tail is None
        assert cut.value < full.value

    @pytest.mark.parametrize("R", [math.nan, 0.0, -1.0])
    def test_truncation_radius_not_above_zero_is_refused(self, sector, R):
        # nan used to give NormResult(value=0.0, R=nan): every R <= 0 is False
        space, f = exp_space(), indicator(annuli_union([0, 1], sector))
        with pytest.raises(DomainError, match="lp_norm.R"):
            lp_norm(space, f, R=R)
        with pytest.raises(DomainError, match="lp_norm.R"):
            orbit_norms(space, f, [0.5], R=R)

    def test_unbounded_support_needs_truncation(self, sector):
        space = exp_space()
        f = custom_function(lambda z: np.exp(-np.abs(z)))
        with pytest.raises(DomainError):
            lp_norm(space, f)
        assert lp_norm(space, f, R=10.0).tail is None

    def test_nonfinite_weight_inside_the_sector(self):
        # finite on the positive real axis, where the construction spot
        # check looks, but nan for |arg z| > 1.2
        v = custom_weight(lambda z: np.where(np.abs(np.angle(z)) > 1.2, np.nan,
                                             np.exp(-np.abs(z))))
        sector = Sector(1.4)
        with pytest.raises(InvalidWeightError):
            lp_norm(LpSpace(v, 2.0, sector), indicator(annuli_union([0, 1], sector)))

    def test_nonfinite_custom_evaluator(self, sector):
        space = exp_space()
        f = custom_function(lambda z: np.where(np.abs(z) < 1, np.inf, 0.0),
                            support_radius=2.0)
        with pytest.raises(EvaluationError):
            lp_norm(space, f)

    def test_homogeneity(self, sector, rng):
        space = exp_space(1.5)
        fns = [indicator(RectUnionSet(random_small_rects(rng))),
               bump(1 + 0.2j, 0.7),
               linear_combination([(1.0, bump(0.5 + 0j, 0.4)),
                                   (0.5, indicator(annuli_union([1], sector)))])]
        for f in fns:
            base = lp_norm(space, f).value
            scaled = lp_norm(space, f.scaled(-2.5)).value
            assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_triangle_inequality_sampled(self, sector, rng):
        space = exp_space(2.0)
        for _ in range(10):
            f = bump(rng.uniform(0, 2) * np.exp(1j * rng.uniform(-ALPHA, ALPHA)),
                     rng.uniform(0.3, 1.0), rng.uniform(0.5, 2))
            g = indicator(RectUnionSet(random_small_rects(rng)),
                          amplitude=rng.uniform(0.5, 2))
            lhs = lp_norm(space, linear_combination([(1.0, f), (1.0, g)])).value
            rhs = lp_norm(space, f).value + lp_norm(space, g).value
            assert lhs <= rhs + 1e-7


class TestTranslation:
    def test_offsets_add_exactly(self, sector, rng):
        f = indicator(annuli_union([0, 1], sector))
        for _ in range(100):
            a = complex(rng.uniform(0, 3), 0) * np.exp(1j * rng.uniform(-ALPHA, ALPHA))
            b = complex(rng.uniform(0, 3), 0) * np.exp(1j * rng.uniform(-ALPHA, ALPHA))
            two_steps = translate_function(
                translate_function(f, sector.from_complex(a), sector),
                sector.from_complex(b), sector)
            one_step = translate_function(f, sector.from_complex(a + b), sector)
            assert two_steps.offset == one_step.offset  # bitwise, not approx

    def test_identity_translation(self, sector):
        f = bump(1 + 0j, 0.5)
        assert translate_function(f, 0j, sector).offset == f.offset

    def test_step_outside_sector_rejected(self, sector):
        with pytest.raises(DomainError):
            translate_function(bump(1 + 0j, 0.5), 1j, sector)

    @pytest.mark.parametrize("call", [
        lambda s: bump("1+0.2j", 0.5),
        lambda s: bump(True, 0.5),
        lambda s: bump("1+x", 0.5),
        lambda s: translate_set(RectUnionSet([]), "0.5", s),
        lambda s: orbit_norm(LpSpace(exp_decay(), 2.0, s), bump(1 + 0j, 0.5), "0.5"),
        lambda s: translate_function(bump(1 + 0j, 0.5), np.True_, s),
    ], ids=["bump-string", "bump-bool", "bump-malformed-string", "translate_set-string",
            "orbit_norm-string", "translate_function-numpy-bool"])
    def test_point_that_is_not_a_number_is_refused(self, sector, call):
        with pytest.raises(DomainError, match="must be a SectorPoint or a number"):
            call(sector)

    def test_numpy_scalars_are_points(self, sector):
        space = LpSpace(exp_decay(), 2.0, sector)
        f = bump(np.complex128(1 + 0.2j), 0.5)
        assert f.offset == bump(1 + 0.2j, 0.5).offset
        assert orbit_norm(space, f, np.float64(0.5)) == orbit_norm(space, f, 0.5)

    def test_support_escape(self, sector):
        # support in the unit ball, |t| = 2, alpha <= pi/4: the translate
        # vanishes identically on the sector
        space = exp_space()
        f = indicator(annuli_union([0], sector))
        t = sector.from_complex(2.0 * np.exp(0.2j))
        g = translate_function(f, t, sector)
        z = np.linspace(0, 5, 50) * np.exp(1j * np.linspace(-ALPHA, ALPHA, 50))
        assert np.all(g.evaluate(z) == 0.0)
        assert lp_norm(space, g).value == 0.0

    def test_missed_translate_reads_zero_without_the_engine(self, sector, monkeypatch):
        # |s + 10| >= 10 on the sector, so the translate of 1_{1 <= |z| <= 2} vanishes
        calls = []
        engine = quadrature._engine
        monkeypatch.setattr(quadrature, "_engine",
                            lambda *a: calls.append(len(a[3])) or engine(*a))
        space = exp_space()
        f = indicator(RectUnionSet([PolarRect(1.0, 2.0, -ALPHA, ALPHA)]))
        assert orbit_norm(space, f, 10.0) == 0.0
        assert calls == []
        assert orbit_norm(space, f, 0.5) > 0.0 and calls == [1]

    def test_steps_as_arrays_lists_and_points(self, sector):
        space = exp_space()
        f = indicator(annuli_union([0, 1], sector))
        ts = np.array([0.5, 1.0 + 0.2j, 2.0 - 0.3j])
        got = orbit_norms(space, f, ts)
        assert np.array_equal(orbit_norms(space, f, ts.tolist()), got)
        assert np.array_equal(orbit_norms(space, f, [sector.from_complex(t) for t in ts]), got)
        assert np.array_equal(orbit_norms(space, f, np.array([0.5, 1.0, 2.0])),
                              orbit_norms(space, f, [0.5, 1.0, 2.0]))
        with pytest.raises(DomainError):
            orbit_norms(space, f, np.array([0.5, 1j]))
        with pytest.raises(DomainError):
            orbit_norms(space, f, [sector.from_complex(0.5), 1j])

    def test_orbit_norm_at_zero_is_the_norm(self, sector):
        space = exp_space()
        f = indicator(annuli_union([0, 2], sector))
        assert orbit_norm(space, f, 0j) == lp_norm(space, f).value

    def test_vertical_weight_far_upper_point_kills_ball(self, sector):
        space = LpSpace(vertical_exp(), 2.0, sector)
        f = indicator(annuli_union([0], sector))
        t = sector.from_complex(10 * np.exp(1j * (ALPHA - 0.05)))
        assert orbit_norm(space, f, t) == 0.0

    def test_growth_bound_sampled(self, sector, rng):
        space = exp_space(2.0)
        M, w = 1.0, 1.0
        f = indicator(annuli_union([0, 1], sector))
        base = lp_norm(space, f).value
        for _ in range(50):
            t = rng.uniform(0, 4) * np.exp(1j * rng.uniform(-ALPHA, ALPHA))
            assert orbit_norm(space, f, sector.from_complex(t)) <= \
                (M * math.exp(w * abs(t))) ** 0.5 * base + 1e-9


class TestCombinations:
    def test_symbolic_cancellation(self, sector):
        space = exp_space()
        g = bump(1 + 0j, 0.5)
        f = indicator(annuli_union([1], sector))
        total = linear_combination([(1.0, g), (1.0, f)])
        diff = linear_combination([(1.0, total), (-1.0, g)])
        assert diff.kind == "indicator"
        assert lp_norm(space, diff).value == lp_norm(space, f).value

    def test_self_difference_is_zero(self, sector):
        f = bump(0.8 + 0.1j, 0.4)
        d = linear_combination([(1.0, f), (-1.0, f)])
        assert d.is_zero

    def test_batch_matches_single_calls(self, sector, rng):
        space = exp_space(2.0)
        f = indicator(annuli_union([0, 1, 2], sector))
        ts = rng.uniform(0, 3, 6) * np.exp(1j * rng.uniform(-ALPHA, ALPHA, 6))
        batch = indicator_orbit_norms(space, f, ts)
        singles = np.array([orbit_norm(space, f, sector.from_complex(t)) for t in ts])
        assert np.allclose(batch, singles, rtol=1e-12, atol=0.0)
        # every other kind, through orbit_norms
        space = LpSpace(poly_decay(), 3.0, sector)
        a = indicator(annuli_union([0, 2], sector))
        kinds = [bump(1 + 0.3j, 0.6),
                 linear_combination([(1.0, a), (-0.5, bump(1 + 0.3j, 0.6))]),
                 # indicators at two offsets: constant levels, no level pieces
                 linear_combination([(1.0, a), (-1.0, translate_function(a, 0.5, sector))])]
        ts = np.r_[0.0, ts]
        for f in kinds:
            singles = np.array([orbit_norm(space, f, t) for t in ts])
            assert np.allclose(orbit_norms(space, f, ts), singles, rtol=1e-12, atol=0.0)

    def test_an_empty_batch_reads_no_norms(self, sector):
        # the level-piece path (an indicator, at 0 and at an offset) and the
        # general one (a bump) alike
        space = exp_space(2.0)
        a = indicator(annuli_union([1, 2], sector))
        for f in (a, translate_function(a, 0.5, sector), bump(1 + 0.3j, 0.6)):
            got = orbit_norms(space, f, [])
            assert got.shape == (0,) and got.dtype == float
        assert indicator_orbit_norms(space, a, []).shape == (0,)

    def test_batch_rejects_steps_outside_the_sector(self, sector):
        space = exp_space(2.0)
        f = indicator(annuli_union([1, 2], sector))
        for batch in (indicator_orbit_norms, orbit_norms):
            with pytest.raises(DomainError):
                batch(space, f, [1.0, -3.0])
        with pytest.raises(DomainError):
            orbit_norm(space, f, -3.0)

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_unit_difference_is_the_symmetric_difference(self, p):
        # 1_A - 1_B is cut into level pieces: those of A xor B, exactly
        alpha = 0.6
        sector = Sector(alpha)
        space = LpSpace(exp_decay(), p, sector)
        A = RectUnionSet([PolarRect(0.0, 2.0, -alpha, alpha)])
        B = RectUnionSet([PolarRect(1.0, 3.0, -alpha / 2, alpha / 2)])
        xor = indicator(RectUnionSet([
            PolarRect(0.0, 1.0, -alpha, alpha), PolarRect(1.0, 2.0, -alpha, -alpha / 2),
            PolarRect(1.0, 2.0, alpha / 2, alpha), PolarRect(2.0, 3.0, -alpha / 2, alpha / 2)]))
        ts = [0.0, 0.7 * np.exp(0.3j), 2.5 * np.exp(-0.5j)]
        expected = orbit_norms(space, xor, ts)
        for pair in ((indicator(A), indicator(B)), (indicator(B), indicator(A))):
            diff = linear_combination([(1.0, pair[0]), (-1.0, pair[1])])
            assert lp_norm(space, diff).value == lp_norm(space, xor).value
            assert np.array_equal(orbit_norms(space, diff, ts), expected)

    def test_level_pieces_carry_their_levels(self, sector):
        # 2 * 1_A - 1_B takes the values 2, 1 and -1: against the
        # indicators of the three level sets
        space = exp_space(3.0)
        A, B = annuli_union([0, 1], sector), annuli_union([1, 2], sector)
        f = linear_combination([(2.0, indicator(A)), (-1.0, indicator(B))])
        parts = [lp_norm(space, indicator(annuli_union([k], sector))).value ** 3
                 for k in range(3)]
        assert lp_norm(space, f).value ** 3 == pytest.approx(
            8 * parts[0] + parts[1] + parts[2], rel=1e-13)

    @given(st.floats(0.1, 2.0), st.floats(-0.6, 0.6))
    @settings(max_examples=30, deadline=None)
    def test_bump_norm_positive_inside(self, r, th):
        sector = Sector(ALPHA)
        space = LpSpace(exp_decay(), 2.0, sector)
        f = bump(r * np.exp(1j * th * ALPHA / 0.8), 0.3, 1.0)
        assert lp_norm(space, f).value > 0


class TestCanonicalForm:
    def test_amplitude_is_a_coefficient(self, sector):
        A = annuli_union([1, 3], sector)
        assert indicator(A, 2.0) == linear_combination([(2.0, indicator(A))])
        assert bump(1 + 0.2j, 0.5, 2.0) == linear_combination([(2.0, bump(1 + 0.2j, 0.5))])
        assert indicator(A, 2.0).kind == "indicator" and bump(1, 0.5, 2.0).kind == "bump"

    def test_zero_amplitude_and_empty_set_are_zero(self):
        assert bump(1 + 0.2j, 0.5, 0.0).is_zero
        assert indicator(RectUnionSet()).is_zero
        assert indicator(RectUnionSet()).kind == "indicator"

    def test_one_term_combination_is_its_term(self, sector):
        fns = [indicator(annuli_union([1], sector)), bump(1 + 0.2j, 0.5),
               custom_function(np.abs, support_radius=2.0)]
        for f in fns:
            assert linear_combination([(1.0, f)]) == f
            assert linear_combination([(1.0, f)]).kind == f.kind

    def test_sum_minus_term_is_the_other_term(self, sector):
        g = indicator(annuli_union([0, 2], sector), 0.7)
        f = translate_function(bump(1 + 0.2j, 0.5, 1.3), 0.4 + 0.1j, sector)
        total = linear_combination([(1.0, g), (1.0, f)])
        assert linear_combination([(1.0, total), (-1.0, g)]) == f

    def test_translate_distributes_over_terms(self, sector, rng):
        for _ in range(20):
            fs = [indicator(RectUnionSet(random_small_rects(rng))),
                  bump(rng.uniform(0.5, 2) * np.exp(1j * rng.uniform(-ALPHA, ALPHA)),
                       rng.uniform(0.2, 1.0), rng.uniform(0.5, 2))]
            cs = rng.uniform(-2, 2, 2)
            t = rng.uniform(0, 3) * np.exp(1j * rng.uniform(-ALPHA, ALPHA))
            moved = translate_function(linear_combination(list(zip(cs, fs))), t, sector)
            want = linear_combination([(c, translate_function(f, t, sector))
                                       for c, f in zip(cs, fs)])
            assert moved == want
            # bit for bit, the signs of zeros included
            assert [(repr(c), repr(t)) for c, _, t in moved.terms] == \
                [(repr(c), repr(t)) for c, _, t in want.terms]


class TestSupportBounds:
    def test_narrow_sector_bound_covers_the_support(self, rng):
        # a cone cap of support 3: below alpha = pi/4 the bound is 3 itself,
        # above it 3 / sin(2 alpha)
        f = custom_function(lambda z: np.maximum(0.0, 1.0 - np.abs(z - 2.0)) ** 2,
                            support_radius=3.0)
        for alpha in (0.3, 1.4):
            bound = f.support_radius(alpha)
            assert bound >= 3.0
            sector = Sector(alpha)
            s = rng.uniform(bound, 2 * bound, 200) * np.exp(1j * rng.uniform(-alpha, alpha, 200))
            ts = rng.uniform(0, 3, 5) * np.exp(1j * rng.uniform(-alpha, alpha, 5))
            for t in ts:
                assert np.all(translate_function(f, t, sector).evaluate(s) == 0.0)
        # the worst pair at alpha = 1.4: s on one edge just beyond the bound,
        # t on the other with |t| = -|s| cos(2 alpha), so |s + t| = |s| sin(2 alpha)
        s = bound * (1 + 1e-9) * np.exp(-1j * alpha)
        t = -abs(s) * math.cos(2 * alpha) * np.exp(1j * alpha)
        assert 3.0 < abs(s + t) < 3.0 * (1 + 1e-6)
        assert translate_function(f, t, sector).evaluate(s) == 0.0

    def test_combination_divides_by_the_cone_factor_once(self):
        # two bumps; the larger base support is 2.4 + 1.0 = 3.4
        g = linear_combination([(1.0, bump(2.4 + 0j, 1.0)), (-0.5, bump(1.5 + 1.0j, 1.0))])
        assert 3.4 <= g.support_radius(1.4) <= 3.4 / cone_factor(1.4) * (1 + 1e-12)


class TestCustomSupportDisc:
    """A custom function's support is the disc |z| <= radius about 0, a
    piece of the ray engine like a bump's disc ([0, inf] without a radius,
    clipped by R)."""

    @pytest.mark.parametrize("radius", [-1.0, 0.0, math.nan, True, "2"])
    def test_radius_must_be_none_or_a_positive_real(self, radius):
        with pytest.raises(DomainError):
            custom_function(np.abs, support_radius=radius)
        with pytest.raises(DomainError):  # and a bump's disc the same
            bump(1.0 + 0j, radius)

    def test_steps_whose_disc_misses_the_sector_read_zero_unevaluated(self, sector):
        calls = []

        def cap(z):
            calls.append(z.size)
            return np.maximum(0.0, 1.0 - np.abs(z)) ** 2

        f = custom_function(cap, support_radius=1.0)
        # at alpha = pi/4, |s + t| >= |t| on the sector: the disc |s + t| <= 1
        # misses it for |t| > 1
        dead = np.array([1.5, 2.0 * np.exp(0.5j), 3.0 * np.exp(-0.7j)])
        norms = orbit_norms(exp_space(), f, dead)
        assert np.all(norms == 0.0) and calls == []
        norms = orbit_norms(exp_space(), f, np.r_[dead, 0.5])
        assert np.all(norms[:3] == 0.0) and norms[3] > 0.0 and calls

    @pytest.mark.parametrize("t", [0.0, 1.0 + 0.5j])
    def test_unbounded_support_reads_the_truncated_disc(self, sector, t):
        # 1 everywhere, truncated at R: the norm of the indicator of |s| <= R
        space = exp_space(1.0)
        ones = custom_function(lambda z: np.ones(z.shape))
        disc = indicator(RectUnionSet([PolarRect(0.0, 3.0, -ALPHA, ALPHA)]))
        assert orbit_norm(space, ones, t, R=3.0) == pytest.approx(
            lp_norm(space, disc).value, rel=1e-12)


class TestFunctionSpecs:
    def test_indicator_round_trip(self, sector):
        spec = {"kind": "indicator",
                "params": {"rects": [{"r_lo": 0.0, "r_hi": 1.0,
                                      "th_lo": -ALPHA, "th_hi": ALPHA}]},
                "offset": [0.5, 0.1]}
        f = function_from_spec(spec)
        assert f.kind == "indicator"
        assert f.offset == 0.5 + 0.1j

    def test_nested_combination(self):
        spec = {"kind": "linear-combination",
                "params": {"terms": [
                    {"coef": 2.0, "fn": {"kind": "bump",
                                         "params": {"center": [1.0, 0.0],
                                                    "radius": 0.5}}},
                ]}}
        f = function_from_spec(spec)
        assert f == bump(1.0, 0.5, 2.0)

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            function_from_spec({"kind": "wavelet", "params": {}})

    BUMP = {"center": [1.0, 0.0], "radius": 0.5}
    RECT = {"r_lo": 0.0, "r_hi": 1.0, "th_lo": -ALPHA, "th_hi": ALPHA}

    # each raised a bare TypeError, ValueError or KeyError before the
    # schema's `function` rule was checked
    @pytest.mark.parametrize("spec, where", [
        ({"kind": "bump", "params": {**BUMP, "radius": "0.5"}}, "function.params.radius"),
        ({"kind": "bump", "params": BUMP, "offset": ["a", 0]}, "function.offset[0]"),
        ({"kind": "linear-combination", "params": {"terms": [
            {"coef": "x", "fn": {"kind": "bump", "params": BUMP}}]}},
         "function.params.terms[0].coef"),
        ({"kind": "bump", "params": {"center": [1.0, 0.0]}}, "radius"),
        ({"kind": "indicator", "params": {"rects": [
            {k: v for k, v in RECT.items() if k != "r_hi"}]}}, "function.params.rects[0]"),
    ])
    def test_malformed_spec_is_config_error(self, spec, where):
        with pytest.raises(ConfigError, match=re.escape(where)):
            function_from_spec(spec)
