import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy import integrate

from sectorlab import (Certificate, ConfigError, DomainError,
                       InvalidWeightError, LpSpace, MissingCertificateError,
                       PairSampling, PolarRect, Sector, admissibility_check,
                       annuli_union, bump, compact_lower_bound, constant_weight, custom_weight,
                       exp_decay, grid_minimum, indicator, lp_norm, poly_decay,
                       vertical_exp, weight_from_spec, weight_integral,
                       weight_rect_integral, weight_to_spec)

from sectorlab.weights import _PHI2, _exp_ray, _radial_density

from conftest import ALPHA


class TestAdmissibility:
    def test_exp_decay_certificate_holds(self, sector, rng):
        report = admissibility_check(exp_decay(), 1.0, 1.0, sector)
        assert report.ok
        # brute-force oracle on fresh pairs: the inequality reduces to the
        # triangle inequality |t+t'| <= |t| + |t'|
        t = rng.uniform(0, 30, 10_000) * np.exp(1j * rng.uniform(-ALPHA, ALPHA, 10_000))
        tp = rng.uniform(0, 30, 10_000) * np.exp(1j * rng.uniform(-ALPHA, ALPHA, 10_000))
        lhs = np.exp(-np.abs(t))
        rhs = np.exp(np.abs(tp)) * np.exp(-np.abs(t + tp))
        assert np.all(lhs <= rhs * (1 + 1e-12))

    def test_vertical_exp_certificate_holds(self, sector, rng):
        report = admissibility_check(vertical_exp(), 1.0, 2.0, sector)
        assert report.ok
        t = rng.uniform(0, 20, 10_000) * np.exp(1j * rng.uniform(-ALPHA, ALPHA, 10_000))
        tp = rng.uniform(0, 20, 10_000) * np.exp(1j * rng.uniform(-ALPHA, ALPHA, 10_000))
        lhs = np.exp(2 * t.imag)
        rhs = np.exp(2 * np.abs(tp)) * np.exp(2 * (t + tp).imag)
        assert np.all(lhs <= rhs * (1 + 1e-12))

    def test_wrong_certificate_detected(self, sector):
        # (M, w) = (1, 0) fails at t=0, t'=1: v(0)=1 > v(1)=1/e
        report = admissibility_check(exp_decay(), 1.0, 0.0, sector)
        assert not report.ok
        assert report.worst_ratio == pytest.approx(math.e ** 32, rel=1e-6)
        t, tp, ratio = report.violations[0]
        assert ratio > 1

    def test_m_below_one_rejected(self, sector):
        with pytest.raises(DomainError):
            admissibility_check(exp_decay(), 0.5, 1.0, sector)

    def test_invalid_weight_caught_at_construction(self):
        with pytest.raises(InvalidWeightError):
            custom_weight(lambda z: np.abs(z) - 1.0)  # non-positive at origin
        with pytest.raises(InvalidWeightError):
            custom_weight(lambda z: 2.0 - np.abs(z))  # non-positive further out

    def test_weight_of_a_narrow_sector_is_accepted(self):
        # positive only for |arg z| < 0.6, so a weight for alpha = 0.5
        v = custom_weight(lambda z: np.exp(-np.abs(z)) * (0.6 - np.abs(np.angle(z))))
        sector = Sector(0.5)
        norm = lp_norm(LpSpace(v, 2.0, sector), indicator(annuli_union([0, 1], sector)))
        assert math.isfinite(norm.value) and norm.value > 0

    def test_report_counts_pairs(self, sector):
        report = admissibility_check(
            exp_decay(), 1.0, 1.0, sector,
            PairSampling(n_random=100, grid_radii=(0.0, 1.0), grid_angles=3))
        assert report.n_pairs == 36 + 100

    @pytest.mark.parametrize("name, value", [
        ("grid_radii", (0.0, -1.0)), ("grid_radii", (0.0, math.inf)), ("grid_radii", ()),
        ("grid_radii", 4.0), ("grid_radii", (0.0, "1")),
        ("grid_angles", 0), ("grid_angles", 3.0), ("n_random", -1), ("n_random", True),
        ("r_max", 0.0), ("r_max", math.nan), ("r_max", "32"), ("seed", -1), ("seed", 1.5)])
    def test_sampling_plan_out_of_range_is_refused(self, name, value):
        with pytest.raises(DomainError, match=name):
            PairSampling(**{name: value})

    def test_smallest_sampling_plan_checks(self, sector):
        for plan, n in ((dict(grid_radii=[0.0], grid_angles=1, n_random=0, seed=0), 1),
                        (dict(grid_radii=(np.float64(1.0),), grid_angles=np.int64(2),
                              n_random=np.int64(3), r_max=1, seed=np.int64(7)), 4 + 3)):
            report = admissibility_check(exp_decay(), 1.0, 1.0, sector, PairSampling(**plan))
            assert report.ok and report.n_pairs == n


class TestWeightIntegral:
    def test_exp_decay_matches_closed_form(self, sector):
        est = weight_integral(exp_decay(), 60.0, sector, tail="exp")
        assert est.verdict == "convergent-trend"
        assert est.total == pytest.approx(math.pi / 2, rel=1e-6)

    def test_poly_decay_matches_closed_form(self, sector):
        est = weight_integral(poly_decay(), 60.0, sector, tail="power")
        assert est.verdict == "convergent-trend"
        assert est.total == pytest.approx(math.pi ** 2 / 8, rel=1e-6)

    def test_vertical_exp_divergent_trend(self, sector):
        est = weight_integral(vertical_exp(), 40.0, sector)
        assert est.verdict == "divergent-trend"
        assert est.tail is None

    def test_monotone_in_radius(self, sector):
        vals = [weight_integral(poly_decay(), R, sector).value
                for R in (5.0, 10.0, 20.0, 40.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("alpha", [0.3, ALPHA, 1.4])
    def test_radial_density_of_a_non_radial_weight_matches_quad(self, alpha):
        # the K21 phi rule of the engine's general rows against quad in theta
        sector = Sector(alpha)
        for v in (vertical_exp(), custom_weight(
                lambda z: np.exp(-np.abs(z)) * (2.0 + np.cos(3.0 * np.angle(z))))):
            for rho in (0.5, 3.0, 12.0, 40.0):
                ref = rho * integrate.quad(lambda th: v.eval(rho * np.exp(1j * th)), -alpha, alpha,
                                           epsabs=0.0, epsrel=1e-13, limit=200)[0]
                assert _radial_density(v, rho, sector) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_tail_bounds_remainder_under_doubling(self, sector):
        for v, model in ((exp_decay(), "exp"), (poly_decay(), "power")):
            near = weight_integral(v, 30.0, sector, tail=model)
            far = weight_integral(v, 60.0, sector, tail=model)
            remainder = far.value - near.value
            assert remainder <= near.tail * (1 + 1e-6)
            assert near.tail <= remainder * 1.5  # and not wildly loose

    def test_bad_radius(self, sector):
        for R in (0.0, math.nan):
            with pytest.raises(DomainError, match="weight_integral.R"):
                weight_integral(exp_decay(), R, sector)

    def test_unknown_tail_model_raises_on_every_verdict(self, sector):
        # convergent at R > 1, R <= 1 (no tail fitted) and divergent
        for v, R in ((exp_decay(), 60.0), (exp_decay(), 0.5), (vertical_exp(), 30.0)):
            with pytest.raises(DomainError, match="weight_integral.tail"):
                weight_integral(v, R, sector, tail="bogus")


class TestRectIntegralDomain:
    WEIGHTS = (exp_decay, poly_decay, vertical_exp, constant_weight,
               lambda: custom_weight(lambda z: np.exp(-np.abs(z)) * (2.0 + np.sin(z.imag))))

    def test_span_outside_the_sector_raises_on_every_path(self):
        # radial closed form, engine with a primitive, engine without one
        sector = Sector(0.3)
        for make in self.WEIGHTS:
            for rect in (PolarRect(1.0, 2.0, -1.0, 0.5), PolarRect(1.0, 2.0, 0.0, 0.3 + 1e-9)):
                with pytest.raises(DomainError, match="leaves the sector"):
                    weight_rect_integral(make(), rect, sector)

    def test_span_within_the_slack_is_accepted(self):
        sector = Sector(0.3)
        full = PolarRect(1.0, 2.0, -0.3, 0.3)
        near = PolarRect(1.0, 2.0, -0.3 - 1e-13, 0.3 + 1e-13)
        for make in self.WEIGHTS:
            v = make()
            assert weight_rect_integral(v, near, sector) == pytest.approx(
                weight_rect_integral(v, full, sector), rel=1e-11)


class TestCompactLowerBound:
    def test_exp_decay_analytic_equals_grid(self, sector):
        bound = compact_lower_bound(exp_decay(), 2.0, sector)
        assert bound.analytic == pytest.approx(math.exp(-2), rel=1e-14)
        assert bound.grid_min == pytest.approx(math.exp(-2), rel=1e-12)

    def test_constant_weight(self, sector):
        bound = compact_lower_bound(constant_weight(), 5.0, sector)
        assert bound.analytic == 1.0
        assert bound.grid_min == 1.0

    def test_vertical_exp_corner_minimum(self, sector):
        bound = compact_lower_bound(vertical_exp(), 2.0, sector)
        assert bound.analytic == pytest.approx(math.exp(-4), rel=1e-14)
        assert bound.grid_min == pytest.approx(math.exp(-2 * math.sqrt(2)), rel=1e-12)
        assert bound.argmin == pytest.approx(2 * np.exp(-1j * ALPHA), abs=1e-9)

    def test_analytic_never_exceeds_grid_minimum(self, sector):
        for v in (exp_decay(), vertical_exp(), constant_weight(2.0)):
            for R in (0.5, 2.0, 8.0):
                bound = compact_lower_bound(v, R, sector)
                assert bound.analytic <= bound.grid_min * (1 + 1e-12)

    def test_uncertified_weight_rejected(self, sector):
        with pytest.raises(MissingCertificateError):
            compact_lower_bound(poly_decay(), 2.0, sector)
        # the sampled minimum is still available
        gmin, argmin = grid_minimum(poly_decay(), 2.0, sector)
        assert gmin == pytest.approx(1.0 / 17.0, rel=1e-12)


class TestWeightSpecs:
    def test_round_trip(self):
        for v in (exp_decay(), poly_decay(), vertical_exp(), constant_weight(3.0)):
            again = weight_from_spec(weight_to_spec(v))
            assert again.family == v.family
            assert again.certificate == v.certificate
            z = np.array([0.5 + 0.1j, 2 - 1j])
            assert np.allclose(again.eval(z), v.eval(z), rtol=1e-15)

    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            weight_from_spec({"family": "mystery"})

    def test_certificate_validation(self):
        with pytest.raises(DomainError):
            Certificate(0.5, 1.0)

    def test_constant_must_be_positive(self):
        with pytest.raises(InvalidWeightError):
            constant_weight(0.0)


class TestRayPrimitive:
    FACTORIES = (exp_decay, poly_decay, vertical_exp, lambda: constant_weight(3.0))

    def test_built_in_families_carry_one(self):
        for make in self.FACTORIES:
            assert make().primitive is not None
        assert custom_weight(lambda z: np.exp(-np.abs(z))).primitive is None

    def test_primitive_cannot_drift_from_its_evaluator(self):
        with pytest.raises(InvalidWeightError, match="primitive"):
            dataclasses.replace(exp_decay(), evaluator=lambda z: 2 * np.exp(-np.abs(z)))
        with pytest.raises(InvalidWeightError, match="primitive"):
            dataclasses.replace(vertical_exp(), evaluator=lambda z: np.exp(2.0 * np.real(z)))

    def test_wrapped_evaluator_keeps_the_primitive(self):
        # a counting wrapper around the same evaluator, as a tracer builds it
        for make in self.FACTORIES:
            v = make()
            counted = dataclasses.replace(v, evaluator=lambda z, e=v.evaluator: e(z))
            assert counted.primitive is v.primitive

    def test_spec_certificate_keeps_the_primitive(self):
        v = weight_from_spec({"family": "exp_decay", "certificate": {"M": 2.0, "w": 1.0}})
        assert v.primitive is not None and v.certificate == Certificate(2.0, 1.0)

    def test_rect_integral_closed_forms(self):
        for alpha in (0.3, ALPHA, 1.4):
            sector = Sector(alpha)
            for k in (0, 3, 17):
                rect = PolarRect(k, k + 1, -alpha, alpha)
                exact = 2 * alpha * ((k + 1) * math.exp(-k) - (k + 2) * math.exp(-(k + 1)))
                assert weight_rect_integral(exp_decay(), rect, sector) == pytest.approx(
                    exact, rel=1e-14)
                exact = alpha * (math.atan((k + 1) ** 2) - math.atan(k ** 2))
                assert weight_rect_integral(poly_decay(), rect, sector) == pytest.approx(
                    exact, rel=1e-14)

    @staticmethod
    def _both_forms(c, lo, hi):
        """`_exp_ray` evaluating both forms of E2 over every element and
        choosing per element, the reference it must match bit for bit."""
        h = hi - lo
        u = c * h
        small = np.abs(u) <= 1.0
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            e1 = np.where(c == 0, h, np.expm1(u) / c)
            big = np.where(small, 1.0, u)
            e2 = np.where(small, np.polynomial.polynomial.polyval(np.where(small, u, 0.0), _PHI2),
                          (np.exp(big) * (big - 1.0) + 1.0) / (big * big))
            return np.exp(c * lo) * (lo * e1 + h * h * e2)

    def test_exp_ray_evaluates_each_form_where_it_is_taken_only(self):
        rng = np.random.default_rng(5)
        lo = rng.uniform(0.0, 40.0, 300)
        hi = lo + rng.choice([1e-9, 0.3, 1.0, 2.5, 30.0], 300)
        phi = rng.uniform(-1.4, 1.4, 300)
        phi[:3] = 0.0, math.pi / 6, -math.pi / 6  # c = 0, and |u| = 1 at h = 1
        hi[:3] = lo[:3] + 1.0
        cases = [  # (c, lo, hi): exp_decay's scalar c, vertical_exp's c per ray
            (-1.0, np.float64(2.0), np.float64(3.0)),  # 0-d, |u| = 1
            (-1.0, np.array(0.5), np.array(0.75)),  # 0-d, |u| < 1
            (-1.0, np.array(1.0), np.array(7.0)),  # 0-d, |u| > 1
            (-1.0, np.zeros(0), np.zeros(0)),
            (-1.0, lo, hi),
            (2.0 * np.sin(np.array(0.4)), np.array(3.0), np.array(3.2)),
            (2.0 * np.sin(np.zeros(0)), np.zeros(0), np.zeros(0)),
            (2.0 * np.sin(phi), lo, hi),
            (2.0 * np.sin(phi[:40, None]), lo[:25], hi[:25]),  # broadcast, as the weight check
        ]
        for c, a, b in cases:
            got, expect = _exp_ray(c, a, b), self._both_forms(c, a, b)
            assert np.shape(got) == np.shape(expect) and type(got) is type(expect)
            assert np.asarray(got).tobytes() == np.asarray(expect).tobytes()

    def test_overflow_raises_without_a_warning(self):
        sector = Sector(math.pi / 4)
        space = LpSpace(vertical_exp(), 2.0, sector)
        # the primitive path (an indicator) and the panel path (a bump)
        for f in (indicator(annuli_union([600], sector)), bump(420 + 410j, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidWeightError):
                    lp_norm(space, f)
