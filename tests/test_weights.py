import dataclasses
import math
import warnings

import numpy as np
import pytest

from sectorlab import (Certificate, ConfigError, DomainError,
                       InvalidWeightError, LpSpace, MissingCertificateError,
                       PairSampling, PolarRect, Sector, admissibility_check,
                       annuli_union, bump, compact_lower_bound, constant_weight, custom_weight,
                       exp_decay, grid_minimum, indicator, lp_norm, poly_decay,
                       vertical_exp, weight_from_spec, weight_integral,
                       weight_rect_integral, weight_to_spec)

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

    def test_tail_bounds_remainder_under_doubling(self, sector):
        for v, model in ((exp_decay(), "exp"), (poly_decay(), "power")):
            near = weight_integral(v, 30.0, sector, tail=model)
            far = weight_integral(v, 60.0, sector, tail=model)
            remainder = far.value - near.value
            assert remainder <= near.tail * (1 + 1e-6)
            assert near.tail <= remainder * 1.5  # and not wildly loose

    def test_bad_radius(self, sector):
        with pytest.raises(DomainError):
            weight_integral(exp_decay(), 0.0, sector)

    def test_unknown_tail_model_raises_on_every_verdict(self, sector):
        # convergent at R > 1, R <= 1 (no tail fitted) and divergent
        for v, R in ((exp_decay(), 60.0), (exp_decay(), 0.5), (vertical_exp(), 30.0)):
            with pytest.raises(DomainError, match="tail model"):
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

    def test_overflow_raises_without_a_warning(self):
        sector = Sector(math.pi / 4)
        space = LpSpace(vertical_exp(), 2.0, sector)
        # the primitive path (an indicator) and the panel path (a bump)
        for f in (indicator(annuli_union([600], sector)), bump(420 + 410j, 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidWeightError):
                    lp_norm(space, f)
