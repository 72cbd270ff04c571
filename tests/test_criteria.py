import json
import math
from importlib import resources

import jsonschema
import numpy as np
import pytest

from sectorlab import (ConfigError, DomainError, IndexSet, LpSpace,
                       WitnessInvalidError, WitnessSampling,
                       annuli_union, build_witness, constant_weight,
                       dc_sufficient_series, devaney_ray_series, exp_decay,
                       indicator, load_scenario, lp_norm, poly_decay,
                       run_example, verify_witness, vertical_exp,
                       EXAMPLE_IDS)
from sectorlab import criteria
from sectorlab.criteria import _band_angles, validate_scenario

SCHEMA = resources.files("sectorlab") / "data" / "scenario.schema.json"


class TestIndexSet:
    def test_all_members(self):
        assert list(IndexSet.all_naturals().members_up_to(4)) == [0, 1, 2, 3, 4]

    def test_evens(self):
        assert list(IndexSet.evens().members_up_to(7)) == [0, 2, 4, 6]

    def test_nonsquares(self):
        got = list(IndexSet.nonsquares().members_up_to(10))
        assert got == [2, 3, 5, 6, 7, 8, 10]

    def test_finite_sorted_deduplicated(self):
        assert IndexSet.finite([3, 1, 3]).members == (1, 3)

    def test_counting_ratio(self):
        assert IndexSet.evens().counting_ratio(10) == pytest.approx(0.5)
        assert IndexSet.nonsquares().counting_ratio(100) == pytest.approx(0.9)

    def test_from_spec_unknown(self):
        with pytest.raises(ConfigError):
            IndexSet.from_spec({"kind": "primes"})

    def test_from_spec_strings_match_dicts(self):
        pairs = [("all", {"kind": "all"}), ("evens", {"kind": "evens"}),
                 ("odds", {"kind": "arith", "start": 1, "step": 2}),
                 ("nonsquares", {"kind": "nonsquares"}),
                 ("finite:3,1", {"kind": "finite", "members": [1, 3]}),
                 ("arith:2:5", {"kind": "arith", "start": 2, "step": 5})]
        for text, spec in pairs:
            assert IndexSet.from_spec(text) == IndexSet.from_spec(spec)

    def test_from_spec_malformed_strings(self):
        for text in ("primes", "arith:1", "arith:1:2:3", "arith:0:0", "finite:",
                     "finite:a", "finite:-1"):
            with pytest.raises(ConfigError):
                IndexSet.from_spec(text)

    def test_negative_member_rejected(self):
        with pytest.raises(DomainError):
            IndexSet.finite([-1])


class TestSufficientSeries:
    def test_exp_decay_limit(self, sector):
        ser = dc_sufficient_series(exp_decay(), IndexSet.all_naturals(), 60, sector)
        assert ser.verdict == "convergent-trend"
        assert ser.limit_estimate == pytest.approx(math.pi / 2, rel=1e-6)
        assert ser.counting_ratio == 1.0
        assert ser.declared_density == 1.0

    def test_poly_decay_limit(self, sector):
        ser = dc_sufficient_series(poly_decay(), IndexSet.all_naturals(), 60, sector)
        assert ser.verdict == "convergent-trend"
        assert ser.limit_estimate == pytest.approx(math.pi ** 2 / 8, rel=1e-6)

    def test_vertical_exp_diverges(self, sector):
        ser = dc_sufficient_series(vertical_exp(), IndexSet.all_naturals(), 40, sector)
        assert ser.verdict == "divergent-trend"
        assert ser.limit_estimate is None

    def test_terms_match_annulus_norms(self, sector):
        # cross-module consistency: series terms and indicator norms share
        # one integration routine, so they agree term by term
        space = LpSpace(exp_decay(), 2.0, sector)
        ser = dc_sufficient_series(exp_decay(), IndexSet.all_naturals(), 12, sector)
        for k, term in zip(ser.k_values, ser.terms):
            norm = lp_norm(space, indicator(annuli_union([int(k)], sector))).value
            assert norm ** 2 == pytest.approx(term, rel=1e-10)

    def test_sparse_subset_terms(self, sector):
        full = dc_sufficient_series(exp_decay(), IndexSet.all_naturals(), 10, sector)
        even = dc_sufficient_series(exp_decay(), IndexSet.evens(), 10, sector)
        assert np.allclose(even.terms, full.terms[::2], rtol=1e-15)

    def test_finite_index_set_is_exact(self, sector):
        ser = dc_sufficient_series(exp_decay(), IndexSet.finite([0, 3]), 10, sector)
        assert ser.verdict == "convergent-trend"
        assert ser.limit_estimate == pytest.approx(ser.value, rel=0)

    def test_partial_sums_nondecreasing(self, sector):
        ser = dc_sufficient_series(poly_decay(), IndexSet.all_naturals(), 30, sector)
        assert np.all(np.diff(ser.partial_sums) >= 0)


class TestDevaneyRaySeries:
    def test_vertical_exp_closed_form(self, sector):
        ser = devaney_ray_series(vertical_exp(), 2 - 1j, 50, sector)
        closed = math.exp(2) / (math.exp(2) - 1)
        assert ser.verdict == "convergent-trend"
        assert abs(ser.value - closed) <= 1e-12

    def test_exp_decay_geometric(self, sector):
        ser = devaney_ray_series(exp_decay(), 1 + 0j, 50, sector)
        assert ser.value == pytest.approx(math.e / (math.e - 1), abs=1e-12)
        assert ser.limit_estimate == pytest.approx(math.e / (math.e - 1), rel=1e-9)

    def test_constant_weight_diverges(self, sector):
        ser = devaney_ray_series(constant_weight(), 1 + 0j, 50, sector)
        assert ser.verdict == "divergent-trend"

    def test_boundary_ray_rejected(self, sector):
        with pytest.raises(DomainError):
            devaney_ray_series(exp_decay(), 1 + 1j, 10, sector)

    def test_zero_direction_rejected(self, sector):
        with pytest.raises(DomainError):
            devaney_ray_series(exp_decay(), 0j, 10, sector)


class TestWitness:
    def test_exp_decay_delta_formula(self, sector):
        pkg = build_witness(exp_decay(), IndexSet.all_naturals(), 2.0, sector)
        assert pkg.delta == pytest.approx(
            math.sqrt((math.pi / 4) * math.exp(-2)), rel=1e-12)
        assert pkg.bound_source == "analytic"

    def test_poly_decay_grid_delta(self, sector):
        pkg = build_witness(poly_decay(), IndexSet.all_naturals(), 1.0, sector,
                            bound="grid")
        assert pkg.delta == pytest.approx((math.pi / 4) / 17.0, rel=1e-10)
        assert pkg.bound_source == "grid"
        assert pkg.delta_analytic is None

    def test_divergent_series_rejected(self, sector):
        with pytest.raises(WitnessInvalidError):
            build_witness(constant_weight(), IndexSet.all_naturals(), 2.0, sector)

    def test_uncertified_analytic_request_rejected(self, sector):
        with pytest.raises(WitnessInvalidError):
            build_witness(poly_decay(), IndexSet.all_naturals(), 1.0, sector,
                          bound="analytic")

    def test_verification_passes(self, sector):
        v = exp_decay()
        pkg = build_witness(v, IndexSet.all_naturals(), 2.0, sector, k_cap=34)
        ver = verify_witness(LpSpace(v, 2.0, sector), pkg,
                             IndexSet.all_naturals(), 20.0,
                             WitnessSampling(n_random=50), tol=1e-4)
        assert ver.passed
        assert ver.min_norm >= pkg.delta - 1e-4

    def test_inflated_delta_fails(self, sector):
        # the bound is not loose by a factor of 10
        v = exp_decay()
        pkg = build_witness(v, IndexSet.all_naturals(), 2.0, sector, k_cap=34)
        ver = verify_witness(LpSpace(v, 2.0, sector), pkg,
                             IndexSet.all_naturals(), 20.0,
                             WitnessSampling(n_random=50))
        assert ver.min_norm < 10 * pkg.delta

    def test_sparse_index_set_passes(self, sector):
        # the per-annulus separation bound does not depend on the density of K
        v = exp_decay()
        K = IndexSet.evens()
        pkg = build_witness(v, K, 2.0, sector, k_cap=34)
        ver = verify_witness(LpSpace(v, 2.0, sector), pkg, K, 20.0,
                             WitnessSampling(n_random=50), tol=1e-4)
        assert ver.passed

    @pytest.mark.parametrize("alpha", [0.1, 0.3, math.pi / 4, 1.4, 1.5])
    def test_band_angles_are_symmetric(self, alpha):
        assert _band_angles(alpha, 1).tolist() == [0.0]
        for n in range(2, 9):
            th = _band_angles(alpha, n)
            assert np.array_equal(th, -th[::-1])
            assert th[0] == -alpha and th[-1] == alpha
            assert np.allclose(np.diff(th), 2 * alpha / (n - 1), rtol=1e-14, atol=0.0)

    def test_default_band_grid_pairs_conjugates(self, monkeypatch, sector):
        # a radial weight and full-span annuli: a sample and its conjugate
        # read one float
        seen = {}
        batch = criteria.indicator_orbit_norms

        def record(space, f, ts):
            seen["ts"], seen["norms"] = ts, batch(space, f, ts)
            return seen["norms"]

        monkeypatch.setattr(criteria, "indicator_orbit_norms", record)
        v = exp_decay()
        pkg = build_witness(v, IndexSet.all_naturals(), 2.0, sector, k_cap=12)
        sampling = WitnessSampling(n_random=4)
        verify_witness(LpSpace(v, 2.0, sector), pkg, IndexSet.all_naturals(), 10.0,
                       sampling)
        n = sampling.per_band_theta * sampling.per_band_r * 10
        ts = seen["ts"][:n].reshape(10, sampling.per_band_r, -1)
        norms = seen["norms"][:n].reshape(ts.shape)
        assert np.array_equal(ts, ts[..., ::-1].conj())
        assert np.array_equal(norms, norms[..., ::-1])
        assert norms.min() > 0.0

    def test_empty_bands_rejected(self, sector):
        v = exp_decay()
        K = IndexSet.finite([30])
        pkg = build_witness(v, K, 2.0, sector, k_cap=40)
        with pytest.raises(DomainError):
            verify_witness(LpSpace(v, 2.0, sector), pkg, IndexSet.finite([60]),
                           10.0)

    def test_horizon_validation(self, sector):
        v = exp_decay()
        pkg = build_witness(v, IndexSet.all_naturals(), 2.0, sector, k_cap=20)
        with pytest.raises(DomainError):
            verify_witness(LpSpace(v, 2.0, sector), pkg,
                           IndexSet.all_naturals(), 2.0)

    def test_cap_below_horizon_rejected(self, sector):
        v = exp_decay()
        pkg = build_witness(v, IndexSet.all_naturals(), 2.0, sector, k_cap=10)
        with pytest.raises(DomainError):
            verify_witness(LpSpace(v, 2.0, sector), pkg,
                           IndexSet.all_naturals(), 20.0)

    def test_norm_finite_when_series_converges(self, sector):
        v = exp_decay()
        pkg = build_witness(v, IndexSet.all_naturals(), 2.0, sector, k_cap=30)
        space = LpSpace(v, 2.0, sector)
        norm = lp_norm(space, pkg.f)
        assert np.isfinite(norm.value)
        # partition consistency: norm^p equals the capped partial sum, and
        # sits within the tail estimate of the series limit
        assert norm.value ** 2 == pytest.approx(pkg.series.value, rel=1e-10)
        tail = pkg.series.limit_estimate - pkg.series.value
        assert 0 <= tail
        assert abs(norm.value ** 2 - pkg.series.limit_estimate) <= 1.2 * tail + 1e-12


class TestScenarios:
    def test_unknown_example(self):
        with pytest.raises(ConfigError):
            load_scenario("missing-example")

    def test_scenarios_validate(self):
        for ex in EXAMPLE_IDS:
            cfg = load_scenario(ex)
            assert cfg["id"] == ex

    def test_scenarios_match_the_schema(self):
        schema = json.loads(SCHEMA.read_text())
        for ex in EXAMPLE_IDS:
            jsonschema.validate(load_scenario(ex), schema)

    def test_scenario_without_alpha_is_refused(self):
        cfg = load_scenario("exp-decay-dc")
        del cfg["alpha"]
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(cfg, json.loads(SCHEMA.read_text()))
        with pytest.raises(ConfigError, match="alpha"):
            validate_scenario(cfg)

    def test_devaney_example_report(self):
        rep = run_example("devaney-not-dc")
        assert rep.passed
        names = [c.name for c in rep.checks]
        assert names == ["admissibility", "ray-series",
                         "annulus-series-divergence",
                         "sublevel-lower-density", "superlevel-upper-density"]
        payload = json.loads(rep.to_json())
        assert payload["passed"] is True
        assert len(payload["checks"]) == 5
