"""Acceptance suite: one test per numbered criterion, fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion with its measured values and runtime.
"""

import math
import time

import numpy as np
import pytest

from sectorlab import (IndexSet, LpSpace, OrbitResolution,
                       RectUnionSet, Sector, WitnessSampling, annuli_union,
                       build_witness, bump, dc_sufficient_series,
                       density_estimates, density_profile, devaney_ray_series,
                       exp_decay, indicator, indicator_orbit_norms, level_density,
                       lp_norm, measure_in_truncation, orbit_norm, orbit_profile,
                       poly_decay, translate_function, translate_set,
                       truncated_measure, vertical_exp, weight_integral,
                       constant_weight)

from conftest import ALPHA, random_rect_union, random_small_rects

SECTOR = Sector(ALPHA)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_weight_integrals():
    t0 = time.perf_counter()
    est_exp = weight_integral(exp_decay(), 60.0, SECTOR, tail="exp")
    dt_exp = time.perf_counter() - t0
    rel_exp = abs(est_exp.total - math.pi / 2) / (math.pi / 2)

    t0 = time.perf_counter()
    est_poly = weight_integral(poly_decay(), 60.0, SECTOR, tail="power")
    dt_poly = time.perf_counter() - t0
    rel_poly = abs(est_poly.total - math.pi ** 2 / 8) / (math.pi ** 2 / 8)

    ok = rel_exp <= 1e-6 and rel_poly <= 1e-6 and dt_exp < 5.0 and dt_poly < 5.0
    report(1, "weight-integrals", ok,
           f"pi/2 rel={rel_exp:.2e} in {dt_exp:.2f}s; "
           f"pi^2/8 rel={rel_poly:.2e} in {dt_poly:.2f}s")
    assert rel_exp <= 1e-6
    assert rel_poly <= 1e-6
    assert dt_exp < 5.0 and dt_poly < 5.0


def test_criterion_2_devaney_ray_series():
    t0 = time.perf_counter()
    ser = devaney_ray_series(vertical_exp(), 2 - 1j, 50, SECTOR)
    dt = time.perf_counter() - t0
    closed = math.exp(2) / (math.exp(2) - 1)
    err = abs(ser.value - closed)
    ok = err <= 1e-12 and dt < 1.0
    report(2, "devaney-ray-series", ok, f"abs err={err:.2e} in {dt:.2f}s")
    assert err <= 1e-12
    assert dt < 1.0


def test_criterion_3_translation_invariance():
    rng = np.random.default_rng(42)
    radii = np.unique(np.concatenate(
        [np.geomspace(1.0, 200.0, 25), np.arange(1.0, 201.0)]))
    window = int((radii >= 140.0).sum())
    t0 = time.perf_counter()
    worst_gap = 0.0
    worst_viol = -np.inf
    for _ in range(20):
        A = random_rect_union(rng, horizon=200)
        r0 = rng.uniform(0.5, 5.0)
        t_shift = r0 * np.exp(1j * rng.uniform(-ALPHA, ALPHA))
        prof_a = density_profile(A, radii, SECTOR)
        prof_t = density_profile(translate_set(A, t_shift, SECTOR, "minus"),
                                 radii, SECTOR)
        gap = abs(density_estimates(prof_a, window).upper
                  - density_estimates(prof_t, window).upper)
        worst_gap = max(worst_gap, gap)
        # the sandwich from the translation-invariance proof, ratio units:
        # mu(A ∩ D_{r+r0}) - mu(D_{r+r0}) + mu(D_r) <= mu((A-t0) ∩ D_r)
        #                                           <= mu(A ∩ D_{r+r0})
        mu_r = ALPHA * radii ** 2
        upper = np.array([measure_in_truncation(A, r + r0, SECTOR) for r in radii]) / mu_r
        lower = upper - (ALPHA * (radii + r0) ** 2 - mu_r) / mu_r
        worst_viol = max(worst_viol,
                         float(np.max(lower - prof_t.ratios)),
                         float(np.max(prof_t.ratios - upper)))
    dt = time.perf_counter() - t0
    ok = worst_gap <= 0.02 and worst_viol <= 1e-3 and dt < 60.0
    report(3, "translation-invariance", ok,
           f"worst upper-estimate gap={worst_gap:.4f}, "
           f"worst sandwich violation={worst_viol:.2e}, {dt:.1f}s for 20 sets")
    assert worst_gap <= 0.02
    assert worst_viol <= 1e-3
    assert dt < 60.0


def test_criterion_4_witness_separation():
    t0 = time.perf_counter()
    v = exp_decay()
    K = IndexSet.all_naturals()
    space = LpSpace(v, 2.0, SECTOR)
    pkg = build_witness(v, K, 2.0, SECTOR, k_cap=64)
    delta = math.sqrt((math.pi / 4) * math.exp(-2))
    assert pkg.delta == pytest.approx(delta, rel=1e-12)

    sampling = WitnessSampling(per_band_r=3, per_band_theta=4, n_random=200, seed=42)
    alpha = ALPHA
    samples = []
    for k in range(1, 51):
        rr = np.linspace(k - 1, k, sampling.per_band_r + 1)[1:]
        th = np.linspace(-alpha, alpha, sampling.per_band_theta)
        samples.append((rr[:, None] * np.exp(1j * th[None, :])).ravel())
    rng = np.random.default_rng(sampling.seed)
    rr = rng.choice(np.arange(1, 51), size=sampling.n_random) \
        - rng.uniform(0.0, 1.0, sampling.n_random)
    samples.append(rr * np.exp(1j * rng.uniform(-alpha, alpha, sampling.n_random)))
    samples = np.concatenate(samples)
    assert len(samples) >= 500

    norms = indicator_orbit_norms(space, pkg.f, samples)
    min_norm = float(norms.min())
    all_above = bool(np.all(norms >= delta - 1e-4))

    grid = orbit_profile(space, pkg.f, 50.0,
                         OrbitResolution(n_r=128, n_theta=32))
    sched = np.geomspace(50 / 8, 50.0, 8)
    sup = level_density(grid, delta, "super", sched)
    upper = density_estimates(sup.profile, 4).upper
    dt = time.perf_counter() - t0
    ok = all_above and upper >= 0.98 and dt < 120.0
    report(4, "witness-separation", ok,
           f"{len(samples)} samples, min norm={min_norm:.4f} vs "
           f"delta-1e-4={delta - 1e-4:.4f}; superlevel upper={upper:.3f}; {dt:.1f}s")
    assert all_above
    assert upper >= 0.98
    assert dt < 120.0


def test_criterion_5_devaney_not_dc_ceiling():
    t0 = time.perf_counter()
    v = vertical_exp()
    space = LpSpace(v, 2.0, SECTOR)
    f = indicator(annuli_union([0], SECTOR))
    grid = orbit_profile(space, f, 150.0,
                         OrbitResolution(n_r=192, n_theta=48))
    sched = np.geomspace(150 / 8, 150.0, 10)
    sub = level_density(grid, 0.1, "sub", sched)
    sup = level_density(grid, 0.1, "super", sched)
    sub_lower = density_estimates(sub.profile, 6).lower
    sup_upper = density_estimates(sup.profile, 6).upper

    ray = devaney_ray_series(v, 2 - 1j, 50, SECTOR)
    series = dc_sufficient_series(v, IndexSet.all_naturals(), 40, SECTOR)
    dt = time.perf_counter() - t0
    ok = (sub_lower >= 0.45 and sup_upper <= 0.55
          and ray.verdict == "convergent-trend"
          and series.verdict == "divergent-trend" and dt < 120.0)
    report(5, "devaney-not-dc-ceiling", ok,
           f"sublevel lower={sub_lower:.3f} (>=0.45), "
           f"superlevel upper={sup_upper:.3f} (<=0.55), "
           f"ray={ray.verdict}, series={series.verdict}; {dt:.1f}s")
    assert sub_lower >= 0.45
    assert sup_upper <= 0.55
    assert ray.verdict == "convergent-trend"
    assert series.verdict == "divergent-trend"
    assert dt < 120.0


def test_criterion_6_growth_bound():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = -np.inf
    for v, p in ((exp_decay(), 2.0), (vertical_exp(), 2.0),
                 (constant_weight(), 1.5)):
        space = LpSpace(v, p, SECTOR)
        M, w = v.certificate.M, v.certificate.w
        for _ in range(100):
            if rng.uniform() < 0.5:
                f = indicator(RectUnionSet(random_small_rects(rng)),
                              amplitude=rng.uniform(0.5, 2.0))
            else:
                f = bump(rng.uniform(0, 3) * np.exp(1j * rng.uniform(-ALPHA, ALPHA)),
                         rng.uniform(0.3, 1.5), amplitude=rng.uniform(0.5, 2.0))
            t = rng.uniform(0, 5) * np.exp(1j * rng.uniform(-ALPHA, ALPHA))
            lhs = orbit_norm(space, f, SECTOR.from_complex(t))
            rhs = (M * math.exp(w * abs(t))) ** (1 / p) * lp_norm(space, f).value
            worst = max(worst, lhs - rhs)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-6 and dt < 30.0
    report(6, "growth-bound", ok,
           f"worst excess={worst:.2e} over 300 samples; {dt:.1f}s")
    assert worst <= 1e-6
    assert dt < 30.0


def test_criterion_7_semigroup_law():
    rng = np.random.default_rng(42)
    n = 10_000
    f = indicator(annuli_union([0, 1], SECTOR))
    a = rng.uniform(0, 5, n) * np.exp(1j * rng.uniform(-ALPHA, ALPHA, n))
    b = rng.uniform(0, 5, n) * np.exp(1j * rng.uniform(-ALPHA, ALPHA, n))
    offsets_exact = 0
    for za, zb in zip(a, b):
        two = translate_function(
            translate_function(f, SECTOR.from_complex(za), SECTOR),
            SECTOR.from_complex(zb), SECTOR)
        one = translate_function(f, SECTOR.from_complex(za + zb), SECTOR)
        if two.offset == one.offset:
            offsets_exact += 1
    # evaluations agree within 1e-12 on sampled points
    z = rng.uniform(0, 4, 200) * np.exp(1j * rng.uniform(-ALPHA, ALPHA, 200))
    g2 = translate_function(translate_function(f, SECTOR.from_complex(a[0]), SECTOR),
                            SECTOR.from_complex(b[0]), SECTOR)
    g1 = translate_function(f, SECTOR.from_complex(a[0] + b[0]), SECTOR)
    eval_gap = float(np.max(np.abs(g2.evaluate(z) - g1.evaluate(z))))
    ok = offsets_exact == n and eval_gap <= 1e-12
    report(7, "semigroup-law", ok,
           f"{offsets_exact}/{n} offset identities exact, eval gap={eval_gap:.1e}")
    assert offsets_exact == n
    assert eval_gap <= 1e-12


def test_criterion_8_partition_oracle():
    K = IndexSet.all_naturals()
    worst = 0.0
    for v in (exp_decay(), poly_decay(), vertical_exp()):
        space = LpSpace(v, 2.0, SECTOR)
        series = dc_sufficient_series(v, K, 60, SECTOR)
        f = indicator(annuli_union(K.members_up_to(60), SECTOR))
        norm_p = lp_norm(space, f).value ** 2.0
        rel = abs(norm_p - series.value) / series.value
        worst = max(worst, rel)
    ok = worst <= 1e-10
    report(8, "partition-oracle", ok, f"worst relative gap={worst:.2e}")
    assert worst <= 1e-10


def test_criterion_9_density_bound_formula():
    sets = {"all": IndexSet.all_naturals(), "evens": IndexSet.evens(),
            "nonsquares": IndexSet.nonsquares()}
    worst_margin = np.inf
    for name, K in sets.items():
        for n in (10, 50, 100):
            members = [k for k in K.members_up_to(n) if 1 <= k <= n]
            A = RectUnionSet([])
            if members:
                A = annuli_union([k - 1 for k in members], SECTOR)
            ratio = (measure_in_truncation(A, float(n), SECTOR)
                     / truncated_measure(SECTOR, float(n)))
            bound = (len(members) / n) ** 2
            worst_margin = min(worst_margin, ratio - bound)
    ok = worst_margin >= -1e-9
    report(9, "density-bound-formula", ok,
           f"min(ratio - bound)={worst_margin:.3e} over K in "
           "{all, evens, nonsquares}, n in {10, 50, 100}")
    assert worst_margin >= -1e-9
