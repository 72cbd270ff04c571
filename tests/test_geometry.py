import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sectorlab
from sectorlab import (DomainError, RadiusSchedule, Sector, add_points,
                       contains, truncated_measure)

from conftest import ALPHA, midpoint_measure_oracle


class TestTruncatedMeasure:
    def test_unit_radius(self, sector):
        assert truncated_measure(sector, 1.0) == pytest.approx(math.pi / 4, abs=0)

    def test_radius_two(self, sector):
        assert truncated_measure(sector, 2.0) == pytest.approx(math.pi, abs=0)

    def test_against_quadrature_oracle(self, sector):
        # indicator of the truncation itself, Riemann-summed
        oracle = midpoint_measure_oracle(lambda z: np.abs(z) < 3.0, 3.0)
        closed = truncated_measure(sector, 3.0)
        assert closed == pytest.approx(oracle, rel=1e-6)

    def test_negative_radius_rejected(self, sector):
        with pytest.raises(DomainError):
            truncated_measure(sector, -0.1)

    def test_quadratic_scaling_exact(self, sector):
        for r in (0.5, 1.3, 7.0, 55.0):
            assert truncated_measure(sector, 2 * r) == 4 * truncated_measure(sector, r)

    def test_monotone_in_radius(self, sector):
        radii = np.linspace(0, 50, 101)
        vals = [truncated_measure(sector, r) for r in radii]
        assert all(b >= a for a, b in zip(vals, vals[1:]))


class TestContains:
    def test_boundary_point(self, sector):
        assert contains(sector, 1 + 1j)

    def test_outside(self, sector):
        assert not contains(sector, 1j)

    def test_origin(self, sector):
        assert contains(sector, 0j)

    def test_sum_of_members_stays_inside(self, sector, rng):
        r = rng.uniform(0, 10, 10_000)
        th = rng.uniform(-ALPHA, ALPHA, 10_000)
        z = r * np.exp(1j * th)
        w = np.roll(z, 1)
        assert all(contains(sector, p) for p in z + w)


class TestAddPoints:
    def test_componentwise(self, sector):
        p = sector.from_complex(2 - 1j)
        assert add_points(p, p).z == 4 - 2j

    def test_identity(self, sector):
        p = sector.from_complex(1.5 + 0.5j)
        zero = sector.from_complex(0j)
        assert add_points(p, zero).z == p.z

    def test_mixed_sectors_rejected(self, sector):
        other = Sector(math.pi / 6)
        with pytest.raises(DomainError):
            add_points(sector.from_complex(1 + 0j), other.from_complex(1 + 0j))

    @given(st.tuples(*(st.floats(0, 10) for _ in range(3)),
                     *(st.floats(-ALPHA, ALPHA) for _ in range(3))))
    @settings(max_examples=200, deadline=None)
    def test_associative_commutative(self, args):
        sector = Sector(ALPHA)
        r1, r2, r3, t1, t2, t3 = args
        a, b, c = (sector.point(r, t) for r, t in ((r1, t1), (r2, t2), (r3, t3)))
        ab_c = add_points(add_points(a, b), c)
        a_bc = add_points(a, add_points(b, c))
        assert ab_c.z == pytest.approx(a_bc.z, abs=1e-12)
        assert add_points(a, b).z == add_points(b, a).z

    def test_modulus_never_shrinks_for_small_angles(self, rng):
        # valid for alpha <= pi/4: the angle between summands is <= pi/2
        sector = Sector(math.pi / 4)
        for _ in range(1000):
            s = sector.point(rng.uniform(0, 5), rng.uniform(-ALPHA, ALPHA))
            t = sector.point(rng.uniform(0, 5), rng.uniform(-ALPHA, ALPHA))
            assert add_points(s, t).r >= max(s.r, t.r) - 1e-12


class TestSectorValidation:
    @pytest.mark.parametrize("alpha", [0.0, -0.5, math.pi / 2, 2.0,
                                       "0.5", [0.5], None, True, np.array(0.5), math.nan])
    def test_bad_half_angle(self, alpha):
        with pytest.raises(DomainError):
            Sector(alpha)

    def test_numpy_reals_are_half_angles(self):
        for alpha in (np.float64(0.5), np.float32(0.5), np.int64(1), 1):
            assert Sector(alpha).alpha == alpha

    def test_point_outside_rejected(self, sector):
        with pytest.raises(DomainError):
            sector.from_complex(1j)

    # every in-sector check is `Sector.require`: it names the argument and
    # the first point outside
    @pytest.mark.parametrize("call, name, point", [
        (lambda s: s.from_complex(1 + 2j), "SectorPoint", "(1+2j)"),
        (lambda s: sectorlab.translate_function(sectorlab.bump(1.0, 0.5), 1 + 2j, s),
         "translate_function.t", "(1+2j)"),
        (lambda s: sectorlab.orbit_norms(sectorlab.LpSpace(sectorlab.exp_decay(), 2.0, s),
                                         sectorlab.bump(1.0, 0.5), [1.0, -3.0, 1 + 2j]),
         "orbit_norms.ts", "(-3+0j)"),
        (lambda s: sectorlab.translate_set(sectorlab.annuli_union([1], s), -1.0, s),
         "translate_set.t0", "(-1+0j)"),
        (lambda s: sectorlab.devaney_ray_series(sectorlab.exp_decay(), 2j, 5, s),
         "devaney_ray_series.t1", "2j"),
        (lambda s: sectorlab.weight_rect_integral(
            sectorlab.exp_decay(), sectorlab.PolarRect(1.0, 2.0, 0.0, math.pi / 2), s),
         "weight_rect_integrals.rc", str(complex(np.exp(1j * math.pi / 2)))),
    ], ids=["point", "translate_function", "orbit_norms", "translate_set", "devaney_ray",
            "weight_rect_integrals"])
    def test_a_point_outside_is_named_with_its_argument(self, sector, call, name, point):
        with pytest.raises(DomainError) as exc:
            call(sector)
        assert str(exc.value) == (f"{name} leaves the sector (alpha={sector.alpha}) "
                                  f"at the point {point}")

    @pytest.mark.parametrize("t1", [0.0, np.exp(1j * ALPHA)], ids=["zero", "boundary"])
    def test_a_ray_at_zero_or_on_the_boundary_is_refused(self, sector, t1):
        with pytest.raises(DomainError, match="devaney_ray_series.t1 .* sector boundary"):
            sectorlab.devaney_ray_series(sectorlab.exp_decay(), t1, 5, sector)

    def test_negative_modulus_rejected(self, sector):
        with pytest.raises(DomainError):
            sector.point(-1.0, 0.0)

    def test_polar_view_consistent(self, sector):
        p = sector.point(2.5, 0.3)
        assert p.r == pytest.approx(2.5, rel=1e-15)
        assert p.theta == pytest.approx(0.3, rel=1e-15)


class TestRadiusSchedule:
    def test_strictly_increasing(self):
        sched = RadiusSchedule(1.0, 1.25, 24)
        assert np.all(np.diff(sched.radii) > 0)
        assert sched.horizon == pytest.approx(1.25 ** 23)

    def test_augmented_with_integers(self):
        sched = RadiusSchedule(1.0, 2.0, 4)  # 1, 2, 4, 8
        aug = sched.augmented_with_integers()
        assert set(np.arange(1.0, 9.0)) <= set(aug)
        assert np.all(np.diff(aug) > 0)

    @pytest.mark.parametrize("kwargs", [
        {"r0": 0.0}, {"r0": -1.0}, {"gamma": 1.0}, {"gamma": 0.5}, {"count": 0},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            RadiusSchedule(**{"r0": 1.0, "gamma": 1.25, "count": 5, **kwargs})
