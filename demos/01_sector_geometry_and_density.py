"""Sector geometry, rectangle-union sets, and tail densities.

Walks through the exact layer of the library: polar-rectangle unions,
closed-form measures inside truncations, and the finite-horizon density
estimates with their trend flags.
"""

import math

from sectorlab import (IndexSet, PolarRect, RadiusSchedule, RectUnionSet,
                       Sector, annuli_union, density_estimates,
                       density_profile, translate_set, truncated_measure)

sector = Sector(math.pi / 4)
print(f"sector half-angle alpha = pi/4; mu(D_r) = alpha*r^2")
for r in (1, 2, 10):
    print(f"  mu(D_{r}) = {truncated_measure(sector, r):.6f}")

# A union of annular rectangles normalizes to a disjoint canonical form
# with exact measure: two overlapping full-span annuli merge.
u = RectUnionSet([PolarRect(0, 2, -sector.alpha, sector.alpha),
                  PolarRect(1, 3, -sector.alpha, sector.alpha)])
print(f"\n[0,2] U [1,3] normalizes to {u.rects[0]}")
print(f"measure = {u.measure:.6f} (= 9*alpha = {9 * sector.alpha:.6f})")

# Density of the even annuli: ratio profiles hover around 1/2.  The
# schedule is geometric with integer radii merged in, because ratio
# extrema of unit-annulus sets sit exactly at integer radii.
K = IndexSet.evens()
A = annuli_union(K.members_up_to(200), sector)
sched = RadiusSchedule(1.0, 1.25, 24)
radii = sched.augmented_with_integers()
prof = density_profile(A, radii, sector)
est = density_estimates(prof, window=int((radii >= 100).sum()))
print(f"\neven annuli: tail upper={est.upper:.4f}, lower={est.lower:.4f}, "
      f"trend={est.trend}")
print("(the asymptotic density is 1/2; these are finite-horizon estimates)")

# Translating a set does not move its upper density.  The translate of a
# rect union is measured exactly too: each rectangle becomes an annular
# sector centred at -t0, cut against the truncation in closed form.
t0 = 3.0 + 1.0j
shifted = translate_set(A, t0, sector, "minus")
prof_t = density_profile(shifted, radii, sector)
est_t = density_estimates(prof_t, window=int((radii >= 100).sum()))
print(f"\ntranslated by {t0}: upper={est_t.upper:.4f} "
      f"(gap {abs(est_t.upper - est.upper):.4f}), "
      f"max error={prof_t.errors.max():.4f}")

# Lower-bound formula for annuli densities: the exact ratio at integer
# horizon n dominates the squared counting ratio.
for n in (10, 100):
    members = [k for k in K.members_up_to(n) if k >= 1]
    bound = (len(members) / n) ** 2
    B = annuli_union([k - 1 for k in members], sector)
    ratio = B.clipped_measure(n) / truncated_measure(sector, n)
    print(f"n={n}: exact ratio {ratio:.4f} >= counting bound {bound:.4f}")
