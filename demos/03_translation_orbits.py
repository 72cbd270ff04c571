"""The translation operator on a weighted space, and orbit diagnostics.

Translating a function adds to the offsets of its terms, so the
semigroup law is exact arithmetic; norms are where quadrature happens.
An orbit grid samples ||T_t f|| over a truncated sector and level-set
densities turn the field into distributional statistics.
"""

import math

import numpy as np

from sectorlab import (LpSpace, OrbitResolution, Sector, annuli_union,
                       density_estimates, exp_decay, indicator, level_density,
                       lp_norm, orbit_norm, orbit_profile, pair_diagnostic,
                       translate_function, unboundedness_diagnostic, bump)

sector = Sector(math.pi / 4)
space = LpSpace(exp_decay(), 2.0, sector)

# Exact semigroup law: offsets add bitwise.
f = indicator(annuli_union([0], sector))
s, t = 1.0 + 0.25j, 0.5 - 0.125j
two = translate_function(translate_function(f, s, sector), t, sector)
one = translate_function(f, s + t, sector)
print(f"T_s T_t offset == T_(s+t) offset: {two.offset == one.offset}")

# Norms: the unit-ball indicator has a closed-form weighted norm.
res = lp_norm(LpSpace(exp_decay(), 1.0, sector), f)
print(f"||1_D1||_1 = {res.value:.10f} "
      f"(closed form {(math.pi / 2) * (1 - 2 / math.e):.10f})")

# Compact support escapes under large steps (alpha <= pi/4 means moduli
# never shrink under addition): the translate vanishes identically.
print(f"||T_t f|| at |t|=2: {orbit_norm(space, f, 2.0 * np.exp(0.3j)):.1f}")

# Orbit-norm field over a truncation, then level-set densities.
g = indicator(annuli_union(range(0, 30), sector))  # the ball of radius 30
grid = orbit_profile(space, g, 20.0,
                     OrbitResolution(n_r=96, n_theta=32))
print(f"\norbit grid over D_20: norms in "
      f"[{grid.norms.min():.4f}, {grid.norms.max():.4f}]")
sched = np.geomspace(2.5, 20.0, 8)
sup = level_density(grid, 1.0, "super", sched)
print(f"density of ||T_t g|| >= 1: tail upper = "
      f"{density_estimates(sup.profile, 4).upper:.3f}")

# Bounded orbits are not distributionally unbounded: the superlevel
# estimates collapse as the threshold grows.
rep = unboundedness_diagnostic(grid, [0.5, 1.5, 3.0], sched)
print("unboundedness estimates:",
      np.round(rep.upper_estimates, 3), "consistent:", rep.consistent)

# Pair diagnostics compare two orbits through their symbolic difference.
# An identical pair is maximally proximal and never separated, so the
# chaotic-pair signature is (correctly) absent.
h = bump(0.5 + 0j, 0.4)
diag = pair_diagnostic(space, h, h, 0.1, 0.1, 15.0,
                       OrbitResolution(n_r=64, n_theta=24))
print(f"\nidentical pair: {diag.summary}")
print(f"prox upper={diag.prox_upper:.2f}, "
      f"separation upper={diag.separation_upper:.2f}")
