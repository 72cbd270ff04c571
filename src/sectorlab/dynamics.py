"""Finite-horizon orbit diagnostics for the translation semigroup.

Everything here samples: orbit norms ``||T_t f||`` on a polar node grid
over a truncated sector, level sets of that field as oracle sets, and
density profiles of those level sets.  The node norms themselves are
not sampled: each is the full norm of its translate from the s-polar
ray engine of `lpspace` (`orbit_norms`, all nodes in one batch).  None
of it can certify a limit statement — every summary is labelled
"consistent with" or "inconsistent with" the property on the sampled
horizon, and callers must treat the verdicts as heuristics.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

from .density import DensityProfile, density_estimates, density_profile
from .errors import DomainError
from .lpspace import LpSpace, SectorFunction, linear_combination, orbit_norms
from .sets import GridConfig, OracleSet

__all__ = [
    "OrbitResolution", "OrbitGrid", "LevelSetProfile", "PairDiagnostic",
    "orbit_profile", "level_density", "pair_diagnostic", "unboundedness_diagnostic",
]


@dataclass(frozen=True)
class OrbitResolution:
    """Node resolution for orbit grids.

    Nodes are geometric in radius (density ratios are radius-heavy since
    the truncation measure grows like r^2) and uniform in angle.  Each
    node's norm comes from the ray engine, which sets its own panels, so
    `mesh_per_unit`, `mesh_n_theta`, `mesh_max_cells_r`, `mesh_radius`
    and `chunk` are ignored.  They belonged to a midpoint mesh that is
    gone and are kept only so that existing callers which pass them, the
    benchmark's workloads among them, keep working.
    """

    n_r: int = 400
    n_theta: int = 64
    mesh_per_unit: float = 8.0
    mesh_n_theta: int = 48
    mesh_max_cells_r: int = 1500
    mesh_radius: float | None = None  # override for unbounded-support functions
    chunk: int = 256


@dataclass(frozen=True)
class OrbitGrid:
    """Sampled orbit-norm field over a truncated sector.

    norms[i, j] approximates ``||T_t f||`` at t = radii[i]*exp(1j*thetas[j]);
    `nearest_norm` extends the field to arbitrary points by nearest-node
    lookup (log-radius, linear angle).
    """

    radii: np.ndarray
    thetas: np.ndarray
    norms: np.ndarray
    R: float
    space: LpSpace = field(repr=False)
    fn: SectorFunction = field(repr=False)

    def nearest_norm(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        rho = np.maximum(np.abs(z), self.radii[0])
        log_r0 = math.log(self.radii[0])
        step = math.log(self.radii[-1] / self.radii[0]) / (len(self.radii) - 1)
        i = np.clip(np.rint((np.log(rho) - log_r0) / step).astype(int),
                    0, len(self.radii) - 1)
        dth = self.thetas[1] - self.thetas[0] if len(self.thetas) > 1 else 1.0
        j = np.clip(np.rint((np.angle(z) - self.thetas[0]) / dth).astype(int),
                    0, len(self.thetas) - 1)
        return self.norms[i, j]

    def to_csv(self) -> str:
        """CSV with columns t_r, t_theta, norm (row-major over the grid)."""
        buf = io.StringIO()
        buf.write("t_r,t_theta,norm\n")
        for i, r in enumerate(self.radii):
            for j, th in enumerate(self.thetas):
                buf.write(f"{float(r)!r},{float(th)!r},{float(self.norms[i, j])!r}\n")
        return buf.getvalue()


def orbit_profile(space: LpSpace, f: SectorFunction, R: float,
                  resolution: OrbitResolution | None = None) -> OrbitGrid:
    """Orbit-norm field of f over the truncation of radius R.

    Each node holds the full (untruncated) norm of its translate from the
    s-polar ray engine, `lpspace.orbit_norms` over all nodes at once, so
    it equals ``orbit_norm(space, f, t)`` up to rounding; nodes whose
    translate has left the sector read exactly 0.  A function without a
    support bound raises `DomainError`, as `lp_norm` does.
    """
    if R <= 0:
        raise DomainError(f"grid radius must be > 0, got {R}")
    res = resolution or OrbitResolution()
    sector = space.sector
    radii = np.geomspace(R / res.n_r, R, res.n_r)
    dth = 2 * sector.alpha / res.n_theta
    thetas = -sector.alpha + dth * (np.arange(res.n_theta) + 0.5)

    g = f.simplified()
    nodes = (radii[:, None] * np.exp(1j * thetas[None, :])).ravel()
    norms = orbit_norms(space, g, nodes)
    return OrbitGrid(radii=radii, thetas=thetas,
                     norms=norms.reshape(len(radii), len(thetas)),
                     R=float(R), space=space, fn=g)


@dataclass(frozen=True)
class LevelSetProfile:
    """Density profile of an orbit-norm level set.

    side='super' measures {t : ||T_t f|| >= threshold}, side='sub'
    measures {t : ||T_t f|| < threshold}; the two are exact complements,
    so their ratios sum to 1 up to grid error at every radius.
    """

    threshold: float
    side: str
    profile: DensityProfile

    def estimate(self, window: int):
        return density_estimates(self.profile, window)


def level_density(grid: OrbitGrid, threshold: float, side: str, schedule,
                  config: GridConfig | None = None) -> LevelSetProfile:
    """Density profile of a norm level set via nearest-node thresholding."""
    if threshold <= 0:
        raise DomainError(f"threshold must be > 0, got {threshold}")
    if side not in ("super", "sub"):
        raise DomainError(f"side must be 'super' or 'sub', got {side!r}")
    radii = np.atleast_1d(np.asarray(
        schedule.radii if hasattr(schedule, "radii") else schedule, dtype=float))
    if radii.max() > grid.R * (1 + 1e-12):
        raise DomainError(
            f"schedule reaches r={radii.max():g} beyond the grid radius {grid.R:g}")

    if side == "super":
        member = lambda z: grid.nearest_norm(z) >= threshold
        desc = f"superlevel set ||T_t f|| >= {threshold:g} of orbit profile"
    else:
        member = lambda z: grid.nearest_norm(z) < threshold
        desc = f"sublevel set ||T_t f|| < {threshold:g} of orbit profile"
    oracle = OracleSet(member, desc)
    profile = density_profile(oracle, radii, grid.space.sector, config)
    return LevelSetProfile(threshold=threshold, side=side, profile=profile)


@dataclass(frozen=True)
class PairDiagnostic:
    """Proximality/separation diagnostics for a pair of functions.

    `prox` is the sublevel profile of ||T_t x - T_t y|| at epsilon,
    `separation` the superlevel profile at delta.  A pair behaves like a
    chaotic pair on the horizon when both tail upper estimates are near
    1; the summary states consistency only, never the limit property.
    """

    epsilon: float
    delta: float
    prox: LevelSetProfile
    separation: LevelSetProfile
    window: int
    summary: str

    @property
    def prox_upper(self) -> float:
        return self.prox.estimate(self.window).upper

    @property
    def separation_upper(self) -> float:
        return self.separation.estimate(self.window).upper


def pair_diagnostic(space: LpSpace, x: SectorFunction, y: SectorFunction,
                    epsilon: float, delta: float, R: float,
                    resolution: OrbitResolution | None = None,
                    schedule=None, window: int = 6,
                    tol: float = 0.05) -> PairDiagnostic:
    """Distributional-pair diagnostics for (x, y) on the horizon R.

    The difference x - y is formed symbolically, so identical terms
    cancel exactly before any quadrature.
    """
    if epsilon <= 0 or delta <= 0:
        raise DomainError("epsilon and delta must be > 0")
    diff = linear_combination([(1.0, x), (-1.0, y)]).simplified()
    grid = orbit_profile(space, diff, R, resolution)
    if schedule is None:
        schedule = np.geomspace(R / 32.0, R, 16)
    prox = level_density(grid, epsilon, "sub", schedule)
    sep = level_density(grid, delta, "super", schedule)
    window = min(window, len(prox.profile))
    p_up = density_estimates(prox.profile, window).upper
    s_up = density_estimates(sep.profile, window).upper
    if p_up >= 1 - tol and s_up >= 1 - tol:
        summary = (f"consistent with a distributionally chaotic pair at "
                   f"(eps={epsilon:g}, delta={delta:g}) on this horizon")
    else:
        summary = (f"inconsistent with a distributionally chaotic pair at "
                   f"(eps={epsilon:g}, delta={delta:g}) on this horizon")
    return PairDiagnostic(epsilon=epsilon, delta=delta, prox=prox, separation=sep,
                          window=window, summary=summary)


@dataclass(frozen=True)
class UnboundednessReport:
    thresholds: np.ndarray
    upper_estimates: np.ndarray
    consistent: bool


def unboundedness_diagnostic(grid: OrbitGrid, thresholds, schedule,
                             window: int = 6, tol: float = 0.05) -> UnboundednessReport:
    """Upper-density estimates of {t : ||T_t f|| > M} for increasing M.

    Flags "unboundedness-consistent" iff every estimate exceeds 1 - tol;
    a bounded orbit drives the estimates to 0 as M grows.
    """
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if np.any(np.diff(thresholds) <= 0):
        raise DomainError("thresholds must be strictly increasing")
    uppers = []
    for m in thresholds:
        prof = level_density(grid, m, "super", schedule)
        w = min(window, len(prof.profile))
        uppers.append(density_estimates(prof.profile, w).upper)
    uppers = np.asarray(uppers)
    return UnboundednessReport(thresholds=thresholds, upper_estimates=uppers,
                               consistent=bool(np.all(uppers >= 1 - tol)))
