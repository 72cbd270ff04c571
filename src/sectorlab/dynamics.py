"""Finite-horizon orbit diagnostics for the translation semigroup.

Orbit norms ``||T_t f||`` are sampled on a polar node grid over a
truncated sector and extended to the sector by nearest node, so each
level set of that field is a union of whole grid cells and its density
profile is a closed form with errors identically 0.  The node norms
themselves are not sampled: each is the full norm of its translate from
the s-polar ray engine of `quadrature` (`lpspace.orbit_norms`, all nodes
in one batch).  None of it can certify a limit statement — every summary is
labelled "consistent with" or "inconsistent with" the property on the
sampled horizon, and callers must treat the verdicts as heuristics.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from .density import DensityProfile, density_estimates
from .errors import DomainError
from .geometry import schedule_radii
from .lpspace import LpSpace, SectorFunction, linear_combination, orbit_norms
from .schema import check_fields

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
    `mesh_per_unit`, `mesh_n_theta` and `chunk` are ignored: they belonged
    to a midpoint mesh that is gone, and the benchmark's workloads still
    pass them.  `n_r` and `n_theta` must meet the schema's `grids` rules
    `orbit_n_r` (an integer >= 2) and `orbit_n_theta` (an integer >= 1),
    else `DomainError`.
    """

    n_r: int = 400
    n_theta: int = 64
    mesh_per_unit: float = 8.0
    mesh_n_theta: int = 48
    chunk: int = 256

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class OrbitGrid:
    """Sampled orbit-norm field over a truncated sector.

    norms[i, j] approximates ``||T_t f||`` at t = radii[i]*exp(1j*thetas[j]);
    `nearest_norm` extends the field to arbitrary points by nearest-node
    lookup (log-radius, linear angle), constant on the cells that
    `cell_edges` bounds.
    """

    radii: np.ndarray
    thetas: np.ndarray
    norms: np.ndarray
    R: float
    space: LpSpace = field(repr=False)
    fn: SectorFunction = field(repr=False)

    def cell_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Inner edges of the nearest-node cells.

        Radial edges are the log-midpoints sqrt(r_i r_{i+1}) of the node
        radii (cell 0 reaches down to 0, the last cell out to infinity);
        angular edges lie halfway between node angles, at
        -alpha + j * 2 alpha / n_theta, so every cell spans the same angle.
        Cell (i, j) holds node (i, j).
        """
        return (np.sqrt(self.radii[:-1] * self.radii[1:]),
                0.5 * (self.thetas[:-1] + self.thetas[1:]))

    def nearest_norm(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        r_edges, th_edges = self.cell_edges()
        i = np.searchsorted(r_edges, np.abs(z), side="right")
        j = np.searchsorted(th_edges, np.angle(z), side="right")
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

    The node angles are ``dth * (j - (n_theta - 1) / 2)`` with
    dth = 2 alpha / n_theta, so columns j and n_theta - 1 - j are exact
    conjugates; for a radial weight and a function equal to its mirror
    image in the real axis, `orbit_norms` computes one column of each such
    pair and the two columns are equal bit for bit.  R meets the schema's
    `horizons.orbit_R` (a real > 0).
    """
    check_fields(orbit_profile, R=R)
    res = resolution or OrbitResolution()
    sector = space.sector
    radii = np.geomspace(R / res.n_r, R, res.n_r)
    dth = 2 * sector.alpha / res.n_theta
    thetas = dth * (np.arange(res.n_theta) - (res.n_theta - 1) / 2)

    nodes = (radii[:, None] * np.exp(1j * thetas[None, :])).ravel()
    norms = orbit_norms(space, f, nodes)
    return OrbitGrid(radii=radii, thetas=thetas,
                     norms=norms.reshape(len(radii), len(thetas)),
                     R=float(R), space=space, fn=f)


@dataclass(frozen=True)
class LevelSetProfile:
    """Density profile of an orbit-norm level set.

    side='super' measures {t : ||T_t f|| >= threshold}, side='sub'
    measures {t : ||T_t f|| < threshold} of the nearest-node field; the
    two are exact complements, each measured exactly, so their ratios sum
    to 1 up to rounding at every radius.
    """

    threshold: float
    side: str
    profile: DensityProfile

    def estimate(self, window: int):
        return density_estimates(self.profile, window)


def level_density(grid: OrbitGrid, threshold: float, side: str,
                  schedule) -> LevelSetProfile:
    """Exact density profile of a level set of the nearest-node field.

    The level set is the union of the grid cells whose node passes the
    threshold.  With c_i such cells in the radial band [b_i, b_{i+1}) of
    `OrbitGrid.cell_edges` (b_0 = 0, b_{n_r} = infinity), each of angle
    2 alpha / n_theta,
    ``mu(L ∩ Δ_r) = (alpha / n_theta) * sum_i c_i (clip(r, b_i, b_{i+1})^2 - b_i^2)``;
    the errors are identically 0.  The schedule is read by `schedule_radii`;
    the threshold meets the schema's `thresholds.epsilon` (a real > 0).
    """
    check_fields(level_density, threshold=threshold, side=side)
    radii = schedule_radii(schedule)
    if radii.max() > grid.R * (1 + 1e-12):
        raise DomainError(
            f"schedule reaches r={radii.max():g} beyond the grid radius {grid.R:g}")

    inside = grid.norms >= threshold if side == "super" else grid.norms < threshold
    counts = inside.sum(axis=1)
    r_edges, _ = grid.cell_edges()
    lo = np.concatenate([[0.0], r_edges])
    hi = np.concatenate([r_edges, [np.inf]])
    sector = grid.space.sector
    bands = np.clip(radii[:, None], lo, hi) ** 2 - lo ** 2
    measures = (sector.alpha / len(grid.thetas)) * (bands * counts).sum(axis=1)
    profile = DensityProfile.from_measures(radii, measures, np.zeros_like(radii), sector)
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
    cancel exactly before any quadrature.  epsilon and delta are reals
    > 0, window an integer >= 1 and tol a real >= 0.
    """
    check_fields(pair_diagnostic, epsilon=epsilon, delta=delta, window=window, tol=tol)
    diff = linear_combination([(1.0, x), (-1.0, y)])
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
    a bounded orbit drives the estimates to 0 as M grows.  thresholds must
    hold one or more levels M; window and tol follow `pair_diagnostic`'s
    rules.
    """
    check_fields(unboundedness_diagnostic, window=window, tol=tol)
    thresholds = np.atleast_1d(np.asarray(thresholds, dtype=float))
    if not thresholds.size or np.any(np.diff(thresholds) <= 0):
        raise DomainError("unboundedness_diagnostic.thresholds must be one or more strictly "
                          f"increasing levels, got {thresholds}")
    uppers = []
    for m in thresholds:
        prof = level_density(grid, m, "super", schedule)
        w = min(window, len(prof.profile))
        uppers.append(density_estimates(prof.profile, w).upper)
    uppers = np.asarray(uppers)
    return UnboundednessReport(thresholds=thresholds, upper_estimates=uppers,
                               consistent=bool(np.all(uppers >= 1 - tol)))
