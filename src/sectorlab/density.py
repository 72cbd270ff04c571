"""Finite-horizon density estimation for subsets of a sector.

The density of a measurable set A, relative to the sector, is the limit
behaviour of ``mu(A ∩ Δ_r) / mu(Δ_r)`` as r grows.  True limsup/liminf
values are out of numerical reach, so this module computes the ratio
profile along a radius schedule and reports sup/inf over a trailing
window together with a trend diagnostic.  Every verdict derived from
these numbers is a heuristic about the tail, never a claim about the
limit; callers are expected to surface the trend flag.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import RadiusSchedule, Sector, truncated_measure
from .sets import GridConfig, measure_profile

__all__ = [
    "DensityProfile", "DensityEstimate",
    "density_profile", "density_estimates", "annuli_density_bound",
]


@dataclass(frozen=True)
class DensityProfile:
    """Sampled ratios mu(A ∩ Δ_r)/mu(Δ_r) with per-radius error bounds."""

    radii: np.ndarray
    ratios: np.ndarray
    errors: np.ndarray

    def __len__(self):
        return len(self.radii)

    def to_csv(self) -> str:
        """CSV with columns r, ratio, error (one row per schedule radius)."""
        buf = io.StringIO()
        buf.write("r,ratio,error\n")
        for r, q, e in zip(self.radii, self.ratios, self.errors):
            buf.write(f"{float(r)!r},{float(q)!r},{float(e)!r}\n")
        return buf.getvalue()


@dataclass(frozen=True)
class DensityEstimate:
    """Tail-window summary of a profile: a limsup/liminf surrogate.

    `upper`/`lower` are the max/min ratio over the last `window` points.
    `trend` is 'settled' when the window span is below the settle
    tolerance, otherwise 'rising'/'falling'/'oscillating'; a non-settled
    trend means the horizon is too short for the estimate to be trusted.
    """

    upper: float
    lower: float
    window: int
    trend: str

    @property
    def settled(self) -> bool:
        return self.trend == "settled"


def density_profile(A, schedule, sector: Sector,
                    config: GridConfig | None = None) -> DensityProfile:
    """Ratio profile of A over a schedule (or explicit radii array).

    Rect unions and their translates are exact per radius (errors 0,
    `config` unused); oracle sets share one midpoint grid, set by
    `config`, for the whole profile (see `sets.measure_profile`).  Ratios
    of a measure-zero set are zeros, not an error.
    """
    if isinstance(schedule, RadiusSchedule):
        radii = schedule.radii
    else:
        radii = np.atleast_1d(np.asarray(schedule, dtype=float))
    if len(radii) == 0:
        raise DomainError("schedule must be nonempty")

    measures, errors = measure_profile(A, radii, sector, config)
    denom = np.array([truncated_measure(sector, r) for r in radii])
    return DensityProfile(radii=radii, ratios=measures / denom, errors=errors / denom)


def density_estimates(profile: DensityProfile, window: int,
                      settle_tol: float = 0.05) -> DensityEstimate:
    """Sup/inf of the trailing `window` ratios plus a trend flag."""
    if window == 0:
        raise DomainError("window must be >= 1")
    if window > len(profile):
        raise DomainError(f"window {window} exceeds profile length {len(profile)}")
    tail = profile.ratios[-window:]
    span = float(tail.max() - tail.min())
    if span <= settle_tol:
        trend = "settled"
    else:
        diffs = np.diff(tail)
        if np.all(diffs >= 0):
            trend = "rising"
        elif np.all(diffs <= 0):
            trend = "falling"
        else:
            trend = "oscillating"
    return DensityEstimate(upper=float(tail.max()), lower=float(tail.min()),
                           window=window, trend=trend)


def annuli_density_bound(K, n: int) -> float:
    """Lower-bound term ``(#(K ∩ [1, n]) / n)**2`` at horizon n.

    The density of a union of unit annuli indexed by K dominates this
    squared counting ratio; see the acceptance suite for the comparison
    against exact rect-union profiles.
    """
    if n < 1:
        raise DomainError(f"horizon must be >= 1, got {n}")
    count = len([k for k in K.members_up_to(n) if 1 <= k <= n]) if hasattr(K, "members_up_to") \
        else len([k for k in K if 1 <= k <= n])
    return (count / n) ** 2
