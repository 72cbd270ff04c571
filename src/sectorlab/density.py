"""Finite-horizon density estimation for subsets of a sector.

The density of a measurable set A, relative to the sector, is the limit
behaviour of ``mu(A ∩ Δ_r) / mu(Δ_r)`` as r grows.  Every measure is
exact (errors identically 0), but true limsup/liminf values are out of
numerical reach, so this module computes the ratio profile along a
radius schedule and reports sup/inf over a trailing window together
with a trend diagnostic.  Every verdict derived from
these numbers is a heuristic about the tail, never a claim about the
limit; callers are expected to surface the trend flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .geometry import Sector, schedule_radii
from .schema import check_fields
from .sets import measure_profile

__all__ = [
    "DensityProfile", "DensityEstimate",
    "density_profile", "density_estimates",
]


@dataclass(frozen=True)
class DensityProfile:
    """Sampled ratios mu(A ∩ Δ_r)/mu(Δ_r) with per-radius errors (0 for
    every exact measure)."""

    radii: np.ndarray
    ratios: np.ndarray
    errors: np.ndarray

    @classmethod
    def from_measures(cls, radii, measures, errors, sector: Sector) -> "DensityProfile":
        """Ratios of measures (and of their errors) to mu(Δ_r) = alpha r^2,
        over radii that `schedule_radii` has read."""
        denom = sector.alpha * radii * radii
        return cls(radii=radii, ratios=measures / denom, errors=errors / denom)

    def __len__(self):
        return len(self.radii)

    def to_csv(self) -> str:
        """CSV with columns r, ratio, error (one row per schedule radius)."""
        rows = zip(self.radii.tolist(), self.ratios.tolist(), self.errors.tolist())
        return "r,ratio,error\n" + "".join(f"{r!r},{q!r},{e!r}\n" for r, q, e in rows)


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


def density_profile(A, schedule, sector: Sector) -> DensityProfile:
    """Ratio profile of A over a schedule (or radii), see `schedule_radii`.

    A rect union or its translate is exact per radius (errors 0); any
    other set raises `DomainError` (see `sets.measure_profile`).  Ratios
    of a measure-zero set are zeros, not an error.
    """
    radii = schedule_radii(schedule)
    measures, errors = measure_profile(A, radii, sector)
    return DensityProfile.from_measures(radii, measures, errors, sector)


def density_estimates(profile: DensityProfile, window: int,
                      settle_tol: float = 0.05) -> DensityEstimate:
    """Sup/inf of the trailing `window` (an integer from 1 to len) ratios
    plus a trend flag; settle_tol is a real >= 0."""
    check_fields(density_estimates, window=window, settle_tol=settle_tol)
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
