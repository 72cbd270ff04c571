"""Geometry of complex sectors.

A sector with half-angle ``alpha`` is the closed cone
``{r e^{i theta} : r >= 0, |theta| <= alpha}`` in the complex plane,
with ``0 < alpha < pi/2``.  Such a cone is closed under addition, which
is what lets it serve as the index set of a one-parameter operator
family.  Points are stored in Cartesian form so that the semigroup
operation (addition) is plain float arithmetic, exact up to rounding;
the polar view is derived on demand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

# Slack for containment checks: sums of boundary points may land a few
# ulps outside the cone; the boundary itself has measure zero.
_ANGLE_SLACK = 1e-12


@dataclass(frozen=True)
class Sector:
    """Closed complex sector of half-angle `alpha`, 0 < alpha < pi/2."""

    alpha: float

    def __post_init__(self):
        if not (0.0 < self.alpha < math.pi / 2):
            raise DomainError(f"sector half-angle must lie in (0, pi/2), got {self.alpha}")

    def point(self, r: float, theta: float) -> "SectorPoint":
        """Construct a validated point from polar coordinates."""
        if r < 0:
            raise DomainError(f"modulus must be >= 0, got {r}")
        return SectorPoint(r * math.cos(theta), r * math.sin(theta), self)

    def from_complex(self, z: complex) -> "SectorPoint":
        return SectorPoint(z.real, z.imag, self)

    def membership_mask(self, z: np.ndarray) -> np.ndarray:
        """Vectorised containment test for an array of complex points."""
        z = np.asarray(z)
        return (np.abs(np.angle(z)) <= self.alpha + _ANGLE_SLACK) | (z == 0)


@dataclass(frozen=True)
class SectorPoint:
    """A point of a sector, held in Cartesian form.

    The polar view (`r`, `theta`) is derived; containment in the ambient
    sector is checked on construction.
    """

    x: float
    y: float
    sector: Sector = field(repr=False)

    def __post_init__(self):
        if not contains(self.sector, complex(self.x, self.y)):
            raise DomainError(
                f"point {self.x}+{self.y}j lies outside the sector "
                f"(alpha={self.sector.alpha})")

    @property
    def r(self) -> float:
        return math.hypot(self.x, self.y)

    @property
    def theta(self) -> float:
        return math.atan2(self.y, self.x)

    @property
    def z(self) -> complex:
        return complex(self.x, self.y)


def truncated_measure(sector: Sector, r: float) -> float:
    """Lebesgue measure of the truncation ``{t in sector : |t| < r}``.

    Closed form ``alpha * r**2`` (polar area of a cone of half-angle
    alpha and radius r); no quadrature involved.

    Parameters
    ----------
    sector : Sector
    r : float
        Truncation radius, must be >= 0.
    """
    if r < 0:
        raise DomainError(f"truncation radius must be >= 0, got {r}")
    return sector.alpha * r * r


def contains(sector: Sector, p) -> bool:
    """True iff `p` lies in the closed sector (boundary inclusive).

    Accepts a complex number or a SectorPoint.  The angular comparison
    carries a 1e-12 slack so that exact sums of boundary points are not
    rejected for rounding; the boundary has measure zero, so no measure
    computation depends on this choice.
    """
    z = p.z if isinstance(p, SectorPoint) else complex(p)
    if z == 0:
        return True
    return abs(math.atan2(z.imag, z.real)) <= sector.alpha + _ANGLE_SLACK


def add_points(s: SectorPoint, t: SectorPoint) -> SectorPoint:
    """Semigroup operation: componentwise sum of two points of one sector."""
    if s.sector.alpha != t.sector.alpha:
        raise DomainError("cannot add points of sectors with different half-angles")
    return SectorPoint(s.x + t.x, s.y + t.y, s.sector)


def as_complex(t) -> complex:
    """Coerce a SectorPoint or complex-like value to a complex number."""
    if isinstance(t, SectorPoint):
        return t.z
    return complex(t)


@dataclass(frozen=True)
class RadiusSchedule:
    """Finite, strictly increasing ladder of radii r_j = r0 * gamma**j.

    A geometric ladder is the workhorse stand-in for "r to infinity":
    truncation measure grows quadratically, so geometric steps are
    equally informative.  `augmented_with_integers` unions the ladder
    with the integer radii up to the horizon, which removes aliasing
    against sets built from unit annuli (their ratio extrema sit at
    integer radii).
    """

    r0: float = 1.0
    gamma: float = 1.25
    count: int = 24

    def __post_init__(self):
        if self.r0 <= 0:
            raise DomainError(f"r0 must be > 0, got {self.r0}")
        if self.gamma <= 1:
            raise DomainError(f"gamma must be > 1, got {self.gamma}")
        if self.count < 1:
            raise DomainError(f"count must be >= 1, got {self.count}")

    @property
    def radii(self) -> np.ndarray:
        return self.r0 * self.gamma ** np.arange(self.count)

    @property
    def horizon(self) -> float:
        return float(self.radii[-1])

    def augmented_with_integers(self) -> np.ndarray:
        """Sorted union of the ladder with integer radii up to the horizon."""
        integers = np.arange(1.0, np.floor(self.horizon) + 1.0)
        return np.unique(np.concatenate([self.radii, integers]))


def schedule_radii(schedule) -> np.ndarray:
    """The radii of a `RadiusSchedule` or of a radii array, as a float array;
    `DomainError` unless there is at least one and all are > 0."""
    radii = np.atleast_1d(np.asarray(
        schedule.radii if isinstance(schedule, RadiusSchedule) else schedule, dtype=float))
    if len(radii) == 0 or np.any(radii <= 0):
        raise DomainError(f"a schedule needs one or more radii, all > 0; got {radii}")
    return radii
