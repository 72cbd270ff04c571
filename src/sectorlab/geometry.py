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
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .schema import check_fields

# Slack for containment checks: sums of boundary points may land a few
# ulps outside the cone; the boundary itself has measure zero.
_ANGLE_SLACK = 1e-12


@dataclass(frozen=True)
class Sector:
    """Closed complex sector of half-angle `alpha`, a real number in
    (0, pi/2) (the schema's `alpha`)."""

    alpha: float

    def __post_init__(self):
        check_fields(self)

    def point(self, r: float, theta: float) -> "SectorPoint":
        """Construct a validated point from polar coordinates (r a real >= 0,
        theta a real)."""
        check_fields(Sector.point, r=r, theta=theta)
        return SectorPoint(r * math.cos(theta), r * math.sin(theta), self)

    def from_complex(self, z: complex) -> "SectorPoint":
        return SectorPoint(z.real, z.imag, self)

    def membership_mask(self, z: np.ndarray) -> np.ndarray:
        """Vectorised containment test for an array of complex points."""
        z = np.asarray(z)
        return (np.abs(np.angle(z)) <= self.alpha + _ANGLE_SLACK) | (z == 0)

    def require(self, z, name: str):
        """z, a complex number or array, if `membership_mask` holds at every
        point; else a `DomainError` naming the argument `name` and the first
        point outside."""
        inside = self.membership_mask(z)
        if not (inside.all() if inside.ndim else inside):  # a scalar needs no reduction
            outside = complex(np.ravel(z)[~np.ravel(inside)][0])
            raise DomainError(f"{name} leaves the sector (alpha={self.alpha}) "
                              f"at the point {outside}")
        return z


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
        self.sector.require(complex(self.x, self.y), "SectorPoint")

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
        Truncation radius, a real >= 0.
    """
    check_fields(truncated_measure, r=r)
    return sector.alpha * r * r


def cone_factor(alpha: float) -> float:
    """The constant of the cone bound |s + t| >= cone_factor(alpha) max(|s|, |t|)
    for s, t in a sector of half-angle alpha.

    s and t are at most 2 alpha apart in angle, so the bound holds with 1
    for alpha <= pi/4; beyond that with sin(2 alpha), reached at
    |t| = -|s| cos(2 alpha) on opposite edges.
    """
    return 1.0 if alpha <= math.pi / 4 else math.sin(2.0 * alpha)


def contains(sector: Sector, p) -> bool:
    """True iff `p`, a complex number or a SectorPoint, lies in the closed
    sector: `Sector.membership_mask` of the one point, so the origin is in
    and the angle carries the `_ANGLE_SLACK` of 1e-12, which keeps exact
    sums of boundary points in; the boundary has measure zero, so no
    measure computation depends on this choice.
    """
    return bool(sector.membership_mask(as_complex(p)))


def add_points(s: SectorPoint, t: SectorPoint) -> SectorPoint:
    """Semigroup operation: componentwise sum of two points of one sector."""
    if s.sector.alpha != t.sector.alpha:
        raise DomainError("cannot add points of sectors with different half-angles")
    return SectorPoint(s.x + t.x, s.y + t.y, s.sector)


def as_complex(t) -> complex:
    """A SectorPoint or a number (numpy's too, never a bool) as a complex
    number; anything else, a string say, is a `DomainError`."""
    if isinstance(t, SectorPoint):
        return t.z
    if not isinstance(t, numbers.Number) or isinstance(t, bool):
        raise DomainError(f"a point must be a SectorPoint or a number, got {t!r}")
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
        check_fields(self)

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
    `DomainError` unless there is at least one and all are finite and > 0."""
    radii = np.atleast_1d(np.asarray(
        schedule.radii if isinstance(schedule, RadiusSchedule) else schedule, dtype=float))
    if len(radii) == 0 or not np.all((radii > 0) & (radii < np.inf)):
        raise DomainError(f"a schedule needs one or more radii, all finite and > 0; got {radii}")
    return radii
