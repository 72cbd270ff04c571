"""Weighted Lp spaces on a sector and the translation operator.

The space is ``L^p_v`` over a sector: measurable f with
``integral |f(t)|^p v(t) dt`` finite.  Translation acts by
``(T_t f)(s) = f(s + t)``.  Functions carry their translation offset
lazily — translating only adds offsets, so the semigroup law
``T_s T_t = T_{s+t}`` is exact float arithmetic, and all numerical error
is confined to norm quadrature.

Every norm comes from the s-polar ray engine of `quadrature`:
||T_t f||^p is the integral of |f(s + t)|^p v(s) along the rays
s = rho e^{i phi}, |phi| <= alpha, over the pieces of f (the polar
rectangles of an indicator, the disc of a bump) and the support caps of
custom functions.  Indicators, and combinations of indicators at one
offset, are first cut into level pieces: disjoint rectangles on which
|f|^p is one constant, found by an angular and then a radial sweep, so
the engine integrates the weight alone on them (its closed-form ray
primitive for the built-in families), one row per (step, piece).  Other
functions run as one row per step.  Rows whose translate misses the
sector read exactly 0.  `lp_norm` (one step) and `orbit_norms` (a batch,
behind every orbit grid) share the front end `_front`; when the weight is
radial and f equals its mirror image in the real axis, `orbit_norms`
computes one step of each conjugate pair t, conj t (their norms are equal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import quadrature as quad
from .errors import ConfigError, DomainError, EvaluationError
from .geometry import Sector, as_complex, contains, is_real
from .sets import PolarRect, RectUnionSet
from .weights import Weight

__all__ = [
    "LpSpace", "SectorFunction", "NormResult",
    "indicator", "bump", "linear_combination", "custom_function",
    "lp_norm", "translate_function", "orbit_norm", "orbit_norms",
    "indicator_orbit_norms",
    "function_from_spec",
]


@dataclass(frozen=True)
class LpSpace:
    """The space L^p_v over a sector; p a real number in [1, inf)."""

    weight: Weight
    p: float
    sector: Sector

    def __post_init__(self):
        if not (is_real(self.p) and self.p >= 1):
            raise DomainError(f"exponent p must be a real number >= 1, got {self.p!r}")


# ---------------------------------------------------------------------------
# function representations


class _IndicatorBase:
    __slots__ = ("rects", "amplitude")

    def __init__(self, rects: RectUnionSet, amplitude: float = 1.0):
        self.rects = rects
        self.amplitude = float(amplitude)

    def evaluate(self, z):
        return self.amplitude * self.rects.member(z).astype(float)

    def support_radius(self, alpha: float):
        return self.rects.support_radius()

    def __eq__(self, other):
        return (isinstance(other, _IndicatorBase)
                and self.rects == other.rects and self.amplitude == other.amplitude)

    def __hash__(self):
        return hash((self.rects, self.amplitude))


class _BumpBase:
    """Smooth compactly supported cap: a * cos^2(pi d / (2 r)) for d < r."""

    __slots__ = ("center", "radius", "amplitude")

    def __init__(self, center: complex, radius: float, amplitude: float = 1.0):
        if radius <= 0:
            raise DomainError(f"bump radius must be > 0, got {radius}")
        self.center = complex(center)
        self.radius = float(radius)
        self.amplitude = float(amplitude)

    def evaluate(self, z):
        d = np.abs(np.asarray(z, dtype=complex) - self.center)
        inside = d < self.radius
        out = np.zeros(d.shape)
        out[inside] = self.amplitude * np.cos(np.pi * d[inside] / (2 * self.radius)) ** 2
        return out

    def support_radius(self, alpha: float):
        return abs(self.center) + self.radius

    def __eq__(self, other):
        return (isinstance(other, _BumpBase) and self.center == other.center
                and self.radius == other.radius and self.amplitude == other.amplitude)

    def __hash__(self):
        return hash((self.center, self.radius, self.amplitude))


class _CombBase:
    __slots__ = ("terms",)

    def __init__(self, terms: Sequence[tuple[float, "SectorFunction"]]):
        self.terms = tuple((float(c), f) for c, f in terms)

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape)
        for c, f in self.terms:
            out = out + c * f.evaluate(z)
        return out

    def support_radius(self, alpha: float):
        # base radii of the terms: the one cone-factor division happens in
        # SectorFunction.support_radius, whatever the terms' offsets
        radii = [f.base.support_radius(alpha) for _, f in self.terms]
        if any(r is None for r in radii):
            return None
        return max(radii, default=0.0)


class _CustomBase:
    __slots__ = ("fn", "radius_hint")

    def __init__(self, fn: Callable, radius_hint: float | None = None):
        self.fn = fn
        self.radius_hint = radius_hint

    def evaluate(self, z):
        return np.asarray(self.fn(np.asarray(z, dtype=complex)), dtype=float)

    def support_radius(self, alpha: float):
        return self.radius_hint


# Two points s, t of a sector of half-angle alpha are at most 2 alpha apart
# in angle, so |s + t| >= max(|s|, |t|) for alpha <= pi/4 and beyond that
# |s + t| >= sin(2 alpha) max(|s|, |t|), with equality at |t| = -|s| cos(2 alpha)
# on opposite edges.  This converts a support bound on the base into one on
# the translate.
def _cone_factor(alpha: float) -> float:
    return 1.0 if alpha <= math.pi / 4 else math.sin(2.0 * alpha)


@dataclass(frozen=True)
class SectorFunction:
    """A member of the weighted space: a base shape plus a lazy offset.

    Evaluation at s reads ``base(s + offset)``; translating by t just
    adds t to the offset.  `kind` is one of indicator, bump,
    linear-combination, custom.
    """

    base: object = field(repr=False)
    offset: complex = 0j
    kind: str = "custom"

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        vals = self.base.evaluate(z + self.offset)
        if self.kind == "custom" and not np.all(np.isfinite(vals)):
            raise EvaluationError("custom evaluator returned non-finite values")
        return vals

    def support_radius(self, alpha: float) -> float | None:
        """Bound R such that this function vanishes on |s| > R in the sector.

        Valid for any in-sector offset (including later translations):
        |s + offset| >= _cone_factor(alpha) |s|.
        """
        base_r = self.base.support_radius(alpha)
        if base_r is None:
            return None
        return base_r / _cone_factor(alpha)

    def simplified(self) -> "SectorFunction":
        """Flatten linear combinations and merge identical (base, offset) terms.

        Coefficients canceling to exactly 0.0 drop out, so a symbolic
        difference (g + f) - g collapses to f with no quadrature noise.
        """
        if self.kind != "linear-combination":
            return self
        flat: list[tuple[float, SectorFunction]] = []

        def _collect(scale: float, shift: complex, fn: SectorFunction):
            if fn.kind == "linear-combination":
                for c, sub in fn.base.terms:
                    _collect(scale * c, shift + fn.offset, sub)
            else:
                flat.append((scale, replace(fn, offset=fn.offset + shift)))

        _collect(1.0, 0j, self)
        merged: list[list] = []
        for c, fn in flat:
            for slot in merged:
                if slot[1].base == fn.base and slot[1].offset == fn.offset:
                    slot[0] += c
                    break
            else:
                merged.append([c, fn])
        merged = [(c, fn) for c, fn in merged if c != 0.0]
        if not merged:
            return indicator(RectUnionSet())
        if len(merged) == 1:
            c, fn = merged[0]
            if c == 1.0:
                return fn
            if fn.kind == "indicator":
                scaled = _IndicatorBase(fn.base.rects, c * fn.base.amplitude)
                return SectorFunction(scaled, fn.offset, "indicator")
            if fn.kind == "bump":
                scaled = _BumpBase(fn.base.center, fn.base.radius, c * fn.base.amplitude)
                return SectorFunction(scaled, fn.offset, "bump")
        return SectorFunction(_CombBase(merged), 0j, "linear-combination")

    @property
    def is_zero(self) -> bool:
        if self.kind == "indicator":
            return self.base.rects.is_empty or self.base.amplitude == 0.0
        if self.kind == "linear-combination":
            return not self.base.terms
        return False

    def scaled(self, c: float) -> "SectorFunction":
        return linear_combination([(c, self)]).simplified()


def indicator(rects: RectUnionSet, amplitude: float = 1.0) -> SectorFunction:
    return SectorFunction(_IndicatorBase(rects, amplitude), 0j, "indicator")


def bump(center, radius: float, amplitude: float = 1.0) -> SectorFunction:
    return SectorFunction(_BumpBase(as_complex(center), radius, amplitude), 0j, "bump")


def linear_combination(terms: Sequence[tuple[float, SectorFunction]]) -> SectorFunction:
    return SectorFunction(_CombBase(terms), 0j, "linear-combination")


def custom_function(fn: Callable, support_radius: float | None = None) -> SectorFunction:
    return SectorFunction(_CustomBase(fn, support_radius), 0j, "custom")


def translate_function(f: SectorFunction, t, sector: Sector) -> SectorFunction:
    """Apply the translation operator: offsets add, evaluation is exact."""
    z = as_complex(t)
    if not contains(sector, z):
        raise DomainError(f"translation step {z} lies outside the sector")
    return replace(f, offset=f.offset + z)


# ---------------------------------------------------------------------------
# norms


@dataclass(frozen=True)
class NormResult:
    """Truncated norm with its truncation radius and tail status.

    tail == 0.0 means the truncation covers the support (the value is the
    full norm up to quadrature); tail is None when nothing is known about
    the remainder.
    """

    value: float
    tail: float | None
    R: float

    def __float__(self):
        return self.value


def _terms(g: SectorFunction):
    """The (coefficient, function) terms of g: one, unless g is a combination."""
    return g.base.terms if g.kind == "linear-combination" else ((1.0, g),)


def _pieces(g: SectorFunction, alpha: float, R: float | None):
    """tau (1, m), rc (1, m, 4) and custom caps of the terms of g."""
    tau, rc, caps = [], [], []
    for _, f in _terms(g):
        if f.kind == "indicator":
            tau += [f.offset] * len(f.base.rects.rects)
            rc += [[t.r_lo, t.r_hi, t.th_lo, t.th_hi] for t in f.base.rects.rects]
        elif f.kind == "bump":
            tau.append(f.offset - f.base.center)
            rc.append([0.0, f.base.radius, np.nan, np.nan])
        else:
            caps.append(min(x for x in (R, f.support_radius(alpha)) if x is not None))
    return np.array(tau, dtype=complex)[None], np.array(rc).reshape(1, -1, 4), caps


def _level_pieces(g: SectorFunction, p: float):
    """An indicator, or a combination of indicators at one offset, as that
    offset, disjoint rectangles rc (m, 4), the weights (|level| / amp)^p of
    |g|^p on them and amp, the largest |level|; None for other functions.

    A combination is cut, by an angular and then a radial sweep as in
    `sets._normalize_rects`, into cells where it is constant, and the
    cells of one |level| are normalised into one rect union, so the pieces
    of 1_A - 1_B are the rectangles of the symmetric difference of A and B.
    """
    if g.kind == "indicator":
        rects, w, amp = g.base.rects.rects, np.ones(len(g.base.rects.rects)), abs(g.base.amplitude)
    elif g.kind != "linear-combination" or any(
            f.kind != "indicator" or f.offset != g.base.terms[0][1].offset for _, f in g.base.terms):
        return None
    else:
        parts = [(c * f.base.amplitude, t) for c, f in g.base.terms for t in f.base.rects.rects]
        edges = sorted({t.th_lo for _, t in parts} | {t.th_hi for _, t in parts})
        cells: dict[float, list[PolarRect]] = {}
        for a, b in zip(edges[:-1], edges[1:]):
            strip = [(c, t) for c, t in parts if t.th_lo <= a and t.th_hi >= b]
            radii = sorted({t.r_lo for _, t in strip} | {t.r_hi for _, t in strip})
            for lo, hi in zip(radii[:-1], radii[1:]):
                level = sum(c for c, t in strip if t.r_lo <= lo and t.r_hi >= hi)
                if level != 0.0:
                    cells.setdefault(abs(level), []).append(PolarRect(lo, hi, a, b))
        levels = {level: RectUnionSet(rects).rects for level, rects in cells.items()}
        amp = max(levels, default=0.0)
        order = sorted(levels, reverse=True)
        rects = [t for level in order for t in levels[level]]
        w = np.array([(level / amp) ** p for level in order for _ in levels[level]])
    rc = np.array([[t.r_lo, t.r_hi, t.th_lo, t.th_hi] for t in rects]).reshape(-1, 4)
    offset = g.offset if g.kind == "indicator" else g.base.terms[0][1].offset
    return offset, rc, w, amp


def _steps(sector: Sector, ts) -> np.ndarray:
    ts = np.atleast_1d(ts)  # numbers convert at once, `SectorPoint`s one by one
    taus = (ts.astype(complex) if ts.dtype.kind in "biufc"
            else np.array([as_complex(t) for t in ts], dtype=complex))
    outside = ~sector.membership_mask(taus)
    if np.any(outside):
        raise DomainError(f"translation step {taus[outside][0]} lies outside the sector")
    return taus


def _mirror_symmetric(space: LpSpace, g: SectorFunction) -> bool:
    """Whether ||T_t g|| = ||T_{conj t} g|| for every step t, decided from
    g's terms: the weight is radial and every term equals its mirror image
    in the real axis (a real offset, and a rect set closed under
    (th_lo, th_hi) -> (-th_hi, -th_lo) or a bump with a real centre).
    Then s -> conj s maps the integral of |g(s + t)|^p v(s) onto that at
    conj t.  Sufficient, not necessary: other functions read False."""
    if not space.weight.radial:
        return False
    for _, f in _terms(g):
        if f.offset.imag != 0.0:
            return False
        if f.kind == "indicator":
            rects = {(t.r_lo, t.r_hi, t.th_lo, t.th_hi) for t in f.base.rects.rects}
            if rects != {(r_lo, r_hi, -th_hi, -th_lo) for r_lo, r_hi, th_lo, th_hi in rects}:
                return False
        elif f.kind != "bump" or f.base.center.imag != 0.0:
            return False
    return True


def _front(space: LpSpace, f: SectorFunction, R: float | None):
    """(f simplified, its support bound), None for the zero function; R <= 0,
    or no R for an unbounded support, raises `DomainError`."""
    if R is not None and R <= 0:
        raise DomainError(f"truncation radius must be > 0, got {R}")
    g = f.simplified()
    if g.is_zero:
        return None
    sup = g.support_radius(space.sector.alpha)
    if R is None and sup is None:
        raise DomainError("function has unbounded support; a truncation radius is required")
    return g, sup


def _norms(space: LpSpace, g: SectorFunction, ts: np.ndarray, R: float | None) -> np.ndarray:
    """||T_t g|| truncated at R for every step t of ts, g as `_front`
    returns it."""
    v, alpha, p = space.weight, space.sector.alpha, space.p
    levels = _level_pieces(g, p)
    if levels is not None:  # disjoint pieces: the weight alone, one row per (step, piece)
        offset, rc, w, amp = levels
        tau = np.repeat(ts + offset, len(rc))[:, None]
        total = quad.ray_rows(v, alpha, p, tau, np.tile(rc, (len(ts), 1))[:, None], R)
        total = (total.reshape(len(ts), -1) * w).sum(axis=1)
        return amp * np.maximum(total, 0.0) ** (1.0 / p)
    tau, rc, caps = _pieces(g, alpha, R)
    total = quad.ray_rows(v, alpha, p, ts[:, None] + tau, rc, R, g, caps,
                          ts if ts.any() else None)
    return np.maximum(total, 0.0) ** (1.0 / space.p)


def lp_norm(space: LpSpace, f: SectorFunction, R: float | None = None) -> NormResult:
    """Weighted p-norm of f, truncated at radius R (None = full support),
    by the s-polar ray engine (see the module docstring)."""
    front = _front(space, f, R)
    if front is None:
        return NormResult(0.0, 0.0, float(R if R is not None else 0.0))
    g, sup = front
    tail = 0.0 if sup is not None and (R is None or sup <= R) else None
    value = float(_norms(space, g, np.zeros(1), R)[0])
    return NormResult(value=value, tail=tail, R=float(min(x for x in (R, sup) if x is not None)))


def orbit_norms(space: LpSpace, f: SectorFunction, ts, R: float | None = None) -> np.ndarray:
    """``||T_t f||`` for a batch of steps t, truncated at R, f of any kind.

    The engine of `lp_norm` with the steps as rows, so each entry equals
    ``orbit_norm(space, f, t, R)`` up to rounding; rows that miss the
    sector are skipped and read exactly 0.  A step outside the sector
    raises `DomainError`, as `orbit_norm` does.

    When `_mirror_symmetric` holds, ||T_t f|| = ||T_{conj t} f||: the steps
    are keyed by (Re t, |Im t|), the first step of each key, in the given
    order, goes to the engine, and every other step of that key receives a
    copy of its value, so a step and its conjugate read the same float.
    """
    taus = _steps(space.sector, ts)
    front = _front(space, f, R)
    if front is None:
        return np.zeros(len(taus))
    g, _ = front
    if not _mirror_symmetric(space, g):
        return _norms(space, g, taus, R)
    _, first, pair = np.unique(np.stack([taus.real, np.abs(taus.imag)], axis=1), axis=0,
                               return_index=True, return_inverse=True)
    keep = np.sort(first)
    norms = _norms(space, g, taus[keep], R)
    return norms[np.searchsorted(keep, first[pair.ravel()])]


def indicator_orbit_norms(space: LpSpace, f: SectorFunction, ts,
                          R: float | None = None) -> np.ndarray:
    """`orbit_norms` of an indicator function."""
    if f.simplified().kind != "indicator":
        raise DomainError("batch orbit norms require an indicator function")
    return orbit_norms(space, f, ts, R)


def orbit_norm(space: LpSpace, f: SectorFunction, t, R: float | None = None) -> float:
    """``|| T_t f ||`` — norm of the translate, truncated at R."""
    return lp_norm(space, translate_function(f, t, space.sector), R).value


# ---------------------------------------------------------------------------
# JSON specs


def function_from_spec(spec: dict) -> SectorFunction:
    """Build a function from a scenario JSON spec {kind, params, offset}."""
    kind = spec.get("kind")
    params = spec.get("params", {})
    off = spec.get("offset", [0.0, 0.0])
    offset = complex(float(off[0]), float(off[1]))
    if kind in ("indicator", "scaled-indicator"):
        rects = RectUnionSet.from_json(params["rects"])
        f = indicator(rects, amplitude=params.get("amplitude", 1.0))
    elif kind == "bump":
        c = params["center"]
        f = bump(complex(float(c[0]), float(c[1])), params["radius"],
                 params.get("amplitude", 1.0))
    elif kind == "linear-combination":
        f = linear_combination(
            [(term["coef"], function_from_spec(term["fn"])) for term in params["terms"]])
    else:
        raise ConfigError(f"unknown or non-serialisable function kind {kind!r}")
    return replace(f, offset=offset)
