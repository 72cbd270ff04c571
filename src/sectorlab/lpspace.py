"""Weighted Lp spaces on a sector and the translation operator.

The space is ``L^p_v`` over a sector: measurable f with
``integral |f(t)|^p v(t) dt`` finite.  Translation acts by
``(T_t f)(s) = f(s + t)``.  A function is a finite sum of terms
c h(s + t), a coefficient c, a shape h (the indicator of a rect union, a
bump, a custom evaluator) and an offset t, built canonical (equal shapes
at equal offsets merged, zero terms dropped).  Translating only adds to
the offsets, so the semigroup law ``T_s T_t = T_{s+t}`` is exact float
arithmetic, and all numerical error is confined to norm quadrature.

Every norm comes from the s-polar ray engine of `quadrature`:
||T_t f||^p is the integral of |f(s + t)|^p v(s) along the rays
s = rho e^{i phi}, |phi| <= alpha, over the pieces of f.  Each shape
states its support once, as pieces about a centre (`pieces`): the polar
rectangles of an indicator, the disc of a bump, and the support disc
|z| <= radius of a custom function (unbounded without a radius, then
clipped by the truncation R).  Indicators, and combinations of
indicators at one offset, are first cut into level pieces: disjoint
rectangles on which |f|^p is one constant, found by an angular and then
a radial sweep, so the engine integrates the weight alone on them (its
closed-form ray primitive for the built-in families), one row per
(step, piece).  Other functions run as one row per step.  Rows whose
pieces all miss the sector read exactly 0, with f never evaluated.
`lp_norm` (one step) and `orbit_norms` (a batch, behind every orbit
grid) share the front end `_front`; when the weight is radial and f
equals its mirror image in the real axis, `orbit_norms` computes one
step of each conjugate pair t, conj t (their norms are equal).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import quadrature as quad
from .errors import ConfigError, DomainError, EvaluationError
from .geometry import Sector, as_complex, contains, is_real
from .schema import check
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
#
# `pieces()` is a shape's one statement of its support: a centre c and
# rectangles rc (m, 4) = [r_lo, r_hi, th_lo, th_hi] about it, nan spans
# for discs; `_support` and `_pieces` both read it.


@dataclass(frozen=True)
class _Indicator:
    rects: RectUnionSet

    def evaluate(self, z):
        return self.rects.member(z).astype(float)

    def pieces(self):
        return 0j, self.rects.bounds


@dataclass(frozen=True)
class _Bump:
    """Smooth compactly supported cap: cos^2(pi d / (2 r)) for d < r."""

    center: complex
    radius: float

    def evaluate(self, z):
        d = np.abs(z - self.center)
        inside = d < self.radius
        out = np.zeros(d.shape)
        out[inside] = np.cos(np.pi * d[inside] / (2 * self.radius)) ** 2
        return out

    def pieces(self):
        return self.center, np.array([[0.0, self.radius, np.nan, np.nan]])


@dataclass(frozen=True)
class _Custom:
    fn: Callable
    radius: float | None

    def evaluate(self, z):
        vals = np.asarray(self.fn(z), dtype=float)
        if not np.all(np.isfinite(vals)):
            raise EvaluationError("custom evaluator returned non-finite values")
        return vals

    def pieces(self):
        radius = np.inf if self.radius is None else self.radius
        return 0j, np.array([[0.0, radius, np.nan, np.nan]])


_KINDS = {_Indicator: "indicator", _Bump: "bump", _Custom: "custom"}


# Two points s, t of a sector of half-angle alpha are at most 2 alpha apart
# in angle, so |s + t| >= max(|s|, |t|) for alpha <= pi/4 and beyond that
# |s + t| >= sin(2 alpha) max(|s|, |t|), with equality at |t| = -|s| cos(2 alpha)
# on opposite edges.  This converts a support bound on the shapes into one
# on the translate.
def _cone_factor(alpha: float) -> float:
    return 1.0 if alpha <= math.pi / 4 else math.sin(2.0 * alpha)


def _support(shapes, alpha: float) -> float | None:
    """Bound R such that the shapes, at any in-sector offset, vanish on
    |s| > R in the sector: |s + offset| >= _cone_factor(alpha) |s|.  None
    for an unbounded support."""
    radius = max((abs(c) + float(np.max(rc[:, 1], initial=0.0))
                  for c, rc in (h.pieces() for h in shapes)), default=0.0)
    return None if math.isinf(radius) else radius / _cone_factor(alpha)


@dataclass(frozen=True)
class SectorFunction:
    """A member of the weighted space: the sum of c h(s + t) over its
    (coefficient c, shape h, offset t) terms.

    Built canonical: terms with equal shape and offset are merged and zero
    coefficients dropped (so a symbolic difference (g + f) - g is f, with
    no quadrature noise), and translating by t adds t to every offset.
    `kind` is that of the shape of a one-term function (indicator, bump,
    custom; indicator for zero) and linear-combination otherwise.
    """

    terms: tuple = ()

    @property
    def kind(self) -> str:
        if len(self.terms) > 1:
            return "linear-combination"
        return _KINDS[type(self.terms[0][1])] if self.terms else "indicator"

    @property
    def offset(self) -> complex | None:
        """The offset of a one-term function (0j for zero); None otherwise."""
        if len(self.terms) > 1:
            return None
        return self.terms[0][2] if self.terms else 0j

    def evaluate(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        out = np.zeros(z.shape)
        for c, h, t in self.terms:
            out = out + c * h.evaluate(z + t)
        return out

    def support_radius(self, alpha: float) -> float | None:
        """Bound R such that this function and its in-sector translates
        vanish on |s| > R in the sector (`_support`)."""
        return _support([h for _, h, _ in self.terms], alpha)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def scaled(self, c: float) -> "SectorFunction":
        return linear_combination([(c, self)])


def _function(terms) -> SectorFunction:
    """The canonical function of (coefficient, shape, offset) terms."""
    merged: list[list] = []
    for c, h, t in terms:
        for slot in merged:
            if slot[2] == t and slot[1] == h:
                slot[0] += c
                break
        else:
            merged.append([c, h, t])
    return SectorFunction(tuple((c, h, t) for c, h, t in merged if c != 0.0))


def indicator(rects: RectUnionSet, amplitude: float = 1.0) -> SectorFunction:
    return _function([(float(amplitude), _Indicator(rects), 0j)] if rects.rects else [])


def bump(center, radius: float, amplitude: float = 1.0) -> SectorFunction:
    if not (is_real(radius) and radius > 0):
        raise DomainError(f"bump radius must be a real number > 0, got {radius!r}")
    return _function([(float(amplitude), _Bump(as_complex(center), float(radius)), 0j)])


def linear_combination(terms: Sequence[tuple[float, SectorFunction]]) -> SectorFunction:
    return _function((float(c) * a, h, t) for c, f in terms for a, h, t in f.terms)


def custom_function(fn: Callable, support_radius: float | None = None) -> SectorFunction:
    """The function fn, declared to vanish on |z| > support_radius (None:
    an unbounded support, whose norms need a truncation radius)."""
    if support_radius is not None and not (is_real(support_radius) and support_radius > 0):
        raise DomainError(f"custom support radius must be None or > 0, got {support_radius!r}")
    return _function([(1.0, _Custom(fn, support_radius), 0j)])


def _shifted(f: SectorFunction, z: complex) -> SectorFunction:
    return _function((c, h, t + z) for c, h, t in f.terms)


def translate_function(f: SectorFunction, t, sector: Sector) -> SectorFunction:
    """Apply the translation operator: offsets add, evaluation is exact."""
    z = as_complex(t)
    if not contains(sector, z):
        raise DomainError(f"translation step {z} lies outside the sector")
    return _shifted(f, z)


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


def _pieces(g: SectorFunction):
    """tau (1, m) and rc (1, m, 4) of the pieces of g's terms: the shape's
    rectangles about its centre c, at tau = offset - c."""
    parts = [(t, *h.pieces()) for _, h, t in g.terms]
    tau = np.concatenate([np.full(len(rc), t - c, dtype=complex) for t, c, rc in parts])
    return tau[None], np.concatenate([rc for _, _, rc in parts])[None]


def _level_pieces(g: SectorFunction, p: float):
    """A nonzero function of indicator terms at one offset as that offset,
    disjoint rectangles rc (m, 4), the weights (|level| / amp)^p of |g|^p
    on them and amp, the largest |level|; None for other functions.

    Several terms are cut, by an angular and then a radial sweep as in
    `sets._normalize_rects`, into cells where g is constant, and the
    cells of one |level| are normalised into one rect union, so the pieces
    of 1_A - 1_B are the rectangles of the symmetric difference of A and B.
    """
    offset = g.terms[0][2]
    if any(not isinstance(h, _Indicator) or t != offset for _, h, t in g.terms):
        return None
    if len(g.terms) == 1:
        c, h, _ = g.terms[0]
        return offset, h.rects.bounds, np.ones(len(h.rects.rects)), abs(c)
    parts = [(c, r) for c, h, _ in g.terms for r in h.rects.rects]
    edges = sorted({r.th_lo for _, r in parts} | {r.th_hi for _, r in parts})
    cells: dict[float, list[PolarRect]] = {}
    for a, b in zip(edges[:-1], edges[1:]):
        strip = [(c, r) for c, r in parts if r.th_lo <= a and r.th_hi >= b]
        radii = sorted({r.r_lo for _, r in strip} | {r.r_hi for _, r in strip})
        for lo, hi in zip(radii[:-1], radii[1:]):
            level = sum(c for c, r in strip if r.r_lo <= lo and r.r_hi >= hi)
            if level != 0.0:
                cells.setdefault(abs(level), []).append(PolarRect(lo, hi, a, b))
    levels = {level: RectUnionSet(rects) for level, rects in cells.items()}
    amp = max(levels, default=0.0)
    order = sorted(levels, reverse=True)
    rc = np.concatenate([np.zeros((0, 4))] + [levels[level].bounds for level in order])
    w = np.array([(level / amp) ** p for level in order for _ in levels[level].rects])
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
    for _, h, t in g.terms:
        if t.imag != 0.0:
            return False
        if isinstance(h, _Indicator):
            rects = set(map(tuple, h.rects.bounds.tolist()))
            if rects != {(r_lo, r_hi, -th_hi, -th_lo) for r_lo, r_hi, th_lo, th_hi in rects}:
                return False
        elif not isinstance(h, _Bump) or h.center.imag != 0.0:
            return False
    return True


def _front(space: LpSpace, f: SectorFunction, R: float | None) -> float | None:
    """f's support bound; R <= 0, or no R for an unbounded support, raises
    `DomainError`."""
    if R is not None and R <= 0:
        raise DomainError(f"truncation radius must be > 0, got {R}")
    sup = f.support_radius(space.sector.alpha)
    if R is None and sup is None:
        raise DomainError("function has unbounded support; a truncation radius is required")
    return sup


def _norms(space: LpSpace, g: SectorFunction, ts: np.ndarray, R: float | None) -> np.ndarray:
    """||T_t g|| truncated at R for every step t of ts, g nonzero."""
    v, alpha, p = space.weight, space.sector.alpha, space.p
    levels = _level_pieces(g, p)
    if levels is not None:  # disjoint pieces: the weight alone, one row per (step, piece)
        offset, rc, w, amp = levels
        tau = np.repeat(ts + offset, len(rc))[:, None]
        total = quad.ray_rows(v, alpha, p, tau, np.tile(rc, (len(ts), 1))[:, None], R)
        total = (total.reshape(len(ts), -1) * w).sum(axis=1)
        return amp * np.maximum(total, 0.0) ** (1.0 / p)
    tau, rc = _pieces(g)
    total = quad.ray_rows(v, alpha, p, ts[:, None] + tau, rc, R, g, ts if ts.any() else None)
    return np.maximum(total, 0.0) ** (1.0 / space.p)


def lp_norm(space: LpSpace, f: SectorFunction, R: float | None = None) -> NormResult:
    """Weighted p-norm of f, truncated at radius R (None = full support),
    by the s-polar ray engine (see the module docstring)."""
    sup = _front(space, f, R)
    if f.is_zero:
        return NormResult(0.0, 0.0, float(R if R is not None else 0.0))
    tail = 0.0 if sup is not None and (R is None or sup <= R) else None
    value = float(_norms(space, f, np.zeros(1), R)[0])
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
    _front(space, f, R)
    if f.is_zero:
        return np.zeros(len(taus))
    if not _mirror_symmetric(space, f):
        return _norms(space, f, taus, R)
    _, first, pair = np.unique(np.stack([taus.real, np.abs(taus.imag)], axis=1), axis=0,
                               return_index=True, return_inverse=True)
    keep = np.sort(first)
    norms = _norms(space, f, taus[keep], R)
    return norms[np.searchsorted(keep, first[pair.ravel()])]


def indicator_orbit_norms(space: LpSpace, f: SectorFunction, ts,
                          R: float | None = None) -> np.ndarray:
    """`orbit_norms` of an indicator function."""
    if f.kind != "indicator":
        raise DomainError("batch orbit norms require an indicator function")
    return orbit_norms(space, f, ts, R)


def orbit_norm(space: LpSpace, f: SectorFunction, t, R: float | None = None) -> float:
    """``|| T_t f ||`` — norm of the translate, truncated at R."""
    return lp_norm(space, translate_function(f, t, space.sector), R).value


# ---------------------------------------------------------------------------
# JSON specs


def function_from_spec(spec: dict) -> SectorFunction:
    """Build a function from a scenario JSON spec {kind, params, offset}.

    A spec that breaks the schema's `function` rule, or lacks a parameter
    its kind needs, is a `ConfigError`."""
    kind, params = check("function", spec)["kind"], spec["params"]
    try:
        if kind == "bump":
            f = bump(complex(*params["center"]), params["radius"], params.get("amplitude", 1.0))
        elif kind == "linear-combination":
            f = linear_combination(
                [(term["coef"], function_from_spec(term["fn"])) for term in params["terms"]])
        else:
            f = indicator(RectUnionSet.from_json(params["rects"]), params.get("amplitude", 1.0))
    except KeyError as exc:
        raise ConfigError(f"a {kind} function spec needs the param {exc}, got {spec!r}") from exc
    return _shifted(f, complex(*spec.get("offset", [0.0, 0.0])))
