"""Weighted Lp spaces on a sector and the translation operator.

The space is ``L^p_v`` over a sector: measurable f with
``integral |f(t)|^p v(t) dt`` finite.  Translation acts by
``(T_t f)(s) = f(s + t)``.  Functions carry their translation offset
lazily — translating only adds offsets, so the semigroup law
``T_s T_t = T_{s+t}`` is exact float arithmetic, and all numerical error
is confined to norm quadrature.

Every norm comes from one engine in s-polar coordinates: ||T_t f||^p is
the integral of |f(s + t)|^p v(s) along the rays s = rho e^{i phi},
|phi| <= alpha.  A function is made of pieces (the polar rectangles of an
indicator, the disc of a bump: a rectangle [0, r] about its centre with
no angular span), and a piece cuts a ray in at most two rho-intervals,
solved in closed form: circle roots for the radii, half-plane cuts for
the span, rho <= R for a truncation.  Gauss-Legendre panels split at
integer radii run on those intervals, so no discontinuity is ever
sampled; for an indicator and a built-in weight the rho-integral over an
interval is the weight's closed-form ray primitive instead (see
`weights`), so only the phi integral is numerical.  The phi panels split
where an interval end changes branch: tangent rays, corners, rays
parallel to a span edge, crossings of two circles or of the truncation
circle and, in a combination, where a span edge of one piece crosses a
circle or a span edge of another, since two interval ends swap there.
Splits closer than a quarter panel get panels graded towards them.  At a
tangent ray an interval end behaves like a square root in
phi; a quadratic map with a flat end there makes the integrand smooth
again.

A batch of steps is a batch of rows, one per step (`orbit_norms`, behind
every orbit grid), and each row carries its own phi panels.  Indicators,
and combinations of indicators at one offset, are cut into level
pieces: disjoint rectangles on which |f|^p is one constant, found by an
angular and then a radial sweep, so they take the primitive path with
one row per (step, piece).  Other combinations cut the ray at every
interval end and integrate |f(s + t)|^p on radial panels between the
cuts, one row per step.  In a batch, a row whose pieces all lie in
discs |s + tau| <= r_hi that miss the sector is exactly zero and is
skipped before any panel is laid; the test is the distance from -tau to
the sector, |tau| sin(beta) with beta the angle to the nearer edge
(|tau| once beta >= pi/2).  In an orbit grid many rows are such rows.
A single norm (`lp_norm`) has one step and runs the engine directly.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from . import quadrature as quad
from .errors import DomainError, EvaluationError, InvalidWeightError
from .geometry import Sector, as_complex, contains
from .sets import PolarRect, RectUnionSet
from .weights import Weight, _angular_panels

__all__ = [
    "LpSpace", "SectorFunction", "NormResult",
    "indicator", "bump", "linear_combination", "custom_function",
    "lp_norm", "translate_function", "orbit_norm", "orbit_norms",
    "indicator_orbit_norms",
    "function_from_spec",
]


@dataclass(frozen=True)
class LpSpace:
    """The space L^p_v over a sector; p in [1, inf)."""

    weight: Weight
    p: float
    sector: Sector

    def __post_init__(self):
        if self.p < 1:
            raise DomainError(f"exponent p must be >= 1, got {self.p}")


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


_PHI_NODES, _MIN_PHI_PANELS, _RHO_NODES = 20, 6, 12
_CUSTOM_PHI = (12, 8)  # no breakpoints: the generic grid, 12 nodes on >= 8 panels
_ROW_BLOCK = 256  # pieces (over all rows) whose ray intervals are held at once
_PANEL_BLOCK = 1 << 15  # radial panels evaluated at once


@functools.cache
def _panel_maps(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1], indexed by flat-left + 2 * flat-right."""
    u, w = quad.gl_rule(npts)
    t = np.array([(1 + u) / 2, (1 + u) ** 2 / 4, 1 - (1 - u) ** 2 / 4, (2 + 3 * u - u ** 3) / 4])
    dt = np.array([np.full_like(u, 0.5), (1 + u) / 2, (1 - u) / 2, 0.75 * (1 - u * u)])
    return t, dt * w


def _piece_angles(tau, rc, R) -> tuple[np.ndarray, np.ndarray]:
    """Angles (rows, k) where a ray interval end of s + tau in the pieces rc
    changes branch (nan where none), flagging the tangent rays: tangents to
    the radius circles, corners, rays parallel to the span edges and, for a
    truncation R, where |s| = R meets the circles and the edge lines."""
    tau, rc = np.broadcast_arrays(tau[..., None], rc)
    tau, r, th = tau[..., :1], rc[..., :2], rc[..., 2:]
    m, a = np.abs(tau), np.angle(-tau)
    e = np.exp(1j * th)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = r / m
        tangent = np.arcsin(ratio)
        corner = np.where(r[..., None] > 0, np.angle(r[..., None] * e[..., None, :] - tau[..., None]),
                          np.nan)
        angles = [a - tangent, a + tangent, corner.reshape(corner.shape[:-2] + (4,)), th]
        if R is not None:
            cross = np.arccos(np.clip((R * R + m * m - r * r) / (2.0 * R * m), -1.0, 1.0))
            b = (tau * e.conj()).real
            root = np.sqrt(np.maximum(b * b - m * m + R * R, 0.0))
            angles += [a - cross, a + cross, np.angle((b - root) * e - tau),
                       np.angle((b + root) * e - tau)]
    angles = np.concatenate(angles, axis=-1)
    flat = np.zeros(angles.shape, bool)
    flat[..., :4] = np.concatenate([(ratio > 0) & (ratio < 1)] * 2, axis=-1)
    return angles.reshape(len(angles), -1), flat.reshape(len(angles), -1)


def _piece_intervals(tau, rc, phi, R) -> tuple[np.ndarray, np.ndarray]:
    """The rho-intervals (rows, n_phi, 2m) where s + tau lies in the pieces
    rc: the annulus chord, cut by the span's two half-planes."""
    tau, rc = tau[:, None, :], rc[:, None]
    # |rho e^{i phi} + tau| <= r  reads  rho^2 + 2 d rho + |tau|^2 <= r^2
    d = (tau * np.exp(-1j * phi)[..., None]).real
    disc = (d * d - np.abs(tau) ** 2)[..., None] + rc[..., :2] ** 2
    root = np.sqrt(np.maximum(disc, 0.0))
    lo, hi = np.maximum(-d[..., None] - root, 0.0), -d[..., None] + root
    lo, hi = np.where(disc > 0, lo, 0.0), np.where(disc > 0, hi, 0.0)
    # the annulus: the outer chord minus the inner one
    lo, hi = (np.stack([lo[..., 1], np.maximum(lo[..., 1], hi[..., 0])], axis=-1),
              np.stack([np.minimum(hi[..., 1], lo[..., 0]), hi[..., 1]], axis=-1))
    # s + tau stays in the sector, so clipping the span to [-pi/2, pi/2]
    # changes nothing and keeps the wedge an intersection of half-planes;
    # sgn * Im((s + tau) e^{-i th}) >= 0 bounds rho below where k >= 0
    cut_lo, cut_hi = 0.0, np.inf if R is None else R
    for th, sgn in ((rc[..., 2], 1.0), (rc[..., 3], -1.0)):
        th = np.clip(th, -np.pi / 2, np.pi / 2)
        k = sgn * np.sin(phi[..., None] - th)
        with np.errstate(divide="ignore", invalid="ignore"):
            bound = -sgn * (tau * np.exp(-1j * th)).imag / k
        cut_lo = np.fmax(cut_lo, np.where(k >= 0, bound, 0.0))
        cut_hi = np.fmin(cut_hi, np.where(k < 0, bound, np.inf))
    lo, hi = np.maximum(lo, cut_lo[..., None]), np.minimum(hi, cut_hi[..., None])
    empty = hi <= lo
    shape = phi.shape + (2 * rc.shape[-2],)
    return np.where(empty, 0.0, lo).reshape(shape), np.where(empty, 0.0, hi).reshape(shape)


def _phi_rule(space: LpSpace, reach, angles, flat, npts: int,
              n_min: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-row phi nodes and weights: equal panels over the sector, at
    least n_min and as many as the weight needs out to the row's reach,
    split at the row's angles inside the sector; flat marks the tangent
    rays."""
    alpha = space.sector.alpha
    n = np.maximum(n_min, _angular_panels(space.weight, 2.0 * alpha, reach))
    a = np.angle(np.exp(1j * angles))
    # two angles closer than a quarter panel bracket a near-singular spot
    # (a tangent ray next to a corner, say): grade the panels on either side
    # towards them by factors of 4, as many as bridge the gap to a panel's
    # width, at most 12 (closer pairs, down to rounding duplicates, are too
    # close to bridge); 5 steps bridge every gap of 1/1024 panel or more
    a = np.where(np.abs(a) < alpha, a, alpha)
    ends = np.concatenate([np.full((len(a), 1), -alpha), np.sort(a, axis=1)], axis=1)
    gap = np.diff(ends, axis=1, append=alpha)[..., None]
    width = 2.0 * alpha / n[:, None, None]
    bridge = (gap > width / 4.0 ** 12) & (gap < width / 4.0 ** 5)
    step = gap * 4.0 ** np.arange(1, 13 if bridge.any() else 6)
    near = (gap > width / 4.0 ** 12) & (step < width)
    graded = np.concatenate([np.where(near, ends[..., None] - step, alpha),
                             np.where(near, ends[..., None] + gap + step, alpha)], axis=1)
    graded = np.where(np.abs(graded) < alpha, graded, alpha).reshape(len(a), -1)
    base = -alpha + 2.0 * alpha * np.minimum(np.arange(n.max() + 1) / n[:, None], 1.0)
    edges = np.concatenate([base, a, graded], axis=1)
    flat = np.concatenate([np.zeros(base.shape, bool), flat & (a < alpha),
                           np.zeros(graded.shape, bool)], axis=1)
    order = np.argsort(edges, axis=1, kind="stable")
    keep = np.sum(edges < alpha, axis=1).max() + 1  # the rest are empty panels at alpha
    edges, flat = (np.take_along_axis(x, order, axis=1)[:, :keep] for x in (edges, flat))
    t, w = (x[flat[:, :-1] + 2 * flat[:, 1:]] for x in _panel_maps(npts))
    width = edges[:, 1:, None] - edges[:, :-1, None]
    width = np.where(width > 1e-12, width, 0.0)  # rounding duplicates
    return ((edges[:, :-1, None] + width * t).reshape(len(n), -1),
            (width * w).reshape(len(n), -1))


def _checked(space: LpSpace, vals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vals)) or np.any(vals < 0):
        raise InvalidWeightError(
            f"weight '{space.weight.family}' is negative or non-finite "
            "on a ray inside the sector")
    return vals


def _ray_integrate(space: LpSpace, lo, hi, phi, wphi,
                   g: SectorFunction | None = None, scale=1.0, shift=None) -> np.ndarray:
    """Per row, the integral of |g(s + shift)|^p v(s) (v alone when g is
    None) over the ray intervals [lo, hi] (rows, n_phi, k), shift (rows,)
    the row's step (None: 0).  v alone with a weight primitive (the
    built-in families) is integrated in rho in closed form; otherwise on
    panels split at multiples of 1/scale.  Either way an overflow gives
    inf with no warning, which `_checked` refuses."""
    rows, n_phi, k = lo.shape
    live = (hi > lo) & (wphi[..., None] > 0)
    if g is None and space.weight.primitive is not None:
        ray = np.zeros(lo.shape)
        ray[live] = _checked(space, space.weight.primitive(
            np.broadcast_to(phi[..., None], lo.shape)[live], lo[live], hi[live]))
        return np.sum(np.sum(ray, axis=2) * wphi, axis=1)
    phase = np.exp(1j * phi).ravel()
    scale = np.broadcast_to(scale, lo.shape).ravel()
    lo, hi = lo.ravel(), hi.ravel()
    floor = np.floor(lo * scale)
    n = np.where(live.ravel(), np.ceil(hi * scale) - floor, 0).astype(np.int64)
    first = np.cumsum(n) - n
    x, w = (r[0] for r in _panel_maps(_RHO_NODES))
    ray = np.zeros(rows * n_phi)
    cuts = np.flatnonzero(np.diff(first // _PANEL_BLOCK)) + 1
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(n)]):
        ids = np.repeat(np.arange(a, b), n[a:b])
        # panel j of an interval spans [floor + j, floor + j + 1] / scale, clipped
        j = floor[ids] + (np.arange(len(ids)) - (first[ids] - first[a]))
        start = np.maximum(lo[ids], j / scale[ids])
        width = np.minimum(hi[ids], (j + 1.0) / scale[ids]) - start
        rho = start[:, None] + width[:, None] * x
        z = rho * phase[ids // k, None]
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _checked(space, space.weight.eval(z))
            if g is not None:
                if shift is not None:
                    z = z + shift[ids // (k * n_phi), None]
                vals = vals * np.abs(g.evaluate(z)) ** space.p
        ray += np.bincount(ids // k, (vals * rho) @ w * width, minlength=len(ray))
    return np.sum(ray.reshape(rows, n_phi) * wphi, axis=1)


def _edge_crossings(c, r, th) -> np.ndarray:
    """Angles (rows, k) where a span edge of one piece, the ray -tau + lam
    e^{i th} (lam >= 0), meets a circle or a span edge of another piece:
    there two interval ends of the combination swap.  c, r and th (rows,
    2m) list the centres -tau, the radii and the span edges, two per piece
    (nan edges for discs)."""
    rows, n = c.shape
    own = np.arange(n) // 2
    e = np.exp(1j * th)
    with np.errstate(invalid="ignore"):
        # edge l meets circle k where lam^2 + 2 b lam + |c_l - c_k|^2 - r_k^2 = 0
        dc = c[:, None, :] - c[:, :, None]  # (rows, circle k, edge l)
        b = (dc * e[:, None, :].conj()).real
        root = np.sqrt(b * b - np.abs(dc) ** 2 + r[:, :, None] ** 2)
        lam = -b[..., None] + np.stack([-root, root], axis=-1)
        other = (own[:, None] != own[None, :])[None, :, :, None]
        circle = np.where(other & (lam >= 0), np.angle(c[:, None, :, None] + lam * e[:, None, :, None]),
                          np.nan)
        # edges i and j meet where c_i + lam_i e_i = c_j + lam_j e_j
        i, j = np.triu_indices(n, 1)
        i, j = i[own[i] != own[j]], j[own[i] != own[j]]
        den = (e[:, i] * e[:, j].conj()).imag
        dc = c[:, j] - c[:, i]
        ok = np.abs(den) > 1e-12
        den = np.where(ok, den, 1.0)
        lam_i, lam_j = (dc * e[:, j].conj()).imag / den, (dc * e[:, i].conj()).imag / den
        edge = np.where(ok & (lam_i >= 0) & (lam_j >= 0), np.angle(c[:, i] + lam_i * e[:, i]), np.nan)
    return np.hstack([circle.reshape(rows, -1), edge])


def _engine(space: LpSpace, tau, rc, R: float | None,
            g: SectorFunction | None = None, caps=(), shift=None) -> np.ndarray:
    """Per row of tau (rows, m), the integral over {s in sector, |s| <= R}
    of |g(s + shift)|^p v(s) (of v alone when g is None: disjoint pieces)
    over the pieces {s + tau[:, j] in rc[:, j]}, rc (rows or 1, m, 4) =
    [r_lo, r_hi, th_lo, th_hi] with nan spans for discs, and the custom
    intervals [0, cap]; shift (rows,) is the row's step (None: 0)."""
    rows = len(tau)
    # custom functions alone have no pieces
    angles, flat = (_piece_angles(tau, rc, R) if rc.shape[1]
                    else (np.zeros((rows, 0)), np.zeros((rows, 0), bool)))
    several = g is not None and g.kind == "linear-combination"
    # where terms overlap g may change sign, and |g|^p then has a kink
    # unless p is even; the kink is not known in closed form, so there the
    # radial panels are 16 times finer and the phi panels twice as many
    kinks = several and space.p % 2 != 0
    if several:  # corners of the lenses where two circles meet, centres -tau
        c = np.repeat(-tau, 2, axis=1)
        r = np.broadcast_to(rc[..., :2], tau.shape + (2,)).reshape(rows, -1)
        i, j = np.triu_indices(c.shape[1], 1)
        d = np.abs(c[:, j] - c[:, i])
        with np.errstate(divide="ignore", invalid="ignore"):
            x = (r[:, i] ** 2 - r[:, j] ** 2 + d * d) / (2.0 * d)
            y = np.sqrt(r[:, i] ** 2 - x * x)
            a = np.angle(c[:, None, i] + np.stack([x - 1j * y, x + 1j * y], axis=1)
                         * (c[:, j] - c[:, i])[:, None] / d[:, None]).reshape(rows, -1)
        angles, flat = np.hstack([angles, a]), np.hstack([flat, np.ones(a.shape, bool)])
        if np.isfinite(rc[..., 2]).any():
            a = _edge_crossings(c, r, np.broadcast_to(rc[..., 2:], tau.shape + (2,)).reshape(rows, -1))
            angles, flat = np.hstack([angles, a]), np.hstack([flat, np.zeros(a.shape, bool)])
    reach = np.max(rc[..., 1] + np.abs(tau), axis=1, initial=max(caps, default=0.0))
    phi, wphi = _phi_rule(space, reach if R is None else np.minimum(reach, R), angles, flat,
                          *((_PHI_NODES, _MIN_PHI_PANELS * (1 + kinks)) if angles.size else _CUSTOM_PHI))
    lo, hi = _piece_intervals(tau, rc, phi, R) if rc.shape[1] else (np.zeros(phi.shape + (0,)),) * 2
    lo = np.concatenate([lo, np.zeros(phi.shape + (len(caps),))], axis=-1)
    hi = np.concatenate([hi, np.broadcast_to(caps, phi.shape + (len(caps),))], axis=-1)
    scale = 1.0
    if several:  # cut at every interval end; |g|^p is smooth in between
        cut = np.sort(np.concatenate([lo, hi], axis=-1), axis=-1)
        mid = (cut[..., :-1, None] + cut[..., 1:, None]) / 2.0
        cover = np.sum((lo[..., None, :] < mid) & (mid < hi[..., None, :]), axis=-1)
        lo, hi = np.where(cover > 0, cut[..., :-1], 0.0), np.where(cover > 0, cut[..., 1:], 0.0)
        scale = np.where((cover > 1) & kinks, 16.0, 1.0)
    return _ray_integrate(space, lo, hi, phi, wphi, g, scale, shift)


def _rows(space: LpSpace, tau, rc, R: float | None,
          g: SectorFunction | None = None, caps=(), shift=None) -> np.ndarray:
    """`_engine` over the rows of tau (rows, m), in blocks of at most
    _ROW_BLOCK pieces (of their squares when they are cut against each
    other)."""
    m = tau.shape[1] + len(caps)
    block = max(1, _ROW_BLOCK // (m if g is None else m * m))
    if len(tau) <= block:
        return _engine(space, tau, rc, R, g, caps, shift)
    return np.concatenate([
        _engine(space, tau[i:i + block], rc[i:i + block] if len(rc) > 1 else rc, R, g, caps,
                None if shift is None else shift[i:i + block])
        for i in range(0, len(tau), block)])


def _misses(sector: Sector, tau, r_hi) -> np.ndarray:
    """Where the disc |s + tau| <= r_hi misses the sector: the distance from
    -tau to the sector, |tau| sin(beta) with beta the angle from arg(-tau)
    to the nearer edge (|tau| itself once beta >= pi/2), exceeds r_hi."""
    beta = np.arctan2(np.abs(tau.imag), -tau.real) - sector.alpha
    return np.abs(tau) * np.sin(np.minimum(np.maximum(beta, 0.0), np.pi / 2)) > r_hi


def _live_rows(space: LpSpace, tau, rc, R: float | None,
               g: SectorFunction | None = None, caps=(), shift=None) -> np.ndarray:
    """`_rows`, skipping every row whose pieces all miss the sector and
    that has no custom interval: it is exactly zero."""
    total = np.zeros(len(tau))
    live = ~_misses(space.sector, tau, rc[..., 1]).all(axis=1) | bool(caps)
    if live.any():
        total[live] = _rows(space, tau[live], rc[live] if len(rc) > 1 else rc, R, g, caps,
                            None if shift is None else shift[live])
    return total


def _pieces(g: SectorFunction, alpha: float, R: float | None):
    """tau (1, m), rc (1, m, 4) and custom caps of the terms of g."""
    tau, rc, caps = [], [], []
    for _, f in (g.base.terms if g.kind == "linear-combination" else [(1.0, g)]):
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
    taus = np.array([as_complex(t) for t in np.atleast_1d(ts)], dtype=complex)
    outside = ~sector.membership_mask(taus)
    if np.any(outside):
        raise DomainError(f"translation step {taus[outside][0]} lies outside the sector")
    return taus


def _norms(space: LpSpace, g: SectorFunction, ts: np.ndarray, R: float | None,
           rows=_rows) -> np.ndarray:
    """||T_t g|| truncated at R for every step t of ts, g simplified,
    nonzero and bounded by its support or R; rows runs the engine."""
    levels = _level_pieces(g, space.p)
    if levels is not None:  # disjoint pieces: the weight alone, one row per (step, piece)
        offset, rc, w, amp = levels
        tau = np.repeat(ts + offset, len(rc))[:, None]
        total = rows(space, tau, np.tile(rc, (len(ts), 1))[:, None], R)
        total = (total.reshape(len(ts), -1) * w).sum(axis=1)
        return amp * np.maximum(total, 0.0) ** (1.0 / space.p)
    tau, rc, caps = _pieces(g, space.sector.alpha, R)
    total = rows(space, ts[:, None] + tau, rc, R, g, caps, ts if ts.any() else None)
    return np.maximum(total, 0.0) ** (1.0 / space.p)


def lp_norm(space: LpSpace, f: SectorFunction, R: float | None = None) -> NormResult:
    """Weighted p-norm of f, truncated at radius R (None = full support),
    by the s-polar ray engine (see the module docstring)."""
    if R is not None and R <= 0:
        raise DomainError(f"truncation radius must be > 0, got {R}")
    g = f.simplified()
    if g.is_zero:
        return NormResult(0.0, 0.0, float(R if R is not None else 0.0))
    sup = g.support_radius(space.sector.alpha)
    if R is None and sup is None:
        raise DomainError("function has unbounded support; a truncation radius is required")
    tail = 0.0 if sup is not None and (R is None or sup <= R) else None
    value = float(_norms(space, g, np.zeros(1), R)[0])
    return NormResult(value=value, tail=tail, R=float(min(x for x in (R, sup) if x is not None)))


def orbit_norms(space: LpSpace, f: SectorFunction, ts, R: float | None = None) -> np.ndarray:
    """``||T_t f||`` for a batch of steps t, truncated at R, f of any kind.

    The engine of `lp_norm` with the steps as rows, so each entry equals
    ``orbit_norm(space, f, t, R)`` up to rounding; rows that miss the
    sector are skipped and read exactly 0.  A step outside the sector
    raises `DomainError`, as `orbit_norm` does.
    """
    taus = _steps(space.sector, ts)
    if R is not None and R <= 0:
        raise DomainError(f"truncation radius must be > 0, got {R}")
    g = f.simplified()
    if g.is_zero:
        return np.zeros(len(taus))
    if R is None and g.support_radius(space.sector.alpha) is None:
        raise DomainError("function has unbounded support; a truncation radius is required")
    return _norms(space, g, taus, R, _live_rows)


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
    from .errors import ConfigError
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
