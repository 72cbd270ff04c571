"""Measurable subsets of a sector.

Every measure here is exact, with errors identically 0:

*   `RectUnionSet`, a finite union of polar rectangles
    ``{r_lo <= |t| <= r_hi, th_lo <= arg t <= th_hi}`` normalized to a
    disjoint canonical form, and `TranslatedRectUnion`, its translate
    along the semigroup (what `translate_set` returns for a rect union).
    A rectangle's measure inside a truncation is a closed form in its
    parameters and its span clipped to the sector; a translated rectangle
    is an annular sector centred at -t0 (or +t0), bounded by arcs and
    segments, and its measure inside a truncation follows from Green's
    theorem with closed-form cuts.  Only the radii inside a window take
    the cut (for "minus" the cone bound `geometry.cone_factor` narrows
    it); below it the rectangle adds 0, above it its full in-sector area.
    The full areas and the cut pairs of a profile are one batch, and a
    rectangle edge beyond a sector edge line (every edge of a full-span
    "minus" translate) is not cut at all.
*   `OracleSet` — an arbitrary membership predicate, what `translate_set`
    returns for a set that is not a rect union.  It is membership-only:
    `measure_profile` has no exact measure for it and raises
    `DomainError`.  (Level sets of an orbit-norm field are unions of whole
    cells of the orbit grid; `dynamics.level_density` measures them in
    closed form.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError
from .geometry import Sector, as_complex, cone_factor, schedule_radii
from .schema import check_fields

__all__ = [
    "PolarRect", "RectUnionSet", "OracleSet", "TranslatedRectUnion",
    "normalize", "measure_in_truncation", "measure_profile",
    "translate_set", "annuli_union",
]


@dataclass(frozen=True)
class PolarRect:
    """Closed polar rectangle [r_lo, r_hi] x [th_lo, th_hi].

    Exact measure: (th_hi - th_lo) * (r_hi**2 - r_lo**2) / 2.
    """

    r_lo: float
    r_hi: float
    th_lo: float
    th_hi: float

    def __post_init__(self):
        if not (0 <= self.r_lo < self.r_hi):
            raise DomainError(f"need 0 <= r_lo < r_hi, got [{self.r_lo}, {self.r_hi}]")
        if not (self.th_lo < self.th_hi):
            raise DomainError(f"need th_lo < th_hi, got [{self.th_lo}, {self.th_hi}]")

    @property
    def measure(self) -> float:
        return (self.th_hi - self.th_lo) * (self.r_hi**2 - self.r_lo**2) / 2.0


def _merge_intervals(ivs: list[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    if not ivs:
        return ()
    ivs = sorted(ivs)
    out = [list(ivs[0])]
    for lo, hi in ivs[1:]:
        if lo <= out[-1][1]:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def _normalize_rects(rects: Iterable[PolarRect]) -> tuple[PolarRect, ...]:
    """Angular sweep producing a disjoint, canonically ordered rect list.

    Angular breakpoints come only from the input rectangles, so the
    result is exact arithmetic on the given parameters.  Radial overlap
    within a strip is merged; adjacent strips with identical radial
    structure are merged back, so e.g. two full-span annuli [0,2], [1,3]
    collapse to the single annulus [0,3].
    """
    rects = [t for t in rects]
    if not rects:
        return ()
    edges = sorted({t.th_lo for t in rects} | {t.th_hi for t in rects})
    strips: list[list] = []
    for a, b in zip(edges[:-1], edges[1:]):
        ivs = _merge_intervals(
            [(t.r_lo, t.r_hi) for t in rects if t.th_lo <= a and t.th_hi >= b])
        if ivs:
            if strips and strips[-1][1] == a and strips[-1][2] == ivs:
                strips[-1][1] = b
            else:
                strips.append([a, b, ivs])
    out = [PolarRect(lo, hi, a, b) for a, b, ivs in strips for lo, hi in ivs]
    out.sort(key=lambda t: (t.r_lo, t.th_lo, t.r_hi, t.th_hi))
    return tuple(out)


class RectUnionSet:
    """Finite union of polar rectangles in disjoint canonical form.

    The constructor normalizes, so `rects` is always pairwise disjoint
    (up to measure-zero boundaries) and lexicographically ordered by
    (r_lo, th_lo).  Membership is boundary-inclusive.
    """

    __slots__ = ("rects", "_groups", "bounds")

    def __init__(self, rects: Iterable[PolarRect] = ()):
        self.rects: tuple[PolarRect, ...] = _normalize_rects(rects)
        # the one array form of the rects: (r_lo, r_hi, th_lo, th_hi) per rect
        self.bounds = np.array([(t.r_lo, t.r_hi, t.th_lo, t.th_hi)
                                for t in self.rects]).reshape(-1, 4)
        self.bounds.flags.writeable = False
        # group radial intervals by identical angular span for fast lookup
        groups: dict[tuple[float, float], list[float]] = {}
        for t in self.rects:
            groups.setdefault((t.th_lo, t.th_hi), []).extend((t.r_lo, t.r_hi))
        self._groups = [
            (span, np.asarray(bounds)) for span, bounds in sorted(groups.items())
        ]

    @property
    def measure(self) -> float:
        return float(sum(t.measure for t in self.rects))

    @property
    def is_empty(self) -> bool:
        return not self.rects

    def member(self, z) -> np.ndarray:
        """Vectorised membership for an array of complex points."""
        z = np.asarray(z, dtype=complex)
        r = np.abs(z)
        th = np.angle(z)
        out = np.zeros(z.shape, dtype=bool)
        for (tlo, thi), bounds in self._groups:
            ang = (th >= tlo) & (th <= thi) & ~out
            if not ang.any():
                continue
            rr = r[ang]
            # odd insertion index <=> inside a closed radial interval
            odd_l = np.searchsorted(bounds, rr, side="left") & 1
            odd_r = np.searchsorted(bounds, rr, side="right") & 1
            out[ang] = (odd_l | odd_r).astype(bool)
        return out

    def contains_point(self, z) -> bool:
        return bool(self.member(np.asarray([as_complex(z)]))[0])

    def to_json(self) -> str:
        return json.dumps([
            {"r_lo": t.r_lo, "r_hi": t.r_hi, "th_lo": t.th_lo, "th_hi": t.th_hi}
            for t in self.rects
        ])

    @classmethod
    def from_json(cls, data) -> "RectUnionSet":
        if isinstance(data, str):
            data = json.loads(data)
        return cls(PolarRect(d["r_lo"], d["r_hi"], d["th_lo"], d["th_hi"]) for d in data)

    def __eq__(self, other):
        return isinstance(other, RectUnionSet) and self.rects == other.rects

    def __hash__(self):
        return hash(self.rects)

    def __repr__(self):
        return f"RectUnionSet({len(self.rects)} rects, measure={self.measure:.6g})"


@dataclass(frozen=True)
class OracleSet:
    """Membership-oracle set: a deterministic, total predicate on the sector.

    Membership only: `measure_profile` raises `DomainError` for it.
    `description` records provenance (e.g. which set was translated by
    what).
    """

    membership: Callable[[np.ndarray], np.ndarray]
    description: str

    def member(self, z) -> np.ndarray:
        return np.asarray(self.membership(np.asarray(z, dtype=complex)), dtype=bool)


def normalize(u: RectUnionSet) -> RectUnionSet:
    """Return the canonical disjoint form (idempotent, measure-preserving)."""
    return RectUnionSet(u.rects)


@dataclass(frozen=True)
class TranslatedRectUnion:
    """Translate of a rect union along the semigroup, measured exactly.

    direction="minus" is ``{s : s + t0 in base}``, direction="plus" is
    ``{s : s - t0 in sector and in base}``.  Each rectangle of `base`
    becomes an annular sector centred at -t0 (or +t0), so its part
    inside a truncation is bounded by arcs and segments and
    `measure_profile` measures it in closed form.
    """

    base: RectUnionSet
    t0: complex
    direction: str
    sector: Sector

    def __post_init__(self):
        # the cone window of `_translated_profile` holds only for t0 in the sector
        self.sector.require(self.t0, "TranslatedRectUnion.t0")

    def member(self, z) -> np.ndarray:
        return _translated_member(self.base, self.t0, self.direction, self.sector,
                                  np.asarray(z, dtype=complex))


def _translated_member(A, z0: complex, direction: str, sector: Sector, z) -> np.ndarray:
    if direction == "minus":
        return A.member(z + z0)
    shifted = z - z0
    return sector.membership_mask(shifted) & A.member(shifted)


def _rect_profile(A: RectUnionSet, radii: np.ndarray, alpha: float) -> np.ndarray:
    """Exact measures of ``A ∩ {|t| < r, |arg t| <= alpha}`` for every r,
    one broadcast over rects x radii.

    Each term is a rectangle's closed form (th_hi - th_lo) *
    (min(r, r_hi)^2 - r_lo^2) / 2 with the span clipped to [-alpha, alpha]
    (a span inside it keeps its float); the terms are
    summed one by one in the canonical order of the rects (a running sum,
    never pairwise), so the floats do not depend on how many radii are
    asked.
    """
    if not A.rects:
        return np.zeros_like(radii)
    r_lo, r_hi, th_lo, th_hi = (col[:, None] for col in A.bounds.T)
    span = np.maximum(np.minimum(th_hi, alpha) - np.maximum(th_lo, -alpha), 0.0)
    hi = np.minimum(radii[None, :], r_hi)
    terms = np.where(hi > r_lo, span * (hi ** 2 - r_lo ** 2) / 2.0, 0.0)
    return np.cumsum(terms, axis=0)[-1]


# -- exact measures of translated rect unions ------------------------------
#
# A rectangle P of the base (angles clipped to the sector) becomes the
# annular sector Q = c + P, c = -t0 ("minus") or +t0 ("plus").  By Green's
# theorem mu(Q ∩ S_r) = 1/2 ∮ (x dy - y dx) over the parts of ∂Q inside
# S_r = {|s| <= r, |arg s| <= alpha} plus the part of ∂S_r inside Q.  The
# pieces are arcs (c + R e^{iψ} contributes 1/2 (R²Δψ + R c_x Δsin ψ
# - R c_y Δcos ψ)) and segments (p -> q contributes 1/2 Im(conj(p) q)).
# The two edges of S_r lie on lines through 0 and contribute nothing, so a
# rectangle edge collinear with them needs no rule either.  Each piece is
# cut where it may cross the other region's boundary (circle-circle,
# circle-line, line-line); a sub-piece counts when its midpoint lies in
# the other region.  Spurious cuts (clipped roots of missed crossings)
# only split a sub-piece into halves that classify alike.  A double root
# within rounding of a tangency is snapped to the tangent point: its two
# cuts would sit ~sqrt(eps) apart around a midpoint that rounding cannot
# classify, while the lens the snap drops has an area of order eps^1.5.

_PAIR_BLOCK = 8192  # (rectangle, radius) pairs per vectorised block
_SNAP = 1e3 * np.finfo(float).eps  # rounding scale of a cosine, sine or discriminant


def _unit_root(x, scale):
    """x clipped to [-1, 1], and set to +-1 within `scale` * _SNAP of it."""
    x = np.clip(x, -1.0, 1.0)
    return np.where(np.abs(x) >= 1.0 - _SNAP * scale, np.sign(x), x)


def _cut_sum(lo, hi, cuts, antiderivative, point, inside):
    """Sum of antiderivative increments over the sub-intervals of [lo, hi]
    (split at `cuts`) whose midpoints lie inside."""
    t = np.sort(np.clip(np.stack(cuts, axis=1), lo[:, None], hi[:, None]), axis=1)
    t = np.concatenate([lo[:, None], t, hi[:, None]], axis=1)
    g = antiderivative(t)
    keep = inside(point(0.5 * (t[:, 1:] + t[:, :-1])))
    return np.where(keep, g[:, 1:] - g[:, :-1], 0.0).sum(axis=1)


def _arc_circle_cuts(c, R, d, q):
    """Angles ψ where c + R e^{iψ} meets the circle |s - d| = q."""
    e = c - d
    den = 2.0 * R * np.abs(e)
    num = (q - R) * (q + R) - np.abs(e) ** 2
    scale = np.divide(q * q + R * R + np.abs(e) ** 2, den, out=np.ones_like(num * den),
                      where=den > 0)
    cos = np.divide(num, den, out=np.ones_like(num * den), where=den > 0)
    off = np.arccos(_unit_root(cos, scale))
    return np.angle(e) - off, np.angle(e) + off


def _arc_line_cuts(c, R, p, beta):
    """Angles ψ where c + R e^{iψ} meets the line through p along e^{iβ}."""
    w = -np.imag(np.exp(-1j * beta) * (c - p))
    sin = np.divide(w, R, out=np.zeros_like(w * R), where=R > 0)
    scale = np.divide(np.abs(c - p) + R, R, out=np.ones_like(w * R), where=R > 0)
    s = np.arcsin(_unit_root(sin, scale))
    return beta + s, beta + np.pi - s


def _wrapped(angles, lo):
    """Each angle moved into [lo, lo + 2π), so it falls in a window at lo."""
    return [lo + np.mod(a - lo, 2.0 * np.pi) for a in angles]


def _seg_cuts(p, u, r, alpha):
    """τ where p + τu meets |s| = r or a line arg s = ±α through 0."""
    b = np.real(np.conj(p) * u)
    disc = b * b - np.abs(p) ** 2 + r * r
    root = np.sqrt(np.where(disc > _SNAP * (np.abs(p) ** 2 + r * r), disc, 0.0))
    cuts = [-b - root, -b + root]
    for beta in (-alpha, alpha):
        rot = np.exp(-1j * beta)
        den = np.imag(rot * u)
        num = -np.imag(rot * p) * np.ones_like(den)
        cuts.append(np.divide(num, den, out=np.zeros_like(num), where=den != 0))
    return cuts


def _annular_sector_areas(c: complex, r_lo, r_hi, a1, a2, r, alpha: float):
    """mu((c + P) ∩ S_r) for polar rectangles P = [r_lo, r_hi] x [a1, a2],
    elementwise over the arrays (0 < a2 - a1 <= 2 alpha < π)."""
    rot = np.exp(1j * alpha)

    def in_truncation(rr):  # the test of s in S_r, one radius per row
        return lambda s: ((np.abs(s) <= rr[:, None]) & (np.imag(s * rot) >= 0)
                          & (np.imag(s / rot) <= 0))

    def in_rect(s):
        w = s - c
        rho = np.abs(w)
        return ((rho >= r_lo[:, None]) & (rho <= r_hi[:, None])
                & (np.imag(w * np.exp(-1j * a1)[:, None]) >= 0)
                & (np.imag(w * np.exp(-1j * a2)[:, None]) <= 0))

    total = np.zeros_like(r)
    for R, sign in ((r_hi, 1.0), (r_lo, -1.0)):  # outer arc ccw, inner cw
        cuts = (_arc_circle_cuts(c, R, 0.0, r) + _arc_line_cuts(c, R, 0.0, -alpha)
                + _arc_line_cuts(c, R, 0.0, alpha))
        Rc = R[:, None]
        total += sign * _cut_sum(
            a1, a2, _wrapped(cuts, a1),
            lambda psi: 0.5 * (Rc * Rc * psi + Rc * c.real * np.sin(psi)
                               - Rc * c.imag * np.cos(psi)),
            lambda psi: c + Rc * np.exp(1j * psi), in_truncation(r))
    for a, sign in ((a1, 1.0), (a2, -1.0)):  # edge at a1 outwards, a2 inwards
        u = np.exp(1j * a)
        p, q = c + r_lo * u, c + r_hi * u
        # an edge with both ends in the closed outer half-plane of a sector
        # edge line meets S_r at most on that line, where x dy - y dx = 0
        live = ~(((np.imag(p / rot) >= 0) & (np.imag(q / rot) >= 0))
                 | ((np.imag(p * rot) <= 0) & (np.imag(q * rot) <= 0)))
        if not live.any():
            continue
        u, rr = u[live], r[live]
        slope = (0.5 * np.imag(np.conj(c) * u))[:, None]
        total[live] += sign * _cut_sum(
            r_lo[live], r_hi[live], _seg_cuts(c, u, rr, alpha), lambda tau: slope * tau,
            lambda tau: c + tau * u[:, None], in_truncation(rr))
    lo = np.full_like(r, -alpha)
    cuts = (_arc_circle_cuts(0.0, r, c, r_lo) + _arc_circle_cuts(0.0, r, c, r_hi)
            + _arc_line_cuts(0.0, r, c, a1) + _arc_line_cuts(0.0, r, c, a2))
    rc = r[:, None]
    total += _cut_sum(lo, -lo, _wrapped(cuts, lo), lambda psi: 0.5 * rc * rc * psi,
                      lambda psi: rc * np.exp(1j * psi), in_rect)
    return total


def _blocked_areas(c, r_lo, r_hi, a1, a2, r, alpha):
    return np.concatenate([np.zeros(0)] + [
        _annular_sector_areas(c, r_lo[i:i + _PAIR_BLOCK], r_hi[i:i + _PAIR_BLOCK],
                              a1[i:i + _PAIR_BLOCK], a2[i:i + _PAIR_BLOCK],
                              r[i:i + _PAIR_BLOCK], alpha)
        for i in range(0, len(r), _PAIR_BLOCK)])


def _translated_profile(T: TranslatedRectUnion, radii: np.ndarray) -> np.ndarray:
    """Exact ``mu(T ∩ Δ_r)`` for every r.

    A translated rectangle lies in r_lo - |t0| <= |s| <= r_hi + |t0|, and
    for "minus" the cone bound (`geometry.cone_factor`) narrows the outer
    end to min(r_hi / cone, r_hi + |t0|): s + t0 is in the rectangle, with
    s and t0 in the sector.  A rectangle adds its in-wedge area at
    the radii past its window, summed over radii by a prefix sum, and 0
    at the radii before it; only the pairs inside take the r-dependent
    cut.  The in-wedge areas and the cut pairs go through
    `_annular_sector_areas` as one batch, which skips the edges beyond a
    sector edge line.
    """
    alpha = T.sector.alpha
    if T.t0 == 0:
        return _rect_profile(T.base, radii, alpha)
    rects = np.hstack([T.base.bounds[:, :2], np.clip(T.base.bounds[:, 2:], -alpha, alpha)])
    rects = rects[rects[:, 2] < rects[:, 3]]
    rects = rects[np.argsort(rects[:, 1], kind="stable")]
    r_lo, r_hi, a1, a2 = rects.T
    c = -T.t0 if T.direction == "minus" else T.t0
    reach = abs(c)
    inner, outer = r_lo - reach, r_hi + reach
    if T.direction == "minus":
        outer = np.minimum(r_hi / cone_factor(alpha), outer)

    ir, ik = np.nonzero((inner[None, :] < radii[:, None]) & (radii[:, None] < outer[None, :]))
    k = np.concatenate([np.arange(len(rects)), ik])
    areas = _blocked_areas(c, r_lo[k], r_hi[k], a1[k], a2[k],
                           np.concatenate([r_hi + reach + 1.0, radii[ir]]), alpha)
    full, cut = areas[:len(rects)], areas[len(rects):]
    # outer rises with r_hi, so the rectangles past r are a prefix
    n_full = np.searchsorted(outer, radii, side="right")
    vals = np.concatenate([[0.0], np.cumsum(full)])[n_full]
    return vals + np.bincount(ir, weights=cut, minlength=len(radii))


def measure_profile(A, radii, sector: Sector) -> tuple[np.ndarray, np.ndarray]:
    """Measures of ``A ∩ Δ_r`` for each r in `radii`, with their errors.

    `radii` is read by `geometry.schedule_radii`.  Rect unions and their
    translates (`TranslatedRectUnion`) are measured in closed form, exact
    up to rounding, and their errors are identically 0.  Any other set (an
    `OracleSet`) has no exact measure and raises `DomainError`.
    """
    radii = schedule_radii(radii)
    if isinstance(A, RectUnionSet):
        return _rect_profile(A, radii, sector.alpha), np.zeros_like(radii)
    if isinstance(A, TranslatedRectUnion):
        if A.sector != sector:
            raise DomainError(f"set translated in {A.sector}, measured in {sector}")
        return _translated_profile(A, radii), np.zeros_like(radii)
    raise DomainError(f"no exact measure for a {type(A).__name__}: only rect unions "
                      "and their translates are measurable")


def measure_in_truncation(A, r: float, sector: Sector) -> float:
    """Exact measure of ``A ∩ Δ_r`` for a rect union or its translate."""
    vals, _ = measure_profile(A, [r], sector)
    return float(vals[0])


def translate_set(A, t0, sector: Sector, direction: str = "minus"):
    """Translate a set along the semigroup: A-t0 = {s : s+t0 in A}.

    direction="minus" gives membership(s) = A.member(s + t0);
    direction="plus" gives membership(s) = (s - t0 in sector) and
    A.member(s - t0).  A rect union gives a `TranslatedRectUnion`,
    measured exactly, and so does a translate of one in the same
    direction and sector: offsets add, since (A -+ t0) -+ t1 = A -+ (t0 + t1)
    (for "plus" because s - t1 - t0 in the sector puts s - t1 there too).
    Any other set gives a membership-only `OracleSet`.
    """
    check_fields(translate_set, direction=direction)
    z0 = sector.require(as_complex(t0), "translate_set.t0")
    if isinstance(A, RectUnionSet):
        return TranslatedRectUnion(A, z0, direction, sector)
    if (isinstance(A, TranslatedRectUnion) and A.direction == direction
            and A.sector == sector):
        return TranslatedRectUnion(A.base, A.t0 + z0, direction, sector)
    return OracleSet(lambda z: _translated_member(A, z0, direction, sector, z),
                     f"({A!r}) {'-' if direction == 'minus' else '+'} {z0}")


def annuli_union(K: Iterable[int], sector: Sector) -> RectUnionSet:
    """Union of full-span unit annuli ``{k <= |t| <= k+1}`` for k in K,
    one rectangle per run of consecutive indices."""
    runs = _merge_intervals([(float(k), float(k) + 1.0) for k in K])
    if runs and runs[0][0] < 0:
        raise DomainError(f"annulus indices must be >= 0, got {runs[0][0]:g}")
    return RectUnionSet(PolarRect(lo, hi, -sector.alpha, sector.alpha) for lo, hi in runs)
