"""Conformance of the weighted norms with independent scipy oracles.

The oracles integrate ``||T_t f||^p = integral of |f(u)|^p v(u - t) du``
over the shifted sector ``t + sector`` in u-polar coordinates,
u = r e^{i theta}, where u = s + t is the point the translate reads.  Each
u-ray enters the shifted sector at a radius set by its two edges; the
radial limits come from those cuts and from the raw parameters of the
rectangles and support discs.  The library integrates in s-polar
coordinates around the apex of the untranslated sector, so the two share
no interval formula and no quadrature node.  scipy's adaptive ``quad``
does both the radial and the angular integral, with the angles where a
radial limit changes branch passed as break points.

Inputs: alpha in {0.3, pi/4, 1.4}; per alpha and kind, the four weight
families with p from a Latin square; each function at a step within 2 %
of the sector edge and at t = 0.

Combinations that mix indicators with a bump or place indicators at two
offsets are checked against an s-polar oracle instead: scipy ``quad`` in
rho between every crossing of the ray with a piece boundary (circle
roots, span-edge lines), and in phi with every angle where those
crossings change order as break points (tangent rays, corners, rays
parallel to an edge, pairwise crossings of circles and edges).  Between
two ray breaks the indicator levels are constant, so they are read once
at the midpoint.  For a single bump the circle where f changes sign is
one more boundary, so |f|^p has no kink inside an oracle panel.

The ray primitives of the built-in weights (the rho-integral of
v(rho e^{i phi}) rho in closed form) are checked apart, against scipy
``quad`` along single rays, and so are the integrals of the weight alone
over polar rectangles (series terms, sector integrals), against scipy
``dblquad`` in (theta, rho).

The exact measures of translated rect unions (Green's theorem in the
library) are checked against an s-polar oracle that shares no formula
with them: scipy ``quad`` in phi between the ray breaks of the translated
circles, the edge lines and |s| = r, with the rho-intervals in closed
form, at generic radii, tangencies and corners, in both directions.

The closed-form level densities of orbit grids are checked against a
midpoint sum: the nearest-node field read at the midpoints of a finer
polar grid whose radial edges include the log-midpoints of the node
radii and every schedule radius, and whose angular count is a multiple
of the grid's, so no fine cell straddles a level-set boundary.
"""

import cmath
import math

import numpy as np
import pytest
from scipy import integrate

from sectorlab import (IndexSet, LpSpace, OracleSet, OrbitResolution, PolarRect,
                       RectUnionSet, Sector, TranslatedRectUnion, bump, constant_weight,
                       custom_function, custom_weight, dc_sufficient_series,
                       density_profile, exp_decay, function_from_spec, indicator,
                       level_density, linear_combination, measure_profile, orbit_norm,
                       orbit_profile, poly_decay, translate_function, translate_set,
                       vertical_exp, weight_integral, weight_rect_integral)

ALPHAS = (0.3, math.pi / 4, 1.4)
FAMILIES = ("exp_decay", "poly_decay", "vertical_exp", "constant")
KINDS = ("indicator", "bump", "combination", "custom")
PS = (1.0, 2.0, 3.0)
# relative tolerances on ||T_t f||^p; custom functions carry no
# breakpoints, so their kinks (a cone cap's apex and rim) fall inside panels
RTOL = {"indicator": 1e-10, "bump": 1e-6, "combination": 1e-6, "custom": 1e-2}
QUAD = dict(epsabs=0.0, epsrel=1e-12, limit=400)

WEIGHTS = {
    "exp_decay": (exp_decay, lambda z: math.exp(-abs(z))),
    "poly_decay": (poly_decay, lambda z: 1.0 / (abs(z) ** 4 + 1.0)),
    "vertical_exp": (vertical_exp, lambda z: math.exp(2.0 * z.imag)),
    "constant": (constant_weight, lambda z: 1.0),
}


# ---------------------------------------------------------------------------
# u-polar oracles


def shifted_cut(t: complex, alpha: float, th: float) -> float:
    """Radius where the u-ray at angle th enters t + sector.

    u - t lies in the sector iff Im((u - t) e^{i alpha}) >= 0 and
    Im((u - t) e^{-i alpha}) <= 0; for |th| < alpha both are lower bounds.
    """
    return max(0.0, (t * cmath.exp(1j * alpha)).imag / math.sin(th + alpha),
               (t * cmath.exp(-1j * alpha)).imag / math.sin(th - alpha))


def circle_line_angles(c: complex, radius: float, t: complex, alpha: float) -> list[float]:
    """Angles of the points where an edge of t + sector meets |u - c| = radius."""
    out = []
    for sgn in (1.0, -1.0):
        e = cmath.exp(1j * sgn * alpha)  # edge direction from the apex t
        b = ((t - c) * e.conjugate()).real
        disc = b * b - abs(t - c) ** 2 + radius * radius
        if disc > 0:
            for lam in (-b - math.sqrt(disc), -b + math.sqrt(disc)):
                if lam > 0:
                    out.append(cmath.phase(t + lam * e))
    return out


def _in_sector(points, alpha):
    return sorted({p for p in points if -alpha + 1e-12 < p < alpha - 1e-12})


def indicator_oracle(family: str, rects, t: complex, alpha: float) -> float:
    """Integral of v(u - t) over the disjoint rects inside t + sector."""
    v = WEIGHTS[family][1]
    total = 0.0
    for r_lo, r_hi, th_lo, th_hi in rects:
        def radial(th):
            lo = max(r_lo, shifted_cut(t, alpha, th))
            if lo >= r_hi:
                return 0.0
            e = cmath.exp(1j * th)
            return integrate.quad(lambda r: v(r * e - t) * r, lo, r_hi, **QUAD)[0]

        a, b = max(th_lo, -alpha), min(th_hi, alpha)
        pts = _in_sector(circle_line_angles(0j, r_lo, t, alpha)
                         + circle_line_angles(0j, r_hi, t, alpha)
                         + [cmath.phase(t) if t else 0.0], alpha)
        pts = [p for p in pts if a < p < b]
        total += integrate.quad(radial, a, b, points=pts or None, **QUAD)[0]
    return total


def shape_value(shape, u: complex) -> float:
    kind, c, w, amp = shape
    d = abs(u - c)
    if d >= w:
        return 0.0
    if kind == "bump":
        return amp * math.cos(math.pi * d / (2.0 * w)) ** 2
    return amp * (1.0 - d / w) ** 2  # cone cap


def smooth_oracle(family: str, terms, t: complex, alpha: float, p: float,
                  epsrel: float) -> float:
    """Integral of |sum c_j g_j(u)|^p v(u - t) over t + sector, the g_j
    bumps or cone caps given by (kind, centre, radius, amplitude)."""
    v = WEIGHTS[family][1]
    quad = dict(QUAD, epsrel=epsrel)

    def radial(th):
        e = cmath.exp(1j * th)
        cut = shifted_cut(t, alpha, th)
        chords = []
        for _, (_, c, w, _) in terms:
            d = (c * e.conjugate()).real
            disc = d * d - abs(c) ** 2 + w * w
            if disc > 0 and d + math.sqrt(disc) > cut:
                chords.append((max(d - math.sqrt(disc), cut), d + math.sqrt(disc)))
        ends = sorted({x for ch in chords for x in ch})
        total = 0.0
        for lo, hi in zip(ends[:-1], ends[1:]):
            if any(a < (lo + hi) / 2 < b for a, b in chords):
                total += integrate.quad(
                    lambda r: abs(sum(k * shape_value(sh, r * e) for k, sh in terms)) ** p
                    * v(r * e - t) * r, lo, hi, **quad)[0]
        return total

    pts = [cmath.phase(t) if t else 0.0]
    for i, (_, (_, c, w, _)) in enumerate(terms):
        pts += [cmath.phase(c)] + circle_line_angles(c, w, t, alpha)
        if abs(c) > w:
            pts += [cmath.phase(c) + s * math.asin(w / abs(c)) for s in (-1, 1)]
        for _, (_, c2, w2, _) in terms[i + 1:]:  # where two support circles cross
            d = abs(c2 - c)
            if abs(w - w2) < d < w + w2:
                a = (w * w - w2 * w2 + d * d) / (2 * d)
                h = math.sqrt(w * w - a * a)
                pts += [cmath.phase(c + (a + s * 1j * h) * (c2 - c) / d) for s in (-1, 1)]
    pts = _in_sector(pts, alpha)
    return integrate.quad(radial, -alpha, alpha, points=pts or None, **quad)[0]


# ---------------------------------------------------------------------------
# inputs


def _cases():
    rng = np.random.default_rng(2503_00891)
    cases = []
    for ia, alpha in enumerate(ALPHAS):
        for ik, kind in enumerate(KINDS):
            for jf, family in enumerate(FAMILIES):
                side = 1.0 if rng.uniform() < 0.5 else -1.0
                t = rng.uniform(0.5, 3.0) * cmath.exp(
                    1j * side * alpha * (1.0 - rng.uniform(0.0, 0.02)))

                def shape(kind):
                    c = t + rng.uniform(1.0, 3.0) * cmath.exp(1j * rng.uniform(-alpha, alpha))
                    return (kind, c, rng.uniform(0.5, 1.5), rng.uniform(0.5, 2.0))

                if kind == "indicator":
                    rects = []
                    for j in range(int(rng.integers(1, 4))):
                        r_lo = abs(t) + 1.5 * j + rng.uniform(0.0, 0.5)
                        width = rng.uniform(0.3, 1.0) * 2 * alpha
                        th_lo = rng.uniform(-alpha, alpha - width)
                        rects.append((r_lo, r_lo + rng.uniform(0.4, 1.0), th_lo, th_lo + width))
                    spec = dict(rects=rects, amplitude=rng.uniform(0.5, 2.0))
                elif kind == "combination":
                    spec = dict(terms=[(1.0, shape("bump")),
                                       (rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0),
                                        shape("bump"))])
                else:
                    spec = dict(terms=[(1.0, shape("bump" if kind == "bump" else "cone"))])
                cases.append(pytest.param(
                    kind, alpha, family, PS[(ia + ik + jf) % 3], t, spec,
                    id=f"{kind}-a{alpha:.2f}-{family}"))
    return cases


def build(kind, spec):
    if kind == "indicator":
        return indicator(RectUnionSet(PolarRect(*r) for r in spec["rects"]),
                         spec["amplitude"])
    parts = []
    for coef, (shape_kind, c, w, amp) in spec["terms"]:
        if shape_kind == "bump":
            g = bump(c, w, amp)
        else:
            g = custom_function(
                lambda z, c=c, w=w, a=amp: a * np.maximum(0.0, 1.0 - np.abs(z - c) / w) ** 2,
                support_radius=abs(c) + w)
        parts.append((coef, g))
    return parts[0][1] if kind != "combination" else linear_combination(parts)


@pytest.mark.parametrize("kind, alpha, family, p, t_edge, spec", _cases())
def test_norm_matches_u_polar_oracle(kind, alpha, family, p, t_edge, spec):
    space = LpSpace(WEIGHTS[family][0](), p, Sector(alpha))
    f = build(kind, spec)
    for t in (t_edge, 0j):
        got = orbit_norm(space, f, t) ** p
        if kind == "indicator":
            got /= spec["amplitude"] ** p
            ref = indicator_oracle(family, spec["rects"], t, alpha)
        else:
            ref = smooth_oracle(family, spec["terms"], t, alpha, p,
                                epsrel=1e-6 if kind == "custom" else 1e-11)
        assert got == pytest.approx(ref, rel=RTOL[kind], abs=1e-300), f"t={t}"


# ---------------------------------------------------------------------------
# mixed combinations: an s-polar oracle
#
# A term is ("rects", coef, offset, rects), coef times the indicator of the
# rect union read at s + offset + t, or ("bump", coef, centre, radius,
# amplitude), read at s + t.  Boundaries in s are circles (centre, radius)
# and edge lines (point, angle).

MIXED_KINDS = ("indicator-minus-bump", "two-offset", "one-offset")
# |f|^p is smooth between the oracle's breaks; the library's panels match
# that except where a bump makes f change sign and p is odd: that kink is
# no breakpoint of the library (16x finer radial panels there instead);
# worst seen over 60 random cases 6.0e-6 at p = 1, 1.8e-8 at p = 3
MIXED_RTOL, KINK_RTOL = 1e-10, 1e-5


def _curves(terms, t):
    circles, lines = [], []
    for term in terms:
        if term[0] == "rects":
            _, _, o, rects = term
            c = -(o + t)
            for r_lo, r_hi, th_lo, th_hi in rects:
                circles += [(c, r) for r in (r_lo, r_hi) if r > 0]
                lines += [(c, th_lo), (c, th_hi)]
    levels = {0.0}
    for term in terms:
        if term[0] == "rects":
            levels |= {lev + term[1] for lev in levels}
    for term in terms:
        if term[0] == "bump":
            _, coef, c, w, amp = term
            circles.append((c - t, w))
            for lev in levels:  # where lev + coef * bump = 0
                q = -lev / (coef * amp)
                if 0.0 < q < 1.0:
                    circles.append((c - t, 2.0 * w / math.pi * math.acos(math.sqrt(q))))
    return circles, lines


def _levels(terms, t, s):
    total = 0.0
    for term in terms:
        if term[0] == "rects":
            _, coef, o, rects = term
            u = s + o + t
            r, th = abs(u), cmath.phase(u)
            if any(lo <= r <= hi and a <= th <= b for lo, hi, a, b in rects):
                total += coef
    return total


def _bumps(terms, t, s):
    total = 0.0
    for term in terms:
        if term[0] == "bump":
            _, coef, c, w, amp = term
            d = abs(s + t - c)
            if d < w:
                total += coef * amp * math.cos(math.pi * d / (2.0 * w)) ** 2
    return total


def _angle_breaks(circles, lines, alpha):
    pts = []
    for c, r in circles:
        pts.append(cmath.phase(c) if c else 0.0)
        if abs(c) > r:
            pts += [cmath.phase(c) + s * math.asin(r / abs(c)) for s in (-1, 1)]
    for p, th in lines:
        pts += [th, cmath.phase(-cmath.exp(1j * th)), cmath.phase(p) if p else 0.0]
    for i, (c, r) in enumerate(circles):
        for c2, r2 in circles[i + 1:]:
            d = abs(c2 - c)
            if abs(r - r2) < d < r + r2:
                a = (r * r - r2 * r2 + d * d) / (2 * d)
                h = math.sqrt(max(r * r - a * a, 0.0))
                pts += [cmath.phase(c + (a + s * 1j * h) * (c2 - c) / d) for s in (-1, 1)]
        for p, th in lines:
            e = cmath.exp(1j * th)
            b = ((p - c) * e.conjugate()).real
            disc = b * b - abs(p - c) ** 2 + r * r
            if disc > 0:
                pts += [cmath.phase(p + (-b + s * math.sqrt(disc)) * e) for s in (-1, 1)]
    for i, (p, th) in enumerate(lines):
        for p2, th2 in lines[i + 1:]:
            e, e2 = cmath.exp(1j * th), cmath.exp(1j * th2)
            den = (e * e2.conjugate()).imag
            if abs(den) > 1e-14:
                pts.append(cmath.phase(p + ((p2 - p) * e2.conjugate()).imag / den * e))
    return _in_sector(pts, alpha)


def _ray_breaks(circles, lines, phi):
    e = cmath.exp(1j * phi)
    out = [0.0]
    for c, r in circles:
        b = (c * e.conjugate()).real
        disc = b * b - abs(c) ** 2 + r * r
        if disc > 0:
            out += [x for x in (b - math.sqrt(disc), b + math.sqrt(disc)) if x > 0]
    for p, th in lines:
        k = math.sin(phi - th)
        if k != 0.0:
            x = (p * cmath.exp(-1j * th)).imag / k
            if x > 0:
                out.append(x)
    return sorted(set(out))


def s_polar_oracle(family: str, terms, t: complex, alpha: float, p: float) -> float:
    """Integral over the sector of |f(s + t)|^p v(s) in s-polar coordinates."""
    v = WEIGHTS[family][1]
    circles, lines = _curves(terms, t)
    reach = max(abs(c) + r for c, r in circles)

    def radial(phi):
        e = cmath.exp(1j * phi)
        breaks = [x for x in _ray_breaks(circles, lines, phi) if x < reach] + [reach]
        total = 0.0
        for a, b in zip(breaks[:-1], breaks[1:]):
            mid = (a + b) / 2 * e
            level = _levels(terms, t, mid)
            if b > a and (level != 0.0 or _bumps(terms, t, mid) != 0.0):
                total += integrate.quad(
                    lambda r: abs(level + _bumps(terms, t, r * e)) ** p * v(r * e) * r,
                    a, b, **QUAD)[0]
        return total

    pts = _angle_breaks(circles, lines, alpha)
    return integrate.quad(radial, -alpha, alpha, points=pts or None, **QUAD)[0]


def _mixed_cases():
    rng = np.random.default_rng(2503_00891)

    def rects(r0):
        out = []
        for j in range(int(rng.integers(1, 3))):
            r_lo = r0 + 1.2 * j + rng.uniform(0.0, 0.5)
            width = rng.uniform(0.3, 1.0) * 2 * alpha
            th_lo = rng.uniform(-alpha, alpha - width)
            out.append((r_lo, r_lo + rng.uniform(0.4, 1.0), th_lo, th_lo + width))
        return out

    cases = []
    for ia, alpha in enumerate(ALPHAS):
        for ik, kind in enumerate(MIXED_KINDS):
            family = FAMILIES[(ia + ik) % 4]
            p = PS[(ia + 2 * ik) % 3]
            side = 1.0 if rng.uniform() < 0.5 else -1.0
            t = rng.uniform(0.5, 3.0) * cmath.exp(
                1j * side * alpha * (1.0 - rng.uniform(0.0, 0.02)))
            first = rects(rng.uniform(0.0, 1.0))
            if kind == "indicator-minus-bump":
                r_lo, r_hi, th_lo, th_hi = first[int(rng.integers(len(first)))]
                centre = (r_lo + r_hi) / 2 * cmath.exp(0.5j * (th_lo + th_hi))
                second = ("bump", -rng.uniform(0.5, 2.0), centre, rng.uniform(0.4, 1.2),
                          rng.uniform(0.5, 1.5))
            else:
                o = (rng.uniform(0.2, 1.0) * cmath.exp(1j * rng.uniform(-alpha, alpha))
                     if kind == "two-offset" else 0j)
                second = ("rects", -rng.uniform(0.3, 2.0), o, rects(rng.uniform(0.0, 1.0)))
            cases.append(pytest.param(alpha, family, p, t, [("rects", 1.0, 0j, first), second],
                                      id=f"{kind}-a{alpha:.2f}-{family}"))
    return cases


def build_mixed(terms, sector):
    parts = []
    for term in terms:
        if term[0] == "rects":
            _, coef, o, rects = term
            f = indicator(RectUnionSet(PolarRect(*r) for r in rects))
            parts.append((coef, translate_function(f, o, sector) if o else f))
        else:
            _, coef, c, w, amp = term
            parts.append((coef, bump(c, w, amp)))
    return linear_combination(parts)


@pytest.mark.parametrize("alpha, family, p, t_edge, terms", _mixed_cases())
def test_mixed_combination_matches_s_polar_oracle(alpha, family, p, t_edge, terms):
    sector = Sector(alpha)
    space = LpSpace(WEIGHTS[family][0](), p, sector)
    f = build_mixed(terms, sector)
    kink = p % 2 == 1 and any(term[0] == "bump" for term in terms)
    for t in (t_edge, 0j):
        ref = s_polar_oracle(family, terms, t, alpha, p)
        assert orbit_norm(space, f, t) ** p == pytest.approx(
            ref, rel=KINK_RTOL if kink else MIXED_RTOL, abs=1e-300), f"t={t}"


# Full-span annuli at steps in the closed sector skip the span cuts (they
# cannot bind); steps exactly on an edge are where the cut was rounding
EDGE_RTOL = 1e-12


@pytest.mark.parametrize("alpha", ALPHAS)
def test_full_span_annuli_at_edge_steps_match_s_polar_oracle(alpha):
    sector = Sector(alpha)
    family = "exp_decay"
    space = LpSpace(WEIGHTS[family][0](), 2.0, sector)
    rects = [(0.0, 1.0, -alpha, alpha), (1.5, 2.5, -alpha, alpha)]
    f = indicator(RectUnionSet(PolarRect(*r) for r in rects))
    for k in (0.4, 1.0, 2.0, 3.0):
        for side in (1.0, -1.0):
            t = k * cmath.exp(1j * side * alpha)
            ref = s_polar_oracle(family, [("rects", 1.0, 0j, rects)], t, alpha, 2.0)
            assert orbit_norm(space, f, t) ** 2 == pytest.approx(ref, rel=EDGE_RTOL, abs=0.0), t


@pytest.mark.parametrize("alpha", ALPHAS)
def test_binding_span_cuts_are_kept(alpha):
    """A partial-span rect, and a full-span indicator whose offset lies
    outside the sector, are cut by their spans: the norms match the
    oracle, and they differ from those of the uncut annuli."""
    sector = Sector(alpha)
    family = "poly_decay"
    space = LpSpace(WEIGHTS[family][0](), 1.0, sector)
    partial = [(1.0, 2.0, -alpha / 2, alpha / 3)]
    full = [(0.5, 3.0, -alpha, alpha)]
    offset = 2.0 * cmath.exp(-1j * (alpha + 0.4))
    cases = [(indicator(RectUnionSet(PolarRect(*r) for r in partial)), partial, 0j),
             (function_from_spec({"kind": "indicator", "params": {"rects": [
                 dict(zip(("r_lo", "r_hi", "th_lo", "th_hi"), full[0]))]},
                 "offset": [offset.real, offset.imag]}), full, offset)]
    for f, rects, o in cases:
        for t in (0.5 * cmath.exp(1j * alpha), 0.8 * cmath.exp(-0.3j * alpha)):
            ref = s_polar_oracle(family, [("rects", 1.0, o, rects)], t, alpha, 1.0)
            uncut = s_polar_oracle(family, [("rects", 1.0, o, [(lo, hi, -math.pi, math.pi)
                                                               for lo, hi, _, _ in rects])],
                                   t, alpha, 1.0)
            assert abs(uncut - ref) > 1e-3 * ref
            assert orbit_norm(space, f, t) == pytest.approx(ref, rel=EDGE_RTOL, abs=0.0), t


# ---------------------------------------------------------------------------
# ray primitives

# narrow intervals at and away from the apex, a wide one, and one far out
INTERVALS = ((0.0, 1e-8), (3.0, 3.0 + 1e-9), (0.5, 3.0), (150.0, 151.0))
RAY_ANGLES = (0.0, 1e-7, -1e-7) + tuple(s * a for a in ALPHAS for s in (1.0, -1.0))
# measured worst 5.5e-15, on [150, 151]: an exponent near 150 carries its
# rounding (in |rho e^{i phi}| or rho sin phi) into the weight some 100-fold
PRIMITIVE_RTOL = 1e-13


@pytest.mark.parametrize("family", FAMILIES)
def test_primitive_matches_quad_along_rays(family):
    make, v = WEIGHTS[family]
    primitive = make().primitive
    for phi in RAY_ANGLES:
        e = cmath.exp(1j * phi)
        for lo, hi in INTERVALS:
            ref = integrate.quad(lambda r: v(r * e) * r, lo, hi,
                                 epsabs=0.0, epsrel=1e-13, limit=200)[0]
            got = float(primitive(phi, lo, hi))
            assert got == pytest.approx(ref, rel=PRIMITIVE_RTOL, abs=0.0), (phi, lo, hi)


# ---------------------------------------------------------------------------
# weight integrals over polar rectangles

# a weight smooth in polar coordinates that is neither radial nor built in
RECT_WEIGHTS = dict(
    WEIGHTS,
    custom=(lambda: custom_weight(lambda z: np.exp(-0.5 * np.abs(z)) * (1.5 + np.cos(np.angle(z)))),
            lambda z: math.exp(-0.5 * abs(z)) * (1.5 + math.cos(cmath.phase(z)))))


def _rects(alpha):
    """Full annuli k <= |t| <= k + 1 and rectangles of part of the span."""
    return ([(k, k + 1.0, -alpha, alpha) for k in (0, 3, 17)]
            + [(2.3, 4.1, -0.4 * alpha, 0.9 * alpha), (0.0, 0.6, 0.1 * alpha, 0.5 * alpha),
               (8.5, 9.0, -alpha, -0.2 * alpha)])


@pytest.mark.parametrize("family", tuple(RECT_WEIGHTS))
def test_rect_integral_matches_dblquad(family):
    make, v = RECT_WEIGHTS[family]
    weight = make()
    for alpha in ALPHAS:
        for r_lo, r_hi, th_lo, th_hi in _rects(alpha):
            ref = integrate.dblquad(lambda rho, th: v(rho * cmath.exp(1j * th)) * rho,
                                    th_lo, th_hi, r_lo, r_hi, epsabs=0.0, epsrel=1e-13)[0]
            got = weight_rect_integral(weight, PolarRect(r_lo, r_hi, th_lo, th_hi), Sector(alpha))
            assert got == pytest.approx(ref, rel=1e-12, abs=0.0), (alpha, r_lo, r_hi, th_lo, th_hi)


@pytest.mark.parametrize("family", tuple(RECT_WEIGHTS))
def test_batched_terms_equal_single_rect_integrals(family):
    weight = RECT_WEIGHTS[family][0]()
    for alpha in ALPHAS:
        sector = Sector(alpha)

        def single(lo, hi):
            return weight_rect_integral(weight, PolarRect(lo, hi, -alpha, alpha), sector)

        series = dc_sufficient_series(weight, IndexSet.nonsquares(), 30, sector)
        expect = [single(k, k + 1.0) for k in series.k_values]
        np.testing.assert_allclose(series.terms, expect, rtol=1e-14, atol=0.0)
        est = weight_integral(weight, 12.5, sector)
        expect = sum(single(k, min(k + 1.0, 12.5)) for k in range(13))
        assert est.value == pytest.approx(expect, rel=1e-14, abs=0.0)


# ---------------------------------------------------------------------------
# exact measures of translated rect unions

# relative tolerance on mu((A -+ t0) ∩ Δ_r) against the s-polar oracle
SET_RTOL = 1e-10


def translated_set_oracle(rects, c: complex, r: float, alpha: float) -> float:
    """Measure of {s in the sector : |s| <= r, s - c in the union of rects}.

    scipy ``quad`` in phi on each panel between the ray breaks of
    `_angle_breaks`, after phi = mid - half cos(theta), which smooths the
    square-root ends at rays tangent to a circle; along each ray the
    rho-intervals between the crossings of the translated circles, the
    edge lines and |s| = r are integrated in closed form, (b^2 - a^2)/2,
    and counted when their midpoint is in.
    """
    circles = [(0j, r)] + [(c, R) for lo, hi, _, _ in rects for R in (lo, hi) if R > 0]
    lines = [(c, th) for _, _, a, b in rects for th in (a, b)]

    def inside(s):
        u, mod = s - c, abs(s - c)
        return any(lo <= mod <= hi and a <= cmath.phase(u) <= b for lo, hi, a, b in rects)

    def radial(phi):
        e = cmath.exp(1j * phi)
        breaks = [x for x in _ray_breaks(circles, lines, phi) if x < r] + [r]
        return sum((b * b - a * a) / 2.0 for a, b in zip(breaks[:-1], breaks[1:])
                   if b > a and inside((a + b) / 2.0 * e))

    edges = [-alpha]
    for x in _angle_breaks(circles, lines, alpha) + [alpha]:
        if x - edges[-1] > 1e-12:  # a corner on |s| = r repeats its angle
            edges.append(x)
    edges[-1] = alpha
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = (a + b) / 2.0, (b - a) / 2.0
        total += integrate.quad(lambda th: radial(mid - half * math.cos(th)) * half
                                * math.sin(th), 0.0, math.pi, **QUAD)[0]
    return total


def _set_cases():
    rng = np.random.default_rng(2503_00892)
    cases = []
    for alpha in ALPHAS:
        for span in ("full", "partial"):
            rects = []
            for k in sorted(rng.choice(6, size=3, replace=False)):
                lo, hi = float(k), float(k) + rng.uniform(0.4, 1.0)
                if span == "full":
                    rects.append((lo, hi, -alpha, alpha))
                else:
                    width = rng.uniform(0.2, 0.9) * 2 * alpha
                    a = rng.uniform(-alpha, alpha - width)
                    rects.append((lo, hi, a, a + width))
            t0 = rng.uniform(0.5, 2.5) * cmath.exp(1j * rng.uniform(-alpha, alpha))
            for direction in ("minus", "plus"):
                cases.append(pytest.param(alpha, rects, t0, direction,
                                          id=f"a{alpha:.2f}-{span}-{direction}"))
    return cases


def _special_radii(rects, c: complex, alpha: float):
    """Generic radii, the tangencies r = |t0| + r_hi and r = r_lo - |t0|,
    and the moduli of the translated corners inside the sector."""
    radii = [0.7, 3.3, 9.0]
    for lo, hi, a, b in rects:
        radii += [abs(c) + hi, lo - abs(c)]
        for R in (lo, hi):
            for th in (a, b):
                corner = c + R * cmath.exp(1j * th)
                if abs(cmath.phase(corner)) < alpha:
                    radii.append(abs(corner))
    return sorted({x for x in radii if x > 1e-9})


def _check_against_oracle(rects, t0, direction, alpha):
    sector = Sector(alpha)
    T = translate_set(RectUnionSet(PolarRect(*q) for q in rects), t0, sector, direction)
    c = -t0 if direction == "minus" else t0
    radii = _special_radii(rects, c, alpha)
    got, err = measure_profile(T, radii, sector)
    assert np.all(err == 0.0)
    for r, g in zip(radii, got):
        ref = translated_set_oracle(rects, c, r, alpha)
        assert g == pytest.approx(ref, rel=SET_RTOL, abs=1e-12), (r, direction)


@pytest.mark.parametrize("alpha, rects, t0, direction", _set_cases())
def test_translated_rect_union_matches_s_polar_oracle(alpha, rects, t0, direction):
    assert isinstance(translate_set(RectUnionSet([]), t0, Sector(alpha), direction),
                      TranslatedRectUnion)
    _check_against_oracle(rects, t0, direction, alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
@pytest.mark.parametrize("direction", ("minus", "plus"))
def test_translate_along_sector_edge_counts_collinear_boundary_once(alpha, direction):
    # t0 on an edge of the sector and rectangle edges at +-alpha: the
    # translated edge lies on the sector's edge line
    for side in (1.0, -1.0):
        t0 = 1.7 * cmath.exp(1j * side * alpha)
        rects = [(0.0, 1.0, -alpha, alpha), (2.0, 2.6, 0.2 * alpha, alpha),
                 (3.5, 4.0, -alpha, -0.3 * alpha)]
        _check_against_oracle(rects, t0, direction, alpha)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_zero_offset_gives_the_untranslated_profile(alpha):
    sector = Sector(alpha)
    A = RectUnionSet([PolarRect(0.5, 2.0, -alpha, alpha),
                      PolarRect(3.0, 4.5, -0.5 * alpha, 0.8 * alpha)])
    radii = np.linspace(0.25, 6.0, 24)
    base = density_profile(A, radii, sector).to_csv()
    for direction in ("minus", "plus"):
        assert density_profile(translate_set(A, 0j, sector, direction),
                               radii, sector).to_csv() == base


@pytest.mark.parametrize("direction", ("minus", "plus"))
def test_translated_empty_union_measures_zero(direction):
    sector = Sector(math.pi / 4)
    vals, err = measure_profile(translate_set(RectUnionSet([]), 1 + 0.5j, sector, direction),
                                [0.5, 3.0, 40.0], sector)
    assert np.all(vals == 0.0) and np.all(err == 0.0)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_translated_member_equals_the_oracle_membership(alpha):
    rng = np.random.default_rng(5)
    sector = Sector(alpha)
    A = RectUnionSet([PolarRect(k, k + 0.8, -alpha + 0.1 * k * alpha, alpha) for k in range(6)])
    z0 = 1.3 * cmath.exp(0.6j * alpha)
    z = rng.uniform(0.0, 8.0, 10_000) * np.exp(1j * rng.uniform(-1.6, 1.6, 10_000))
    minus = OracleSet(lambda s: A.member(s + z0), "minus")
    plus = OracleSet(lambda s: sector.membership_mask(s - z0) & A.member(s - z0), "plus")
    for direction, oracle in (("minus", minus), ("plus", plus)):
        got = translate_set(A, z0, sector, direction).member(z)
        assert got.dtype == bool
        assert np.array_equal(got, oracle.member(z))


# ---------------------------------------------------------------------------
# level densities of orbit grids


def level_density_reference(grid, threshold, side, radii, alpha, refine=4):
    """Ratios of the level set by a midpoint sum over a polar grid that no
    level-set boundary crosses (see the module docstring)."""
    nodes = grid.radii
    log_mids = [math.sqrt(a * b) for a, b in zip(nodes[:-1], nodes[1:])]
    edges = np.unique(np.concatenate([[0.0], log_mids, radii,
                                      np.linspace(0.0, radii.max(), 65)]))
    edges = edges[edges <= radii.max()]
    angles = np.linspace(-alpha, alpha, refine * len(grid.thetas) + 1)
    mid_r = 0.5 * (edges[1:] + edges[:-1])
    mid_th = 0.5 * (angles[1:] + angles[:-1])
    norms = grid.nearest_norm(mid_r[:, None] * np.exp(1j * mid_th[None, :]))
    inside = norms >= threshold if side == "super" else norms < threshold
    cell = (2.0 * alpha / (len(angles) - 1)) * (edges[1:] ** 2 - edges[:-1] ** 2) / 2.0
    cum = np.concatenate([[0.0], np.cumsum(inside.sum(axis=1) * cell)])
    return cum[np.searchsorted(edges, radii)] / (alpha * radii ** 2)


@pytest.mark.parametrize("alpha", ALPHAS)
def test_level_density_is_exact_over_grid_cells(alpha):
    sector = Sector(alpha)
    space = LpSpace(exp_decay(), 2.0, sector)
    f = indicator(RectUnionSet([PolarRect(0.0, 1.0, -alpha, alpha),
                                PolarRect(2.0, 3.0, -0.5 * alpha, alpha)]))
    R = 10.0
    grid = orbit_profile(space, f, R, OrbitResolution(n_r=16, n_theta=6))
    log_mids = np.sqrt(grid.radii[:-1] * grid.radii[1:])
    # radii inside the first cell, on cell edges, between them and at R
    radii = np.sort(np.concatenate([np.geomspace(R / 40.0, R, 9), log_mids[[3, 11]]]))
    threshold = 0.5 * float(grid.norms.max())
    ratios = {}
    for side in ("super", "sub"):
        prof = level_density(grid, threshold, side, radii).profile
        assert np.all(prof.errors == 0.0)
        ref = level_density_reference(grid, threshold, side, radii, alpha)
        assert np.allclose(prof.ratios, ref, rtol=0.0, atol=1e-12), side
        ratios[side] = prof.ratios
    assert 0.0 < ratios["super"].max() and ratios["super"].min() < 1.0
    assert np.allclose(ratios["super"] + ratios["sub"], 1.0, rtol=0.0, atol=1e-12)
