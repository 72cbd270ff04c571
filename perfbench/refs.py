"""Independent references for the benchmark, computed with scipy.

Nothing here imports sectorlab.  Every reference is an integral over the
sector written in s-polar coordinates, s = rho * exp(i phi) with
|phi| <= alpha, and built from the raw parameters of the benchmark's
inputs:

* indicators of translated polar-rectangle unions: along each ray the
  set of rho with s + t in the rectangle is solved in closed form
  (circle roots for the radii, half-plane cuts for partial angular
  spans), the radial weight factor is integrated in closed form, and
  only the angular integral is numerical (scipy ``quad``);
* bumps, linear combinations of bumps and the custom cone-cap function:
  nested scipy ``quad`` (2-D), the radial rule running on the exact
  chord of each support disc;
* measures of translated full-span annuli unions inside a truncation
  (constant weight, radial clip): Gauss-Legendre panels in phi (scipy's
  nodes, 24 per panel) between the exact angles where a segment end
  crosses the clip circle, vectorised over the annuli;
* closed-form annulus terms of the series.

References are accurate to about 1e-11 relative (``REF_RTOL``); the
benchmark caps its digit count there.  The expensive references of the
fixed input pools are cached in ``refs_cache.json`` next to this file;

    python3 perfbench/refs.py

computes that file anew.  References of the density workload and of the
separation witness's argmin are computed at the end of each run.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy import integrate
from scipy.special import roots_legendre

REF_RTOL = 1e-11
QUAD = dict(epsabs=0.0, epsrel=1e-13, limit=2000)
CACHE = Path(__file__).resolve().parent / "refs_cache.json"


# ---------------------------------------------------------------------------
# weights along a ray: antiderivatives of v(rho e^{i phi}) * rho in rho


def _series_vertical(c: float, a: float, b: float) -> float:
    # integral of rho * exp(c rho) over [a, b] as a power series in c
    total, fact = 0.0, 1.0
    for n in range(14):
        if n:
            fact *= n
        total += c ** n * (b ** (n + 2) - a ** (n + 2)) / (fact * (n + 2))
    return total


def ray_weight_integral(family: str, phi: float, a: float, b: float) -> float:
    """Integral of v(rho e^{i phi}) * rho over rho in [a, b]."""
    if b <= a:
        return 0.0
    if family == "exp_decay":
        return (a + 1.0) * math.exp(-a) - (b + 1.0) * math.exp(-b)
    if family == "poly_decay":
        return 0.5 * (math.atan(b * b) - math.atan(a * a))
    if family == "constant":
        return 0.5 * (b * b - a * a)
    if family == "vertical_exp":
        c = 2.0 * math.sin(phi)
        if abs(c) * b < 0.05:
            return _series_vertical(c, a, b)
        g = lambda r: math.exp(c * r) * (c * r - 1.0) / (c * c)
        return g(b) - g(a)
    raise ValueError(f"unknown weight family {family!r}")


def weight_value(family: str, z: complex) -> float:
    if family == "exp_decay":
        return math.exp(-abs(z))
    if family == "poly_decay":
        return 1.0 / (abs(z) ** 4 + 1.0)
    if family == "constant":
        return 1.0
    if family == "vertical_exp":
        return math.exp(2.0 * z.imag)
    raise ValueError(f"unknown weight family {family!r}")


# ---------------------------------------------------------------------------
# translated polar rectangles along a ray


def _disk(d: float, q: float, R: float) -> tuple[float, float] | None:
    """rho >= 0 with rho^2 + 2 d rho + q <= R^2, i.e. |s + t| <= R."""
    disc = d * d - q + R * R
    if disc <= 0.0:
        return None
    root = math.sqrt(disc)
    lo, hi = max(-d - root, 0.0), max(-d + root, 0.0)
    return (lo, hi) if hi > lo else None


def rect_segments(rect, t: complex, phi: float) -> list[tuple[float, float]]:
    """Radial segments of the ray at angle phi where s + t lies in rect,
    rect = (r_lo, r_hi, th_lo, th_hi)."""
    r_lo, r_hi, th_lo, th_hi = rect
    e = complex(math.cos(phi), -math.sin(phi))
    d = (t * e).real
    q = abs(t) ** 2
    big = _disk(d, q, r_hi)
    if big is None:
        return []
    small = _disk(d, q, r_lo) if r_lo > 0 else None
    segs = [big] if small is None else [(big[0], min(small[0], big[1])),
                                         (max(small[1], big[0]), big[1])]
    lo_cut, hi_cut = 0.0, math.inf
    # arg(s + t) >= th_lo  <=>  rho sin(phi - th_lo) + Im(t e^{-i th_lo}) >= 0
    # arg(s + t) <= th_hi  <=>  rho sin(th_hi - phi) - Im(t e^{-i th_hi}) >= 0
    for slope, icpt in ((math.sin(phi - th_lo),
                         (t * complex(math.cos(th_lo), -math.sin(th_lo))).imag),
                        (math.sin(th_hi - phi),
                         -(t * complex(math.cos(th_hi), -math.sin(th_hi))).imag)):
        if slope > 0:
            lo_cut = max(lo_cut, -icpt / slope)
        elif slope < 0:
            hi_cut = min(hi_cut, -icpt / slope)
        elif icpt < 0:
            return []
    out = []
    for a, b in segs:
        a, b = max(a, lo_cut), min(b, hi_cut)
        if b > a:
            out.append((a, b))
    return out


def _rect_points(rects, t: complex, alpha: float) -> list[float]:
    """Angles where a segment endpoint switches branch: tangencies of the
    radius circles and edge lines crossing circles.  Splitting the angular
    quadrature there keeps it from hunting for kinks."""
    pts = set()
    mt = abs(t)
    at = math.atan2(t.imag, t.real)
    radii = sorted({r for rc in rects for r in rc[:2] if r > 0})
    for R in radii:
        if mt > R:
            # ray tangent to the circle |s + t| = R (centred at -t)
            off = math.asin(R / mt)
            pts.update((at + math.pi - off, at + math.pi + off,
                        at - math.pi - off, at - math.pi + off))
    for rc in rects:
        for th in rc[2:]:
            for R in rc[:2]:
                u = R * complex(math.cos(th), math.sin(th)) - t
                if u != 0:
                    pts.add(math.atan2(u.imag, u.real))
            pts.add(th)
    return sorted(p for p in pts if -alpha + 1e-12 < p < alpha - 1e-12)


def indicator_integral(family: str, rects, t: complex, alpha: float) -> float:
    """Integral of v(s) over {s in sector : s + t in union(rects)}.

    `rects` must be pairwise disjoint polar rectangles.
    """
    rects = [tuple(map(float, rc)) for rc in rects]

    def angular(phi):
        return sum(ray_weight_integral(family, phi, a, b)
                   for rc in rects for a, b in rect_segments(rc, t, phi))

    pts = _rect_points(rects, t, alpha)
    quad = dict(QUAD, limit=max(QUAD["limit"], 50 * (len(pts) + 1)))
    val, _ = integrate.quad(angular, -alpha, alpha, points=pts or None, **quad)
    return val


_GL_X, _GL_W = roots_legendre(24)


def translated_annuli_measure(ks, t: complex, alpha: float, r: float) -> float:
    """Measure of {s in sector : |s| < r, s + t in union of unit annuli ks}.

    Full-span annuli: s + t stays in the sector, so only the radii cut the
    ray.  Between the break angles the segment ends are analytic in phi,
    so panel Gauss-Legendre converges to rounding level.
    """
    mt = abs(t)
    ks = np.asarray([k for k in ks if k < r + mt], dtype=float)
    if len(ks) == 0:
        return 0.0
    q = mt * mt
    at = math.atan2(t.imag, t.real)
    breaks = {-alpha, alpha}
    for R in np.concatenate([ks, ks + 1.0]):
        if mt > 0:
            cosv = (R * R - r * r - q) / (2.0 * r * mt)
            if abs(cosv) <= 1.0:
                off = math.acos(cosv)
                breaks.update((at + off, at - off))
        if R < mt:
            off = math.asin(R / mt)
            breaks.update((at + math.pi - off, at + math.pi + off,
                           at - math.pi - off, at - math.pi + off))
    edges = np.array(sorted(b for b in breaks if -alpha <= b <= alpha))
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    phi = (mid[:, None] + half[:, None] * _GL_X[None, :]).ravel()
    wts = (half[:, None] * _GL_W[None, :]).ravel()
    d = (mt * np.cos(phi - at))[:, None]

    def disk(R):  # rho-interval of |s + t| <= R along each ray
        disc = d * d - q + R * R
        root = np.sqrt(np.maximum(disc, 0.0))
        hi = np.where(disc > 0, np.maximum(-d + root, 0.0), 0.0)
        lo = np.where(R * R >= q, 0.0,
                      np.where(disc > 0, np.maximum(-d - root, 0.0), 0.0))
        return lo, np.maximum(hi, lo)

    def area(lo, hi):  # integral of rho over [lo, hi] clipped at r
        return 0.5 * (np.minimum(hi, r) ** 2 - np.minimum(lo, r) ** 2)

    outer, inner = disk(ks[None, :] + 1.0), disk(ks[None, :])
    return float(wts @ np.sum(area(*outer) - area(*inner), axis=1))


# ---------------------------------------------------------------------------
# smooth functions: bumps, combinations, cone caps


def _shape_value(shape: dict, z: complex) -> float:
    c = complex(*shape["center"])
    w = shape["radius"]
    d = abs(z - c)
    if d >= w:
        return 0.0
    if shape["kind"] == "bump":
        return shape["amplitude"] * math.cos(math.pi * d / (2.0 * w)) ** 2
    return shape["amplitude"] * (1.0 - d / w) ** 2  # cone cap


def _chord(center: complex, w: float, phi: float) -> tuple[float, float] | None:
    """rho >= 0 with |rho e^{i phi} - center| <= w."""
    d = (center * complex(math.cos(phi), -math.sin(phi))).real
    disc = d * d - abs(center) ** 2 + w * w
    if disc <= 0:
        return None
    root = math.sqrt(disc)
    lo, hi = max(d - root, 0.0), max(d + root, 0.0)
    return (lo, hi) if hi > lo else None


def smooth_integral(family: str, terms, t: complex, alpha: float, p: float) -> float:
    """Integral of |sum_j c_j g_j(s + t)|^p v(s) over the sector.

    terms = [(coef, shape), ...] with shape a bump or cone cap given by
    center, radius and amplitude.
    """
    shifted = [(float(c), sh, complex(*sh["center"]) - t, float(sh["radius"]))
               for c, sh in terms]

    def f(z):
        return abs(sum(c * _shape_value(sh, z + t) for c, sh, _, _ in shifted))

    def radial(phi):
        e = complex(math.cos(phi), math.sin(phi))
        chords = [ch for _, _, cen, w in shifted if (ch := _chord(cen, w, phi))]
        if not chords:
            return 0.0
        cuts = sorted({x for ch in chords for x in ch})
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            val, _ = integrate.quad(
                lambda r: f(r * e) ** p * weight_value(family, r * e) * r,
                a, b, epsabs=0.0, epsrel=1e-13, limit=200)
            total += val
        return total

    pts = set()
    for _, _, cen, w in shifted:
        pts.add(math.atan2(cen.imag, cen.real))
        if abs(cen) > w:
            off = math.asin(w / abs(cen))
            pts.update(math.atan2(cen.imag, cen.real) + s * off for s in (-1, 1))
    pts = sorted(x for x in pts if -alpha + 1e-12 < x < alpha - 1e-12)
    val, _ = integrate.quad(radial, -alpha, alpha, points=pts or None,
                            epsabs=0.0, epsrel=1e-12, limit=400)
    return val


# ---------------------------------------------------------------------------
# closed forms


def annulus_term(family: str, k: int, alpha: float) -> float:
    """Integral of v over the unit annulus {k <= |t| <= k+1} of the sector."""
    if family == "exp_decay":
        return 2 * alpha * ((k + 1) * math.exp(-k) - (k + 2) * math.exp(-(k + 1)))
    if family == "poly_decay":
        return alpha * (math.atan((k + 1) ** 2) - math.atan(k ** 2))
    raise ValueError(f"no closed-form annulus term for {family!r}")


def annuli_measure(ks, r: float, alpha: float) -> float:
    """Measure of the union of unit annuli k in ks inside {|t| < r}."""
    return sum(alpha * (min(r, k + 1.0) ** 2 - k * k) for k in ks if k < r)


# ---------------------------------------------------------------------------
# cache of the fixed input pools


def pool_digest(requests: dict) -> str:
    text = json.dumps(requests, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def evaluate(req: dict) -> float:
    """One cached reference request (see workloads.reference_requests)."""
    t = complex(*req["t"])
    if req["type"] == "indicator":
        return indicator_integral(req["family"], req["rects"], t, req["alpha"])
    return smooth_integral(req["family"], req["terms"], t, req["alpha"], req["p"])


def build_cache() -> dict:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads
    requests = workloads.reference_requests()
    values = {}
    for i, (key, req) in enumerate(sorted(requests.items())):
        values[key] = evaluate(req)
        if i % 50 == 0:
            print(f"{i}/{len(requests)} {key} = {values[key]!r}", file=sys.stderr)
    return {"digest": pool_digest(requests), "rtol": REF_RTOL, "values": values}


def load_cache(requests: dict) -> dict:
    data = json.loads(CACHE.read_text())
    if data.get("digest") != pool_digest(requests):
        raise RuntimeError(
            f"{CACHE.name} does not match the input pools; "
            "rebuild it with: python3 perfbench/refs.py")
    return data["values"]


if __name__ == "__main__":
    cache = build_cache()
    CACHE.write_text(json.dumps(cache, sort_keys=True, indent=0) + "\n")
    print(f"wrote {CACHE} ({len(cache['values'])} references)")
