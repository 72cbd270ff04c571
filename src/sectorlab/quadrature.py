"""Gauss-Legendre and Gauss-Kronrod rules and the s-polar ray engine.

Every integral of a weight v over a part of the sector runs here: the
norms of `lpspace` (||T_t g||^p is the integral of |g(s + t)|^p v(s))
and the integrals of v alone over polar rectangles in `weights` (series
terms, sector integrals).  The integral is taken along the rays
s = rho e^{i phi}, |phi| <= alpha.  A function is made of pieces (the
polar rectangles of an indicator; the disc of a bump or the support
disc of a custom function: a rectangle [0, r] about its centre with no
angular span, r = inf for a custom function without a radius, which
rho <= R bounds), and a piece cuts a ray in at most two rho-intervals,
solved in closed form: circle roots for the radii, half-plane cuts for
the span, rho <= R for a truncation.  The span cuts are skipped when
they cannot bind: every span holds [-alpha, alpha] and every offset with
a span lies in the closed sector (full-span annuli at in-sector steps),
so s + tau never leaves the span.
Gauss-Legendre panels split at integer radii run on those intervals, so
no discontinuity is ever sampled; for v alone and a built-in weight the
rho-integral over an interval is the weight's closed-form ray primitive
instead (see `weights`), so only the phi integral is numerical.

The phi panels (`_panels`) are equal base panels over the sector, as
many as the weight's angular variation needs out to the row's reach,
split where an interval end changes branch: tangent rays, corners, rays
parallel to a span edge, crossings of two circles or of the truncation
circle and, in a combination, where a span edge of one piece crosses a
circle or a span edge of another, since two interval ends swap there.
Splits closer than a quarter panel get panels graded towards them.  At a
tangent ray an interval end behaves like a square root in phi; a
quadratic map with a flat end there makes the integrand smooth again.

`_panels` builds the panels of all rows as one flat list (row, a, b,
flat ends) in row and phi order, straight from the split angles: one
stable sort by row and angle of the base edges, the splits inside the
sector and the graded edges, the empty panels dropped.  One evaluator,
`_panel_rays`, gathers each panel's offsets and rectangles, solves the
ray intervals at its phi nodes and integrates rho along each ray; every
row is the `bincount` of its panels' sums, so its value depends on its
own panels only, whatever the batch.  The phi rule depends on the row.
A closed-form row (v alone with a ray primitive: the level pieces of
indicators, weight integrals) has every breakpoint known and an exact
value at every phi node, so its rule is error-controlled
(`_kronrod_rows`): 2 base panels of the 10-point Gauss / 21-point
Kronrod pair of QUADPACK (G10K21), and in each row whose sum of
|K21 - G10| exceeds _PHI_RTOL = 1e-10 of its value the panels whose
estimates are at least half their share of that tolerance are bisected,
at most _MAX_ROUNDS = 8 times.  A general row (a function g evaluated at
the nodes, or a weight without a primitive) takes the fixed rule
`phi_rule`: 20 Gauss-Legendre nodes on at least 6 base panels (12 nodes
on at least 8 for a custom g, whose kinks inside its support disc are
not known), with no estimate; there the Kronrod estimate is not a bound
(kinks of |g|^p that are not breakpoints, and the radial panels' own
error).

The engine works on rows: per row, pieces at offsets tau (rows, m) and
their rectangles rc (rows or 1, m, 4) = [r_lo, r_hi, th_lo, th_hi], nan
spans for discs.  Per-node arrays put the node axis last (the ray
intervals are (k, panels, n)), so numpy's inner loops run over the phi
nodes, not over a row's few pieces.  A weight integral over polar
rectangles is one row per rectangle at tau = 0; a batch of norms is one
row per step (per step and level piece, where `lpspace` cuts a function
into pieces of constant |g|^p).  Combinations cut the ray at every
interval end and integrate |g(s + t)|^p on radial panels between the
cuts.  `ray_rows`, the one entry, skips a row whose pieces all lie in
discs |s + tau| <= r_hi that miss the sector (`_misses`): it is exactly
zero, reads 0.0 and g is never evaluated for it.  All reductions run in
a fixed order, so repeated runs produce bit-identical results.

`panel_nodes`, `integrate_polar` and `interval_gl` are no longer called
by the library; the per-module trace of the benchmark looks them up by
name, so they stay until that trace reads the library's own records.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidWeightError

_PHI_NODES, _MIN_PHI_PANELS, _RHO_NODES = 20, 6, 12
# closed-form rows: 2 base G10K21 panels, refined to this relative estimate
_MIN_KRONROD_PANELS, _PHI_RTOL, _MAX_ROUNDS = 2, 1e-10, 8
_CUSTOM_PHI = (12, 8)  # custom functions, whose kinks are unknown: 12 nodes on >= 8 panels
_ROW_BLOCK = 256  # pieces (over all rows) whose ray intervals are held at once
_PANEL_BLOCK = 1 << 15  # radial panels evaluated at once
_EDGE_SLACK = 4 * np.finfo(float).eps  # angle of a step on an edge, up to rounding

_rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gl_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `npts`-point Gauss-Legendre rule on [-1, 1]."""
    if npts not in _rules:
        _rules[npts] = np.polynomial.legendre.leggauss(npts)
    return _rules[npts]


# QUADPACK's qk21 (Piessens et al., 1983): the nonnegative nodes of the
# 21-point Kronrod rule, largest first, their weights, and the weights of
# the 10-point Gauss rule, whose nodes are the 2nd, 4th, ..., 10th of them
_XGK = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720, 0.0])
_WGK = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821])
_WG = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338])


def kronrod_rule() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 21 nodes of the Gauss-Kronrod rule on [-1, 1], ascending, their
    Kronrod weights and the weights of the embedded 10-point Gauss rule
    (0 at the 11 Kronrod-only nodes)."""
    wg = np.zeros(len(_XGK))
    wg[1::2] = _WG
    return (np.concatenate([-_XGK[:-1], _XGK[::-1]]), np.concatenate([_WGK[:-1], _WGK[::-1]]),
            np.concatenate([wg[:-1], wg[::-1]]))


def panel_nodes(edges: np.ndarray, npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Map an `npts` GL rule onto each panel; returns flat (nodes, weights)."""
    x, w = gl_rule(npts)
    lo = np.asarray(edges[:-1], dtype=float)
    hi = np.asarray(edges[1:], dtype=float)
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights


def integrate_polar(f, r_edges: np.ndarray, th_edges: np.ndarray, npts: int = 16) -> float:
    """Integrate ``f(rho, theta) * rho`` over the product of panel sets.

    `f` must accept broadcastable arrays (rho[:, None], theta[None, :]).
    """
    rho, wr = panel_nodes(r_edges, npts)
    th, wt = panel_nodes(th_edges, npts)
    vals = f(rho[:, None], th[None, :])
    cell = (wr * rho)[:, None] * wt[None, :]
    return float(np.sum(vals * cell))


def interval_gl(lo: np.ndarray, hi: np.ndarray, n_panels: int, npts: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """GL nodes/weights on per-row intervals [lo_i, hi_i], `n_panels` each.

    Rows with hi <= lo receive zero weights.  Returns arrays of shape
    (len(lo), n_panels * npts).
    """
    x, w = gl_rule(npts)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    length = np.maximum(hi - lo, 0.0)
    # unit-panel breakpoints 0 = u_0 < ... < u_n = 1, mapped per row
    u = np.linspace(0.0, 1.0, n_panels + 1)
    u_lo, u_hi = u[:-1], u[1:]
    mid = 0.5 * (u_lo + u_hi)
    half = 0.5 * (u_hi - u_lo)
    unit_nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    unit_weights = (half[:, None] * w[None, :]).ravel()
    nodes = lo[:, None] + length[:, None] * unit_nodes[None, :]
    weights = length[:, None] * unit_weights[None, :]
    return nodes, weights


# ---------------------------------------------------------------------------
# the ray engine


def _maps(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nodes u on [-1, 1] mapped to [0, 1] and the map's derivative, indexed
    by flat-left + 2 * flat-right: linear, quadratic with a flat end on
    either side, and cubic with two."""
    t = np.array([(1 + u) / 2, (1 + u) ** 2 / 4, 1 - (1 - u) ** 2 / 4, (2 + 3 * u - u ** 3) / 4])
    dt = np.array([np.full_like(u, 0.5), (1 + u) / 2, (1 - u) / 2, 0.75 * (1 - u * u)])
    return t, dt


@functools.cache
def _panel_maps(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1], indexed by flat-left + 2 * flat-right."""
    u, w = gl_rule(npts)
    t, dt = _maps(u)
    return t, dt * w


@functools.cache
def _kronrod_maps() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`kronrod_rule` on [0, 1] as `_panel_maps`: nodes, K21 and G10 weights."""
    u, wk, wg = kronrod_rule()
    t, dt = _maps(u)
    return t, dt * wk, dt * wg


def _angular_panels(v, span: float, r_hi) -> np.ndarray:
    """Number of angular panels over `span` out to radius `r_hi` (an array
    gives one count per radius), sized to the weight's angular variation.

    For radial weights the polar integrand is constant in the angle, so
    a single panel is exact; otherwise panels shrink like 1/r so that
    exponential-in-angle factors stay resolvable.
    """
    if v.radial:
        return np.ones(np.shape(r_hi), dtype=int)
    return np.maximum(4, np.ceil(span * np.maximum(1.0, r_hi) / 2.0)).astype(int)


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
            cross[np.isinf(r)] = np.nan  # an unbounded disc never meets |s| = R
            b = (tau * e.conj()).real
            root = np.sqrt(np.maximum(b * b - m * m + R * R, 0.0))
            angles += [a - cross, a + cross, np.angle((b - root) * e - tau),
                       np.angle((b + root) * e - tau)]
    angles = np.concatenate(angles, axis=-1)
    flat = np.zeros(angles.shape, bool)
    flat[..., :4] = np.concatenate([(ratio > 0) & (ratio < 1)] * 2, axis=-1)
    return angles.reshape(len(angles), -1), flat.reshape(len(angles), -1)


def _piece_intervals(tau, rc, phi, alpha: float, R) -> tuple[np.ndarray, np.ndarray]:
    """The rho-intervals (2m, rows, n_phi) where s + tau lies in the pieces
    rc, interval 2 * piece + part: the annulus chord before and after the
    inner disc, cut by the span's two half-planes; empty ones read [0, 0].

    The cuts cannot bind, and are skipped, when every span holds
    [-alpha, alpha] and every tau with a span lies in the closed sector
    (within _EDGE_SLACK, where the cut itself is rounding): the sector is
    a convex cone, so s + tau stays in it and in the span.  Nan spans
    (discs) never cut.  Only rho <= R is applied then."""
    spans = rc[..., 2:]
    free = np.all(np.isnan(spans[..., 0]) | (
        (spans[..., 0] <= -alpha) & (spans[..., 1] >= alpha)
        & (np.abs(np.angle(tau)) <= alpha + _EDGE_SLACK)))
    tau, rc = tau.T[..., None], rc.T[..., None]  # (m, rows, 1), (4, m, rows or 1, 1)
    # |rho e^{i phi} + tau| <= r  reads  rho^2 + 2 d rho + |tau|^2 <= r^2
    d = tau.real * np.cos(phi) + tau.imag * np.sin(phi)
    disc = d * d - np.abs(tau) ** 2 + rc[:2] ** 2
    root, cut = np.sqrt(np.maximum(disc, 0.0)), disc > 0
    lo, hi = np.where(cut, np.maximum(-d - root, 0.0), 0.0), np.where(cut, root - d, 0.0)
    # the annulus: the outer chord minus the inner one
    lo, hi = (np.stack([lo[1], np.maximum(lo[1], hi[0])], axis=1),
              np.stack([np.minimum(hi[1], lo[0]), hi[1]], axis=1))
    if free:
        if R is not None:
            hi = np.minimum(hi, R)
    else:
        # s + tau stays in the sector, so clipping the span to [-pi/2, pi/2]
        # changes nothing and keeps the wedge an intersection of half-planes;
        # sgn * Im((s + tau) e^{-i th}) >= 0 bounds rho below where k >= 0
        cut_lo, cut_hi = 0.0, np.inf if R is None else R
        for th, sgn in ((rc[2], 1.0), (rc[3], -1.0)):
            th = np.clip(th, -np.pi / 2, np.pi / 2)
            k = sgn * np.sin(phi - th)
            with np.errstate(divide="ignore", invalid="ignore"):
                bound = -sgn * (tau * np.exp(-1j * th)).imag / k
            cut_lo = np.fmax(cut_lo, np.where(k >= 0, bound, 0.0))
            cut_hi = np.fmin(cut_hi, np.where(k < 0, bound, np.inf))
        lo, hi = np.maximum(lo, cut_lo[:, None]), np.minimum(hi, cut_hi[:, None])
    empty = hi <= lo
    shape = (2 * rc.shape[1],) + phi.shape
    return np.where(empty, 0.0, lo).reshape(shape), np.where(empty, 0.0, hi).reshape(shape)


def _panels(v, alpha: float, reach, angles, flat, n_min: int
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The phi panels of all rows as one flat list in row and phi order:
    each panel's row, its ends a and b, and its flat ends, code = flat-left
    + 2 * flat-right.  A row's panels are equal base panels over
    [-alpha, alpha], at least n_min and as many as the weight v needs out
    to the row's reach (rows,), split at the row's angles (rows, k) inside
    the sector (flat (rows, k) marks the tangent rays) and graded towards
    splits that lie close together.  Panels no wider than 1e-12 (rounding
    duplicates, and the step back from a row's alpha to the next row's
    -alpha) are dropped, so a row's panels depend on its own reach and
    angles only."""
    n = np.maximum(n_min, _angular_panels(v, 2.0 * alpha, reach))
    rows = np.arange(len(n))
    a = np.angle(np.exp(1j * angles))
    inside = np.abs(a) < alpha
    at, a = np.nonzero(inside)[0], a[inside]
    # two splits closer than a quarter panel bracket a near-singular spot
    # (a tangent ray next to a corner, say): grade the panels on either side
    # towards them by factors of 4, as many as bridge the gap to a panel's
    # width, at most 12 (closer pairs, down to rounding duplicates, are too
    # close to bridge); the gaps run over each row's splits between -alpha
    # and alpha, and the step back to the next row is a negative gap
    ends = np.concatenate([np.full(len(n), -alpha), a, np.full(len(n), alpha)])
    end_row = np.concatenate([rows, at, rows])
    order = np.lexsort((ends, end_row))
    ends, end_row = ends[order], end_row[order]
    gap, width = ends[1:] - ends[:-1], 2.0 * alpha / n[end_row[:-1]]
    g = np.flatnonzero((gap > width / 4.0 ** 12) & (gap * 4.0 < width))
    gap, left = gap[g, None], ends[g, None]
    step = gap * 4.0 ** np.arange(1, 13)
    graded = np.stack([left - step, left + gap + step])
    near = (step < width[g, None]) & (np.abs(graded) < alpha)
    base_row = np.repeat(rows, n + 1)
    j = np.arange(len(base_row)) - np.repeat(np.cumsum(n + 1) - (n + 1), n + 1)
    # a stable sort keeps ties in this order: base edges, splits, graded edges
    edges = np.concatenate([-alpha + 2.0 * alpha * (j / n[base_row]), a, graded[near]])
    row = np.concatenate([base_row, at, np.broadcast_to(end_row[g, None], near.shape)[near]])
    flat = np.concatenate([np.zeros(len(base_row), bool), flat[inside], np.zeros(near.sum(), bool)])
    order = np.lexsort((edges, row))
    edges, row, flat = edges[order], row[order], flat[order]
    keep = edges[1:] - edges[:-1] > 1e-12
    return row[:-1][keep], edges[:-1][keep], edges[1:][keep], (flat[:-1] + 2 * flat[1:])[keep]


def phi_rule(v, alpha: float, reach, angles, flat, npts: int = _PHI_NODES,
             n_min: int = _MIN_PHI_PANELS) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fixed phi rule of the general rows and of `weights`' radial
    density: an npts-point Gauss-Legendre rule on every panel of `_panels`
    (at least n_min base panels, split at the row's angles (rows, k);
    flat marks the tangent rays), with no error estimate.  Returns each
    panel's row (panels,) and its phi nodes and weights (panels, npts); a
    row's panels depend on its own reach and angles only.  Closed-form
    rows use `_kronrod_rows`."""
    row, a, b, code = _panels(v, alpha, reach, angles, flat, n_min)
    t, w = (x[code] for x in _panel_maps(npts))
    width = (b - a)[:, None]
    return row, a[:, None] + width * t, width * w


def _checked(v, vals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vals)) or np.any(vals < 0):
        raise InvalidWeightError(
            f"weight '{v.family}' is negative or non-finite on a ray inside the sector")
    return vals


def _panel_rays(v, alpha: float, p: float, tau, rc, R, row, phi, g=None, shift=None
                ) -> np.ndarray:
    """The rho-integrals along the rays at the phi nodes (panels, n) of
    panels of the rows `row` (the arguments as in `_engine`): of
    |g(s + shift)|^p v(s), or of v alone when g is None, over the row's
    pieces.  tau, rc and the step are gathered per panel, and the ray
    intervals (k, panels, n) keep the node axis last.  v alone with a ray
    primitive takes it in rho; the rest takes the radial panels of
    `_ray_integrate`."""
    lo, hi = _piece_intervals(tau[row], rc[row] if len(rc) > 1 else rc, phi, alpha, R)
    if g is None and v.primitive is not None:
        live = hi > lo
        ray = np.zeros(lo.shape)
        ray[live] = _checked(v, v.primitive(np.broadcast_to(phi, lo.shape)[live], lo[live], hi[live]))
        return np.sum(ray, axis=0)
    scale = 1.0
    if g is not None and g.kind == "linear-combination":
        # cut at every interval end; |g|^p is smooth in between, but for odd
        # p it may have a kink where two terms overlap (see `_engine`)
        cut = np.sort(np.concatenate([lo, hi]), axis=0)
        mid = (cut[:-1] + cut[1:]) / 2.0
        cover = np.sum((lo < mid[:, None]) & (mid[:, None] < hi), axis=1)
        lo, hi = np.where(cover > 0, cut[:-1], 0.0), np.where(cover > 0, cut[1:], 0.0)
        scale = np.where((cover > 1) & (p % 2 != 0), 16.0, 1.0)
    return _ray_integrate(v, p, lo, hi, phi, g, scale, None if shift is None else shift[row])


def _kronrod_sums(v, alpha: float, tau, rc, R, row, a, b, code) -> tuple[np.ndarray, np.ndarray]:
    """The K21 and G10 sums over the phi panels [a, b] (flat ends `code`)
    of rows `row`: the integral of v over the row's ray intervals, taken
    in rho by the weight's ray primitive (`_panel_rays`)."""
    t, wk, wg = (x[code] for x in _kronrod_maps())
    width = (b - a)[:, None]
    vals = _panel_rays(v, alpha, 1.0, tau, rc, R, row, a[:, None] + width * t) * width
    return np.sum(vals * wk, axis=1), np.sum(vals * wg, axis=1)


def _kronrod_rows(v, alpha: float, tau, rc, R, row, a, b, code) -> np.ndarray:
    """Per row, the integral of v over the pieces, closed form in rho and
    G10K21 in phi to a relative error estimate of _PHI_RTOL.

    The flat panel list (row, a, b, code) of `_panels` starts it.  While
    a row's estimate, the sum of |K21 - G10| over its panels, exceeds
    _PHI_RTOL times its value, its panels whose |K21 - G10| is at least
    half their share of that tolerance (by width) are bisected in place, a
    flat end staying with the half that holds it, at most _MAX_ROUNDS
    times.  Rows are summed by `bincount` over that list."""
    rows = len(tau)
    k, g = _kronrod_sums(v, alpha, tau, rc, R, row, a, b, code)
    for _ in range(_MAX_ROUNDS):
        err = np.abs(k - g)
        tol = _PHI_RTOL * np.bincount(row, k, minlength=rows)
        hard = np.bincount(row, err, minlength=rows) > tol
        if not hard.any():
            break
        split = hard[row] & (err >= 0.5 * tol[row] * (b - a) / (2.0 * alpha))
        at = np.repeat(np.arange(len(row)), 1 + split)
        left = (np.cumsum(1 + split) - 1 - split)[split]
        mid = 0.5 * (a + b)[split]
        row, a, b, code, k, g = (x[at] for x in (row, a, b, code, k, g))
        b[left], a[left + 1] = mid, mid
        code[left], code[left + 1] = code[left] & 1, code[left + 1] & 2
        new = np.concatenate([left, left + 1])
        k[new], g[new] = _kronrod_sums(v, alpha, tau, rc, R, row[new], a[new], b[new], code[new])
    return np.bincount(row, k, minlength=rows)


def _ray_integrate(v, p: float, lo, hi, phi, g=None, scale=1.0, shift=None) -> np.ndarray:
    """Per phi node (panels, n), the integral of |g(s + shift)|^p v(s) (v
    alone when g is None) over the ray intervals [lo, hi] (k, panels, n),
    shift (panels,) the panel's step (None: 0), on radial panels split at
    multiples of 1/scale.  A node sums its radial panels in interval
    order by one `bincount`, so its value does not depend on the blocks.
    An overflow gives inf with no warning, which `_checked` refuses."""
    phase = np.exp(1j * phi).ravel()
    scale = np.broadcast_to(scale, lo.shape).ravel()
    lo, hi = lo.ravel(), hi.ravel()
    floor = np.floor(lo * scale)
    n = np.where(hi > lo, np.ceil(hi * scale) - floor, 0).astype(np.int64)
    first = np.cumsum(n) - n
    x, w = (r[0] for r in _panel_maps(_RHO_NODES))
    parts = []
    cuts = np.flatnonzero(np.diff(first // _PANEL_BLOCK)) + 1
    for a, b in zip(np.r_[0, cuts], np.r_[cuts, len(n)]):
        ids = np.repeat(np.arange(a, b), n[a:b])
        # panel j of an interval spans [floor + j, floor + j + 1] / scale, clipped
        j = floor[ids] + (np.arange(len(ids)) - (first[ids] - first[a]))
        start = np.maximum(lo[ids], j / scale[ids])
        width = np.minimum(hi[ids], (j + 1.0) / scale[ids]) - start
        rho = start[:, None] + width[:, None] * x
        node = ids % phi.size
        z = rho * phase[node, None]
        with np.errstate(over="ignore", invalid="ignore"):
            vals = _checked(v, v.eval(z))
            if g is not None:
                if shift is not None:
                    z = z + shift[node // phi.shape[1], None]
                vals = vals * np.abs(g.evaluate(z)) ** p
        parts.append((vals * rho) @ w * width)
    node = np.repeat(np.arange(len(n)) % phi.size, n)
    return np.bincount(node, np.concatenate(parts), minlength=phi.size).reshape(phi.shape)


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


def _engine(v, alpha: float, p: float, tau, rc, R: float | None, g=None, shift=None
            ) -> np.ndarray:
    """Per row of tau (rows, m), the integral over {s in sector, |s| <= R}
    of |g(s + shift)|^p v(s) (of v alone when g is None: disjoint pieces)
    over the pieces {s + tau[:, j] in rc[:, j]}, rc (rows or 1, m, 4) =
    [r_lo, r_hi, th_lo, th_hi] with nan spans for discs (an r_hi of inf,
    the disc of a custom function without a radius, needs R); shift
    (rows,) is the row's step (None: 0).  g is a function of `lpspace`:
    its `evaluate` and its `kind`.  Rows of v alone with a ray primitive
    are closed-form rows (`_kronrod_rows`); the others take `phi_rule`,
    with 12 nodes on at least 8 base panels for a custom g, whose kinks
    are not known.  Both start from the flat panel list of `_panels`,
    built from the rows' split angles, and are summed per row over it
    (`_panel_rays`)."""
    rows = len(tau)
    angles, flat = _piece_angles(tau, rc, R)
    several = g is not None and g.kind == "linear-combination"
    # where terms overlap g may change sign, and |g|^p then has a kink
    # unless p is even; the kink is not known in closed form, so there the
    # radial panels are 16 times finer and the phi panels twice as many
    kinks = several and p % 2 != 0
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
    reach = np.max(rc[..., 1] + np.abs(tau), axis=1)
    reach = reach if R is None else np.minimum(reach, R)
    if g is None and v.primitive is not None:  # closed-form rows
        return _kronrod_rows(v, alpha, tau, rc, R,
                             *_panels(v, alpha, reach, angles, flat, _MIN_KRONROD_PANELS))
    custom = g is not None and g.kind == "custom"
    row, phi, wphi = phi_rule(v, alpha, reach, angles, flat,
                              *(_CUSTOM_PHI if custom else (_PHI_NODES, _MIN_PHI_PANELS * (1 + kinks))))
    ray = _panel_rays(v, alpha, p, tau, rc, R, row, phi, g, shift)
    return np.bincount(row, np.sum(ray * wphi, axis=1), minlength=rows)


def _misses(alpha: float, tau, r_hi) -> np.ndarray:
    """Where the disc |s + tau| <= r_hi misses the sector: the distance from
    -tau to the sector, |tau| sin(beta) with beta the angle from arg(-tau)
    to the nearer edge (|tau| itself once beta >= pi/2), exceeds r_hi."""
    beta = np.arctan2(np.abs(tau.imag), -tau.real) - alpha
    return np.abs(tau) * np.sin(np.minimum(np.maximum(beta, 0.0), np.pi / 2)) > r_hi


def ray_rows(v, alpha: float, p: float, tau, rc, R: float | None, g=None, shift=None
             ) -> np.ndarray:
    """The engine over the rows of tau (rows, m), the arguments as in
    `_engine`.  A row whose pieces all miss the sector is skipped and
    reads 0.0 (a row at tau = 0 never misses); the others run in blocks
    of at most _ROW_BLOCK pieces (of their squares when they are cut
    against each other)."""
    total = np.zeros(len(tau))
    live = np.flatnonzero(~_misses(alpha, tau, rc[..., 1]).all(axis=1))
    m = tau.shape[1]
    block = max(1, _ROW_BLOCK // (m if g is None else m * m))
    for i in range(0, len(live), block):
        rows = live[i:i + block]
        total[rows] = _engine(v, alpha, p, tau[rows], rc[rows] if len(rc) > 1 else rc, R, g,
                              None if shift is None else shift[rows])
    return total
