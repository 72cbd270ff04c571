"""Gauss-Legendre rules and the s-polar ray engine.

Every integral of a weight v over a part of the sector runs here: the
norms of `lpspace` (||T_t g||^p is the integral of |g(s + t)|^p v(s))
and the integrals of v alone over polar rectangles in `weights` (series
terms, sector integrals).  The integral is taken along the rays
s = rho e^{i phi}, |phi| <= alpha.  A function is made of pieces (the
polar rectangles of an indicator, the disc of a bump: a rectangle
[0, r] about its centre with no angular span), and a piece cuts a ray in
at most two rho-intervals, solved in closed form: circle roots for the
radii, half-plane cuts for the span, rho <= R for a truncation.  The
span cuts are skipped when they cannot bind: every span holds
[-alpha, alpha] and every offset with a span lies in the closed sector
(full-span annuli at in-sector steps), so s + tau never leaves the span.
Gauss-Legendre panels split at integer radii run on those intervals, so
no discontinuity is ever sampled; for v alone and a built-in weight the
rho-integral over an interval is the weight's closed-form ray primitive
instead (see `weights`), so only the phi integral is numerical.

The phi panels are equal panels over the sector, as many as the weight's
angular variation needs out to the row's reach, split where an interval
end changes branch: tangent rays, corners, rays parallel to a span edge,
crossings of two circles or of the truncation circle and, in a
combination, where a span edge of one piece crosses a circle or a span
edge of another, since two interval ends swap there.  Splits closer than
a quarter panel get panels graded towards them.  At a tangent ray an
interval end behaves like a square root in phi; a quadratic map with a
flat end there makes the integrand smooth again.

The engine works on rows: per row, pieces at offsets tau (rows, m) and
their rectangles rc (rows or 1, m, 4) = [r_lo, r_hi, th_lo, th_hi], nan
spans for discs.  Each row carries its own phi panels.  A weight
integral over polar rectangles is one row per rectangle at tau = 0; a
batch of norms is one row per step (per step and level piece, where
`lpspace` cuts a function into pieces of constant |g|^p).  Combinations
cut the ray at every interval end and integrate |g(s + t)|^p on radial
panels between the cuts.  `ray_rows`, the one entry, skips a row whose
pieces all lie in discs |s + tau| <= r_hi that miss the sector (`_misses`):
it is exactly zero and reads 0.0.  All reductions run in a fixed order,
so repeated runs produce bit-identical results.

`panel_nodes`, `integrate_polar` and `interval_gl` are no longer called
by the library; the per-module trace of the benchmark looks them up by
name, so they stay until that trace reads the library's own records.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import InvalidWeightError

_PHI_NODES, _MIN_PHI_PANELS, _RHO_NODES = 20, 6, 12
_CUSTOM_PHI = (12, 8)  # no breakpoints: the generic grid, 12 nodes on >= 8 panels
_ROW_BLOCK = 256  # pieces (over all rows) whose ray intervals are held at once
_PANEL_BLOCK = 1 << 15  # radial panels evaluated at once
_EDGE_SLACK = 4 * np.finfo(float).eps  # angle of a step on an edge, up to rounding

_rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gl_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `npts`-point Gauss-Legendre rule on [-1, 1]."""
    if npts not in _rules:
        _rules[npts] = np.polynomial.legendre.leggauss(npts)
    return _rules[npts]


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


@functools.cache
def _panel_maps(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights on [0, 1], indexed by flat-left + 2 * flat-right."""
    u, w = gl_rule(npts)
    t = np.array([(1 + u) / 2, (1 + u) ** 2 / 4, 1 - (1 - u) ** 2 / 4, (2 + 3 * u - u ** 3) / 4])
    dt = np.array([np.full_like(u, 0.5), (1 + u) / 2, (1 - u) / 2, 0.75 * (1 - u * u)])
    return t, dt * w


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
            b = (tau * e.conj()).real
            root = np.sqrt(np.maximum(b * b - m * m + R * R, 0.0))
            angles += [a - cross, a + cross, np.angle((b - root) * e - tau),
                       np.angle((b + root) * e - tau)]
    angles = np.concatenate(angles, axis=-1)
    flat = np.zeros(angles.shape, bool)
    flat[..., :4] = np.concatenate([(ratio > 0) & (ratio < 1)] * 2, axis=-1)
    return angles.reshape(len(angles), -1), flat.reshape(len(angles), -1)


def _piece_intervals(tau, rc, phi, alpha: float, R) -> tuple[np.ndarray, np.ndarray]:
    """The rho-intervals (rows, n_phi, 2m) where s + tau lies in the pieces
    rc: the annulus chord, cut by the span's two half-planes.

    The cuts cannot bind, and are skipped, when every span holds
    [-alpha, alpha] and every tau with a span lies in the closed sector
    (within _EDGE_SLACK, where the cut itself is rounding): the sector is
    a convex cone, so s + tau stays in it and in the span.  Nan spans
    (discs) never cut.  Only rho <= R is applied then."""
    spans = rc[..., 2:]
    free = np.all(np.isnan(spans[..., 0]) | (
        (spans[..., 0] <= -alpha) & (spans[..., 1] >= alpha)
        & (np.abs(np.angle(tau)) <= alpha + _EDGE_SLACK)))
    tau, rc = tau[:, None, :], rc[:, None]
    # |rho e^{i phi} + tau| <= r  reads  rho^2 + 2 d rho + |tau|^2 <= r^2
    d = tau.real * np.cos(phi)[..., None] + tau.imag * np.sin(phi)[..., None]
    disc = (d * d - np.abs(tau) ** 2)[..., None] + rc[..., :2] ** 2
    root = np.sqrt(np.maximum(disc, 0.0))
    lo, hi = np.maximum(-d[..., None] - root, 0.0), -d[..., None] + root
    lo, hi = np.where(disc > 0, lo, 0.0), np.where(disc > 0, hi, 0.0)
    # the annulus: the outer chord minus the inner one
    lo, hi = (np.stack([lo[..., 1], np.maximum(lo[..., 1], hi[..., 0])], axis=-1),
              np.stack([np.minimum(hi[..., 1], lo[..., 0]), hi[..., 1]], axis=-1))
    if free:
        if R is not None:
            hi = np.minimum(hi, R)
    else:
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


def phi_rule(v, alpha: float, reach, angles=None, flat=None, npts: int = _PHI_NODES,
             n_min: int = _MIN_PHI_PANELS) -> tuple[np.ndarray, np.ndarray]:
    """Per-row phi nodes and weights (rows, n) over [-alpha, alpha]: equal
    panels, at least n_min and as many as the weight v needs out to the
    row's reach (rows,), split at the row's angles (rows, k) inside the
    sector (None: no splits); flat marks the tangent rays."""
    if angles is None:
        angles, flat = np.zeros((len(reach), 0)), np.zeros((len(reach), 0), bool)
    n = np.maximum(n_min, _angular_panels(v, 2.0 * alpha, reach))
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


def _checked(v, vals: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(vals)) or np.any(vals < 0):
        raise InvalidWeightError(
            f"weight '{v.family}' is negative or non-finite on a ray inside the sector")
    return vals


def _ray_integrate(v, p: float, lo, hi, phi, wphi, g=None, scale=1.0, shift=None) -> np.ndarray:
    """Per row, the integral of |g(s + shift)|^p v(s) (v alone when g is
    None) over the ray intervals [lo, hi] (rows, n_phi, k), shift (rows,)
    the row's step (None: 0).  v alone with a weight primitive (the
    built-in families) is integrated in rho in closed form; otherwise on
    panels split at multiples of 1/scale.  Either way an overflow gives
    inf with no warning, which `_checked` refuses."""
    rows, n_phi, k = lo.shape
    live = (hi > lo) & (wphi[..., None] > 0)
    if g is None and v.primitive is not None:
        ray = np.zeros(lo.shape)
        ray[live] = _checked(v, v.primitive(
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
            vals = _checked(v, v.eval(z))
            if g is not None:
                if shift is not None:
                    z = z + shift[ids // (k * n_phi), None]
                vals = vals * np.abs(g.evaluate(z)) ** p
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


def _engine(v, alpha: float, p: float, tau, rc, R: float | None,
            g=None, caps=(), shift=None) -> np.ndarray:
    """Per row of tau (rows, m), the integral over {s in sector, |s| <= R}
    of |g(s + shift)|^p v(s) (of v alone when g is None: disjoint pieces)
    over the pieces {s + tau[:, j] in rc[:, j]}, rc (rows or 1, m, 4) =
    [r_lo, r_hi, th_lo, th_hi] with nan spans for discs, and the custom
    intervals [0, cap]; shift (rows,) is the row's step (None: 0).  g is
    a function of `lpspace`: its `evaluate` and its `kind`."""
    rows = len(tau)
    # custom functions alone have no pieces
    angles, flat = (_piece_angles(tau, rc, R) if rc.shape[1]
                    else (np.zeros((rows, 0)), np.zeros((rows, 0), bool)))
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
    reach = np.max(rc[..., 1] + np.abs(tau), axis=1, initial=max(caps, default=0.0))
    phi, wphi = phi_rule(v, alpha, reach if R is None else np.minimum(reach, R), angles, flat,
                         *((_PHI_NODES, _MIN_PHI_PANELS * (1 + kinks)) if angles.size else _CUSTOM_PHI))
    lo, hi = (_piece_intervals(tau, rc, phi, alpha, R) if rc.shape[1]
              else (np.zeros(phi.shape + (0,)),) * 2)
    lo = np.concatenate([lo, np.zeros(phi.shape + (len(caps),))], axis=-1)
    hi = np.concatenate([hi, np.broadcast_to(caps, phi.shape + (len(caps),))], axis=-1)
    scale = 1.0
    if several:  # cut at every interval end; |g|^p is smooth in between
        cut = np.sort(np.concatenate([lo, hi], axis=-1), axis=-1)
        mid = (cut[..., :-1, None] + cut[..., 1:, None]) / 2.0
        cover = np.sum((lo[..., None, :] < mid) & (mid < hi[..., None, :]), axis=-1)
        lo, hi = np.where(cover > 0, cut[..., :-1], 0.0), np.where(cover > 0, cut[..., 1:], 0.0)
        scale = np.where((cover > 1) & kinks, 16.0, 1.0)
    return _ray_integrate(v, p, lo, hi, phi, wphi, g, scale, shift)


def _misses(alpha: float, tau, r_hi) -> np.ndarray:
    """Where the disc |s + tau| <= r_hi misses the sector: the distance from
    -tau to the sector, |tau| sin(beta) with beta the angle from arg(-tau)
    to the nearer edge (|tau| itself once beta >= pi/2), exceeds r_hi."""
    beta = np.arctan2(np.abs(tau.imag), -tau.real) - alpha
    return np.abs(tau) * np.sin(np.minimum(np.maximum(beta, 0.0), np.pi / 2)) > r_hi


def ray_rows(v, alpha: float, p: float, tau, rc, R: float | None,
             g=None, caps=(), shift=None) -> np.ndarray:
    """The engine over the rows of tau (rows, m), the arguments as in
    `_engine`.  A row whose pieces all miss the sector and that has no
    custom interval is skipped and reads 0.0 (a row at tau = 0 never
    misses); the others run in blocks of at most _ROW_BLOCK pieces (of
    their squares when they are cut against each other)."""
    total = np.zeros(len(tau))
    live = np.flatnonzero(~_misses(alpha, tau, rc[..., 1]).all(axis=1) | bool(caps))
    m = tau.shape[1] + len(caps)
    block = max(1, _ROW_BLOCK // (m if g is None else m * m))
    for i in range(0, len(live), block):
        rows = live[i:i + block]
        total[rows] = _engine(v, alpha, p, tau[rows], rc[rows] if len(rc) > 1 else rc, R, g,
                              caps, None if shift is None else shift[rows])
    return total
