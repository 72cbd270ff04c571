"""Gauss-Legendre rules and panel quadrature on polar rectangles.

Weight integrals over polar rectangles (series terms, sector integrals)
of weights without a closed-form ray primitive have a smooth integrand,
so fixed-order Gauss-Legendre per panel is sufficient.  Radial panels are split at integer radii (the natural
annulus partition used throughout), angular panels are subdivided when
the integrand varies in the angle.  Norms are not computed here: the
ray engine of `lpspace` takes only the rule (`gl_rule`) and builds its
own panels on per-ray intervals.  All reductions run in a fixed order,
so repeated runs produce bit-identical results.
"""

from __future__ import annotations

import numpy as np

_rules: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def gl_rule(npts: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the `npts`-point Gauss-Legendre rule on [-1, 1]."""
    if npts not in _rules:
        _rules[npts] = np.polynomial.legendre.leggauss(npts)
    return _rules[npts]


def radial_edges(a: float, b: float, max_width: float = 1.0) -> np.ndarray:
    """Panel edges over [a, b], split at integer multiples of `max_width`.

    Guarantees no panel is wider than `max_width` and that every integer
    radius inside (a, b) is a panel edge, so per-annulus contributions
    are resolved exactly by the panel structure.
    """
    if b <= a:
        return np.array([a, b])
    first = np.floor(a / max_width) + 1
    last = np.ceil(b / max_width) - 1
    interior = np.arange(first, last + 1) * max_width
    interior = interior[(interior > a) & (interior < b)]
    return np.concatenate([[a], interior, [b]])


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
