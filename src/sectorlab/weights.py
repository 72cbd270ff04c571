"""Weight functions on a sector and their growth certificates.

A usable weight v is positive on the sector and satisfies the growth
inequality ``v(t) <= M * exp(w*|t'|) * v(t+t')`` for some constants
M >= 1 and real w; the pair (M, w) is the weight's *certificate*.  The
certificate is what makes the translation family strongly continuous on
the weighted space and what powers every guaranteed bound in this
library (operator growth, compact lower bounds).  Custom weights may be
used without a certificate, but certificate-dependent operations then
refuse to run rather than fabricate guarantees.

Evaluators must be vectorised and at least piecewise-continuous: the
ray engine of `quadrature` assumes smoothness within each unit annulus,
which all built-in families satisfy (they are smooth in polar
coordinates).

The built-in families also carry a ray *primitive*: the integral of
``v(rho e^{i phi}) * rho`` over rho in [lo, hi], in closed form; the
weight checks at construction that it agrees with its evaluator.  An
integral of v over polar rectangles (`weight_rect_integrals`: series
terms, sector integrals) is (th_hi - th_lo) P(lo, hi) for a radial
weight with a primitive P, exact with no quadrature; any other weight
takes one call of the engine, which integrates the primitive along the
rays and Gauss-Kronrod in the angle to a relative estimate of 1e-10 (a
weight without a primitive: radial panels of the evaluator and one pass
of the same Kronrod rule in the angle, on at least 6 panels).

Built-in families::

    exp_decay      v(t) = exp(-|t|)          certificate (1, 1)
    poly_decay     v(t) = 1 / (|t|**4 + 1)   no certificate shipped
    vertical_exp   v(x+iy) = exp(2*y)        certificate (1, 2)
    constant       v(t) = c                  certificate (1, 0)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from . import quadrature as quad
from .errors import InvalidWeightError, MissingCertificateError
from .geometry import Sector
from .schema import check, check_fields

__all__ = [
    "Certificate", "Weight", "PairSampling", "AdmissibilityReport",
    "IntegralEstimate", "CompactBound",
    "exp_decay", "poly_decay", "vertical_exp", "constant_weight", "custom_weight",
    "admissibility_check", "weight_integral", "compact_lower_bound", "grid_minimum",
    "weight_rect_integral", "weight_rect_integrals", "full_annuli",
    "weight_from_spec", "weight_to_spec",
]

_REL_SLACK = 1e-12  # relative slack for inequality checks at float precision
# rho-intervals [lo; hi] and ray angles on which a primitive must match its evaluator
_PRIMITIVE_CHECK = (np.array([[0.0, 1.0, 8.0], [0.5, 3.0, 9.0]]), np.array([0.0, 0.2, -0.2]))


@dataclass(frozen=True)
class Certificate:
    """Growth constants (M, w): M a real >= 1, w a real (the schema's
    `admissibility`)."""

    M: float
    w: float

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class Weight:
    """Positive weight on the sector, with optional growth certificate.

    `evaluator` must accept complex ndarrays and return positive floats;
    `radial` marks evaluators that depend on |t| only, which lets the
    quadrature collapse its angular panels.  `primitive(phi, lo, hi)`,
    set by the built-in factories only, is the integral of
    ``evaluator(rho e^{i phi}) * rho`` over rho in [lo, hi] (broadcast).
    """

    evaluator: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    family: str = "custom"
    certificate: Certificate | None = None
    radial: bool = False
    params: tuple = ()
    primitive: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = field(
        default=None, repr=False)

    def __post_init__(self):
        # spot-check positivity on the positive real axis, which lies in
        # every sector; norm quadratures check every node they evaluate
        z = np.array([0.0, 0.25, 1.0, 3.0, 8.0], dtype=complex)
        vals = np.asarray(self.evaluator(z), dtype=float)
        if not np.all(np.isfinite(vals)) or np.any(vals <= 0):
            raise InvalidWeightError(
                f"weight '{self.family}' is non-positive or non-finite on the spot grid")
        if self.primitive is not None:
            # the primitive against a 20-node rule of the evaluator on a few
            # rays, so that replacing one of the two cannot go unnoticed
            (lo, hi), phi = _PRIMITIVE_CHECK
            x, w = quad.gl_rule(20)
            half = (hi - lo) / 2.0
            rho = (lo + hi)[:, None] / 2.0 + half[:, None] * x
            vals = np.asarray(self.evaluator(rho * np.exp(1j * phi)[:, None, None]), dtype=float)
            ref = (vals * rho) @ w * half
            got = self.primitive(phi[:, None], lo, hi)
            if not np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref)):
                raise InvalidWeightError(
                    f"the ray primitive of weight '{self.family}' disagrees with its evaluator")

    def eval(self, z) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(z, dtype=complex)), dtype=float)

    @property
    def certified(self) -> bool:
        return self.certificate is not None


# Taylor coefficients 1 / (n! (n + 2)) of (e^u (u - 1) + 1) / u^2; at |u| <= 1
# the first omitted term is below 1e-16 of the sum
_PHI2 = np.array([1.0 / (math.factorial(n) * (n + 2)) for n in range(17)])


def _exp_ray(c, lo, hi):
    """Integral of rho e^{c rho} over [lo, hi], as e^{c lo} (lo E1 + h^2 E2)
    with h = hi - lo, u = c h, E1 = (e^u - 1) / c and E2 = (e^u (u - 1) + 1)
    / u^2 (its Taylor sum where |u| <= 1): both terms are positive, so
    nothing cancels.  Each form of E2 is evaluated only where it is taken.
    Overflow gives inf (no warning), which the callers refuse."""
    h = hi - lo
    u = np.asarray(c * h)
    small = np.abs(u) <= 1.0
    e2 = np.empty(u.shape)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        e1 = np.where(c == 0, h, np.expm1(u) / c)
        e2[small] = np.polynomial.polynomial.polyval(u[small], _PHI2)
        big = u[~small]
        e2[~small] = (np.exp(big) * (big - 1.0) + 1.0) / (big * big)
        return np.exp(c * lo) * (lo * e1 + h * h * e2)


def exp_decay() -> Weight:
    return Weight(lambda z: np.exp(-np.abs(z)), family="exp_decay",
                  certificate=Certificate(1.0, 1.0), radial=True,
                  primitive=lambda phi, lo, hi: _exp_ray(-1.0, lo, hi))


def poly_decay() -> Weight:
    # arctan(hi^2) - arctan(lo^2) as one arctangent: no cancellation
    return Weight(lambda z: 1.0 / (np.abs(z) ** 4 + 1.0), family="poly_decay",
                  certificate=None, radial=True,
                  primitive=lambda phi, lo, hi: 0.5 * np.arctan(
                      (hi - lo) * (hi + lo) / (1.0 + (hi * lo) ** 2)))


def vertical_exp() -> Weight:
    return Weight(lambda z: np.exp(2.0 * np.imag(z)), family="vertical_exp",
                  certificate=Certificate(1.0, 2.0), radial=False,
                  primitive=lambda phi, lo, hi: _exp_ray(2.0 * np.sin(phi), lo, hi))


def constant_weight(value: float = 1.0) -> Weight:
    c = float(value)  # Weight refuses a value that is not > 0 and finite
    return Weight(lambda z: np.full(np.shape(z), c), family="constant",
                  certificate=Certificate(1.0, 0.0), radial=True, params=(value,),
                  primitive=lambda phi, lo, hi: 0.5 * c * (hi - lo) * (hi + lo))


def custom_weight(fn: Callable[[np.ndarray], np.ndarray],
                  certificate: Certificate | None = None,
                  radial: bool = False) -> Weight:
    """Wrap a user evaluator.  Without a certificate the weight is
    'uncertified': operations that need guaranteed bounds will refuse it."""
    return Weight(fn, family="custom", certificate=certificate, radial=radial)


# ---------------------------------------------------------------------------
# admissibility


@dataclass(frozen=True)
class PairSampling:
    """Sampling plan for the growth inequality: a deterministic polar grid
    of base points and offsets, plus seeded random pairs.  The fields
    must meet the schema's `$defs.PairSampling`, else `DomainError`."""

    grid_radii: tuple = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)
    grid_angles: int = 7
    n_random: int = 2000
    r_max: float = 32.0
    seed: int = 42

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class AdmissibilityReport:
    ok: bool
    n_pairs: int
    worst_ratio: float
    violations: tuple  # worst few (t, t_prime, ratio), ratio = lhs/rhs

    def __bool__(self):
        return self.ok


def _grid_points(sector: Sector, sampling: PairSampling) -> np.ndarray:
    th = np.linspace(-sector.alpha, sector.alpha, sampling.grid_angles)
    r = np.asarray(sampling.grid_radii)
    return (r[:, None] * np.exp(1j * th[None, :])).ravel()


def _random_points(sector: Sector, n: int, rng: np.random.Generator,
                   r_max: float) -> np.ndarray:
    r = rng.uniform(0.0, r_max, n)
    th = rng.uniform(-sector.alpha, sector.alpha, n)
    return r * np.exp(1j * th)


def admissibility_check(v: Weight, M: float, w: float, sector: Sector,
                        sampling: PairSampling | None = None) -> AdmissibilityReport:
    """Test ``v(t) <= M exp(w|t'|) v(t+t')`` on sampled pairs (t, t').

    Violations beyond a 1e-12 relative slack are reported with the worst
    ratio lhs/rhs first.  Passing this check does not prove the weight
    admissible; failing it disproves the offered certificate.
    """
    Certificate(M, w)  # refuses an M or w the schema does not allow
    sampling = sampling or PairSampling()
    base = _grid_points(sector, sampling)
    t = np.repeat(base, len(base))
    tp = np.tile(base, len(base))
    rng = np.random.default_rng(sampling.seed)
    t = np.concatenate([t, _random_points(sector, sampling.n_random, rng, sampling.r_max)])
    tp = np.concatenate([tp, _random_points(sector, sampling.n_random, rng, sampling.r_max)])

    lhs = v.eval(t)
    vsum = v.eval(t + tp)
    if not (np.all(np.isfinite(lhs)) and np.all(np.isfinite(vsum))
            and np.all(lhs > 0) and np.all(vsum > 0)):
        raise InvalidWeightError("weight evaluator returned non-positive or non-finite values")
    rhs = M * np.exp(w * np.abs(tp)) * vsum
    ratio = lhs / rhs
    bad = ratio > 1.0 + _REL_SLACK
    order = np.argsort(-ratio[bad])
    worst = [(complex(t[bad][i]), complex(tp[bad][i]), float(ratio[bad][i]))
             for i in order[:10]]
    return AdmissibilityReport(ok=not bad.any(), n_pairs=len(t),
                               worst_ratio=float(ratio.max()),
                               violations=tuple(worst))


# ---------------------------------------------------------------------------
# integrals


def weight_rect_integrals(v: Weight, rc, sector: Sector) -> np.ndarray:
    """Integrals of v over the polar rectangles rc (n, 4) = [r_lo, r_hi,
    th_lo, th_hi], in one batch.

    A radial weight with a ray primitive P gives (th_hi - th_lo) P(lo, hi)
    in closed form.  Any other weight takes one call of the ray engine at
    tau = 0, one row per rectangle: the primitive along the rays and
    Gauss-Kronrod panels in the angle, refined to a relative estimate of
    1e-10 (without a primitive: radial panels of the evaluator and one
    unrefined pass of the Kronrod panels), split at the rectangle's span.
    The norm engine computes the same integral as ||1_A||^p.  A span that
    leaves the sector raises `DomainError` (`Sector.require`): the engine
    integrates over the sector only.
    """
    rc = np.asarray(rc, dtype=float).reshape(-1, 4)
    sector.require(np.exp(1j * rc[:, 2:]), "weight_rect_integrals.rc")
    if v.primitive is not None and v.radial:
        return (rc[:, 3] - rc[:, 2]) * v.primitive(0.0, rc[:, 0], rc[:, 1])
    return quad.ray_rows(v, sector.alpha, 1.0, np.zeros((len(rc), 1), complex), rc[:, None], None)


def weight_rect_integral(v: Weight, rect, sector: Sector) -> float:
    """Integral of v over one polar rectangle (see `weight_rect_integrals`)."""
    return float(weight_rect_integrals(
        v, [[rect.r_lo, rect.r_hi, rect.th_lo, rect.th_hi]], sector)[0])


def full_annuli(lo, hi, sector: Sector) -> np.ndarray:
    """The rectangles (n, 4) of the annuli lo <= |t| <= hi across the sector."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    return np.column_stack([lo, hi, np.full(lo.shape, -sector.alpha),
                            np.full(lo.shape, sector.alpha)])


@dataclass(frozen=True)
class IntegralEstimate:
    """Truncated sector integral plus a model-based tail estimate.

    `value` is the quadrature over the truncation, `tail` the analytic
    remainder estimate for the declared decay model (None when no model
    applies or the trend is not convergent), `total` their sum.
    """

    value: float
    tail: float | None
    verdict: str  # convergent-trend | divergent-trend | inconclusive
    R: float

    @property
    def total(self) -> float:
        return self.value + (self.tail or 0.0)


def trend_verdict(terms: np.ndarray) -> str:
    """Three-state convergence verdict from consecutive positive terms.

    Geometric shrink (ratio <= 0.9 sustained over the last ten terms)
    or a fitted power decay steeper than 1/k both count as convergent;
    non-decreasing terms count as divergent; anything else is
    inconclusive.
    """
    terms = np.asarray(terms, dtype=float)
    terms = terms[terms > 0]
    if len(terms) < 3:
        return "inconclusive"
    tail = terms[-min(10, len(terms)):]
    ratios = tail[1:] / tail[:-1]
    if np.all(ratios <= 0.9):
        return "convergent-trend"
    if np.all(ratios >= 1.0 - _REL_SLACK):
        return "divergent-trend"
    if np.any(ratios >= 1.0):
        return "inconclusive"
    # power-law fit: terms ~ k^(-p) converges iff p > 1
    k = np.arange(len(terms) - len(tail) + 1, len(terms) + 1, dtype=float)
    slope = np.polyfit(np.log(k), np.log(tail), 1)[0]
    if -slope >= 1.1:
        return "convergent-trend"
    if -slope <= 0.9:
        return "divergent-trend"
    return "inconclusive"


def _radial_density(v: Weight, rho: float, sector: Sector) -> float:
    """g(rho) = rho * integral of v(rho e^{i th}) over the angular span, by
    the phi rule of the ray engine's general rows."""
    return rho * quad.phi_integral(lambda th: v.eval(rho * np.exp(1j * th)), v, sector.alpha, rho)


def _tail_estimate(v: Weight, R: float, sector: Sector, model: str) -> float | None:
    """Remainder of the sector integral beyond radius R, per decay model.

    Fits the model to the radial density g at R-1 and R, then integrates
    the model to infinity.  exp: g ~ C exp(-c rho); power: g ~ C rho^-q
    (needs q > 1).
    """
    if model == "none" or R <= 1.0:
        return None
    g1 = _radial_density(v, R - 1.0, sector)
    g2 = _radial_density(v, R, sector)
    if g1 <= 0 or g2 <= 0 or g2 >= g1:
        return None
    if model == "exp":
        c = math.log(g1 / g2)
        return g2 / c
    q = math.log(g1 / g2) / math.log(R / (R - 1.0))
    if q <= 1.0:
        return None
    return g2 * R / (q - 1.0)


def weight_integral(v: Weight, R: float, sector: Sector,
                    tail: str = "none") -> IntegralEstimate:
    """Integral of v over the truncated sector, with tail model and verdict.

    The terms are the integrals over the unit annuli k <= |t| <= k + 1
    (the last one cut at R), one batch of `weight_rect_integrals`.
    Divergence is reported in the verdict (from those terms), never
    raised: a growing weight simply yields 'divergent-trend' and no tail
    estimate.  R is a real > 0 and `tail` one of none, exp, power.
    """
    check_fields(weight_integral, R=R, tail=tail)
    edges = np.append(np.arange(math.ceil(R)), R)
    terms = weight_rect_integrals(v, full_annuli(edges[:-1], edges[1:], sector), sector)
    verdict = trend_verdict(terms)
    value = float(np.sum(terms))
    tail_est = _tail_estimate(v, R, sector, tail) if verdict == "convergent-trend" else None
    return IntegralEstimate(value=value, tail=tail_est, verdict=verdict, R=R)


# ---------------------------------------------------------------------------
# compact lower bounds


@dataclass(frozen=True)
class CompactBound:
    """Lower bound for v on the closed truncation of radius R.

    `analytic` is guaranteed by the certificate: setting t = 0 in the
    growth inequality gives v(t') >= v(0) / (M exp(w |t'|)).  `grid_min`
    is the sampled minimum — tighter but heuristic.
    """

    analytic: float
    grid_min: float
    argmin: complex
    R: float


def grid_minimum(v: Weight, R: float, sector: Sector,
                 n_r: int = 81, n_theta: int = 33) -> tuple[float, complex]:
    """Sampled minimum of v over the closed truncation (endpoint-inclusive):
    R a real >= 0, n_r and n_theta integers >= 1."""
    check_fields(grid_minimum, R=R, n_r=n_r, n_theta=n_theta)
    r = np.linspace(0.0, R, n_r)
    th = np.linspace(-sector.alpha, sector.alpha, n_theta)
    z = r[:, None] * np.exp(1j * th[None, :])
    vals = v.eval(z)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    return float(vals[i, j]), complex(z[i, j])


def compact_lower_bound(v: Weight, R: float, sector: Sector) -> CompactBound:
    """Certificate-backed lower bound of v on the closed ball of radius R,
    a real >= 0."""
    check_fields(compact_lower_bound, R=R)
    if not v.certified:
        raise MissingCertificateError(
            f"weight '{v.family}' carries no certificate; only the sampled "
            "grid minimum is available (see grid_minimum)")
    cert = v.certificate
    v0 = float(v.eval(np.array([0j]))[0])
    # e^{w|t'|} is maximised at |t'| = R only when w >= 0; for w < 0 the
    # inequality is strongest at the origin
    analytic = v0 / (cert.M * math.exp(max(cert.w, 0.0) * R))
    gmin, argmin = grid_minimum(v, R, sector)
    return CompactBound(analytic=analytic, grid_min=gmin, argmin=argmin, R=R)


# ---------------------------------------------------------------------------
# JSON specs


_FAMILIES = {
    "exp_decay": lambda params: exp_decay(),
    "poly_decay": lambda params: poly_decay(),
    "vertical_exp": lambda params: vertical_exp(),
    "constant": lambda params: constant_weight(params.get("value", 1.0)),
}


def weight_from_spec(spec: dict) -> Weight:
    """Build a weight from a scenario JSON spec {family, params, certificate}.

    A spec that breaks the schema's `weight` rule is a `ConfigError`."""
    params, cert = check("weight", spec).get("params", {}), spec.get("certificate")
    w = _FAMILIES[spec["family"]](params)
    if cert is not None:
        w = replace(w, certificate=Certificate(float(cert["M"]), float(cert["w"])))
    return w


def weight_to_spec(v: Weight) -> dict:
    spec: dict = {"family": v.family, "params": {}}
    if v.family == "constant" and v.params:
        spec["params"]["value"] = v.params[0]
    if v.certificate is not None:
        spec["certificate"] = {"M": v.certificate.M, "w": v.certificate.w}
    return spec
