"""Decision procedures for chaos of the translation semigroup.

Three checkable conditions, all expressed through the weight:

*   the annulus-series condition — convergence of the weight's integrals
    over the unit annuli indexed by a set K of upper density one is
    sufficient for dense distributional chaos.  Its proof is fully
    constructive and is rebuilt here: the witness function is the
    indicator of the K-annuli, and its translates stay norm-separated by
    an explicit delta computed from a lower bound of the weight on the
    closed ball of radius 2;
*   the ray-summability condition — summability of v along an interior
    ray certifies a nontrivial periodic point for the restriction to the
    ray (and hence Devaney chaos of the full semigroup);
*   packaged example scenarios combining the two, including the weight
    for which the ray test passes while the annulus series diverges.

The density hypothesis on K (upper density one in the integers) is the
caller's declaration; the library measures the counting ratio and
reports it, but never folds it into a verdict — witness verification
and the density hypothesis are kept separate on purpose.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .dynamics import OrbitResolution, level_density, orbit_profile
from .errors import ConfigError, DomainError, WitnessInvalidError
from .geometry import _ANGLE_SLACK, Sector, as_complex
from .lpspace import (LpSpace, SectorFunction, function_from_spec, indicator,
                      indicator_orbit_norms)
from .schema import SCHEMA, check, check_fields, validate
from .sets import annuli_union
from .weights import (Weight, admissibility_check, compact_lower_bound,
                      full_annuli, grid_minimum, trend_verdict, weight_from_spec,
                      weight_rect_integrals)

__all__ = [
    "IndexSet", "SeriesReport", "WitnessPackage", "WitnessVerification",
    "WitnessSampling", "CheckResult", "ExampleReport",
    "annuli_density_bound", "dc_sufficient_series", "build_witness", "verify_witness",
    "devaney_ray_series", "run_example", "load_scenario", "EXAMPLE_IDS",
]


# ---------------------------------------------------------------------------
# index sets


@dataclass(frozen=True)
class IndexSet:
    """Set of nonnegative integers indexing unit annuli.

    Supported kinds: 'all' (k >= 0), 'finite', 'arith' (start + step*j),
    and 'nonsquares' (complement of the perfect squares, a standard
    density-one example).  `declared_density` is the caller's assertion
    about the upper density in the integers; `counting_ratio` measures
    #(K ∩ [1, n]) / n empirically.  `kind`, `members`, `start` and `step`
    must meet the schema's `K` rules, else `DomainError`.
    """

    kind: str
    members: tuple = ()
    start: int = 0
    step: int = 1
    declared_density: float | None = None

    def __post_init__(self):
        check_fields(self)

    @classmethod
    def all_naturals(cls) -> "IndexSet":
        return cls(kind="all", declared_density=1.0)

    @classmethod
    def finite(cls, members) -> "IndexSet":
        ms = tuple(sorted(set(int(k) for k in members)))
        return cls(kind="finite", members=ms, declared_density=0.0)

    @classmethod
    def arithmetic(cls, start: int, step: int) -> "IndexSet":
        return cls(kind="arith", start=start, step=step,
                   declared_density=1.0 if step == 1 else None)

    @classmethod
    def evens(cls) -> "IndexSet":
        return cls.arithmetic(0, 2)

    @classmethod
    def nonsquares(cls) -> "IndexSet":
        return cls(kind="nonsquares", declared_density=1.0)

    def members_up_to(self, n: int) -> np.ndarray:
        if self.kind == "all":
            return np.arange(0, n + 1)
        if self.kind == "finite":
            return np.array([k for k in self.members if k <= n], dtype=int)
        if self.kind == "arith":
            return np.arange(self.start, n + 1, self.step)
        if self.kind == "nonsquares":
            ks = np.arange(0, n + 1)
            roots = np.sqrt(ks).round().astype(int)
            return ks[roots * roots != ks]
        raise ConfigError(f"unknown index-set kind {self.kind!r}")

    def counting_ratio(self, n: int) -> float:
        """#(K ∩ [1, n]) / n for an integer n >= 1."""
        check_fields(IndexSet.counting_ratio, n=n)
        ms = self.members_up_to(n)
        return len(ms[(ms >= 1) & (ms <= n)]) / n

    def describe(self) -> str:
        return {
            "all": "k >= 0",
            "finite": f"finite {{{', '.join(map(str, self.members))}}}",
            "arith": f"k = {self.start} + {self.step} j",
            "nonsquares": "non-square k >= 0",
        }[self.kind]

    @classmethod
    def from_spec(cls, spec) -> "IndexSet":
        """Index set from a spec string or a scenario-schema dict.

        Strings: ``all | evens | odds | nonsquares | finite:1,2,3 |
        arith:start:step``, turned into the dict they name.  Dicts:
        ``{"kind", "members", "start", "step"}``, checked against the
        schema's `K` rule.  Anything else, or a malformed spec, is a
        `ConfigError`.
        """
        try:
            if isinstance(spec, str):
                kind, _, rest = spec.partition(":")
                if kind == "finite":
                    spec = {"kind": kind, "members": [int(k) for k in rest.split(",")]}
                elif kind == "arith":
                    start, _, step = rest.partition(":")
                    spec = {"kind": kind, "start": int(start), "step": int(step)}
                elif spec == "odds":
                    spec = {"kind": "arith", "start": 1, "step": 2}
                else:
                    spec = {"kind": spec}
            kind = check("K", spec)["kind"]
            if kind == "finite":
                return cls.finite(spec["members"])
            if kind == "arith":
                return cls.arithmetic(spec["start"], spec["step"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"bad {kind} index-set spec {spec!r}: {exc}") from exc
        return {"all": cls.all_naturals, "evens": cls.evens, "nonsquares": cls.nonsquares}[kind]()


def annuli_density_bound(K, n: int) -> float:
    """Lower-bound term ``IndexSet.counting_ratio(n)**2`` at horizon n >= 1;
    an iterable K is read as `IndexSet.finite(K)`.

    The density of a union of unit annuli indexed by K dominates this
    squared counting ratio; see the acceptance suite for the comparison
    against exact rect-union profiles.
    """
    K = K if isinstance(K, IndexSet) else IndexSet.finite(K)
    return K.counting_ratio(n) ** 2


# ---------------------------------------------------------------------------
# series


@dataclass(frozen=True)
class SeriesReport:
    """Partial sums of a nonnegative series with a trend verdict.

    `limit_estimate` is the last partial sum plus a model tail, present
    only when the trend is convergent.  `counting_ratio` and
    `declared_density` report the density bookkeeping for the index set
    (None for ray series, where no index set is involved).
    """

    k_values: np.ndarray
    terms: np.ndarray
    partial_sums: np.ndarray
    verdict: str
    limit_estimate: float | None
    counting_ratio: float | None = None
    declared_density: float | None = None

    @property
    def value(self) -> float:
        return float(self.partial_sums[-1]) if len(self.partial_sums) else 0.0


def _series_tail(k: np.ndarray, terms: np.ndarray) -> float | None:
    """Tail estimate from the last two positive terms.

    Geometric extrapolation when the per-unit-index ratio is clearly
    below 1; otherwise a power model fitted at the annulus centers
    k + 1/2 and summed to infinity via the midpoint rule (this
    telescopes exactly for terms of the form k^-2 - (k+1)^-2).
    """
    pos = terms > 0
    if pos.sum() < 2:
        return None
    kk = k[pos][-2:].astype(float)
    tt = terms[pos][-2:]
    dk = kk[1] - kk[0]
    ratio = (tt[1] / tt[0]) ** (1.0 / dk)
    if ratio >= 1.0:
        return None
    if ratio <= 0.7:
        q = tt[1] / tt[0]  # per-step ratio at the index spacing dk
        return float(tt[1] * q / (1.0 - q))
    x = kk + 0.5
    q_exp = math.log(tt[0] / tt[1]) / math.log(x[1] / x[0])
    if q_exp <= 1.0:
        return None
    start = kk[1] + 0.5 + dk / 2.0
    c = tt[1] * x[1] ** q_exp
    return float(c * start ** (1.0 - q_exp) / ((q_exp - 1.0) * dk))


def dc_sufficient_series(v: Weight, K: IndexSet, k_max: int,
                         sector: Sector) -> SeriesReport:
    """Annulus series of the weight over K, up to index k_max.

    term_k is the integral of v over the annulus {k <= |t| <= k+1}, all
    terms in one batch of `weight_rect_integrals`: closed-form for the
    radial built-in weights, one call of the ray engine otherwise.  The
    p-th power of the norm of the K-annuli indicator is the same
    integral; criterion 8 checks the two agree (for a weight that is not
    radial, that is the engine against itself).  k_max meets the schema's
    `horizons.series_k_max` (an integer >= 0).
    """
    check_fields(dc_sufficient_series, k_max=k_max)
    ks = K.members_up_to(k_max)
    terms = weight_rect_integrals(v, full_annuli(ks, ks + 1.0, sector), sector)
    partial = np.cumsum(terms)
    if K.kind == "finite":
        # a finite index set has a finite sum: no trend heuristics needed
        verdict = "convergent-trend"
        limit = float(partial[-1]) if len(partial) else 0.0
    else:
        verdict = trend_verdict(terms)
        limit = None
        if verdict == "convergent-trend" and len(terms):
            tail = _series_tail(ks, terms)
            limit = float(partial[-1] + (tail or 0.0))
    return SeriesReport(k_values=ks, terms=terms, partial_sums=partial,
                        verdict=verdict, limit_estimate=limit,
                        counting_ratio=K.counting_ratio(max(k_max, 1)),
                        declared_density=K.declared_density)


def devaney_ray_series(v: Weight, t1, k_max: int, sector: Sector) -> SeriesReport:
    """Partial sums of ``sum_k v(k * t1)`` along an interior ray.

    Summability along a ray not contained in the sector boundary
    certifies a nontrivial periodic point of the restriction to the ray;
    the boundary case is rejected because the criterion does not apply
    there.  k_max meets the schema's `horizons.ray_k_max` (an integer >= 1).
    """
    check_fields(devaney_ray_series, k_max=k_max)
    z1 = sector.require(as_complex(t1), "devaney_ray_series.t1")
    if z1 == 0 or abs(abs(math.atan2(z1.imag, z1.real)) - sector.alpha) < _ANGLE_SLACK:
        raise DomainError(f"devaney_ray_series.t1 {z1} is 0 or on the sector boundary, "
                          "where the criterion does not apply")
    ks = np.arange(0, k_max + 1)
    terms = v.eval(ks * z1)
    partial = np.cumsum(terms)
    verdict = trend_verdict(terms)
    limit = None
    if verdict == "convergent-trend":
        tail = _series_tail(ks, terms)
        limit = float(partial[-1] + (tail or 0.0))
    return SeriesReport(k_values=ks, terms=terms, partial_sums=partial,
                        verdict=verdict, limit_estimate=limit)


# ---------------------------------------------------------------------------
# witness construction and verification


@dataclass(frozen=True)
class WitnessPackage:
    """Separation witness: f = indicator of the K-annuli, with its delta.

    delta = (alpha * b)**(1/p) where b lower-bounds the weight on the
    closed ball of radius 2.  `bound_source` records whether b is the
    certificate-backed bound (guaranteed) or the sampled grid minimum
    (tighter, heuristic); both values are kept.
    """

    f: SectorFunction = field(repr=False)
    delta: float
    delta_analytic: float | None
    delta_grid: float
    bound_source: str
    p: float
    k_cap: int
    series: SeriesReport = field(repr=False)


def build_witness(v: Weight, K: IndexSet, p: float, sector: Sector,
                  k_cap: int = 64, bound: str = "auto") -> WitnessPackage:
    """Construct the K-annuli indicator witness and its separation delta.

    Requires the annulus series to be convergent-trend (otherwise the
    indicator is not in the space and the construction is invalid).
    The infinite annuli union is capped at k_cap; the cap only matters
    past the verification horizon and is recorded in the package.  k_cap
    and bound meet the schema's `horizons.witness_k_cap` and
    `witness_bound`.
    """
    check_fields(build_witness, k_cap=k_cap, bound=bound)
    LpSpace(v, p, sector)  # refuses a p the schema does not allow
    series = dc_sufficient_series(v, K, k_cap, sector)
    if series.verdict == "divergent-trend":
        raise WitnessInvalidError(
            "annulus series diverges: the witness indicator is not in the space")
    alpha = sector.alpha
    delta_analytic = None
    if v.certified:  # the compact bound carries the grid minimum too
        compact = compact_lower_bound(v, 2.0, sector)
        gmin = compact.grid_min
        delta_analytic = (alpha * compact.analytic) ** (1.0 / p)
    else:
        gmin, _ = grid_minimum(v, 2.0, sector)
    delta_grid = (alpha * gmin) ** (1.0 / p)
    if bound == "auto":
        bound = "analytic" if v.certified else "grid"
    if bound == "analytic" and delta_analytic is None:
        raise WitnessInvalidError("analytic bound requested but the weight is uncertified")
    delta = delta_analytic if bound == "analytic" else delta_grid
    f = indicator(annuli_union(K.members_up_to(k_cap), sector))
    return WitnessPackage(f=f, delta=delta, delta_analytic=delta_analytic,
                          delta_grid=delta_grid, bound_source=bound, p=p,
                          k_cap=k_cap, series=series)


@dataclass(frozen=True)
class WitnessSampling:
    """Sampling plan over the separation bands: a deterministic per-band
    polar grid plus seeded random points.  The fields must meet the
    schema's `$defs.WitnessSampling`, else `DomainError`."""

    per_band_r: int = 3
    per_band_theta: int = 4
    n_random: int = 200
    seed: int = 42

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class WitnessVerification:
    min_norm: float
    argmin: complex
    n_samples: int
    delta: float
    tol: float
    passed: bool


def _band_angles(alpha: float, n: int) -> np.ndarray:
    """n even angles from -alpha to alpha, th == -th[::-1] bit for bit ([0.0] for n = 1)."""
    j = np.arange(n) - (n - 1) / 2
    return alpha * (j / j[-1]) if n > 1 else np.zeros(n)


def verify_witness(space: LpSpace, pkg: WitnessPackage, K: IndexSet, R: float,
                   sampling: WitnessSampling | None = None,
                   tol: float = 1e-4) -> WitnessVerification:
    """Check ``||T_t f|| >= delta - tol`` on samples of the separation bands.

    Samples t over the union of the bands {k-1 <= |t| <= k} for k in K
    with 1 <= k <= R; each norm is an exact-path quadrature of the
    translated indicator.  R and tol meet the schema's
    `horizons.witness_R` and `thresholds.witness_tol`.
    """
    check_fields(verify_witness, R=R, tol=tol)
    sampling = sampling or WitnessSampling()
    alpha = space.sector.alpha
    ks = [int(k) for k in K.members_up_to(int(math.floor(R))) if k >= 1]
    if not ks:
        raise DomainError("no separation bands intersect [1, R] for this index set")
    if pkg.k_cap < max(ks) + 1:
        raise DomainError(
            f"witness cap k_cap={pkg.k_cap} is below the verification horizon; "
            f"rebuild with k_cap >= {max(ks) + 1}")

    th = _band_angles(alpha, sampling.per_band_theta)
    pts = []
    for k in ks:
        rr = np.linspace(k - 1, k, sampling.per_band_r + 1)[1:]
        pts.append((rr[:, None] * np.exp(1j * th[None, :])).ravel())
    rng = np.random.default_rng(sampling.seed)
    band = rng.choice(len(ks), size=sampling.n_random)
    rr = np.asarray(ks)[band] - rng.uniform(0.0, 1.0, sampling.n_random)
    th = rng.uniform(-alpha, alpha, sampling.n_random)
    pts.append(rr * np.exp(1j * th))
    samples = np.concatenate(pts)

    norms = indicator_orbit_norms(space, pkg.f, samples)
    i = int(np.argmin(norms))
    return WitnessVerification(min_norm=float(norms[i]), argmin=complex(samples[i]),
                               n_samples=len(samples), delta=pkg.delta, tol=tol,
                               passed=bool(np.all(norms >= pkg.delta - tol)))


# ---------------------------------------------------------------------------
# packaged example scenarios


_DATA = resources.files("sectorlab") / "data"
EXAMPLE_IDS = tuple(sorted(p.name[:-len(".json")] for p in (_DATA / "scenarios").iterdir()
                           if p.name.endswith(".json")))


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    requirement: str
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ExampleReport:
    example_id: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "example": self.example_id,
            "passed": self.passed,
            "checks": [
                {"name": c.name, "value": c.value, "requirement": c.requirement,
                 "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2)


def validate_scenario(cfg: dict) -> dict:
    """cfg, if it meets the whole of `scenario.schema.json`, the one
    statement of the config rules; else a `ConfigError` naming the key path
    that breaks it.  Rules the schema cannot state (a bump needs its
    `radius`, a finite index set its `members`) are refused by the reader
    of that part."""
    return validate(cfg, SCHEMA, "scenario")


def load_scenario(example_id: str) -> dict:
    if example_id not in EXAMPLE_IDS:
        raise ConfigError(f"unknown example id {example_id!r}; known: {EXAMPLE_IDS}")
    text = (_DATA / "scenarios" / f"{example_id}.json").read_text()
    return validate_scenario(json.loads(text))


def run_example(example_id: str) -> ExampleReport:
    """Run a packaged scenario and report every check with its threshold.

    The keys of the scenario's `thresholds` choose the checks: the
    admissibility check always runs; `ray_expected` adds the ray series;
    the annulus series must converge to `series_expected` when that key
    is given and diverge otherwise; `witness_tol` adds the separation
    witness and `superlevel_density_min` the density of its superlevel
    set; `epsilon` adds the level-set densities of the scenario's
    function.  Thresholds live in the versioned scenario files shipped
    with the package, so a given release reproduces bit-identical
    reports.
    """
    cfg = load_scenario(example_id)
    sector = Sector(cfg["alpha"])
    v = weight_from_spec(cfg["weight"])
    p = float(cfg["p"])
    space = LpSpace(weight=v, p=p, sector=sector)
    thr = cfg["thresholds"]
    hor = cfg["horizons"]
    K = IndexSet.from_spec(cfg.get("K", "all"))
    checks = []

    def orbit_grid(f, R):
        res = OrbitResolution(n_r=cfg["grids"]["orbit_n_r"],
                              n_theta=cfg["grids"]["orbit_n_theta"])
        return orbit_profile(space, f, R, res)

    adm = cfg["admissibility"]
    report = admissibility_check(v, adm["M"], adm["w"], sector)
    checks.append(CheckResult(
        name="admissibility", value=report.worst_ratio,
        requirement=f"no violation of the growth inequality at (M={adm['M']}, w={adm['w']})",
        passed=report.ok, detail={"n_pairs": report.n_pairs}))

    if "ray_expected" in thr:
        t1 = complex(cfg["ray"]["t1"][0], cfg["ray"]["t1"][1])
        ray = devaney_ray_series(v, t1, hor["ray_k_max"], sector)
        expected = thr["ray_expected"]
        err = abs(ray.value - expected)
        checks.append(CheckResult(
            name="ray-series", value=ray.value,
            requirement=f"convergent-trend with partial sum within {thr['ray_abs_tol']:g} "
                        f"of {expected!r}",
            passed=ray.verdict == "convergent-trend" and err <= thr["ray_abs_tol"],
            detail={"verdict": ray.verdict, "absolute_error": err, "t1": str(t1)}))

    series = dc_sufficient_series(v, K, hor["series_k_max"], sector)
    if "series_expected" in thr:
        expected = thr["series_expected"]
        rel = abs((series.limit_estimate or float("nan")) - expected) / expected \
            if series.limit_estimate is not None else float("inf")
        checks.append(CheckResult(
            name="annulus-series", value=series.limit_estimate or float("nan"),
            requirement=f"convergent-trend with limit within {thr['series_rel_tol']:g} "
                        f"of {expected!r}",
            passed=series.verdict == "convergent-trend" and rel <= thr["series_rel_tol"],
            detail={"verdict": series.verdict, "partial_sum": series.value,
                    "relative_error": rel, "counting_ratio": series.counting_ratio,
                    "declared_density": series.declared_density}))
    else:
        checks.append(CheckResult(
            name="annulus-series-divergence", value=series.value,
            requirement="divergent-trend (the sufficient condition must fail)",
            passed=series.verdict == "divergent-trend",
            detail={"verdict": series.verdict}))

    if "witness_tol" in thr:
        pkg = build_witness(v, K, p, sector, k_cap=hor["witness_k_cap"],
                            bound=cfg.get("witness_bound", "auto"))
        sampling = WitnessSampling(n_random=cfg.get("sampling", {}).get("n_random", 200),
                                   seed=cfg.get("sampling", {}).get("seed", 42))
        ver = verify_witness(space, pkg, K, hor["witness_R"], sampling,
                             tol=thr["witness_tol"])
        checks.append(CheckResult(
            name="witness-separation", value=ver.min_norm,
            requirement=f"min sampled ||T_t f|| >= delta - {thr['witness_tol']:g} "
                        f"(delta={pkg.delta!r}, {pkg.bound_source} bound)",
            passed=ver.passed,
            detail={"delta": pkg.delta, "delta_grid": pkg.delta_grid,
                    "n_samples": ver.n_samples, "argmin": str(ver.argmin)}))

        if "superlevel_density_min" in thr:
            grid = orbit_grid(pkg.f, hor["witness_R"])
            schedule = np.geomspace(hor["witness_R"] / 8.0, hor["witness_R"], 8)
            prof = level_density(grid, pkg.delta, "super", schedule)
            upper = float(np.max(prof.profile.ratios[-4:]))
            checks.append(CheckResult(
                name="superlevel-density", value=upper,
                requirement=f"upper-density estimate at delta >= {thr['superlevel_density_min']}",
                passed=upper >= thr["superlevel_density_min"],
                detail={"ratios": prof.profile.ratios.tolist()}))

    if "epsilon" in thr:
        grid = orbit_grid(function_from_spec(cfg["function"]), hor["orbit_R"])
        schedule = np.geomspace(hor["orbit_R"] / 8.0, hor["orbit_R"], 10)
        eps = thr["epsilon"]
        sub = level_density(grid, eps, "sub", schedule)
        sup = level_density(grid, eps, "super", schedule)
        sub_lower = float(np.min(sub.profile.ratios[-6:]))
        sup_upper = float(np.max(sup.profile.ratios[-6:]))
        checks.append(CheckResult(
            name="sublevel-lower-density", value=sub_lower,
            requirement=f"lower-density estimate of ||T_t f|| < {eps} is >= {thr['sub_lower_min']}",
            passed=sub_lower >= thr["sub_lower_min"],
            detail={"ratios": sub.profile.ratios.tolist()}))
        checks.append(CheckResult(
            name="superlevel-upper-density", value=sup_upper,
            requirement=f"upper-density estimate of ||T_t f|| >= {eps} is <= {thr['super_upper_max']}",
            passed=sup_upper <= thr["super_upper_max"],
            detail={"ratios": sup.profile.ratios.tolist()}))

    return ExampleReport(example_id=example_id, checks=tuple(checks))
