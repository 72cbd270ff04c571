"""The benchmark's four workloads: seeded operation lists, the calls into
sectorlab that make up one operation, and the checks of their outputs.

Each workload is a fixed list of cells (a full factorial over the input
properties the program's cost depends on); one operation per cell makes
a round.  The workload seed picks, per cell, a variant from a fixed pool
(or a continuous parameter that does not change the cost) and the order
of the round, so every seed gives the same mix of work and the
references of the pools can be cached (see refs.py).

`op_specs` and `check_op` use numpy only; `make_op` calls the
sectorlab package it is given.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("separation", "orbit-levels", "density-translate", "norm-mix")

ALPHAS = (0.3, math.pi / 4, 1.4)
PS = (1.0, 2.0, 3.0)
INDEX_SETS = ("all", "evens", "nonsquares", "arith:1:3")
POOL_SEED = 2503_00891
N_VARIANTS = 3

# gross tolerance: a result further than this (relative) from its
# independent reference fails its operation
GROSS_RTOL = 0.1
# tolerance of the exact properties (closed forms, complements)
EXACT_RTOL = 1e-9
WITNESS_TOL = 1e-4  # verify_witness's own default tolerance

SEP_R = 6.0
SEP_K_CAP = int(SEP_R) + 14  # what `sectorlab check witness` uses
ORBIT_R = 20.0
ORBIT_RES = dict(n_r=48, n_theta=16, mesh_per_unit=6.0, mesh_n_theta=32, chunk=64)
ORBIT_NODES = ((0, 0), (0, 15), (24, 8), (47, 0), (47, 15))
DENSITY_GRIDS = (None, (400, 512), (800, 1024))
DENSITY_HORIZONS = tuple(float(h) for h in range(90, 201, 10))[:12]
DENSITY_ALPHA = math.pi / 4  # the CLI's default sector
DENSITY_CHECK_FROM = 20.0  # translated ratios are checked at radii >= this
FAMILIES_ALL = ("exp_decay", "poly_decay", "vertical_exp", "constant")
NM_KINDS = ("indicator", "bump", "combination", "custom")
NM_FIXED = dict(kind="custom", family="exp_decay", a=0, p=2.0, fixed=1)
NM_FIXED_INPUT = {"t": [0.05, 0.0],
                  "terms": [[1.0, {"kind": "cone", "center": [2.0, 0.0], "radius": 1.0,
                                   "amplitude": 1.0}]]}


def index_members(spec: str, n: int) -> list[int]:
    """Members <= n of an index-set spec, derived here from its definition."""
    ks = range(0, n + 1)
    if spec == "all":
        return list(ks)
    if spec == "evens":
        return [k for k in ks if k % 2 == 0]
    if spec == "nonsquares":
        return [k for k in ks if math.isqrt(k) ** 2 != k]
    if spec.startswith("arith:"):
        _, start, step = spec.split(":")
        return list(range(int(start), n + 1, int(step)))
    raise ValueError(spec)


def _edge_offset(rng: np.random.Generator, alpha: float, r_lo: float, r_hi: float):
    """A step near the sector edge: angle within 2 % of +-alpha."""
    side = 1.0 if rng.uniform() < 0.5 else -1.0
    th = side * alpha * (1.0 - rng.uniform(0.0, 0.02))
    r = rng.uniform(r_lo, r_hi)
    return [r * math.cos(th), r * math.sin(th)]


def _in_sector_point(rng, alpha, r_lo, r_hi):
    th = rng.uniform(-alpha, alpha)
    r = rng.uniform(r_lo, r_hi)
    return [r * math.cos(th), r * math.sin(th)]


# ---------------------------------------------------------------------------
# cells and pools (fixed; independent of the workload seed)


def _cells(workload: str) -> list[dict]:
    if workload == "separation":
        return [dict(family=fam, K=K, a=ai)
                for fam in ("exp_decay", "poly_decay")
                for K in INDEX_SETS for ai in range(3)]
    if workload == "orbit-levels":
        # alpha = 0.3 and vertical_exp at alpha = 1.4 are left out: their
        # orbit norms miss the references on some seeds (see README)
        # p is part of the cell: the mesh evaluates |f|^p, whose cost depends on p
        return [dict(family="exp_decay", a=1, S=16, p=2.0),
                dict(family="exp_decay", a=2, S=10, p=3.0),
                dict(family="poly_decay", a=1, S=10, p=1.0),
                dict(family="poly_decay", a=2, S=16, p=2.0),
                dict(family="vertical_exp", a=1, S=4, p=3.0)]
    if workload == "density-translate":
        return [dict(K=K, grid=gi) for K in INDEX_SETS for gi in range(3)]
    if workload == "norm-mix":
        # the generic quadrature at alpha = 0.3 truncates at too small a
        # support radius; one fixed operation keeps that fault in view (its
        # error is reported apart, outside ref_digits).
        # p is part of the cell (Latin square): |f|^p costs more for p = 3
        return [dict(kind=kind, family=fam, a=ai, p=PS[(ki + fi + ai) % 3])
                for ki, kind in enumerate(NM_KINDS)
                for fi, fam in enumerate(FAMILIES_ALL) for ai in range(3)
                if ai > 0 or kind in ("indicator", "bump")] + [NM_FIXED]
    raise ValueError(f"unknown workload {workload!r}")


def _cell_key(workload: str, cell: dict) -> str:
    return workload + "/" + "/".join(f"{k}={cell[k]}" for k in sorted(cell))


def _shape(rng, alpha, kind, t):
    # centred inside the sector as seen from the translate, so that the
    # translated support overlaps the sector
    c = _in_sector_point(rng, alpha, 1.0, 3.0)
    return {"kind": kind, "center": [c[0] + t[0], c[1] + t[1]],
            "radius": float(rng.uniform(0.5, 1.5)),
            "amplitude": float(rng.uniform(0.5, 2.0))}


def _norm_mix_variant(rng, cell) -> dict:
    alpha = ALPHAS[cell["a"]]
    t = _edge_offset(rng, alpha, 0.5, 3.0)
    out = {"t": t}
    kind = cell["kind"]
    if kind == "indicator":
        rects = []
        for j in range(int(rng.integers(1, 4))):
            r_lo = math.hypot(*t) + 1.5 * j + float(rng.uniform(0.0, 0.5))
            r_hi = r_lo + float(rng.uniform(0.4, 1.0))
            width = float(rng.uniform(0.3, 1.0)) * 2 * alpha
            th_lo = float(rng.uniform(-alpha, alpha - width))
            rects.append([r_lo, r_hi, th_lo, th_lo + width])
        out.update(rects=rects, amplitude=float(rng.uniform(0.5, 2.0)))
    elif kind == "bump":
        out["terms"] = [[1.0, _shape(rng, alpha, "bump", t)]]
    elif kind == "combination":
        out["terms"] = [[1.0, _shape(rng, alpha, "bump", t)],
                        [float(rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 1.0)),
                         _shape(rng, alpha, "bump", t)]]
    else:
        out["terms"] = [[1.0, _shape(rng, alpha, "cone", t)]]
    return out


def _restyled(rng, base: dict, mirror: bool) -> dict:
    """A variant with the geometry of `base`, optionally mirrored in the
    real axis, and new amplitudes and coefficients: its quadrature does
    the same work (the panel counts depend on the geometry only)."""
    flip = (lambda xy: [xy[0], -xy[1]]) if mirror else (lambda xy: list(xy))
    out = {"t": flip(base["t"])}
    if "rects" in base:
        out["rects"] = [[r0, r1, -b, -a] if mirror else [r0, r1, a, b]
                        for r0, r1, a, b in base["rects"]]
        out["amplitude"] = float(rng.uniform(0.5, 2.0))
        return out
    out["terms"] = [[coef if j == 0 else float(math.copysign(rng.uniform(0.3, 1.0), coef)),
                     dict(sh, center=flip(sh["center"]),
                          amplitude=float(rng.uniform(0.5, 2.0)))]
                    for j, (coef, sh) in enumerate(base["terms"])]
    return out


def _orbit_variant(rng, cell) -> dict:
    S = cell["S"]
    # variants differ only inside: far nodes see the same outer annuli
    annuli = [k for k in range(S - 3) if rng.uniform() < 0.5] + [S - 3, S - 2, S - 1]
    # both members reach annulus 3, so the difference has the same support
    # (and mesh) in every variant
    pair_x = sorted({0, 3} | {k for k in (1, 2) if rng.uniform() < 0.5})
    pair_y = sorted({1, 3} | ({2} if rng.uniform() < 0.5 else set()))
    return {"annuli": annuli, "pair": [pair_x, pair_y]}


def _pool(workload: str) -> dict[str, list[dict]]:
    """Per cell, the N_VARIANTS fixed variants a seed can pick from."""
    rng = np.random.default_rng(POOL_SEED + WORKLOADS.index(workload))
    horizons = (list(rng.permutation(DENSITY_HORIZONS))
                if workload == "density-translate" else [])
    pool = {}
    for cell in _cells(workload):
        key = _cell_key(workload, cell)
        if cell.get("fixed"):
            pool[key] = [NM_FIXED_INPUT]
        elif workload == "norm-mix":
            base = _norm_mix_variant(rng, cell)
            pool[key] = [base] + [_restyled(rng, base, mirror=v % 2 == 1)
                                  for v in range(1, N_VARIANTS)]
        elif workload == "orbit-levels":
            pool[key] = [_orbit_variant(rng, cell) for _ in range(N_VARIANTS)]
        elif workload == "density-translate":
            pool[key] = [{"H": float(horizons.pop()),
                          "t0": _in_sector_point(rng, DENSITY_ALPHA, 0.5, 5.0)}]
        else:  # separation: the witness's random samples, and so its argmin
            pool[key] = [{"sampling_seed": int(rng.integers(2 ** 31))}]
    return pool


# ---------------------------------------------------------------------------
# operation specs (seeded)


def orbit_node(alpha: float, i: int, j: int) -> complex:
    """Position of orbit-grid node (i, j) for ORBIT_RES and ORBIT_R."""
    n_r, n_th = ORBIT_RES["n_r"], ORBIT_RES["n_theta"]
    r = ORBIT_R * (1.0 / n_r) ** (1.0 - i / (n_r - 1))
    dth = 2 * alpha / n_th
    th = -alpha + dth * (j + 0.5)
    return complex(r * math.cos(th), r * math.sin(th))


def separation_offsets(K: str, alpha: float) -> list[complex]:
    """The deterministic band grid of verify_witness with one radius and
    three angles (-alpha, 0, alpha) per band."""
    ks = [k for k in index_members(K, int(SEP_R)) if k >= 1]
    return [k * complex(math.cos(th), math.sin(th))
            for k in ks for th in (-alpha, 0.0, alpha)]


def op_specs(workload: str, seed: int) -> list[dict]:
    """The round of operations for a seed, in its seeded order."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    pool = _pool(workload)
    cells = _cells(workload)
    specs = []
    for cell in cells:
        key = _cell_key(workload, cell)
        variant = int(rng.integers(len(pool[key])))
        spec = dict(cell, cell=key, variant=variant, **pool[key][variant])
        if "a" in cell:
            spec["alpha"] = ALPHAS[cell["a"]]
        if workload == "separation":
            spec["p"] = float(rng.choice(PS))
        specs.append(spec)
    order = rng.permutation(len(specs))
    return [specs[i] for i in order]


def reference_requests() -> dict[str, dict]:
    """Every cached reference of the fixed pools, keyed for lookup."""
    req: dict[str, dict] = {}
    for cell in _cells("separation"):
        alpha = ALPHAS[cell["a"]]
        rects = [[float(k), k + 1.0, -alpha, alpha]
                 for k in index_members(cell["K"], SEP_K_CAP)]
        for n, t in enumerate(separation_offsets(cell["K"], alpha)):
            req[f"{_cell_key('separation', cell)}/t{n}"] = dict(
                type="indicator", family=cell["family"], rects=rects,
                t=[t.real, t.imag], alpha=alpha)
    for workload in ("orbit-levels", "norm-mix"):
        pool = _pool(workload)
        for cell in _cells(workload):
            key = _cell_key(workload, cell)
            alpha = ALPHAS[cell["a"]]
            for v, var in enumerate(pool[key]):
                if workload == "orbit-levels":
                    rects = [[float(k), k + 1.0, -alpha, alpha] for k in var["annuli"]]
                    for i, j in ORBIT_NODES:
                        t = orbit_node(alpha, i, j)
                        req[f"{key}/v{v}/n{i}.{j}"] = dict(
                            type="indicator", family=cell["family"], rects=rects,
                            t=[t.real, t.imag], alpha=alpha)
                elif cell["kind"] == "indicator":
                    req[f"{key}/v{v}"] = dict(type="indicator", family=cell["family"],
                                              rects=var["rects"], t=var["t"], alpha=alpha)
                else:
                    req[f"{key}/v{v}"] = dict(
                        type="smooth", family=cell["family"], terms=var["terms"],
                        t=var["t"], alpha=alpha, p=cell["p"])
    return req


# ---------------------------------------------------------------------------
# operations (worker side; `sl` is the sectorlab package)


def _weight(sl, family: str, wrap):
    make = {"exp_decay": sl.exp_decay, "poly_decay": sl.poly_decay,
            "vertical_exp": sl.vertical_exp, "constant": sl.constant_weight}[family]
    return wrap(make())


def _index_set(sl, spec: str):
    if spec == "all":
        return sl.IndexSet.all_naturals()
    if spec == "evens":
        return sl.IndexSet.evens()
    if spec == "nonsquares":
        return sl.IndexSet.nonsquares()
    _, start, step = spec.split(":")
    return sl.IndexSet.arithmetic(int(start), int(step))


def _smooth_function(sl, terms):
    parts = []
    for coef, sh in terms:
        c = complex(*sh["center"])
        if sh["kind"] == "bump":
            g = sl.bump(c, sh["radius"], sh["amplitude"])
        else:
            w, a = sh["radius"], sh["amplitude"]
            g = sl.custom_function(
                lambda z, c=c, w=w, a=a: a * np.maximum(0.0, 1.0 - np.abs(z - c) / w) ** 2,
                support_radius=abs(c) + w)
        parts.append((coef, g))
    if len(parts) == 1 and parts[0][0] == 1.0:
        return parts[0][1]
    return sl.linear_combination(parts)


class Op:
    """One operation: `run()` is the timed call; `extra()` computes,
    untimed, further program outputs the checks compare with references."""

    def __init__(self, spec, run, extra=None, digest=None):
        self.spec = spec
        self.run = run
        self.extra = extra or (lambda result: {})
        self.digest = digest


def make_op(sl, spec: dict, workdir: Path, wrap_weight=lambda v: v, tracer=None) -> Op:
    kind = spec["cell"].split("/")[0]
    if kind == "separation":
        return _separation_op(sl, spec, wrap_weight)
    if kind == "orbit-levels":
        return _orbit_op(sl, spec, wrap_weight)
    if kind == "density-translate":
        return _density_op(sl, spec, workdir, tracer)
    return _norm_mix_op(sl, spec, wrap_weight)


def _separation_op(sl, spec, wrap_weight) -> Op:
    sector = sl.Sector(spec["alpha"])
    v = _weight(sl, spec["family"], wrap_weight)
    K = _index_set(sl, spec["K"])
    p = spec["p"]
    space = sl.LpSpace(v, p, sector)
    sampling = sl.WitnessSampling(per_band_r=1, per_band_theta=3, n_random=16,
                                  seed=spec["sampling_seed"])

    def run():
        pkg = sl.build_witness(v, K, p, sector, k_cap=SEP_K_CAP)
        ver = sl.verify_witness(space, pkg, K, SEP_R, sampling)
        return pkg, ver

    def extra(result):
        pkg, ver = result
        ts = separation_offsets(spec["K"], spec["alpha"])
        norms = sl.indicator_orbit_norms(space, pkg.f, np.array(ts))
        return {"delta": pkg.delta, "terms": pkg.series.terms.tolist(),
                "k_values": pkg.series.k_values.tolist(),
                "min_norm": ver.min_norm, "argmin": [ver.argmin.real, ver.argmin.imag],
                "passed": ver.passed,
                "n_samples": ver.n_samples, "grid_norms": norms.tolist()}

    return Op(spec, run, extra)


def _orbit_op(sl, spec, wrap_weight) -> Op:
    sector = sl.Sector(spec["alpha"])
    space = sl.LpSpace(_weight(sl, spec["family"], wrap_weight), spec["p"], sector)
    f = sl.indicator(sl.annuli_union(spec["annuli"], sector))
    x = sl.indicator(sl.annuli_union(spec["pair"][0], sector))
    y = sl.indicator(sl.annuli_union(spec["pair"][1], sector))
    res = sl.OrbitResolution(**ORBIT_RES)
    schedule = np.geomspace(ORBIT_R / 8.0, ORBIT_R, 8)

    def run():
        grid = sl.orbit_profile(space, f, ORBIT_R, res)
        thr = 0.5 * float(grid.norms.max())
        sup = sl.level_density(grid, thr, "super", schedule)
        sub = sl.level_density(grid, thr, "sub", schedule)
        pair = sl.pair_diagnostic(space, x, y, 0.25 * thr, thr, ORBIT_R, res)
        return grid, sup, sub, pair

    def extra(result):
        grid, sup, sub, pair = result
        nodes = [orbit_node(spec["alpha"], i, j) for i, j in ORBIT_NODES]
        return {"node_norms": [float(grid.norms[i, j]) for i, j in ORBIT_NODES],
                "node_radii": [float(grid.radii[i]) for i, _ in ORBIT_NODES],
                "node_thetas": [float(grid.thetas[j]) for _, j in ORBIT_NODES],
                "nominal": [[abs(t), math.atan2(t.imag, t.real)] for t in nodes],
                "super": sup.profile.ratios.tolist(), "sub": sub.profile.ratios.tolist(),
                "prox": pair.prox.profile.ratios.tolist(),
                "separation": pair.separation.profile.ratios.tolist()}

    return Op(spec, run, extra)


def _density_op(sl, spec, workdir: Path, tracer) -> Op:
    cli = importlib.import_module(sl.__name__ + ".cli")
    argv = ["density", "--annuli", spec["K"], "--horizon", repr(spec["H"]),
            "--t0", f"{spec['t0'][0]!r},{spec['t0'][1]!r}"]
    grid = DENSITY_GRIDS[spec["grid"]]
    if grid is not None:
        cfg = workdir / f"grid{spec['grid']}.json"
        cfg.write_text(f'{{"grid": {{"n_r": {grid[0]}, "n_theta": {grid[1]}}}}}\n')
        argv += ["--config", str(cfg)]
    outdir = workdir / spec["cell"].replace("/", "_").replace("=", "-")

    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--out", str(outdir)])
        if tracer is not None:
            tracer.count("cli.bytes_written",
                         sum(f.stat().st_size for f in outdir.iterdir()))
        return code, buf.getvalue()

    def extra(result):
        code, stdout = result
        return {"code": code, "stdout": stdout,
                "profile": (outdir / "density_profile.csv").read_text(),
                "translated": (outdir / "density_profile_translated.csv").read_text()}

    def digest(result):
        code, stdout = result
        return (code, stdout, (outdir / "density_profile.csv").read_bytes(),
                (outdir / "density_profile_translated.csv").read_bytes())

    return Op(spec, run, extra, digest)


def _norm_mix_op(sl, spec, wrap_weight) -> Op:
    sector = sl.Sector(spec["alpha"])
    space = sl.LpSpace(_weight(sl, spec["family"], wrap_weight), spec["p"], sector)
    if spec["kind"] == "indicator":
        f = sl.indicator(sl.RectUnionSet(sl.PolarRect(*r) for r in spec["rects"]),
                         spec["amplitude"])
    else:
        f = _smooth_function(sl, spec["terms"])
    t = complex(*spec["t"])

    def run():
        return sl.orbit_norm(space, f, t)

    return Op(spec, run, lambda value: {"norm": float(value)})


# ---------------------------------------------------------------------------
# checks (parent side): properties and independent references


def _rel(x: float, ref: float) -> float:
    if ref == 0.0:
        return abs(x)
    return abs(x - ref) / abs(ref)


def _parse_csv(text: str) -> np.ndarray:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    return np.array(rows, dtype=float)


def check_op(spec: dict, out: dict, refs: dict) -> tuple[list[str], list[float]]:
    """Problems found (empty when the operation passes) and the relative
    errors of its results against the independent references."""
    kind = spec["cell"].split("/")[0]
    return {"separation": _check_separation, "orbit-levels": _check_orbit,
            "density-translate": _check_density, "norm-mix": _check_norm_mix,
            }[kind](spec, out, refs)


def _check_separation(spec, out, refs):
    from refs import annulus_term, indicator_integral
    bad, errs = [], []
    alpha, p, fam = spec["alpha"], spec["p"], spec["family"]
    if not out["passed"] or out["min_norm"] < out["delta"] - WITNESS_TOL:
        bad.append(f"witness failed: min norm {out['min_norm']!r} vs delta {out['delta']!r}")
    v_min = math.exp(-2.0) if fam == "exp_decay" else 1.0 / 17.0
    delta = (alpha * v_min) ** (1.0 / p)
    if _rel(out["delta"], delta) > EXACT_RTOL:
        bad.append(f"delta {out['delta']!r} != closed form {delta!r}")
    errs.append(_rel(out["delta"], delta))
    ks = index_members(spec["K"], SEP_K_CAP)
    if out["k_values"] != ks:
        bad.append("series indices differ from the index set")
    ref_terms = [annulus_term(fam, k, alpha) for k in ks]
    for got, ref in zip(out["terms"], ref_terms):
        errs.append(_rel(got, ref))
    if max(errs[1:], default=0.0) > GROSS_RTOL:
        bad.append("series terms miss their closed form")
    # the timed verify_witness result itself: its minimum norm at its argmin
    rects = [[float(k), k + 1.0, -alpha, alpha] for k in ks]
    t_min = complex(*out["argmin"])
    ref = indicator_integral(fam, rects, t_min, alpha)
    errs.append(_rel(out["min_norm"] ** p, ref))
    if errs[-1] > GROSS_RTOL:
        bad.append(f"min norm^p at t={t_min:.4g} is {out['min_norm'] ** p!r}, reference {ref!r}")
    norm_f_p = sum(ref_terms)
    ts = separation_offsets(spec["K"], alpha)
    for n, (t, got) in enumerate(zip(ts, out["grid_norms"])):
        ref = refs[f"{spec['cell']}/t{n}"]
        errs.append(_rel(got ** p, ref))
        if errs[-1] > GROSS_RTOL:
            bad.append(f"norm^p at t={t:.4g} is {got ** p!r}, reference {ref!r}")
        if got < out["delta"] - WITNESS_TOL:
            bad.append(f"separation fails at t={t:.4g}")
        if fam == "exp_decay":  # certificate (M, w) = (1, 1)
            bound = (math.exp(abs(t)) * norm_f_p) ** (1.0 / p)
            if got > bound * (1 + EXACT_RTOL):
                bad.append(f"growth bound fails at t={t:.4g}")
    return bad, errs


def _check_orbit(spec, out, refs):
    bad, errs = [], []
    p = spec["p"]
    for n, (i, j) in enumerate(ORBIT_NODES):
        r, th = out["nominal"][n]
        if (abs(out["node_radii"][n] - r) > 1e-9 * r
                or abs(out["node_thetas"][n] - th) > 1e-12):
            bad.append(f"orbit node ({i}, {j}) is not at its nominal position")
            continue
        ref = refs[f"{spec['cell']}/v{spec['variant']}/n{i}.{j}"]
        got = out["node_norms"][n] ** p
        errs.append(_rel(got, ref))
        if errs[-1] > GROSS_RTOL:
            bad.append(f"orbit norm^p at node ({i}, {j}) is {got!r}, reference {ref!r}")
    total = np.asarray(out["super"]) + np.asarray(out["sub"])
    if np.max(np.abs(total - 1.0)) > EXACT_RTOL:
        bad.append("sub and super level ratios do not sum to 1")
    both = np.asarray(out["prox"]) + np.asarray(out["separation"])
    if np.max(both) > 1.0 + EXACT_RTOL:
        bad.append("proximal and separated sets of the pair overlap")
    return bad, errs


def _check_density(spec, out, refs):
    from refs import annuli_measure, translated_annuli_measure
    bad, errs = [], []
    if out["code"] != 0:
        return [f"sectorlab density exited with {out['code']}"], errs
    alpha = DENSITY_ALPHA
    ks = index_members(spec["K"], int(math.floor(spec["H"])))
    prof = _parse_csv(out["profile"])
    trans = _parse_csv(out["translated"])
    if prof.shape != trans.shape or np.any(prof[:, 0] != trans[:, 0]):
        return ["profiles have different radii"], errs
    r0 = math.hypot(*spec["t0"])
    for r, q in prof[:, :2]:
        exact = annuli_measure(ks, r, alpha) / (alpha * r * r)
        errs.append(_rel(q, exact))
        if errs[-1] > EXACT_RTOL:
            bad.append(f"rect-union ratio at r={r:g} is {q!r}, closed form {exact!r}")
    for r, q, e in trans:
        upper = annuli_measure(ks, r + r0, alpha) / (alpha * r * r)
        lower = upper - ((r + r0) ** 2 - r * r) / (r * r)
        if not (lower - e - EXACT_RTOL <= q <= upper + e + EXACT_RTOL):
            bad.append(f"translation sandwich fails at r={r:g}")
    t0 = complex(*spec["t0"])
    for r, q, e in trans[trans[:, 0] >= DENSITY_CHECK_FROM]:
        ref = translated_annuli_measure(ks, t0, alpha, r) / (alpha * r * r)
        errs.append(_rel(q, ref))
        if abs(q - ref) > e + GROSS_RTOL * ref:
            bad.append(f"translated ratio at r={r:g} is {q!r}, reference {ref!r}")
    return bad, errs


def _check_norm_mix(spec, out, refs):
    got, p = out["norm"], spec["p"]
    if not math.isfinite(got):
        return [f"norm is {got!r}"], []
    key = f"{spec['cell']}/v{spec['variant']}"
    ref = refs[key]
    if spec["kind"] == "indicator":
        got = (got / abs(spec["amplitude"])) ** p
    else:
        got = got ** p
    err = _rel(got, ref)
    bad = [f"norm^p {got!r} misses reference {ref!r}"] if err > GROSS_RTOL else []
    return bad, [err]
