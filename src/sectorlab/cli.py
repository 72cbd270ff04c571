"""Batch command-line front end.

Three subcommands: `density` (ratio profiles of sector subsets),
`check` (admissibility / series / ray / witness checks as report JSON),
and `reproduce` (packaged example scenarios with pass/fail lines).

A `--config` JSON object is checked against `scenario.schema.json`, the
one statement of the config rules, one key where it is read: `check`
reads `alpha`, `weight`, `K` and (`witness`) `p`; `density` reads
`alpha`, `horizon` and `grid`.  `reproduce` checks the whole scenario.

Exit codes: 0 success, 1 a numeric acceptance threshold failed (a
divergent series included), 2 configuration error or an input outside
the domain of its operation, 64 usage error.  Outputs are byte-identical for
identical config and seed: floats are emitted with round-trip repr and
every reduction in the library runs in a fixed order.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .criteria import (EXAMPLE_IDS, IndexSet, build_witness, dc_sufficient_series,
                       devaney_ray_series, run_example, verify_witness,
                       WitnessSampling)
from .density import density_estimates, density_profile
from .errors import ConfigError, DomainError, SectorLabError
from .geometry import Sector
from .lpspace import LpSpace
from .schema import SCHEMA, check, validate
from .sets import RectUnionSet, annuli_union, translate_set
from .weights import PairSampling, admissibility_check, weight_from_spec

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_USAGE = 64

_CHECKS = ("admissible", "dc-sufficient", "devaney-ray", "witness")
_RECTS = SCHEMA["properties"]["function"]["properties"]["params"]["properties"]["rects"]


class _Parser(argparse.ArgumentParser):
    """argparse with BSD-style usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", type=Path, help="JSON config file")
    common.add_argument("--out", type=Path, help="output directory")
    common.add_argument("--seed", type=int, default=42, help="seed for sampled checks")
    common.add_argument("--horizon", type=float, help="override the radial horizon")
    common.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="profile output format")

    p = _Parser(prog="sectorlab",
                description="Density, admissibility and chaos-criteria checks for "
                            "translation semigroups on weighted sector spaces.")
    sub = p.add_subparsers(dest="command", parser_class=_Parser)

    d = sub.add_parser("density", parents=[common],
                       help="density profile of a sector subset")
    d.add_argument("--annuli", help="index-set spec: all | evens | odds | nonsquares "
                                    "| finite:1,2,3 | arith:start:step")
    d.add_argument("--set-json", help="inline JSON rect list or @path")
    d.add_argument("--kmax", type=int, default=None, help="largest annulus index")
    d.add_argument("--t0", help="also profile the set translated by t0, e.g. '3,1'")
    d.add_argument("--alpha", type=float, default=math.pi / 4)
    d.add_argument("--window", type=int, default=6)

    c = sub.add_parser("check", parents=[common],
                       help="run a single check and emit report JSON")
    c.add_argument("check", choices=_CHECKS)
    c.add_argument("--family", default="exp_decay",
                   help="built-in weight family (ignored when --config gives one)")
    c.add_argument("--alpha", type=float, default=math.pi / 4)
    c.add_argument("--p", type=float, default=2.0)
    c.add_argument("--M", type=float, default=None)
    c.add_argument("--w", type=float, default=None)
    c.add_argument("--K", default="all", help="index-set spec, as for density --annuli")
    c.add_argument("--kmax", type=int, default=60)
    c.add_argument("--t1", help="ray direction, e.g. '2,-1'")

    r = sub.add_parser("reproduce", parents=[common],
                       help="rerun a packaged example scenario")
    r.add_argument("example", choices=EXAMPLE_IDS)
    return p


# ---------------------------------------------------------------------------
# helpers


def _load_config(path: Path | None) -> dict:
    if path is None:
        return {}
    try:
        cfg = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object, not {type(cfg).__name__}")
    return cfg


def _parse_complex(text: str) -> complex:
    try:
        x, y = (float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"cannot parse point {text!r}; expected 'x,y'") from exc
    return complex(x, y)


def _load_rects(raw: str) -> RectUnionSet:
    """The rect union of --set-json: an inline JSON list or @path, checked
    against the schema's rect rule."""
    try:
        if raw.startswith("@"):
            raw = Path(raw[1:]).read_text()
        rects = json.loads(raw)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read --set-json: {type(exc).__name__}: {exc}") from exc
    return RectUnionSet.from_json(validate(rects, _RECTS, "--set-json"))


def _emit(args, name: str, text: str) -> None:
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / name
        path.write_text(text)
        print(f"wrote {path}")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _profile_text(profile, fmt: str) -> str:
    if fmt == "csv":
        return profile.to_csv()
    return json.dumps({"r": profile.radii.tolist(),
                       "ratio": profile.ratios.tolist(),
                       "error": profile.errors.tolist()}, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_density(args, cfg: dict) -> int:
    alpha = cfg.get("alpha", args.alpha)
    sector = Sector(alpha)
    horizon = check("horizon", args.horizon if args.horizon is not None
                    else cfg.get("horizon", 170.0))
    radii = np.unique(np.concatenate([
        np.geomspace(1.0, horizon, 24),
        np.arange(1.0, math.floor(horizon) + 1.0),
    ]))

    if args.set_json:
        A = _load_rects(args.set_json)
    elif args.annuli:
        K = IndexSet.from_spec(args.annuli)
        kmax = args.kmax if args.kmax is not None else int(math.floor(horizon))
        A = annuli_union(K.members_up_to(kmax), sector)
    else:
        raise ConfigError("density needs --annuli or --set-json")

    check("grid", cfg.get("grid", {}))
    profile = density_profile(A, radii, sector)
    est = density_estimates(profile, args.window)
    summary = {"upper": est.upper, "lower": est.lower,
               "window": est.window, "trend": est.trend}
    _emit(args, f"density_profile.{args.format}", _profile_text(profile, args.format))

    if args.t0:
        t0 = _parse_complex(args.t0)
        translated = translate_set(A, t0, sector, "minus")
        tprof = density_profile(translated, radii, sector)
        test = density_estimates(tprof, args.window)
        summary["translated"] = {"t0": [t0.real, t0.imag], "upper": test.upper,
                                 "lower": test.lower, "trend": test.trend,
                                 "upper_gap": abs(test.upper - est.upper)}
        _emit(args, f"density_profile_translated.{args.format}",
              _profile_text(tprof, args.format))

    print(json.dumps(summary, sort_keys=True))
    return EXIT_OK


def _cmd_check(args, cfg: dict) -> int:
    alpha = cfg.get("alpha", args.alpha)
    sector = Sector(alpha)
    v = weight_from_spec(cfg.get("weight", {"family": args.family}))
    report: dict = {"check": args.check, "alpha": alpha, "weight": v.family}

    if args.check == "admissible":
        M = args.M if args.M is not None else (v.certificate.M if v.certified else 1.0)
        w = args.w if args.w is not None else (v.certificate.w if v.certified else 0.0)
        res = admissibility_check(v, M, w, sector,
                                  PairSampling(seed=args.seed))
        report.update({"M": M, "w": w, "ok": res.ok, "worst_ratio": res.worst_ratio,
                       "n_pairs": res.n_pairs,
                       "violations": [[str(t), str(tp), r] for t, tp, r in res.violations]})
        ok = res.ok
    elif args.check == "dc-sufficient":
        K = IndexSet.from_spec(cfg.get("K", args.K))
        series = dc_sufficient_series(v, K, args.kmax, sector)
        report.update({"K": K.describe(), "k_max": args.kmax,
                       "partial_sum": series.value,
                       "limit_estimate": series.limit_estimate,
                       "verdict": series.verdict,
                       "counting_ratio": series.counting_ratio,
                       "declared_density": series.declared_density})
        ok = series.verdict == "convergent-trend"
    elif args.check == "devaney-ray":
        if not args.t1:
            raise ConfigError("devaney-ray needs --t1 'x,y'")
        t1 = _parse_complex(args.t1)
        series = devaney_ray_series(v, t1, args.kmax, sector)
        report.update({"t1": [t1.real, t1.imag], "k_max": args.kmax,
                       "partial_sum": series.value,
                       "limit_estimate": series.limit_estimate,
                       "verdict": series.verdict})
        ok = series.verdict == "convergent-trend"
    else:  # witness
        K = IndexSet.from_spec(cfg.get("K", args.K))
        p = cfg.get("p", args.p)
        R = check("horizon", args.horizon if args.horizon is not None else 20.0)
        pkg = build_witness(v, K, p, sector, k_cap=int(R) + 14)
        ver = verify_witness(LpSpace(v, p, sector), pkg, K, R,
                             WitnessSampling(seed=args.seed))
        report.update({"K": K.describe(), "R": R, "p": p,
                       "delta": pkg.delta, "delta_grid": pkg.delta_grid,
                       "bound_source": pkg.bound_source,
                       "min_norm": ver.min_norm, "tol": ver.tol,
                       "n_samples": ver.n_samples, "passed": ver.passed})
        ok = ver.passed

    text = json.dumps(report, sort_keys=True, indent=2)
    _emit(args, "report.json", text)
    return EXIT_OK if ok else EXIT_FAIL


def _cmd_reproduce(args) -> int:
    report = run_example(args.example)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.name}: value={c.value!r} ({c.requirement})")
    if args.out:
        args.out.mkdir(parents=True, exist_ok=True)
        path = args.out / f"{args.example}.json"
        path.write_text(report.to_json())
        print(f"wrote {path}")
    return EXIT_OK if report.passed else EXIT_FAIL


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        cfg = _load_config(args.config)
        if args.command == "density":
            return _cmd_density(args, cfg)
        if args.command == "check":
            return _cmd_check(args, cfg)
        return _cmd_reproduce(args)
    except (ConfigError, DomainError) as exc:  # bad input, not a failed check
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SectorLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
