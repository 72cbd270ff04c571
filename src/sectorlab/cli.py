"""Batch command-line front end.

Three subcommands: `density` (ratio profiles of sector subsets),
`check` (admissibility / series / ray / witness checks as report JSON,
each check a subcommand of its own: `check admissible`, `check
dc-sufficient`, `check devaney-ray`, `check witness`), and `reproduce`
(packaged example scenarios with pass/fail lines).

Each command and each check parses only the flags its code reads, one
table in `_build_parser` says which; any other flag, a prefix of a flag
included, is a usage error, raised with the usage line of the command or
check before any file is read.  So is `density --annuli` with
`--set-json`, and `--kmax` with `--set-json`.  `reproduce` takes
`--out` alone.

A `--config` JSON object is checked against `scenario.schema.json`, the
one statement of the config rules, one key where it is read: every
check reads `alpha` and `weight`, `dc-sufficient` and `witness` also
`K`, and `witness` also `p`; `density` reads `alpha`, `horizon` and
`grid`.  `reproduce` reads no config; it checks its packaged scenario
as a whole.

Exit codes: 0 success, 1 a numeric acceptance threshold failed (a
divergent series included), 2 configuration error or an input outside
the domain of its operation, 64 usage error.  Outputs are byte-identical for
identical config and seed: floats are emitted with round-trip repr and
every reduction in the library runs in a fixed order.
"""

from __future__ import annotations

import argparse
import functools
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

_CHECKS = {"admissible": "the admissibility bound on sampled pairs",
           "dc-sufficient": "the annulus series of the dense-chaos sufficient condition",
           "devaney-ray": "the ray series of the Devaney-chaos criterion",
           "witness": "build and verify a separation witness"}
_RECTS = SCHEMA["properties"]["function"]["properties"]["params"]["properties"]["rects"]
_SEED = SCHEMA["properties"]["sampling"]["properties"]["seed"]


class _Parser(argparse.ArgumentParser):
    """argparse with BSD-style usage exit code, and no flag prefixes: a flag
    is spelled in full or is unknown."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(EXIT_USAGE)


@functools.cache  # parsing leaves the parser as it is, so one serves every call
def _build_parser() -> _Parser:
    p = _Parser(prog="sectorlab",
                description="Density, admissibility and chaos-criteria checks for "
                            "translation semigroups on weighted sector spaces.")
    sub = p.add_subparsers(dest="command", parser_class=_Parser)
    d = sub.add_parser("density", help="density profile of a sector subset")
    checks = sub.add_parser("check", help="run a single check and emit report JSON"
                            ).add_subparsers(dest="check", required=True, parser_class=_Parser)
    a, s, ray, w = (checks.add_parser(name, help=text) for name, text in _CHECKS.items())
    r = sub.add_parser("reproduce", help="rerun a packaged example scenario")
    r.add_argument("example", choices=EXAMPLE_IDS)
    for leaf in (d, a, s, ray, w, r):  # the parser whose usage an unread flag shows
        leaf.set_defaults(parser=leaf)
    shape = d.add_mutually_exclusive_group()
    # each flag with the parsers of the commands whose code reads it
    for flag, parsers, settings in (
            ("--config", (d, a, s, ray, w), dict(type=Path, help="JSON config file")),
            ("--out", (d, a, s, ray, w, r), dict(type=Path, help="output directory")),
            ("--seed", (a, w), dict(type=int, default=42, help="seed for sampled checks")),
            ("--horizon", (d, w), dict(type=float, help="override the radial horizon")),
            ("--format", (d,), dict(choices=("csv", "json"), default="csv",
                                    help="profile output format")),
            ("--annuli", (shape,), dict(help="index-set spec: all | evens | odds | nonsquares "
                                             "| finite:1,2,3 | arith:start:step")),
            ("--set-json", (shape,), dict(help="inline JSON rect list or @path")),
            ("--kmax", (d,), dict(type=int, help="largest annulus index (not with --set-json)")),
            ("--t0", (d,), dict(help="also profile the set translated by t0, e.g. '3,1'")),
            ("--window", (d,), dict(type=int, default=6)),
            ("--family", (a, s, ray, w), dict(default="exp_decay", help="built-in weight "
                                              "family (ignored when --config gives one)")),
            ("--alpha", (d, a, s, ray, w), dict(type=float, default=math.pi / 4)),
            ("--M", (a,), dict(type=float)),
            ("--w", (a,), dict(type=float)),
            ("--K", (s, w), dict(default="all", help="index-set spec, as for density --annuli")),
            ("--kmax", (s, ray), dict(type=int, default=60)),
            ("--t1", (ray,), dict(help="ray direction, e.g. '2,-1'")),
            ("--p", (w,), dict(type=float, default=2.0))):
        for parser in parsers:
            parser.add_argument(flag, **settings)
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
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ConfigError(f"point {text!r} must have finite coordinates")
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
    t0 = _parse_complex(args.t0) if args.t0 else None
    radii = np.unique(np.concatenate([
        np.geomspace(1.0, horizon, 24),
        np.arange(1.0, math.floor(horizon) + 1.0),
    ]))

    if args.set_json is not None:
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

    if t0 is not None:
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
                                  PairSampling(seed=validate(args.seed, _SEED, "--seed")))
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
                             WitnessSampling(seed=validate(args.seed, _SEED, "--seed")))
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
    args, unread = parser.parse_known_args(argv)
    if unread:  # shown with the usage of the command or check that was named
        getattr(args, "parser", parser).error(f"unrecognized arguments: {' '.join(unread)}")
    if not args.command:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.command == "density" and args.set_json is not None and args.kmax is not None:
        args.parser.error("argument --kmax: not allowed with argument --set-json")
    try:
        if args.command == "reproduce":
            return _cmd_reproduce(args)
        cmd = _cmd_density if args.command == "density" else _cmd_check
        return cmd(args, _load_config(args.config))
    except (ConfigError, DomainError) as exc:  # bad input, not a failed check
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SectorLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
