#!/usr/bin/env python3
"""Steadiness check of the benchmark: many seeds, spread over time.

    python3 perfbench/steady.py --seeds 10 --log perfbench/out/set1.jsonl
    python3 perfbench/steady.py --compare perfbench/out/set1.jsonl perfbench/out/set2.jsonl

Runs ``run.py`` once per seed and workload for ``run_seconds``, cycling
through the workloads so each workload's runs are spread over the whole
command, and prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) / median next
to the metric's bound from BENCHMARK.json.  A spread within a third of
the bound is marked steady.  The failed share of each workload must be
the same in every run.  ``--compare`` reads two such logs and prints
how far the second set's medians moved from the first's, against the
same bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    t0 = time.time()
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", "0"], cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    info = next((json.loads(l[5:]) for l in lines if l.startswith("info ")), {})
    return {"workload": workload, "seed": seed, "start": t0, "wall_s": time.time() - t0,
            "canary_ms": info.get("canary_ms"), "result": json.loads(lines[-1])}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def summarize(records: list[dict]) -> bool:
    spec = declared()
    steady = True
    for w in [w["name"] for w in spec["workloads"]]:
        rows = [r for r in records if r["workload"] == w]
        if len(rows) < 2:
            continue
        shares = {r["result"]["failed"] / r["result"]["attempted"] for r in rows}
        canary = [r["canary_ms"] for r in rows if r["canary_ms"] is not None]
        print(f"{w}: {len(rows)} runs, failed share {sorted(shares)}, "
              f"canary {min(canary):.1f}-{max(canary):.1f} ms")
        steady &= len(shares) == 1
        for m in spec["end_to_end"]:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in rows]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            mark = "steady" if spread <= m["bound"] / 3 else (
                "within bound" if spread <= m["bound"] else "TOO WIDE")
            steady &= spread <= m["bound"]
            print(f"  {m['name']:12s} median {med:12.6g} {m['unit']:7s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {spread:7.2%} "
                  f"bound {m['bound']:.0%}  {mark}")
    return steady


def compare(first: list[dict], second: list[dict]) -> bool:
    spec = declared()
    ok = True
    for w in [w["name"] for w in spec["workloads"]]:
        a = [r for r in first if r["workload"] == w]
        b = [r for r in second if r["workload"] == w]
        if not a or not b:
            continue
        print(f"{w}:")
        for m in spec["end_to_end"]:
            ma = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in a)
            mb = statistics.median(r["result"]["metrics"][m["name"]]["value"] for r in b)
            worse = (mb - ma) / ma if m["better"] == "lower" else (ma - mb) / ma
            ok &= worse <= m["bound"]
            print(f"  {m['name']:12s} {ma:12.6g} -> {mb:12.6g} {m['unit']:7s} "
                  f"worse by {worse:+7.2%} (bound {m['bound']:.0%})")
        sa = {r["result"]["failed"] / r["result"]["attempted"] for r in a}
        sb = {r["result"]["failed"] / r["result"]["attempted"] for r in b}
        ok &= sa == sb and len(sa) == 1
        print(f"  failed share {sorted(sa)} -> {sorted(sb)}")
    return ok


def load(path: Path) -> list[dict]:
    return [json.loads(l) for l in path.read_text().splitlines() if l.strip()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--log", type=Path, help="append one JSON line per run")
    ap.add_argument("--compare", nargs=2, type=Path, metavar="LOG")
    args = ap.parse_args(argv)
    if args.compare:
        return 0 if compare(load(args.compare[0]), load(args.compare[1])) else 1
    spec = declared()
    records = []
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for w in [w["name"] for w in spec["workloads"]]:
            rec = run_once(w, seed, spec["run_seconds"])
            records.append(rec)
            res = rec["result"]
            print(f"seed {seed} {w}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
                + f" failed={res['failed']}/{res['attempted']} wall={rec['wall_s']:.1f}s",
                flush=True)
            if args.log:
                with args.log.open("a") as fh:
                    fh.write(json.dumps(rec) + "\n")
    return 0 if summarize(records) else 1


if __name__ == "__main__":
    sys.exit(main())
