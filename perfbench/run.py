#!/usr/bin/env python3
"""Benchmark of sectorlab: four seeded closed-loop workloads.

    python3 perfbench/run.py --workload separation --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from its
``src/`` directory only.  One process issues the next operation only
when the previous one returned.  With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it holds the per-layer metrics of a traced run (spans go
to ``perfbench/out/trace-<workload>-<seed>.json``).  Every operation's
outputs are checked against properties and independent references
(refs.py); the counts of attempted and failed operations are printed
with the metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

N_PROBES = 12  # set-up probes, spread evenly over the measured run
WARMUP_OPS = 2
REF_DIGITS_CAP = 10.0  # the references' own accuracy is about 1e-11
WORKER_TIMEOUT = 150.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "SECTORLAB_THREADS"}
    env.update(PINNED)
    env["PYTHONPATH"] = str(SRC)
    return env


def import_program():
    import sectorlab
    if Path(sectorlab.__file__).resolve().parent != (SRC / "sectorlab").resolve():
        raise SystemExit(f"sectorlab imported from {sectorlab.__file__}, not {SRC}")
    return sectorlab


# ---------------------------------------------------------------------------
# child processes: set-up probe and measuring worker


def build_ops(sl, workload, seed, workdir, tracer=None):
    wrap = tracer.wrap_weight if tracer is not None else (lambda v: v)
    return [workloads.make_op(sl, spec, workdir, wrap, tracer)
            for spec in workloads.op_specs(workload, seed)]


def probe(args) -> None:
    """Fresh process to readiness: imports, seeded inputs, one-time work."""
    sl = import_program()
    workdir = OUT / f"probe-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        build_ops(sl, args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def fingerprint(result):
    """Cheap digest of an operation's result to compare rounds."""
    h = hashlib.sha256()

    def add(x):
        if isinstance(x, (tuple, list)):
            for y in x:
                add(y)
        elif isinstance(x, np.ndarray):
            h.update(np.ascontiguousarray(x).tobytes())
        elif hasattr(x, "__dataclass_fields__"):
            for name in x.__dataclass_fields__:
                val = getattr(x, name)
                if isinstance(val, (int, float, str, bool, complex, np.ndarray,
                                    tuple, list)) or hasattr(val, "__dataclass_fields__"):
                    add(val)
        else:
            h.update(repr(x).encode())
    add(result)
    return h.hexdigest()


def worker(args) -> None:
    sl = import_program()
    tracer = None
    if args.traced:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(sl)
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = build_ops(sl, args.workload, args.seed, workdir, tracer)
        for op in ops[:WARMUP_OPS]:
            op.run()
        times, first, prints = [], [], []
        mismatch = [0] * len(ops)
        start = time.perf_counter()
        paused = requested = 0

        def wait_for_probes(due):
            # the parent times set-up probes while this process waits;
            # the wait is left out of the run's length
            nonlocal paused, requested
            if due > requested:
                t_wait = time.perf_counter()
                sys.stdout.write(f"probe {due - requested}\n")
                sys.stdout.flush()
                sys.stdin.readline()
                paused += time.perf_counter() - t_wait
                requested = due

        while True:
            gc.collect()
            round_times = []
            for i, op in enumerate(ops):
                wait_for_probes(min(args.probes, int((time.perf_counter() - start - paused)
                                                     * args.probes / args.seconds) + 1))
                if tracer is not None:
                    tracer.op = len(times) * len(ops) + i
                t0 = time.perf_counter()
                result = op.run()
                round_times.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.op = None
                fp = fingerprint(op.digest(result) if op.digest else result)
                if not times:
                    first.append(result)
                    prints.append(fp)
                elif fp != prints[i]:
                    mismatch[i] += 1
            times.append(round_times)
            if time.perf_counter() - start - paused >= args.seconds:
                break
        wait_for_probes(args.probes)  # those a long last operation skipped
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        outputs = [op.extra(res) for op, res in zip(ops, first)]
        payload = {"times": times, "outputs": outputs, "mismatch": mismatch,
                   "peak_rss_mb": peak_rss_mb}
        if tracer is not None:
            n_ops = len(times) * len(ops)
            payload["layers"] = tracer.layer_metrics(n_ops)
            tracer.write(OUT / f"trace-{args.workload}-{args.seed}.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    sys.stdout.write(json.dumps(payload) + "\n")


# ---------------------------------------------------------------------------
# parent: orchestration, checks, metrics


def _spawn_args(args, role, seconds=None, traced=False, probes=0):
    cmd = [sys.executable, str(HERE / "run.py"), "--role", role,
           "--workload", args.workload, "--seed", str(args.seed)]
    if seconds is not None:
        cmd += ["--seconds", repr(seconds), "--probes", str(probes)]
    if traced:
        cmd += ["--traced"]
    return cmd


def probe_once(args) -> float:
    """Wall time from spawning a fresh process to its readiness."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(_spawn_args(args, "probe"), stdout=subprocess.PIPE,
                            env=child_env(), cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        t1 = time.perf_counter()
        proc.stdout.read()
    finally:
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError("set-up probe failed")
    return t1 - t0


def run_worker(args, seconds, traced=False, probes=0) -> tuple[dict, list[float]]:
    """Run a measuring worker; while it waits at the points it asks for,
    time `probes` set-up probes.  Returns its payload and the probe times."""
    proc = subprocess.Popen(_spawn_args(args, "worker", seconds, traced, probes),
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    timer = threading.Timer(WORKER_TIMEOUT, proc.kill)
    timer.start()
    setup, last = [], ""
    try:
        for line in proc.stdout:
            if line.startswith("probe "):
                setup += [probe_once(args) for _ in range(int(line.split()[1]))]
                proc.stdin.write("go\n")
                proc.stdin.flush()
            elif line.strip():
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    if len(setup) != probes:
        raise RuntimeError(f"worker asked for {len(setup)} set-up probes, not {probes}")
    return json.loads(last), setup


def canary_ms() -> float:
    """Median time of a fixed pure-Python loop: drift of the host, not a metric."""
    def loop():
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        return 1e3 * (time.perf_counter() - t0)
    return statistics.median(loop() for _ in range(5))


def check(specs, res, refs):
    """attempted, failed, relative errors of the passing seeded ops, those
    of the passing fixed op (kept out of ref_digits), problems."""
    rounds = len(res["times"])
    attempted = rounds * len(specs)
    failed = 0
    errs, fixed, problems = [], [], []
    for i, (spec, out) in enumerate(zip(specs, res["outputs"])):
        bad, op_errs = workloads.check_op(spec, out, refs)
        if bad:
            failed += rounds
            problems += [f"{spec['cell']}: {b}" for b in bad[:3]]
            continue
        failed += res["mismatch"][i]
        if res["mismatch"][i]:
            problems.append(f"{spec['cell']}: output differs between rounds")
        (fixed if spec.get("fixed") else errs).extend(op_errs)
    return attempted, failed, errs, fixed, problems


def ref_digits(errs: list[float]) -> float:
    worst = max(errs, default=0.0)
    if worst <= 10.0 ** -REF_DIGITS_CAP:
        return REF_DIGITS_CAP
    return -math.log10(worst)


def parent(args) -> int:
    if not (SRC / "sectorlab" / "__init__.py").is_file():
        print(f"error: no sectorlab sources under {SRC}", file=sys.stderr)
        return 2
    import refs as refmod
    try:
        refs = refmod.load_cache(workloads.reference_requests())
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: reference cache unusable: {exc}", file=sys.stderr)
        return 2
    specs = workloads.op_specs(args.workload, args.seed)
    OUT.mkdir(parents=True, exist_ok=True)
    canary = canary_ms()
    info = {"canary_ms": round(canary, 3),
            "threads": {**PINNED, "SECTORLAB_THREADS": "unset"},
            "ops_per_round": len(specs)}
    try:
        if args.trace:
            # untraced, traced, untraced: a steady drift of the host's speed
            # over the run cancels in the tracing overhead
            quarter = max(args.seconds / 4.0, 0.25)
            before, _ = run_worker(args, quarter)
            traced, _ = run_worker(args, 2 * quarter, traced=True)
            after, _ = run_worker(args, quarter)
            runs = [before, traced, after]
            base = dict(before, times=before["times"] + after["times"])
        else:
            base, setup = run_worker(args, args.seconds, probes=N_PROBES)
            setup_s = statistics.median(setup)
            runs = [base]
    except (RuntimeError, OSError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    errs, fixed, problems = [], [], []
    for res in runs:
        a, f, e, x, p = check(specs, res, refs)
        attempted, failed = attempted + a, failed + f
        errs += e
        fixed += x
        problems += p
    for p in dict.fromkeys(problems):
        print(f"failed: {p}", file=sys.stderr)

    op_times = [t for rnd in base["times"] for t in rnd]
    info.update(rounds=len(base["times"]), op_samples=len(op_times))
    if fixed:
        info["fixed_op_rel_err"] = max(fixed)
    if args.trace:
        per_op = lambda res: sum(statistics.median(col) for col in zip(*res["times"]))
        overhead = 100.0 * (per_op(traced) / per_op(base) - 1.0)
        values = dict(traced["layers"], **{"trace.overhead_pct": overhead})
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
    else:
        values = {
            "setup_s": setup_s,
            "ops_per_s": len(specs) / statistics.median(map(sum, base["times"])),
            "op_ms_p50": 1e3 * statistics.median(op_times),
            "peak_rss_mb": base["peak_rss_mb"],
            "ref_digits": ref_digits(errs),
        }
        units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
    print("info " + json.dumps(info, sort_keys=True))
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _declared(kind: str) -> list[dict]:
    return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("probe", "worker"), help=argparse.SUPPRESS)
    ap.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--probes", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.role == "probe":
        probe(args)
        return 0
    if args.role == "worker":
        worker(args)
        return 0
    return parent(args)


if __name__ == "__main__":
    sys.exit(main())
