#!/usr/bin/env python3
"""twistalex benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload cyclotomic-wada --seed 1 --seconds 20 --trace 0

Run from the repository root.  With ``--trace 0`` it prints the end-to-end
metrics: ``setup_s`` (median over 9 fresh processes, process start to first
timed op), ``ops_per_s``, ``op_p50_ms``, ``op_p90_ms`` and ``peak_rss_mb`` of
an untraced closed-loop run of at least ``--seconds`` seconds, plus
``failed_frac`` on a comment line.  Times are corrected to a reference CPU
speed (see worker.py).  With ``--trace 1`` it prints the
per-layer metrics of one traced pass.  Each process is fresh and single-
threaded; the processes run one after another.  The last stdout line is
``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0 only
when every checked output was right.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from math import exp, lgamma, log, log1p
from pathlib import Path

from worker import CAL_REFERENCE_S, OUT_DIR, calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cyclotomic-wada", "conjecture-sweep", "branched-covers")
SETUP_STARTS = 9          # timed process starts; setup_s is their median
TOTAL_BUDGET_S = 170      # every child process must end within this


def source_id() -> str:
    """The git commit of the checkout, or a digest of the sources outside git."""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10)
            if commit.returncode == 0:
                return commit.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "twistalex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def hd_quantile(xs, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: the order statistics weighted
    by the Beta((n+1)p, (n+1)(1-p)) mass of each 1/n interval.  Unlike one
    order statistic it does not jump across the gaps between op-cost clusters."""
    xs = sorted(xs)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = lgamma(a + b) - lgamma(a) - lgamma(b)
    steps = 64  # midpoint-rule steps per order statistic
    h = 1 / (steps * n)

    def pdf(t: float) -> float:
        return exp(log_norm + (a - 1) * log(t) + (b - 1) * log1p(-t))

    weights = [sum(pdf((i * steps + j + 0.5) * h) for j in range(steps)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


class WorkerFailed(Exception):
    pass


class Runner:
    """Starts the worker processes one after another and logs their conditions."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + TOTAL_BUDGET_S
        self.env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                        MKL_NUM_THREADS="1", PYTHONHASHSEED="0",
                        PYTHONPATH=os.pathsep.join(
                            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
        self.log: list[dict] = []
        self.notes: list[str] = []
        self.record: dict = {}

    def child(self, mode: str) -> tuple[dict, float]:
        """Run one worker; returns (its report, monotonic time it was started)."""
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--mode", mode]
        load_before = os.getloadavg()
        started = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - started))
            code = proc.returncode
        except subprocess.TimeoutExpired:  # subprocess.run has killed and reaped it
            proc, code = None, "killed"
        self.log.append({"mode": mode, "load_before": load_before,
                         "load_after": os.getloadavg(), "wall_s": time.monotonic() - started,
                         "exit": code})
        if proc is None:
            raise WorkerFailed(f"worker ({mode}) did not end within the {TOTAL_BUDGET_S} s "
                               "budget of the run")
        if code != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise WorkerFailed(f"worker ({mode}) exited with {code}")
        return json.loads(proc.stdout.strip().splitlines()[-1]), started


def end_to_end(runner: Runner) -> tuple[dict, dict]:
    runner.child("setup")  # untimed: compiles bytecode, fills the page cache
    setups, raw_setups = [], []
    for i in range(SETUP_STARTS):
        before = calibrate()
        rep, started = runner.child("run" if i == SETUP_STARTS - 1 else "setup")
        raw = rep["ready_monotonic"] - started
        raw_setups.append(raw)
        setups.append(raw * CAL_REFERENCE_S / ((before + rep["calibration_s"]) / 2))
    lat, raw = rep["latencies"], rep["raw_latencies"]
    n = len(lat)
    samples = f"n={n} ops ({rep['passes']} passes)"
    metrics = {
        "setup_s": (statistics.median(setups), "s", f"median of {len(setups)} process starts"),
        "ops_per_s": (n / sum(lat), "1/s", samples),
        "op_p50_ms": (1e3 * hd_quantile(lat, 0.5), "ms", samples),
        "op_p90_ms": (1e3 * hd_quantile(lat, 0.9), "ms", samples),
        "peak_rss_mb": (rep["max_rss_kb"] / 1024, "MB", "ru_maxrss of the run process"),
    }
    runner.notes.append(
        f"uncorrected: setup_s {statistics.median(raw_setups):.4f}, "
        f"ops_per_s {len(raw) / sum(raw):.4f}, op_p50_ms {1e3 * hd_quantile(raw, 0.5):.3f}, "
        f"op_p90_ms {1e3 * hd_quantile(raw, 0.9):.3f}, "
        f"timed phase {rep['wall_s']:.2f} s wall")
    return rep, metrics


def per_layer(runner: Runner) -> tuple[dict, dict]:
    rep, _ = runner.child("trace")
    metrics = {k: (m["value"], m["unit"], "") for k, m in rep["metrics"].items()}
    runner.notes.append(f"untraced pass {rep['untraced_pass_s']:.3f} s, traced pass "
                        f"{rep['traced_pass_s']:.3f} s (speed-corrected); outputs sha256 "
                        f"{rep['outputs_sha256']}; spans in {rep['spans_file']}")
    if rep["traced_ops"] < rep["ops"]:
        runner.notes.append(f"passes cut short: {rep['traced_ops']} of {rep['ops']} ops traced")
    runner.record["counters"] = rep["counters"]
    return rep, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description="twistalex benchmark (see perfbench/README.md)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "twistalex" / "__init__.py").is_file():
        print(f"error: no twistalex sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args)
    import numpy

    env_info = {"source": source_id(), "python": platform.python_version(),
                "numpy": numpy.__version__, "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0))}
    try:
        rep, metrics = (per_layer if args.trace else end_to_end)(runner)
    except WorkerFailed as exc:  # reported as a run of one op that failed
        rep, metrics = {"attempted": 1, "failed": 1, "failures": [str(exc)]}, {}
    attempted, failed = rep["attempted"], rep["failed"]
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} " + " ".join(f"{k}={v}" for k, v in env_info.items()))
    for entry in runner.log:
        print("# process {mode}: exit {exit}, {wall_s:.2f} s, load {before} -> {after}".format(
            before="/".join(f"{x:.2f}" for x in entry["load_before"]),
            after="/".join(f"{x:.2f}" for x in entry["load_after"]), **entry))
    for note in runner.notes:
        print(f"# {note}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:28s} {value:14.6g} {unit:6s} {note}")
    if not args.trace:
        print(f"{'failed_frac':28s} {failed / attempted:14.6g} {'ratio':6s} "
              f"{failed} of {attempted} attempted")
    for reason in rep["failures"]:
        print(f"# FAILED {reason}")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / "runs.jsonl", "a") as fh:
        fh.write(json.dumps({"workload": args.workload, "seed": args.seed,
                             "seconds": args.seconds, "trace": args.trace, **env_info,
                             "processes": runner.log, "notes": runner.notes, **runner.record,
                             "result": result}) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
