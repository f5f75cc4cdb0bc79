"""One benchmark process: set up one workload, then run it, and report JSON.

    PYTHONPATH=src python3 perfbench/worker.py --workload NAME --seed N \
        --seconds T --mode setup|run|trace

``setup``  builds the inputs and exits; run.py times it from process start.
``run``    is the closed loop with one client: ops execute one after another
           in seeded order, in whole passes over the op list, until T
           seconds have passed.  Untraced.
``trace``  sets up with the tracer on, makes one untraced pass and then one
           traced pass over the same ops, requires byte-identical outputs and
           reports the per-layer metrics of the set-up plus the traced pass.
           Spans are written to OUT_DIR.

The last stdout line is the report.  Every op output is checked; a wrong
output, an exception or an op over OP_LIMIT_S counts as failed.
"""
from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from fractions import Fraction
from hashlib import sha256
from pathlib import Path

OUT_DIR = Path(__file__).resolve().parent / "out"
OP_LIMIT_S = 30          # per-op limit (SIGALRM); an op that hits it fails
HARD_STOP_FACTOR = 4     # a run never measures longer than 4 x T
TRACE_STOP_FACTORS = (2.5, 5)  # a traced run's two passes stop by these x T

# Speed correction.  On a shared host the CPU's speed drifts by tens of
# percent over seconds, so raw op times say as much about the neighbours as
# about the program.  A fixed pure-Python kernel (Fraction and dict work like
# the exact arithmetic, plus an integer loop) is timed between ops, at most
# every CAL_EVERY_S, and each op time is scaled by CAL_REFERENCE_S over the
# mean of the two calibrations around it: the result is the op's time at the
# reference speed, in the same unit.
CAL_REFERENCE_S = 1.0e-3
CAL_EVERY_S = 0.05


def _calibration_kernel() -> None:
    acc, seen = Fraction(0), {}
    for i in range(1, 120):
        acc += Fraction(i, i + 7)
        seen[i] = acc.numerator % 97
    total = 0
    for i in range(8000):
        total += i * i


def calibrate() -> float:
    """Best of three timings of the calibration kernel (seconds)."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _calibration_kernel()
        best = min(best, time.perf_counter() - t0)
    return best


class SpeedCorrector:
    """Scales raw times by the calibrations taken before and after them."""

    def __init__(self):
        self.raw: list[float] = []
        self.corrected: list[float] = []
        self._pending: list[float] = []
        self._last = calibrate()
        self._last_t = time.perf_counter()

    def add(self, dt: float) -> None:
        self._pending.append(dt)
        if time.perf_counter() - self._last_t >= CAL_EVERY_S:
            self.flush()

    def flush(self) -> None:
        now = calibrate()
        factor = CAL_REFERENCE_S / ((self._last + now) / 2)
        self.raw.extend(self._pending)
        self.corrected.extend(dt * factor for dt in self._pending)
        self._pending.clear()
        self._last, self._last_t = now, time.perf_counter()


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"op exceeded {OP_LIMIT_S} s")


def execute(op) -> tuple[float, str | None, str | None]:
    """Run one op under the time limit: (seconds, output, failure reason)."""
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            out = op.run()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # the op's failure is recorded, the run goes on
        reason = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return time.perf_counter() - t0, None, reason
    return time.perf_counter() - t0, out, op.check(out)


@dataclass
class Pass:
    """One pass over an op list: the time and output of every attempted op."""
    times: list = field(default_factory=list)       # speed-corrected seconds
    raw_times: list = field(default_factory=list)   # as measured
    outputs: list = field(default_factory=list)
    failures: list = field(default_factory=list)


def one_pass(ops, tracer=None, stop_at: float = float("inf")) -> Pass:
    """The ops in order, one after another; cut short once perf_counter()
    reaches `stop_at`.  A failed op's time counts too: its run fails anyway."""
    speed = SpeedCorrector()
    result = Pass()
    for op in ops:
        with tracer.root(op.key) if tracer else nullcontext():
            dt, out, reason = execute(op)
        speed.add(dt)
        result.outputs.append(out)
        if reason is not None:
            result.failures.append(f"{op.key}: {reason}")
        if time.perf_counter() >= stop_at:
            break
    speed.flush()
    result.times, result.raw_times = speed.corrected, speed.raw
    return result


def run_loop(ops, seconds: float) -> dict:
    """Whole passes over the op list until `seconds` have passed, so every op
    is timed equally often; never longer than HARD_STOP_FACTOR x `seconds`."""
    t0 = time.perf_counter()
    hard_stop = t0 + HARD_STOP_FACTOR * seconds
    total = Pass()
    passes = 0
    while time.perf_counter() - t0 < seconds:
        p = one_pass(ops, stop_at=hard_stop)
        for name in ("times", "raw_times", "outputs", "failures"):
            getattr(total, name).extend(getattr(p, name))
        passes += 1
    return {"wall_s": time.perf_counter() - t0, "attempted": len(total.outputs),
            "passes": passes, "failed": len(total.failures), "failures": total.failures[:10],
            "latencies": total.times, "raw_latencies": total.raw_times}


def trace_run(name: str, seed: int, seconds: float) -> dict:
    """Traced set-up, one untraced pass, then one traced pass over the ops the
    untraced pass reached.  The passes stop at TRACE_STOP_FACTORS x `seconds`
    after the first one starts, so a slow program shortens them instead of
    overrunning the run."""
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        with tracer.root("setup"):
            ops = workloads.build(name, seed)
    finally:
        tracer.uninstall()
    t0 = time.perf_counter()
    untraced_stop, traced_stop = (t0 + f * seconds for f in TRACE_STOP_FACTORS)
    untraced = one_pass(ops, stop_at=untraced_stop)
    tracer.install()
    try:
        traced = one_pass(ops[:len(untraced.outputs)], tracer, stop_at=traced_stop)
    finally:
        tracer.uninstall()
    n = len(traced.outputs)
    failures = untraced.failures + traced.failures + [
        f"{op.key}: traced output differs from untraced"
        for op, a, b in zip(ops, untraced.outputs, traced.outputs) if a != b]
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}-seed{seed}.json"
    spans_path.write_text(json.dumps({"workload": name, "seed": seed, "ops": n,
                                      "fields": ["id", "name", "group", "start_ns",
                                                 "end_ns", "parent"],
                                      "spans": tracer.spans}))
    wall_u, wall_t = sum(untraced.times[:n]), sum(traced.times)
    metrics = tracer.layer_metrics(wall_t / wall_u - 1)
    return {"attempted": len(untraced.outputs) + n, "failed": len(failures),
            "failures": failures[:10], "ops": len(ops), "traced_ops": n,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            "counters": tracer.counter_snapshot(),
            "outputs_sha256": sha256("\0".join(map(str, traced.outputs)).encode()).hexdigest(),
            "spans_file": str(spans_path), "untraced_pass_s": wall_u, "traced_pass_s": wall_t}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args()
    signal.signal(signal.SIGALRM, _on_alarm)
    if args.mode == "trace":
        report = trace_run(args.workload, args.seed, args.seconds)
    else:
        import workloads

        ops = workloads.build(args.workload, args.seed)
        report = {"ready_monotonic": time.monotonic(), "calibration_s": calibrate()}
        if args.mode == "run":
            report.update(run_loop(ops, args.seconds))
    report["max_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
