#!/usr/bin/env python3
"""Write one side of one seed of a bench record, BENCH_<label>.json, from perfbench runs.

    for s in 1 2 3 4 5 6 7 8 9 10; do
      order="parent change"; [ $((s % 2)) -eq 0 ] && order="change parent"
      for side in $order; do
        [ $side = parent ] && dir=../parent-copy || dir=.
        python3 scripts/bench.py --label pr12 --side $side --seed $s --checkout $dir
      done
    done

For each workload it runs ``perfbench/run.py --seed S --seconds N`` in the
checkout (N is ``run_seconds`` of BENCHMARK.json), once with ``--trace 0``
(end-to-end metrics) and once with ``--trace 1`` (counters, pass times and
the outputs sha256), one after the other.  It reads the records run.py
appends to the checkout's ``perfbench/out/runs.jsonl`` and files them under
the ``--side`` half of the record and the seed, keeping every other side and
seed the file already has.  A side is filed under what ran: run.py's git
commit, with ``+dirty:`` and a 16-hex sha256 of ``src/twistalex/*.py`` added
when the checkout's ``src/`` differs from that commit.  The loop above makes
ten parent/change pairs, alternating which side runs first, on one host.  Over the seeds both sides
have, each workload gets a summary per end-to-end metric: both sides'
quartiles, the change of the median (positive = worse), the pairs the change
wins, the parent's IQR over its median, the IQR of the per-seed
change/parent ratios over their median (information only), and a verdict
against the BENCHMARK.json bound.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("cyclotomic-wada", "conjecture-sweep", "branched-covers")
MIN_PAIRS = 10
_TRACE_NOTE = re.compile(r"untraced pass ([\d.]+) s, traced pass ([\d.]+) s .*"
                         r"outputs sha256 ([0-9a-f]+)")


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def side_record(e2e: dict, trace: dict) -> dict:
    """One workload's side at one seed from its --trace 0 and --trace 1 records."""
    note = next((m for m in map(_TRACE_NOTE.search, trace["notes"]) if m), None)
    if note is None:
        raise ValueError(f"{trace['workload']} seed {trace['seed']}: the --trace 1 record "
                         "has no note with the pass times and outputs sha256")
    result = e2e["result"]
    return {"commit": e2e["source"],
            "end_to_end": {k: m["value"] for k, m in result["metrics"].items()},
            "attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"] and trace["result"]["correct"],
            "uncorrected": next((n.removeprefix("uncorrected: ") for n in e2e["notes"]
                                 if n.startswith("uncorrected: ")), None),
            "trace": {"untraced_pass_s": float(note.group(1)),
                      "traced_pass_s": float(note.group(2)),
                      "outputs_sha256": note.group(3),
                      "counters": trace.get("counters", {})}}


def quartiles(xs: list[float]) -> list[float]:
    """[q1, median, q3]."""
    if len(xs) < 2:
        return [xs[0]] * 3
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return [q1, q2, q3]


def compare(metric: dict, parent: list[float], change: list[float]) -> dict:
    """One end-to-end metric over paired runs (parent[i] and change[i] share a seed)."""
    sign = 1 if metric["better"] == "lower" else -1  # sign * (x - y) > 0: x is worse
    pq, cq = quartiles(parent), quartiles(change)
    worse = sign * (cq[1] - pq[1]) / pq[1]
    iqr = (pq[2] - pq[0]) / pq[1]
    wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    # the spread of the per-seed change/parent ratios: information only, no
    # verdict reads it
    rq = quartiles([c / p for p, c in zip(parent, change)])
    if len(parent) < MIN_PAIRS:
        verdict = "unresolved"
    elif all(sign * (c - p) < 0 for c in change for p in parent):
        verdict = "within bound"  # every change run better than every parent run
    elif iqr > metric["bound"]:
        verdict = "unresolved"
    else:
        verdict = "worse" if worse > metric["bound"] else "within bound"
    return {"parent_quartiles": pq, "change_quartiles": cq, "median_change": worse,
            "change_wins": wins, "pairs": len(parent), "parent_iqr": iqr,
            "pair_ratio_iqr": (rq[2] - rq[0]) / rq[1], "bound": metric["bound"],
            "verdict": verdict}


def summarize(entry: dict, metrics: list[dict]) -> None:
    """Fill entry's summary over the seeds both sides have."""
    for key in ("same_outputs_sha256", "failed_frac", "summary"):
        entry.pop(key, None)
    if "parent" not in entry or "change" not in entry:
        return
    seeds = sorted(set(entry["parent"]) & set(entry["change"]), key=int)
    if not seeds:
        return
    sides = {side: [entry[side][s] for s in seeds] for side in ("parent", "change")}
    entry["same_outputs_sha256"] = all(
        p["trace"]["outputs_sha256"] == c["trace"]["outputs_sha256"]
        for p, c in zip(sides["parent"], sides["change"]))
    entry["failed_frac"] = {side: sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
                            for side, runs in sides.items()}
    entry["summary"] = {
        m["name"]: compare(m, *([r["end_to_end"][m["name"]] for r in sides[side]]
                                for side in ("parent", "change")))
        for m in metrics}


def assemble(records: list[dict], side: str, label: str, bench: dict | None = None,
             spec: dict | None = None) -> dict:
    """File the runs.jsonl records of one side into a bench record.

    records holds, per workload and seed, a --trace 0 and a --trace 1 record;
    the last of each kind counts.  bench is the record so far; its other
    seeds and the other side are kept.  spec is BENCHMARK.json."""
    spec = spec or benchmark_spec()
    bench = dict(bench or {})
    first = records[0]
    bench.setdefault("description", f"{label}: perfbench/run.py --trace 0 end-to-end metrics "
                                    "and --trace 1 counters, pass times and output sha256s, "
                                    "parent/change pairs per seed alternating which side runs "
                                    "first, on one host; written by scripts/bench.py")
    bench[side] = first["source"]
    bench["host"] = {"nproc": first["nproc"], "python": first["python"],
                     "numpy": first["numpy"]}
    bench["commands"] = {
        mode: f"python3 perfbench/run.py --workload W --seed S --seconds {first['seconds']} "
              f"--trace {t}"
        for mode, t in (("end_to_end", 0), ("trace", 1))}
    workloads = bench.setdefault("workloads", {})
    runs = {(r["workload"], r["seed"], r["trace"]): r for r in records}
    for name, seed in dict.fromkeys((r["workload"], r["seed"]) for r in records):
        if (name, seed, 0) not in runs or (name, seed, 1) not in runs:
            raise ValueError(f"{name} seed {seed}: needs one --trace 0 and one --trace 1 record")
        entry = workloads.setdefault(name, {})
        entry.setdefault(side, {})[str(seed)] = side_record(runs[name, seed, 0],
                                                            runs[name, seed, 1])
        summarize(entry, spec["end_to_end"])
    return bench


def run_workloads(checkout: Path, seed: int, seconds: int) -> list[dict]:
    """Run perfbench/run.py per workload and trace mode; the records it appended."""
    log = checkout / "perfbench" / "out" / "runs.jsonl"
    before = log.stat().st_size if log.exists() else 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
            sys.stderr.write(proc.stdout)
            if proc.returncode not in (0, 1):  # 1: some output was wrong, still recorded
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"error: {' '.join(cmd)} exited with {proc.returncode}")
    with open(log, "rb") as fh:
        fh.seek(before)
        return [json.loads(line) for line in fh.read().decode().splitlines() if line.strip()]


def name_what_ran(checkout: Path, records: list[dict]) -> list[dict]:
    """records, each filed under <commit>+dirty:<digest> when the git checkout's
    src/ differs from its HEAD; run.py records the bare commit (or, outside
    git, its own digest of the sources, which already names what ran)."""
    if not (checkout / ".git").exists():
        return records
    try:
        status = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=checkout,
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return records
    if status.returncode != 0 or not status.stdout.strip():
        return records
    digest = hashlib.sha256()
    for path in sorted((checkout / "src" / "twistalex").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return [dict(r, source=f"{r['source']}+dirty:{digest.hexdigest()[:16]}") for r in records]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    ap.add_argument("--side", required=True, choices=("parent", "change"))
    ap.add_argument("--seed", type=int, required=True, help="the workload seed of this pair")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the checkout whose perfbench/run.py is run (default: this one)")
    args = ap.parse_args(argv)
    spec = benchmark_spec()
    out = ROOT / f"BENCH_{args.label}.json"
    bench = json.loads(out.read_text()) if out.exists() else None
    checkout = args.checkout.resolve()
    records = name_what_ran(checkout, run_workloads(checkout, args.seed, spec["run_seconds"]))
    bench = assemble(records, args.side, args.label, bench, spec)
    out.write_text(json.dumps(bench, indent=2) + "\n")
    print(f"wrote the {args.side} side of seed {args.seed} in {out.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
