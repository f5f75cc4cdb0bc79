"""scripts/bench.py assembles BENCH_<label>.json from perfbench runs.jsonl
records; checked on canned records, without running the benchmark."""
import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SHA = "463aa8258dd2e03b683d285c6cceba705b6bfe0e130dc62444c434a624b00ed4"
WORKLOADS = ("cyclotomic-wada", "branched-covers")


def _record(workload, seed, trace, source, sha=SHA, ops_per_s=120.0):
    rec = {"workload": workload, "seed": seed, "seconds": 20, "trace": trace, "source": source,
           "python": "3.11.7", "numpy": "2.4.6", "nproc": 2, "affinity": 2,
           "processes": [{"mode": "run", "load_before": [0.5, 0.5, 0.5],
                          "load_after": [0.6, 0.5, 0.5], "wall_s": 21.0, "exit": 0}]}
    if trace == 0:
        rec["notes"] = ["uncorrected: setup_s 0.2405, ops_per_s 120.0761, op_p50_ms 8.033, "
                        "op_p90_ms 13.234, timed phase 20.80 s wall"]
        rec["result"] = {"correct": True, "attempted": 2337, "failed": 0, "metrics": {
            "setup_s": {"value": 0.25, "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 7.8, "unit": "ms"}, "op_p90_ms": {"value": 12.4, "unit": "ms"},
            "peak_rss_mb": {"value": 37.5, "unit": "MB"}}}
    else:
        rec["notes"] = ["untraced pass 0.968 s, traced pass 1.014 s (speed-corrected); "
                        f"outputs sha256 {sha}; "
                        f"spans in perfbench/out/spans-{workload}-seed{seed}.json"]
        rec["counters"] = {"polydet.max_n": 6, "calls:snf": 3}
        rec["result"] = {"correct": True, "attempted": 180, "failed": 0,
                         "metrics": {"polydet.max_n": {"value": 6, "unit": "count"}}}
    return rec


def _canned(tmp_path, source, seeds=(1,), sha=SHA, ops_per_s=lambda seed: 120.0):
    log = tmp_path / f"runs-{source}.jsonl"
    log.write_text("".join(json.dumps(_record(w, s, t, source, sha, ops_per_s(s))) + "\n"
                           for s in seeds for w in WORKLOADS for t in (0, 1)))
    return [json.loads(line) for line in log.read_text().splitlines()]


def _round_trip(record):
    return json.loads(json.dumps(record))  # as read back from BENCH_<label>.json


def test_one_side_from_canned_records(tmp_path):
    out = bench.assemble(_canned(tmp_path, "aaa"), "parent", "pr12")
    assert out["parent"] == "aaa" and "change" not in out
    assert out["host"] == {"nproc": 2, "python": "3.11.7", "numpy": "2.4.6"}
    assert out["commands"]["trace"] == ("python3 perfbench/run.py --workload W --seed S "
                                        "--seconds 20 --trace 1")
    entry = out["workloads"]["cyclotomic-wada"]
    assert entry["parent"]["1"] == {
        "commit": "aaa",
        "end_to_end": {"setup_s": 0.25, "ops_per_s": 120.0, "op_p50_ms": 7.8,
                       "op_p90_ms": 12.4, "peak_rss_mb": 37.5},
        "attempted": 2337, "failed": 0, "correct": True,
        "uncorrected": "setup_s 0.2405, ops_per_s 120.0761, op_p50_ms 8.033, "
                       "op_p90_ms 13.234, timed phase 20.80 s wall",
        "trace": {"untraced_pass_s": 0.968, "traced_pass_s": 1.014, "outputs_sha256": SHA,
                  "counters": {"polydet.max_n": 6, "calls:snf": 3}},
    }
    assert "summary" not in entry and "same_outputs_sha256" not in entry


def test_seeds_and_the_other_side_are_kept_and_outputs_compared(tmp_path):
    parent = bench.assemble(_canned(tmp_path, "aaa", seeds=(1,)), "parent", "pr12")
    parent = bench.assemble(_canned(tmp_path, "aaa", seeds=(2,)), "parent", "pr12",
                            _round_trip(parent))
    both = bench.assemble(_canned(tmp_path, "bbb", seeds=(1, 2)), "change", "pr12",
                          _round_trip(parent))
    assert (both["parent"], both["change"]) == ("aaa", "bbb")
    for entry in both["workloads"].values():
        assert sorted(entry["parent"]) == sorted(entry["change"]) == ["1", "2"]
        assert entry["same_outputs_sha256"] is True
        assert entry["failed_frac"] == {"parent": 0.0, "change": 0.0}
        assert entry["summary"]["ops_per_s"]["pairs"] == 2
    other = bench.assemble(_canned(tmp_path, "ccc", sha="0" * 64), "change", "pr12",
                           _round_trip(both))
    assert not other["workloads"]["branched-covers"]["same_outputs_sha256"]


def test_summary_medians_wins_and_verdicts(tmp_path):
    seeds = range(1, 11)
    parent = bench.assemble(_canned(tmp_path, "aaa", seeds, ops_per_s=lambda s: 100.0 + s),
                            "parent", "pr12")
    # ops_per_s is higher-better: the change reads 20% lower at every seed
    slower = bench.assemble(_canned(tmp_path, "bbb", seeds, ops_per_s=lambda s: 0.8 * (100 + s)),
                            "change", "pr12", _round_trip(parent))
    ops = slower["workloads"]["cyclotomic-wada"]["summary"]["ops_per_s"]
    assert ops["parent_quartiles"] == [103.25, 105.5, 107.75]
    assert ops["median_change"] == pytest.approx(0.2)
    assert (ops["change_wins"], ops["pairs"], ops["bound"]) == (0, 10, 0.15)
    assert ops["parent_iqr"] == pytest.approx(4.5 / 105.5)
    assert ops["verdict"] == "worse"
    same = slower["workloads"]["cyclotomic-wada"]["summary"]["setup_s"]
    assert (same["median_change"], same["change_wins"], same["verdict"]) == (0.0, 0,
                                                                            "within bound")
    faster = bench.assemble(_canned(tmp_path, "ccc", seeds, ops_per_s=lambda s: 200.0),
                            "change", "pr12", _round_trip(parent))
    ops = faster["workloads"]["branched-covers"]["summary"]["ops_per_s"]
    assert (ops["change_wins"], ops["verdict"]) == (10, "within bound")
    few = bench.assemble(_canned(tmp_path, "ddd", (1, 2)), "change", "pr12",
                         _round_trip(bench.assemble(_canned(tmp_path, "aaa", (1, 2)),
                                                    "parent", "pr12")))
    assert few["workloads"]["cyclotomic-wada"]["summary"]["setup_s"]["verdict"] == "unresolved"


def test_a_spread_wider_than_the_bound_is_unresolved():
    metric = {"name": "op_p50_ms", "better": "lower", "bound": 0.25}
    parent = [5.0, 10.0] * 5
    out = bench.compare(metric, parent, [7.5] * 10)
    assert out["parent_iqr"] > 0.25 and out["verdict"] == "unresolved"
    assert bench.compare(metric, parent, [4.0] * 10)["verdict"] == "within bound"


def test_a_workload_needs_both_runs(tmp_path):
    records = [r for r in _canned(tmp_path, "aaa") if r["trace"] == 0]
    with pytest.raises(ValueError, match="needs one --trace 0 and one --trace 1 record"):
        bench.assemble(records, "parent", "pr12")


def test_a_trace_record_needs_its_sha256_note(tmp_path):
    records = _canned(tmp_path, "aaa")
    for r in records:
        if r["trace"] == 1:
            r["notes"] = ["passes cut short: 3 of 9 ops traced"]
    with pytest.raises(ValueError, match="has no note with the pass times and outputs sha256"):
        bench.assemble(records, "parent", "pr12")
