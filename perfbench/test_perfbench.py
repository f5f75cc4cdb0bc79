"""Self-tests of the benchmark.  They assert on op lists, counters and
outputs, never on times.

    PYTHONPATH=src python3 -m pytest perfbench -q

Each test runs a cheap subset of a workload's ops in-process.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as W  # noqa: E402
from run import hd_quantile  # noqa: E402
from tracer import PER_LAYER, Tracer  # noqa: E402
from worker import one_pass  # noqa: E402

from twistalex import conjectures, fox, metabelian, polydet, snf, twisted  # noqa: E402

SMALL_KNOTS = ("3_1", "4_1", "granny")


def _cheap(op) -> bool:
    """Ops on small corpus knots and the smaller covers of random braids."""
    words = op.key.split()
    if words[0] == "cover" and words[1].startswith("braid"):
        return words[-1] in ("k=2", "k=3")
    return any(w in SMALL_KNOTS for w in words)


def _traced_subset(name: str, seed: int):
    tracer = Tracer()
    tracer.install()
    try:
        ops = [op for op in W.build(name, seed) if _cheap(op)]
        result = one_pass(ops, tracer)
    finally:
        tracer.uninstall()
    return ops, result.outputs, result.failures, tracer


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_same_seed_repeats_ops_counters_and_outputs(name):
    ops1, out1, fail1, tr1 = _traced_subset(name, 7)
    ops2, out2, fail2, tr2 = _traced_subset(name, 7)
    assert fail1 == fail2 == []
    assert [op.key for op in ops1] == [op.key for op in ops2]
    assert out1 == out2
    assert tr1.counter_snapshot() == tr2.counter_snapshot()
    assert tr1.counter_snapshot()  # the layers were reached


@pytest.mark.parametrize("name", W.WORKLOADS)
def test_traced_outputs_match_untraced(name):
    ops = [op for op in W.build(name, 3) if _cheap(op)]
    untraced = one_pass(ops)
    ops_t, traced, fails_t, _ = _traced_subset(name, 3)
    assert [op.key for op in ops] == [op.key for op in ops_t]
    assert untraced.failures == fails_t == []
    assert untraced.outputs == traced


def test_second_seed_changes_inputs_and_still_passes():
    for name in ("cyclotomic-wada", "branched-covers"):
        keys1 = {op.key for op in W.build(name, 1)}
        ops2 = W.build(name, 2)
        fresh = [op for op in ops2 if op.key not in keys1]
        assert fresh, f"{name}: seed 2 drew the same inputs as seed 1"
        result = one_pass([op for op in fresh if _cheap(op) or "3_1" in op.key
                           or "6_1" in op.key])
        assert result.failures == []
    sweep1 = [op.key for op in W.build("conjecture-sweep", 1)]
    sweep2 = [op.key for op in W.build("conjecture-sweep", 2)]
    assert sorted(sweep1) == sorted(sweep2) and sweep1 != sweep2


def test_wrong_output_is_caught():
    ops = [op for op in W.build("branched-covers", 1) if op.key.startswith("cover 3_1 ")]
    assert ops
    for op in ops:
        out = op.run()
        assert op.check(out) is None
        assert op.check(out + " ") is not None
    alex = next(op for op in W.build("branched-covers", 1) if op.key == "alexander 3_1")
    assert alex.check("1 - t + t^2") is None and alex.check("1 - 2*t + t^2") is not None


def test_reference_verdicts():
    """All conjecture checks hold except the known B(1) counterexamples."""
    reports = W.load_reference("conjecture-sweep")["reports"]
    fails = sorted(k for k, v in reports.items() if json.loads(v)["verdict"] != "holds")
    assert fails and all(k.startswith("B(1) ") for k in fails)


def test_install_patches_every_binding_and_uninstall_restores():
    originals = {(m, a): getattr(m, a) for m, a in (
        (twisted, "det_poly_matrix"), (metabelian, "det_poly_matrix"),
        (polydet, "det_poly_matrix"), (metabelian, "cokernel_structure"),
        (snf, "cokernel_structure"), (twisted, "specialize_matrix"),
        (fox, "specialize_matrix"), (conjectures, "wada_invariant"))}
    tracer = Tracer()
    tracer.install()
    try:
        for (m, a), orig in originals.items():
            assert getattr(m, a) is not orig and getattr(m, a).__wrapped__ is orig
    finally:
        tracer.uninstall()
    for (m, a), orig in originals.items():
        assert getattr(m, a) is orig


def test_self_time_and_outermost_totals():
    tracer = Tracer()
    tracer.spans = [
        [0, "op", "op", 0, 1000, None],
        [1, "metabelian.branched_cover_homology", "metabelian.covers", 100, 900, 0],
        [2, "snf.cokernel_structure", "snf", 200, 700, 1],
        [3, "snf.smith_normal_form", "snf", 250, 650, 2],
        [4, "metabelian.alexander_module", "metabelian.module", 700, 800, 1],
    ]
    m = tracer.layer_metrics(0.5)
    assert m["metabelian.covers_s"] == (800e-9, "s")
    assert m["metabelian.covers_self_s"] == (200e-9, "s")   # 800 - 500 - 100
    assert m["snf.snf_s"] == (500e-9, "s")                  # nested call not counted twice
    assert m["trace.overhead_frac"] == (0.5, "ratio")


def test_hd_quantile():
    assert hd_quantile([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    xs = [float(x) for x in range(1, 201)]
    assert hd_quantile(xs, 0.5) == pytest.approx(100.5, rel=1e-3)
    assert 175 < hd_quantile(xs, 0.9) < 185


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "peak_rss_mb"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "branched-covers",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
