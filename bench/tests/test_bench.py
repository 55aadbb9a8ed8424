"""Tests of the benchmark itself: smoke runs at tiny size, the gate, the contract.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
from gate import Gate, parse_strict
from harness import DEFAULT_SEED, END_TO_END, run_benchmark, run_ops
from tracer import PER_LAYER
from workloads import WORKLOADS, Coupling, Lattice

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_smoke_run(workload, tmp_path):
    lines, result = run_benchmark(workload, 3, 0.2, 0, size="tiny", outdir=tmp_path)
    assert result["correct"]
    assert result["attempted"] >= 1
    assert result["failed"] == (sum(line.startswith("failed ") for line in lines))
    metrics = result["metrics"]
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == [
        (name, metrics[name]["unit"]) for name in metrics]
    assert all(m["value"] > 0 for m in metrics.values())
    assert any(line.startswith("metric error_rate") for line in lines)
    env = json.loads(lines[0].removeprefix("env "))
    assert env["mc_backend"] in ("numba", "python") and env["seed"] == 3


@pytest.mark.parametrize("workload,layer", [
    ("fuzz", "function_classes"), ("lattice", "model"),
    ("coupling", "random_cluster"), ("mc", "mc")])
def test_tiny_traced_run(workload, layer, tmp_path):
    _, result = run_benchmark(workload, 3, 0.4, 1, size="tiny", outdir=tmp_path)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    assert metrics[f"{layer}.self_share"] > 0.05
    assert metrics["trace.spans"] > 0
    assert (tmp_path / f"trace-{workload}-seed3.json.gz").is_file()


def test_traced_run_restores_the_library(tmp_path):
    import potts_gks
    from potts_gks import verify

    before = (potts_gks.potts_expectation, verify.potts_expectation, verify.check_Fq_i)
    run_benchmark("fuzz", 3, 0.2, 1, size="tiny", outdir=tmp_path)
    assert (potts_gks.potts_expectation, verify.potts_expectation, verify.check_Fq_i) == before


def test_op_times_are_scaled_by_the_calibrations_nearest_them(monkeypatch):
    calibrations = iter([0.002, 0.004, 0.008, 0.008, 0.008, 0.008, 0.008, 0.008])
    monkeypatch.setattr(harness, "calibration_s", lambda: next(calibrations))
    phase = harness.Phase()
    for elapsed in (0.1, 0.2):
        phase.calibrate()
        phase.add(elapsed, 1)
    for _ in range(6):
        phase.calibrate()
    ref = harness.REFERENCE_CALIBRATION_S
    # three calibrations after each op and up to three before it:
    # op 0 sees calibrations 0-3 (median 0.006), op 1 sees 0-4 (median 0.008)
    assert phase.scaled() == pytest.approx([0.1 * ref / 0.006, 0.2 * ref / 0.008])


def test_gate_rejects_nan_and_infinite_fields():
    assert parse_strict('{"margin": NaN}')[1]
    assert parse_strict('{"margin": [1.0, 1e999]}')[1] == "non-finite field $.margin.1"
    assert parse_strict('{"margin": -0.5}') == ({"margin": -0.5}, None)


def test_gate_counts_an_injected_nan_line(tmp_path):
    wl = Lattice(3, "tiny", tmp_path)
    op = wl.ops(0)[0]
    stdout = ('{"type": "verification", "verdict": "pass", "margin": NaN, '
              '"lhs": [0.1, 0.0], "rhs": [0.0, 0.0]}\n'
              '{"type": "summary", "violations": 0, "checks": 1}\n')
    gate = Gate()
    gate.record(op.id, op.kind, wl.gate(op, (0, stdout)))
    assert (gate.attempted, gate.failed, gate.correct) == (1, 1, False)
    assert wl.stats["cli.invalid_lines"] == 1


def test_gate_counts_a_corrupted_reference_value(tmp_path):
    wl = Coupling(3, "tiny", tmp_path)
    op = wl.ops(0)[0]
    frozen = wl.ref_values(op, wl.call(op))
    frozen[0] += 1e-6
    wl.reference = {op.id: frozen}
    gate = Gate()
    run_ops(wl, [op], gate, None)
    assert (gate.attempted, gate.failed, gate.correct) == (1, 1, False)
    assert "reference mismatch" in gate.failures[0].reasons[0]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_default_seed_matches_frozen_reference(workload, tmp_path):
    reference = harness.load_reference(workload, DEFAULT_SEED, "full")
    wl = WORKLOADS[workload](DEFAULT_SEED, "full", tmp_path, reference)
    ops = wl.ops(0)[:4]
    assert all(op.id in reference for op in ops)
    gate = Gate()
    run_ops(wl, ops, gate, None)
    assert gate.failed == 0, gate.failures


def test_known_defects_count_as_failed_ops_in_a_fixed_number(tmp_path):
    per_cycle = Lattice(3, "tiny", tmp_path).ops(0)
    known = [op.kind for op in per_cycle if op.known_defect]
    assert known == ["extreme-monotone-edge", "extreme-monotone-vertex"]
    for seed in (3, 4):
        lines, result = run_benchmark("lattice", seed, 2 * Lattice.cycle_s, 0,
                                      size="tiny", outdir=tmp_path)
        # two whole cycles plus the warm-up op, however fast the host is
        assert result["attempted"] == 2 * len(per_cycle) + Lattice.warmup_ops
        assert result["failed"] == 2 * len(known) and result["correct"]
        assert sum(line.startswith("failed ") and "(known defect): exit code 1" in line
                   for line in lines) == 2 * len(known)


def test_stripped_checkout_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "fuzz", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
