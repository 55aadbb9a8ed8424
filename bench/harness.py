"""Runs one workload: set-up, warm-up, the measured phase, the gate, the metrics.

The load is one process with no threads: ops run one after another, and
mc.estimate_pooled is called with jobs=1. Only the call into the library
is timed; drawing inputs and gating outputs happen between timings.
setup_s is timed in fresh processes that run one at a time, before the
measured phase, while this one waits.

The measured phase runs whole cycles. A cycle starts only while the
deadline is more than half a cycle away, so a run measures --seconds give
or take half a cycle; a workload with a fixed cycle time (Workload.cycle_s)
runs the number of cycles that --seconds buys at that time instead.

With trace=1 the run measures twice, half the time each: first untraced,
then with every library function wrapped. The per-layer metrics come from
the traced half; trace.overhead compares the two halves per cycle.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import potts_gks
from potts_gks import mc

from gate import Gate
from tracer import PER_LAYER, Tracer
from workloads import WARMUP_CYCLE, WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1  # reference.json holds this seed's frozen outputs
SETUP_REPEATS = 5
END_TO_END = (
    ("setup_s", "s"),
    ("work_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
# The host is shared, and its speed drifts by 20-30 % within seconds as other
# tenants load it. So a fixed task that never touches the library is timed
# before an op whenever CALIBRATE_EVERY_S has passed since the last one, and
# after the last op, and each op's time is scaled by REFERENCE_CALIBRATION_S
# over the median of the CALIBRATION_WINDOW tasks nearest it: it reads as the
# op's time on the reference host. The reference is the task's median on the
# 2-vCPU VM that recorded the baseline. Scaling by nearby tasks, not by the
# run's median task, is what cuts the spread between runs.
CALIBRATE_EVERY_S = 0.05
CALIBRATION_WINDOW = 6
REFERENCE_CALIBRATION_S = 0.0037


def load_reference(workload: str, seed: int, size: str) -> dict:
    if seed != DEFAULT_SEED or size != "full":
        return {}
    with open(BENCH_DIR / "reference.json") as fh:
        return json.load(fh)[workload]


def quantile(sorted_values: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an ascending list."""
    pos = pct / 100.0 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail_percentile(n: int, cap: float) -> float:
    """Highest standard percentile, at most `cap`, with ten samples beyond it.

    The cap is fixed per workload: with whole cycles a fixed percentile
    falls on the same op type however many cycles ran, while one chosen
    from the sample count alone would jump as a faster library completes
    more ops.
    """
    for pct in PERCENTILES:
        if pct <= cap and n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def calibration_s() -> float:
    """Seconds a fixed interpreter-bound loop takes on this host just now."""
    start = time.perf_counter()
    acc = 0
    for i in range(40000):
        acc += i * i % 7
    return time.perf_counter() - start


@dataclass
class Phase:
    times: list[float] = field(default_factory=list)
    units: int = 0
    cycles: int = 0
    calibrations: list[float] = field(default_factory=list)
    last_calibration: float = float("-inf")
    calibration_before: list[int] = field(default_factory=list)  # per op

    @property
    def busy_s(self) -> float:
        return sum(self.times)

    def calibrate(self) -> None:
        self.calibrations.append(calibration_s())
        self.last_calibration = time.perf_counter()

    def calibrate_if_due(self) -> None:
        if time.perf_counter() - self.last_calibration >= CALIBRATE_EVERY_S:
            self.calibrate()

    def add(self, elapsed: float, units: int) -> None:
        self.times.append(elapsed)
        self.calibration_before.append(len(self.calibrations) - 1)
        self.units += units

    def scaled(self) -> list[float]:
        """Each op's time on the reference host: its time scaled by the
        reference over the median of the CALIBRATION_WINDOW calibrations
        nearest it, half before and half after."""
        cal = self.calibrations
        half = CALIBRATION_WINDOW // 2
        return [t * REFERENCE_CALIBRATION_S
                / statistics.median(cal[max(0, k + 1 - half): k + 1 + half])
                for t, k in zip(self.times, self.calibration_before)]


def run_ops(wl, ops, gate: Gate, phase: Phase | None, tracer: Tracer | None = None):
    for op in ops:
        if phase is not None:
            phase.calibrate_if_due()
        with tracer.op_span(op.id) if tracer else nullcontext():
            start = time.perf_counter()
            try:
                out = wl.call(op)
            except Exception as exc:  # a failed op is counted, the run goes on
                elapsed = time.perf_counter() - start
                reasons = [f"exception {type(exc).__name__}: {exc}"]
            else:
                elapsed = time.perf_counter() - start
                reasons = wl.gate(op, out)
        gate.record(op.id, op.kind, reasons, op.known_defect)
        if phase is not None:
            phase.add(elapsed, op.units)
            wl.stats["ops"] += 1


def measure(wl, gate, seconds, first_cycle, tracer=None) -> Phase:
    phase = Phase()
    deadline = time.perf_counter() + seconds
    planned = None if wl.cycle_s is None else max(1, round(seconds / wl.cycle_s))
    cycle = first_cycle
    while True:
        ops = wl.ops(cycle)
        started = time.perf_counter()
        run_ops(wl, ops, gate, phase, tracer)
        cycle += 1
        phase.cycles += 1
        now = time.perf_counter()
        if (phase.cycles >= planned if planned is not None
                else now + (now - started) / 2 > deadline):
            phase.calibrate()  # the one after the last op
            return phase


def environment(workload: str, seed: int, trace: int) -> dict:
    try:
        import numba  # noqa: F401

        numba_version = numba.__version__
    except ImportError:
        numba_version = None
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": numba_version,
        # a numba-compiled function keeps its Python original as py_func
        "mc_backend": "numba" if any(hasattr(f, "py_func") for f in vars(mc).values())
        else "python",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "library": str(Path(potts_gks.__file__).resolve().parent),
    }


def run_benchmark(workload: str, seed: int, seconds: float, trace: int,
                  size: str = "full", import_s: float = 0.0,
                  outdir: Path | None = None) -> tuple[list[str], dict]:
    """Run one workload; returns report lines and the result object."""
    cls = WORKLOADS[workload]
    outdir = Path(outdir or BENCH_DIR.parent / ".bench_out")
    workdir = outdir / f"tmp-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(cls, seed, seconds, trace, size, import_s, outdir, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def set_up(cls, seed, size, workdir, reference):
    """Prepare the workload and run its warm-up ops.

    Returns the workload, the gate holding the warm-up ops, the warm-up ops
    and the seconds the preparation and the warm-up took.
    """
    start = time.perf_counter()
    wl = cls(seed, size, workdir, reference)
    prepare_s = time.perf_counter() - start
    gate = Gate()
    warm = wl.ops(WARMUP_CYCLE)[: wl.warmup_ops]
    for op in warm:
        op.measured = False
    start = time.perf_counter()
    run_ops(wl, warm, gate, None)
    return wl, gate, warm, prepare_s, time.perf_counter() - start


def setup_only(workload: str, seed: int, size: str, import_s: float,
               outdir: Path) -> tuple[float, float]:
    """One set-up in this process (import + preparation + warm-up): its
    seconds, and its seconds on the reference host (see calibration_s)."""
    cls = WORKLOADS[workload]
    workdir = Path(outdir) / f"tmp-{workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        _, _, _, prepare_s, warm_s = set_up(cls, seed, size, workdir,
                                            load_reference(workload, seed, size))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    seconds = import_s + prepare_s + warm_s
    calibration = statistics.median(calibration_s() for _ in range(3))
    return seconds, seconds * REFERENCE_CALIBRATION_S / calibration


def time_setups(workload: str, seed: int, size: str) -> list[tuple[float, float]]:
    """SETUP_REPEATS set-up times, each from a fresh process (see setup_only).

    A fresh process pays every one-time cost again (imports, compilation,
    lazily built tables), so work moved into set-up shows in setup_s. The
    processes run one after another and each is waited for.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--size", size, "--setup-only"]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=BENCH_DIR.parent, capture_output=True,
                              text=True, timeout=120, check=True)
        seconds, scaled = proc.stdout.split()[-2:]
        samples.append((float(seconds), float(scaled)))
    return samples


def _run(cls, seed, seconds, trace, size, import_s, outdir, workdir):
    reference = load_reference(cls.name, seed, size)
    lines = [f"env {json.dumps(environment(cls.name, seed, trace))}"]

    wl, gate, warm, prepare_s, warm_s = set_up(cls, seed, size, workdir, reference)
    lines.append(f"note set-up in this process: import {import_s:.4f} s + prepare "
                 f"{prepare_s:.4f} s + warm-up of {len(warm)} ops {warm_s:.4f} s")
    if not trace:
        setups = time_setups(cls.name, seed, size)
        lines.append(f"note setup_s is the median of {len(setups)} set-ups in fresh "
                     f"processes: {', '.join(f'{t:.4f}' for t, _ in setups)} s")

    if trace:
        plain = measure(wl, gate, seconds / 2, 0)
        cli_before = wl.stats.copy()
        tracer = Tracer(potts_gks)
        tracer.install()
        try:
            phase = measure(wl, gate, seconds / 2, plain.cycles, tracer)
        finally:
            tracer.uninstall()
        cli_counts = wl.stats - cli_before
    else:
        phase = measure(wl, gate, seconds, 0)
    for op_id, kind, reasons in wl.finish():
        gate.record(op_id, kind, reasons)

    times = sorted(phase.times)
    scaled = sorted(phase.scaled())
    pct = tail_percentile(len(times), cls.tail_pct)
    beyond = sum(t > quantile(scaled, pct) for t in scaled)
    lines.append(f"sizes {json.dumps(wl.sizes())}")
    lines.append(
        f"note measured {phase.busy_s:.3f} s busy over {phase.cycles} cycles, "
        f"{len(times)} ops, {phase.units} {cls.unit}; op_tail_ms is p{pct:g} "
        f"with {beyond} of {len(times)} samples beyond it")
    if trace:
        # on the reference host's scale, so that a change of host speed between
        # the halves does not read as tracing cost
        overhead = ((sum(phase.scaled()) / phase.cycles)
                    / (sum(plain.scaled()) / plain.cycles) - 1.0)
        metrics = tracer.metrics(cli_counts, overhead)
        units = dict((name, unit) for name, unit, _ in PER_LAYER)
        path = outdir / f"trace-{cls.name}-seed{seed}.json.gz"
        tracer.write(path)
        lines.append(f"note {tracer.n_spans} spans written to {path}")
    else:
        metrics = {
            "setup_s": statistics.median(t for _, t in setups),
            "work_per_s": phase.units / sum(scaled),
            "op_p50_ms": quantile(scaled, 50.0) * 1e3,
            "op_tail_ms": quantile(scaled, pct) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        wall = {
            "setup_s": statistics.median(t for t, _ in setups),
            "work_per_s": phase.units / phase.busy_s,
            "op_p50_ms": quantile(times, 50.0) * 1e3,
            "op_tail_ms": quantile(times, pct) * 1e3,
        }
        lines.append(
            f"note the end-to-end times are on the reference host: each op scaled by "
            f"{REFERENCE_CALIBRATION_S * 1e3:g} ms over the calibrations around it "
            f"({len(phase.calibrations)} calibrations, median "
            f"{statistics.median(phase.calibrations) * 1e3:.3f} ms); wall.* are unscaled")
        for name, value in wall.items():
            lines.append(f"metric wall.{name} {value!r} {units[name]}")
        for name, value, unit in wl.report(sum(scaled), phase.units):
            lines.append(f"metric {name} {value!r} {unit}")
    known = sum(f.known_defect for f in gate.failures)
    lines.append(f"metric error_rate {gate.error_rate!r} ratio "
                 f"({gate.failed} failed of {gate.attempted} attempted, "
                 f"{known} of them known defects)")
    for name, value in metrics.items():
        lines.append(f"metric {name} {value!r} {units[name]}")
    for failure in gate.failures[:20]:
        known = " (known defect)" if failure.known_defect else ""
        lines.append(f"failed {failure.op_id} {failure.kind}{known}: "
                     + "; ".join(failure.reasons)[:300])
    if gate.failed > 20:
        lines.append(f"failed ... {gate.failed - 20} more")
    result = {
        "correct": gate.correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return lines, result
