"""The four benchmark workloads: seeded inputs, one op at a time, each op gated.

A workload is a sequence of cycles. A cycle holds the same op types in the
same order every time, with parameters drawn afresh from (seed, cycle).
Quantiles over whole cycles therefore do not depend on how many cycles fit
in a run, and no input repeats between cycles, so a cache inside the
library gets only the reuse the inputs really have. The function family
and the size of the region R, which set much of an op's cost, rotate with
the slot (cycle + position) instead of being drawn, so every run holds them
in the same proportions whatever its seed.

The library receives only generated models, functions and regions. Its
functions are looked up on their modules at call time, so the traced
run's wrappers are the ones called.
"""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import combinations
from math import isfinite, sqrt
from pathlib import Path
from time import perf_counter

import numpy as np

from potts_gks import cli, instances, mc, verify
from potts_gks import function_classes as fc
from potts_gks import model as pm
from potts_gks import random_cluster as rc

from gate import compare_reference, parse_strict

# warm-up ops are drawn from this cycle index, which no measured run reaches
WARMUP_CYCLE = 2**31 - 1
COUPLING_TOL = 1e-10
MC_SIGMAS = 4.0
# stated accuracy for the time-to-target metrics: standard error 1e-3 on the mean
MC_TARGET_SE = 1e-3


@dataclass
class Op:
    id: str
    kind: str
    args: object
    units: int
    known_defect: bool = False
    measured: bool = True


class Workload:
    """Base class: subclasses define SIZES, ops(), call() and check()."""

    name = ""
    tag = 0  # keeps the workloads' random streams apart
    unit = ""  # what work_per_s counts
    tail_pct = 90.0  # see harness.tail_percentile
    warmup_ops = 1
    # None: a run measures cycles until --seconds is up. A number: a run
    # measures round(seconds / cycle_s) cycles whatever the clock says, so its
    # op count, and the failures of its known-defect ops, are the same every run.
    cycle_s: float | None = None
    SIZES: dict = {}

    def __init__(self, seed: int, size: str = "full", workdir: Path | None = None,
                 reference: dict | None = None):
        self.seed = seed
        self.size = self.SIZES[size]
        self.workdir = workdir
        self.reference = reference or {}
        self.stats: Counter = Counter()

    def rng(self, cycle: int) -> np.random.Generator:
        return np.random.default_rng([self.tag, self.seed, cycle])

    def op_id(self, cycle: int, j: int) -> str:
        return f"w.{j}" if cycle == WARMUP_CYCLE else f"{cycle}.{j}"

    def ops(self, cycle: int) -> list[Op]:
        raise NotImplementedError

    def call(self, op: Op):
        """The timed part of an op: calls into the library only."""
        raise NotImplementedError

    def check(self, op: Op, out) -> list[str]:
        raise NotImplementedError

    def ref_values(self, op: Op, out) -> list[float]:
        raise NotImplementedError

    def gate(self, op: Op, out) -> list[str]:
        reasons = self.check(op, out)
        frozen = self.reference.get(op.id)
        if frozen is not None and not reasons:
            bad = compare_reference(self.ref_values(op, out), frozen)
            if bad:
                reasons.append(bad)
        return reasons

    def finish(self) -> list[tuple[str, str, list[str]]]:
        """Checks over the whole run, as (id, kind, reasons) gate entries."""
        return []

    def report(self, busy_s: float, units: int) -> list[tuple[str, float, str]]:
        """Workload-specific end-to-end figures, as (name, value, unit)."""
        return []

    def sizes(self) -> dict:
        raise NotImplementedError


def _draw_function(rng: np.random.Generator, q: int, slot: int) -> dict:
    """Spec of a certified function of the slot's family: A, B, or a random C table."""
    kind = "ABC"[slot % 3]
    if kind != "C":
        return {"kind": kind, "q": q}
    values = rng.uniform(0.0, 1.0, size=q)
    values[0] = values.max()
    return {"kind": "C", "q": q, "values": [float(v) for v in values]}


def _draw_disjoint_pair(rng: np.random.Generator, q: int) -> tuple[str, str]:
    """Table specs of f0 (peak at 0) and f1 with disjoint supports."""
    if rng.random() < 0.5:
        v0 = [1.0 if x == 0 else 0.0 for x in range(q)]
        v1 = [1.0 if x == 1 else 0.0 for x in range(q)]
    else:
        in0 = [True] + [bool(rng.random() < 0.5) for _ in range(q - 1)]
        if all(in0):
            in0[-1] = False
        v0 = [float(rng.uniform(0.1, 1.0)) if m else 0.0 for m in in0]
        v1 = [0.0 if m else float(rng.uniform(0.1, 1.0)) for m in in0]
        v0[0] = max(v0)
    return tuple(json.dumps({"kind": "table", "q": q, "values": v}) for v in (v0, v1))


def _draw_region(rng: np.random.Generator, vertices, size: int) -> tuple[str, ...]:
    picks = rng.choice(len(vertices), size=size, replace=False)
    return tuple(vertices[i] for i in sorted(picks))


# ---------------------------------------------------------------------------


class Fuzz(Workload):
    """Seeded single-trial verify.fuzz campaigns on small random instances."""

    name = "fuzz"
    tag = 1
    unit = "trials"
    tail_pct = 99.0
    warmup_ops = 20
    SIZES = {
        "full": {"trials_per_cycle": 50, "n_max": 5},
        "tiny": {"trials_per_cycle": 10, "n_max": 3},
    }

    def ops(self, cycle):
        seeds = self.rng(cycle).integers(0, 2**63, size=self.size["trials_per_cycle"])
        op = self.op_id
        return [Op(op(cycle, j), "trial", int(s), 1) for j, s in enumerate(seeds)]

    def call(self, op):
        config = verify.FuzzConfig(trials=1, seed=op.args, n_range=(1, self.size["n_max"]))
        return verify.fuzz(config)

    def check(self, op, result):
        reasons = []
        if result.trials_run != 1:
            reasons.append(f"{result.trials_run} trials run, expected 1")
        for report in result.failures:
            line = json.dumps(verify.report_to_json_dict(report))
            _, bad = parse_strict(line)
            reasons.append(bad or f"fail verdict: {report.claim} margin {report.margin!r}")
        _, bad = parse_strict(json.dumps(result.summary_dict()))
        if bad:
            reasons.append(f"summary: {bad}")
        self.stats["checks"] += result.checks_run
        return reasons

    def ref_values(self, op, result):
        return [result.checks_run, result.skipped_not_certified, result.skipped_too_large]

    def sizes(self):
        n_max = self.size["n_max"]
        return {"trials": self.stats["ops"], "checks": self.stats["checks"],
                "n_max": n_max, "q_max": 5, "max_states": 5**n_max}

    def report(self, busy_s, units):
        return [("trials_per_s", units / busy_s, "1/s")]


class Lattice(Workload):
    """One in-process `potts-gks verify` invocation per op on periodic grids."""

    name = "lattice"
    tag = 2
    unit = "invocations"
    tail_pct = 90.0
    cycle_s = 3.1  # a cycle's wall time on the 2-vCPU VM of the baseline
    # (label, rows, cols, q, J range, h range); h = 0 keeps the field-free relaxation in play
    SIZES = {
        "full": {"grids": [("4x4q2", 4, 4, 2, (0.2, 0.8), (0.0, 0.0)),
                           ("3x3q4", 3, 3, 4, (0.2, 0.8), (0.05, 0.5)),
                           ("3x4q3", 3, 4, 3, (0.2, 0.8), (0.05, 0.5))]},
        "tiny": {"grids": [("2x3q2", 2, 3, 2, (0.2, 0.8), (0.0, 0.0)),
                           ("2x2q3", 2, 2, 3, (0.2, 0.8), (0.05, 0.5))]},
    }
    CLAIMS = ("real", "monotone-edge", "monotone-vertex", "gks", "disjoint")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.grids = [(label, instances.torus_grid(r, c, q, 0.5, 0.0), Jr, hr)
                      for label, r, c, q, Jr, hr in self.size["grids"]]

    def _write(self, name: str, model) -> str:
        path = self.workdir / f"{name}.json"
        path.write_text(json.dumps(model.to_json_dict()))
        return str(path)

    def _grid_op(self, rng, slot, op_id, label, base, Jr, hr, claim) -> Op:
        J = rng.uniform(*Jr, size=len(base.edges))
        h = rng.uniform(*hr, size=base.n_vertices)
        model = pm.PottsModel(base.vertices, base.edges, tuple(J), tuple(h), base.q)
        path = self._write(op_id, model)
        fspec = json.dumps(_draw_function(rng, base.q, slot))
        R = _draw_region(rng, base.vertices, 1 + slot % 4)
        argv = ["--model", path, "--R", ",".join(R)]
        if claim == "real":
            argv = ["verify", "real", *argv, "--f", fspec]
        elif claim == "monotone-edge":
            u, v = base.edges[int(rng.integers(len(base.edges)))]
            argv = ["verify", "monotone", *argv, "--f", fspec, "--edge", f"{u},{v}"]
        elif claim == "monotone-vertex":
            vertex = base.vertices[int(rng.integers(base.n_vertices))]
            argv = ["verify", "monotone", *argv, "--f", fspec, "--vertex", vertex]
        elif claim == "gks":
            S = _draw_region(rng, base.vertices, int(rng.integers(1, 5)))
            argv = ["verify", "gks", *argv, "--f", fspec, "--S", ",".join(S)]
        else:
            f0, f1 = _draw_disjoint_pair(rng, base.q)
            S = _draw_region(rng, base.vertices, int(rng.integers(1, 5)))
            argv = ["verify", "disjoint", *argv, "--f", f0, "--f1", f1, "--S", ",".join(S)]
        return Op(op_id, f"{label}-{claim}", argv, 1)

    def _extreme_ops(self, rng, cycle, start) -> list[Op]:
        """J or h near 800. The two monotone ops print NaN margins and exit 1
        at this commit (unshifted weights in verify); they are known defects
        and count as failed ops."""
        big = lambda: float(rng.uniform(780.0, 820.0))  # noqa: E731
        edge = [(0, 1)]
        cases = [
            ("extreme-monotone-edge", True,
             instances.model_from_indices(2, edge, 2, J=big(), h=0.0),
             ["monotone", "--f", "A", "--R", "a,b", "--edge", "a,b"]),
            ("extreme-monotone-vertex", True,
             instances.model_from_indices(2, edge, 2, J=1.0, h=big()),
             ["monotone", "--f", "A", "--R", "a,b", "--vertex", "a"]),
            ("extreme-gks", False,
             instances.model_from_indices(3, [(0, 1), (1, 2)], 3, J=big(), h=0.5),
             ["gks", "--f", "A", "--R", "a", "--S", "c"]),
            ("extreme-real", False,
             instances.model_from_indices(2, edge, 2, J=1.0, h=big()),
             ["real", "--f", "B", "--R", "a,b"]),
        ]
        ops = []
        for j, (kind, known, model, rest) in enumerate(cases, start):
            op_id = self.op_id(cycle, j)
            argv = ["verify", rest[0], "--model", self._write(op_id, model), *rest[1:]]
            ops.append(Op(op_id, kind, argv, 1, known_defect=known))
        return ops

    def ops(self, cycle):
        rng = self.rng(cycle)
        ops = []
        for label, base, Jr, hr in self.grids:
            for claim in self.CLAIMS:
                ops.append(self._grid_op(rng, cycle + len(ops), self.op_id(cycle, len(ops)),
                                         label, base, Jr, hr, claim))
        return ops + self._extreme_ops(rng, cycle, len(ops))

    def call(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(op.args)
        return code, out.getvalue()

    def check(self, op, out):
        code, stdout = out
        reasons = [] if code == 0 else [f"exit code {code}"]
        lines = stdout.splitlines()
        self.stats["cli.lines"] += len(lines)
        reports, summary = [], None
        for n, line in enumerate(lines, 1):
            obj, bad = parse_strict(line)
            if bad:
                self.stats["cli.invalid_lines"] += 1
                reasons.append(f"line {n}: {bad}")
            elif obj.get("type") == "verification":
                reports.append(obj)
                if obj.get("verdict") != "pass":
                    reasons.append(f"line {n}: fail verdict, margin {obj.get('margin')!r}")
            elif obj.get("type") == "summary":
                summary = obj
        if not reasons and (len(reports) != 1 or summary is None
                            or summary.get("violations") != 0):
            reasons.append(f"{len(reports)} reports, summary {summary!r}")
        return reasons

    def ref_values(self, op, out):
        lines = map(json.loads, out[1].splitlines())
        report = next(obj for obj in lines if obj["type"] == "verification")
        return [*report["lhs"], *report["rhs"], report["margin"]]

    def sizes(self):
        return {"invocations": self.stats["ops"],
                "grid_states": {label: base.n_states for label, base, _, _ in self.grids},
                "ops_per_cycle": len(self.grids) * len(self.CLAIMS) + 4,
                "known_defect_ops_per_cycle": 2}


class Coupling(Workload):
    """Coupling and tower checks by exhaustive bond enumeration."""

    name = "coupling"
    tag = 3
    unit = "bond_configs"
    tail_pct = 90.0
    # (n, edges of K_n kept) for the instances beyond the suite; |E+| = edges + n
    SIZES = {
        "full": {"suite": 56, "big": [(5, 9)] * 6 + [(5, 10)] * 2},
        "tiny": {"suite": 8, "big": [(4, 6)]},
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.suite = instances.verification_suite()[: self.size["suite"]]

    def _op(self, rng, slot, op_id, kind, model) -> Op:
        f = fc.spin_function_from_spec(_draw_function(rng, model.q, slot))
        R = _draw_region(rng, model.vertices, 1 + slot % model.n_vertices)
        bonds = len(model.edges) + model.n_vertices
        return Op(op_id, kind, (model, f, R), 2 * 2**bonds)

    def ops(self, cycle):
        rng = self.rng(cycle)
        ops = [self._op(rng, cycle + j, self.op_id(cycle, j), "suite", m)
               for j, m in enumerate(self.suite)]
        for n, n_edges in self.size["big"]:
            pairs = list(combinations(range(n), 2))[:n_edges]
            model = instances.model_from_indices(
                n, pairs, 3,
                J=tuple(rng.uniform(0.2, 1.5, size=n_edges)),
                h=tuple(rng.uniform(0.1, 1.0, size=n)),
            )
            ops.append(self._op(rng, cycle + len(ops), self.op_id(cycle, len(ops)),
                                f"bonds{n_edges + n}", model))
        return ops

    def call(self, op):
        model, f, R = op.args
        aug = rc.augment(model)
        marginal = rc.coupled_spin_marginal(aug)
        pi = pm.potts_distribution(model)
        tv = 0.5 * float(np.sum(np.abs(marginal - pi)))
        rc_mean = rc.rc_expectation(aug, [(f, R)])
        potts_mean = pm.potts_expectation(model, [(f, R)])
        return tv, rc_mean, potts_mean

    def check(self, op, out):
        tv, rc_mean, potts_mean = out
        values = (tv, rc_mean.real, rc_mean.imag, potts_mean.real, potts_mean.imag)
        if not all(isfinite(v) for v in values):
            return [f"non-finite result {values!r}"]
        reasons = []
        if tv > COUPLING_TOL:
            reasons.append(f"total variation {tv!r} > {COUPLING_TOL}")
        if abs(rc_mean - potts_mean) > COUPLING_TOL:
            reasons.append(f"tower residual {abs(rc_mean - potts_mean)!r} > {COUPLING_TOL}")
        return reasons

    def ref_values(self, op, out):
        _, rc_mean, potts_mean = out
        return [rc_mean.real, rc_mean.imag, potts_mean.real, potts_mean.imag]

    def sizes(self):
        bonds = [len(m.edges) + m.n_vertices for m in self.suite]
        bonds += [e + n for n, e in self.size["big"]]
        return {"instances_per_cycle": len(bonds), "max_bonds": max(bonds),
                "bond_configs_per_cycle": sum(2**b for b in bonds),
                "enumerations_per_instance": 2,
                "instance_checks": self.stats["ops"]}

    def report(self, busy_s, units):
        return [("bond_configs_per_s", units / busy_s, "1/s")]


class MonteCarlo(Workload):
    """Pooled cluster-MC chains, raw and Rao-Blackwellized, on the 3x3 torus."""

    name = "mc"
    tag = 4
    unit = "sweeps"
    tail_pct = 90.0
    SIZES = {
        "full": {"chains": 4, "sweeps": 500},
        "tiny": {"chains": 2, "sweeps": 64},
    }

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.model = instances.torus_grid(3, 3, q=3, J=0.5, h=0.2)
        self.factors = [(fc.make_family("A", 3), ("s00", "s01"))]
        self.exact = pm.potts_expectation(self.model, self.factors)
        self.results = {"raw": [], "rb": []}  # (mean, std_error, seconds) per measured op

    def ops(self, cycle):
        seed = int(self.rng(cycle).integers(0, 2**63))
        sweeps = 2 * self.size["chains"] * self.size["sweeps"]
        return [Op(self.op_id(cycle, 0), "raw+rb", seed, sweeps)]

    def call(self, op):
        out = {}
        for mode in ("raw", "rb"):
            start = perf_counter()
            est = mc.estimate_pooled(
                self.model, self.factors, sweeps=self.size["sweeps"], seed=op.args,
                chains=self.size["chains"], jobs=1, rao_blackwell=(mode == "rb"),
            )
            out[mode] = (est, perf_counter() - start)
        return out

    def check(self, op, out):
        reasons = []
        for mode, (est, seconds) in out.items():
            values = (est.mean.real, est.mean.imag, est.std_error)
            if not all(isfinite(v) for v in values) or est.std_error <= 0.0:
                reasons.append(f"{mode}: bad estimate {values!r}")
            elif op.measured:
                self.results[mode].append((est.mean, est.std_error, seconds))
        return reasons

    def ref_values(self, op, out):
        return [v for mode in ("raw", "rb")
                for v in (out[mode][0].mean.real, out[mode][0].std_error)]

    def _pooled(self, mode):
        rows = self.results[mode]
        n = len(rows)
        mean = sum(r[0] for r in rows) / n
        se = sqrt(sum(r[1] ** 2 for r in rows)) / n
        return mean, se, sum(r[2] for r in rows)

    def finish(self):
        """The run's pooled raw and pooled RB estimates must each lie within
        4 standard errors of the exact mean. Checking the pool rather than
        each op keeps the false-alarm rate near 1e-4 per run."""
        entries = []
        for mode in ("raw", "rb"):
            if not self.results[mode]:
                continue
            mean, se, _ = self._pooled(mode)
            z = abs(mean - self.exact) / se
            reasons = [] if z <= MC_SIGMAS else [
                f"pooled {mode} mean {mean.real!r} is {z:.2f} standard errors "
                f"from exact {self.exact.real!r}"]
            entries.append((f"pooled.{mode}", f"agreement-{mode}", reasons))
        return entries

    def report(self, busy_s, units):
        out = []
        for mode in ("raw", "rb"):
            mean, se, seconds = self._pooled(mode)
            out += [(f"{mode}_s_to_target_se", seconds * (se / MC_TARGET_SE) ** 2, "s"),
                    (f"{mode}_pooled_se", se, "1"),
                    (f"{mode}_pooled_z", abs(mean - self.exact) / se, "1")]
        return out

    def sizes(self):
        return {"states": self.model.n_states, "chains_per_estimate": self.size["chains"],
                "sweeps_per_chain": self.size["sweeps"], "estimate_pairs": self.stats["ops"],
                "sweeps": self.stats["ops"] * 2 * self.size["chains"] * self.size["sweeps"]}


WORKLOADS = {cls.name: cls for cls in (Fuzz, Lattice, Coupling, MonteCarlo)}
