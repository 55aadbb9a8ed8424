"""Traced run: spans and counts recorded at the library's module boundaries.

Every public function of the six library modules is wrapped wherever it is
looked up: its own module, the modules that import it by name (verify and
cli import from model and function_classes) and the package namespace. A
call records a span (name, start, end, parent, op id) in memory; counts are
taken in the same wrappers. Nothing is written until the run ends.

Not wrapped: random_cluster.rc_weight_from_labels and iter_bond_configs,
which run once per bond configuration (about 15 us each); a span there
would cost about as much as the work it measures. Their time is self time
of the random_cluster function that calls them.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import statistics
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("model", "random_cluster", "function_classes", "verify", "mc", "cli")
PER_CONFIG = {"random_cluster.rc_weight_from_labels", "random_cluster.iter_bond_configs"}
BLOCK = "model.iter_state_blocks.next"
OP = "bench.op"
CLAIMS = {
    "verify.verify_real_nonneg": "real_nonneg",
    "verify.verify_monotone": "monotone",
    "verify.verify_gks_pair": "gks_pair",
    "verify.verify_disjoint_support": "disjoint_support",
}
# the bond enumerators the workloads call; each call visits 2^|E+| configurations
RC_ENUMERATORS = ("coupled_spin_marginal", "rc_expectation")


def _per_layer_spec():
    spec = [
        ("model.states", "count", "higher"),
        ("model.passes", "count", "higher"),
        ("model.ns_per_state", "ns", "lower"),
        ("model.busy_s", "s", "lower"),
        ("model.self_share", "ratio", "lower"),
    ]
    for claim in CLAIMS.values():
        spec += [
            (f"verify.{claim}.calls", "count", "higher"),
            (f"verify.{claim}.p50_ms", "ms", "lower"),
            (f"verify.{claim}.passes_per_check", "count", "lower"),
        ]
    spec += [
        ("verify.passes_per_check", "count", "lower"),
        ("verify.self_s", "s", "lower"),
        ("verify.self_share", "ratio", "lower"),
        ("function_classes.calls", "count", "higher"),
        ("function_classes.busy_s", "s", "lower"),
        ("function_classes.us_per_call", "us", "lower"),
        ("function_classes.repeat_ratio", "ratio", "higher"),
        ("function_classes.reject_ratio", "ratio", "lower"),
        ("function_classes.self_share", "ratio", "lower"),
        ("random_cluster.configs", "count", "higher"),
        ("random_cluster.us_per_config", "us", "lower"),
        ("random_cluster.busy_s", "s", "lower"),
        ("random_cluster.self_share", "ratio", "lower"),
    ]
    for fn in RC_ENUMERATORS:
        spec += [
            (f"random_cluster.{fn}.configs", "count", "higher"),
            (f"random_cluster.{fn}.us_per_config", "us", "lower"),
            (f"random_cluster.{fn}.busy_s", "s", "lower"),
        ]
    spec += [
        ("mc.sweeps", "count", "higher"),
        ("mc.us_per_sweep_raw", "us", "lower"),
        ("mc.us_per_sweep_rb", "us", "lower"),
        ("mc.self_share", "ratio", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.lines", "count", "higher"),
        ("cli.invalid_lines", "count", "lower"),
        ("cli.self_share", "ratio", "lower"),
        ("bench.self_share", "ratio", "lower"),
        ("trace.spans", "count", "lower"),
        ("trace.overhead", "ratio", "lower"),
    ]
    return spec


PER_LAYER = _per_layer_spec()


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


# argument readers, with the library's defaults, for the hooks below
def _fq_key(f, M=16, tol=1e-9):
    return (f.values, M, tol, None)


def _fq_i_key(f, i, M=16, tol=1e-9):
    return (f.values, M, tol, i)


def _moments_key(f, M, tol=1e-9):
    return (f.values, M, tol, "moments")


def _pooled_args(model, factors, sweeps, burn_in=None, seed=0, chains=1, jobs=1,
                 rao_blackwell=False):
    return sweeps * max(chains, 1), rao_blackwell


CERTIFIERS = {
    "function_classes.check_Fq": (_fq_key, lambda r: r.passed),
    "function_classes.check_Fq_i": (_fq_i_key, lambda r: r.passed),
    "function_classes.moments_real_nonneg": (_moments_key, lambda r: r[0]),
}


class Tracer:
    """Wraps the library while installed; spans and counts stay in memory."""

    def __init__(self, lib):
        self.lib = lib
        # spans, one array entry each; parent and op index into these arrays
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.names: list[str] = []
        self.op_ids: list[str] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.claim_ms: dict = defaultdict(list)
        self.mc_s: Counter = Counter()
        self._cert_keys: set = set()
        self._undo: list = []

    @property
    def n_spans(self) -> int:
        return len(self.span_name)

    def _name_id(self, qual: str) -> int:
        if qual not in self.names:
            self.names.append(qual)
        return self.names.index(qual)

    def _open(self, name_id: int) -> int:
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(len(self.op_ids) - 1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        modules = [getattr(self.lib, layer) for layer in LAYERS]
        wrappers = {}
        for layer, mod in zip(LAYERS, modules):
            for name, fn in vars(mod).items():
                qual = f"{layer}.{name}"
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or qual in PER_CONFIG):
                    continue
                wrappers[fn] = self._wrap(qual, fn)
        for site in (self.lib, *modules, self.lib.instances):
            for name, obj in list(vars(site).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(site, name, wrappers[obj])
                    self._undo.append((site, name, obj))

    def uninstall(self) -> None:
        for site, name, obj in reversed(self._undo):
            setattr(site, name, obj)
        self._undo.clear()

    def _hook(self, qual):
        if qual == "model.iter_state_blocks":
            return self._on_pass
        if qual in CLAIMS:
            return self._on_claim
        if qual in CERTIFIERS:
            return functools.partial(self._on_certify, *CERTIFIERS[qual])
        layer, name = qual.split(".", 1)
        if layer == "random_cluster" and name in RC_ENUMERATORS:
            return functools.partial(self._on_enumerate, name)
        if qual == "mc.estimate_pooled":
            return self._on_chain
        return None

    def _wrap(self, qual, fn):
        # the body of _open and _close, inlined: this runs on every library call
        name_id = self._name_id(qual)
        hook = self._hook(qual)
        span_name, end_arr, stack, op_ids = self.span_name, self.span_end, self._stack, self.op_ids
        add_name, add_parent = span_name.append, self.span_parent.append
        add_op, add_start, add_end = self.span_op.append, self.span_start.append, end_arr.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(span_name)
            add_name(name_id)
            add_parent(stack[-1] if stack else -1)
            add_op(len(op_ids) - 1)
            add_end(0.0)
            stack.append(idx)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end_arr[idx] = clock()
                stack.pop()
            if hook is not None:
                result = hook(idx, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def op_span(self, op_id: str):
        """Root span of one benchmark op; library spans become its children."""
        self.op_ids.append(op_id)
        idx = self._open(self._name_id(OP))
        try:
            yield
        finally:
            self._close(idx)

    # -- counting hooks (run after the span closed, caller still on the stack)

    def _open_names(self):
        """Names of the open spans, innermost first."""
        return (self.names[self.span_name[i]] for i in reversed(self._stack))

    def _caller_in(self, prefix: str) -> bool:
        return next(self._open_names(), "").startswith(prefix)

    def _on_pass(self, idx, args, kwargs, blocks):
        self.counts["model.passes"] += 1
        claim = next((CLAIMS[n] for n in self._open_names() if n in CLAIMS), None)
        if claim:
            self.counts[f"verify.{claim}.passes"] += 1
        return self._traced_blocks(blocks)

    def _traced_blocks(self, blocks):
        """Span each block the generator computes, as a child of its consumer."""
        block_id = self._name_id(BLOCK)
        while True:
            idx = self._open(block_id)
            try:
                block = next(blocks)
            except StopIteration:
                return
            finally:
                self._close(idx)
            self.counts["model.states"] += block.shape[0]
            yield block

    def _on_claim(self, idx, args, kwargs, report):
        claim = CLAIMS[self.names[self.span_name[idx]]]
        self.counts[f"verify.{claim}.calls"] += 1
        self.claim_ms[claim].append((self.span_end[idx] - self.span_start[idx]) * 1e3)
        return report

    def _on_certify(self, key_of, passed, idx, args, kwargs, result):
        if self._caller_in("function_classes."):
            return result
        key = key_of(*args, **kwargs)
        self.counts["function_classes.calls"] += 1
        if key in self._cert_keys:
            self.counts["function_classes.repeats"] += 1
        self._cert_keys.add(key)
        if not passed(result):
            self.counts["function_classes.rejects"] += 1
        return result

    def _on_enumerate(self, fn, idx, args, kwargs, result):
        aug = args[0] if args else kwargs["aug"]
        configs = 2**aug.n_bonds
        self.counts["random_cluster.configs"] += configs
        self.counts[f"random_cluster.{fn}.configs"] += configs
        return result

    def _on_chain(self, idx, args, kwargs, result):
        sweeps, rao = _pooled_args(*args, **kwargs)
        mode = "rb" if rao else "raw"
        self.counts[f"mc.sweeps_{mode}"] += sweeps
        self.mc_s[mode] += self.span_end[idx] - self.span_start[idx]
        return result

    # -- results ------------------------------------------------------------

    def self_times(self) -> Counter:
        """Self time per span name: duration minus the time of child spans."""
        durations = [e - s for s, e in zip(self.span_start, self.span_end)]
        inner = [0.0] * len(durations)
        for parent, d in zip(self.span_parent, durations):
            if parent >= 0:
                inner[parent] += d
        by_id = [0.0] * len(self.names)
        for name_id, d, i in zip(self.span_name, durations, inner):
            by_id[name_id] += d - i
        return Counter(dict(zip(self.names, by_id)))

    def metrics(self, cli_counts: Counter, overhead: float) -> dict[str, float]:
        by_name = self.self_times()
        by_layer: Counter = Counter()
        for name, t in by_name.items():
            by_layer[name.split(".", 1)[0]] += t
        total = sum(by_layer.values())
        c = self.counts
        m = {
            "model.states": c["model.states"],
            "model.passes": c["model.passes"],
            "model.ns_per_state": _ratio(by_layer["model"], c["model.states"], 1e9),
            "model.busy_s": by_layer["model"],
        }
        passes = calls = 0
        for claim in CLAIMS.values():
            n, p = c[f"verify.{claim}.calls"], c[f"verify.{claim}.passes"]
            samples = self.claim_ms[claim]
            m[f"verify.{claim}.calls"] = n
            m[f"verify.{claim}.p50_ms"] = statistics.median(samples) if samples else 0.0
            m[f"verify.{claim}.passes_per_check"] = _ratio(p, n)
            passes, calls = passes + p, calls + n
        m["verify.passes_per_check"] = _ratio(passes, calls)
        m["verify.self_s"] = by_layer["verify"]
        fc_calls = c["function_classes.calls"]
        m.update({
            "function_classes.calls": fc_calls,
            "function_classes.busy_s": by_layer["function_classes"],
            "function_classes.us_per_call": _ratio(by_layer["function_classes"], fc_calls, 1e6),
            "function_classes.repeat_ratio": _ratio(c["function_classes.repeats"], fc_calls),
            "function_classes.reject_ratio": _ratio(c["function_classes.rejects"], fc_calls),
            "random_cluster.configs": c["random_cluster.configs"],
            "random_cluster.us_per_config": _ratio(
                by_layer["random_cluster"], c["random_cluster.configs"], 1e6),
            "random_cluster.busy_s": by_layer["random_cluster"],
        })
        for fn in RC_ENUMERATORS:
            configs, busy = c[f"random_cluster.{fn}.configs"], by_name[f"random_cluster.{fn}"]
            m[f"random_cluster.{fn}.configs"] = configs
            m[f"random_cluster.{fn}.us_per_config"] = _ratio(busy, configs, 1e6)
            m[f"random_cluster.{fn}.busy_s"] = busy
        m.update({
            "mc.sweeps": c["mc.sweeps_raw"] + c["mc.sweeps_rb"],
            "mc.us_per_sweep_raw": _ratio(self.mc_s["raw"], c["mc.sweeps_raw"], 1e6),
            "mc.us_per_sweep_rb": _ratio(self.mc_s["rb"], c["mc.sweeps_rb"], 1e6),
            "cli.self_s": by_layer["cli"],
            "cli.lines": cli_counts["cli.lines"],
            "cli.invalid_lines": cli_counts["cli.invalid_lines"],
            "trace.spans": self.n_spans,
            "trace.overhead": overhead,
        })
        for layer in (*LAYERS, "bench"):
            m[f"{layer}.self_share"] = _ratio(by_layer[layer], total)
        return {name: m[name] for name, _, _ in PER_LAYER}

    def write(self, path) -> None:
        """All spans, column by column: span i is (names[name[i]], start[i],
        end[i], parent[i], op_ids[op[i]]); parent and op are -1 at the root."""
        columns = {
            "names": self.names,
            "op_ids": self.op_ids,
            "name": self.span_name.tolist(),
            "start": self.span_start.tolist(),
            "end": self.span_end.tolist(),
            "parent": self.span_parent.tolist(),
            "op": self.span_op.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(columns, fh)
