"""Checks of the correlation inequalities on concrete instances.

Every check gates on its hypotheses first (they are part of the claim):
membership, and disjoint supports for the anticorrelation; one that fails
raises NotCertified. It then computes both sides exactly by variable
elimination and reports the raw margin. margin is the worst signed slack
across the claim's constraints, so verdict == (margin >= -tolerance)
holds for every report.
Neither is a knob: every claim certifies at membership_bound of its
regions and judges its margin against DEFAULT_VERIFY_TOL.
The fuzzer drives the same checks over randomized instances and returns
violations only; with the hypotheses enforced there should be none.

Each claim is described once (_real_nonneg, _monotone, _gks_pair,
_disjoint_support): its certification, its spin-mean columns, and the
margin and details it derives from their means. A verify_* function runs
one description through one elimination; the fuzzer runs all of a trial's
descriptions through one when their columns fit the cap together, reading a
column that several claims share once, and each through its own otherwise.
A report's inputs digest is one json.dumps of the claim's name, model dict
and parts.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field, replace
from math import expm1, inf
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .function_classes import (
    DEFAULT_M,
    DEFAULT_TOL,
    MembershipReport,
    check_Fq,
    check_Fq_i,
    make_family,
    moments_real_nonneg,
)
from .instances import random_model
from .model import (
    DEFAULT_STATE_CAP,
    ModelError,
    PottsModel,
    SpinFunction,
    _column_budget,
    _coordinate_position,
    integer_q,
    potts_expectation,  # noqa: F401  (re-exported: callers read verify.potts_expectation)
    spin_means,
)

DEFAULT_VERIFY_TOL = 1e-8
# verify_monotone's finite steps s, each as its details key and e^s - 1,
# taken once: str of a float costs more than the rest of a step's margin
_FD_STEPS = tuple((str(s), expm1(s)) for s in (0.1, 1.0))


class NotCertified(ModelError):
    """A hypothesis of the claim fails: a function is not certified in its
    class, or f0 * f1 does not vanish pointwise."""


@dataclass(frozen=True)
class VerificationReport:
    claim: str
    inputs: str  # digest of model, functions, regions, parameters
    lhs: complex
    rhs: complex
    margin: float
    tolerance: float
    verdict: bool
    details: dict = field(default_factory=dict)


def _digest(name: str, model: PottsModel, parts: tuple) -> str:
    """The first 16 hex digits of the SHA-256 of the claim's inputs as JSON,
    each SpinFunction written as its [[re, im], ...] values."""
    parts = [[[v.real, v.imag] for v in p.values] if isinstance(p, SpinFunction) else p
             for p in parts]
    blob = json.dumps((name, model.to_json_dict(), *parts), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def report_to_json_dict(report: VerificationReport) -> dict:
    return {
        "type": "verification",
        "claim": report.claim,
        "inputs": report.inputs,
        "lhs": [report.lhs.real, report.lhs.imag],
        "rhs": [report.rhs.real, report.rhs.imag],
        "margin": report.margin,
        "tolerance": report.tolerance,
        "verdict": "pass" if report.verdict else "fail",
        "details": report.details,
    }


def membership_bound(*regions: Sequence) -> int:
    """Exponent bound actually needed: cluster exponents never exceed the
    total region size, so 2x that (or 16) certifies every comparison."""
    return max(2 * sum(len(tuple(r)) for r in regions), DEFAULT_M)


def certify(
    model: PottsModel,
    f: SpinFunction,
    M: int,
    need_peak: bool = False,
) -> MembershipReport:
    """Require f in F_q^0, or just F_q when the field vanishes.

    need_peak forces the peak-at-0 condition regardless of the field:
    claims that raise h (monotonicity in a field coordinate) leave the
    field-free regime, so the relaxation does not apply to them.
    """
    relaxed = model.field_free and not need_peak
    # tol as check_Fq_i passes it on, so both paths share one check_Fq entry
    report = check_Fq(f, M, DEFAULT_TOL) if relaxed else check_Fq_i(f, 0, M)
    if not report.passed:
        raise NotCertified(
            f"function not certified ({'F_q' if relaxed else 'F_q^0'}, "
            f"M={M}): violation={report.first_violation}, "
            f"condition1_margin={report.condition1_margin}"
        )
    return report


class _Claim(NamedTuple):
    """One claim on one input, certified and ready for its means.

    columns are the spin_means columns the claim reads, in order; margin
    maps their means to (lhs, rhs, primary slack, imaginary residual,
    details); parts are the inputs digested besides the model: spin
    functions, regions and a coordinate label.
    """

    name: str
    parts: tuple
    columns: tuple
    margin: Callable[[list], tuple]


def _fold(primary: float, imag: float) -> float:
    """A claim's margin: the primary slack folded with the imaginary
    residual, so (margin >= -tol) == (primary >= -tol and imag <= tol),
    tol = DEFAULT_VERIFY_TOL, without masking the informative slack in the
    usual all-real case."""
    return primary if imag <= DEFAULT_VERIFY_TOL else min(primary, -imag)


def _report(claim: _Claim, model: PottsModel, means: list) -> VerificationReport:
    """The report of one claim from the means of its columns (margin: _fold)."""
    lhs, rhs, primary, imag, details = claim.margin(means)
    margin = _fold(primary, imag)
    return VerificationReport(
        claim=claim.name,
        inputs=_digest(claim.name, model, claim.parts),
        lhs=lhs,
        rhs=rhs,
        margin=margin,
        tolerance=DEFAULT_VERIFY_TOL,
        verdict=margin >= -DEFAULT_VERIFY_TOL,
        details=details,
    )


def _verify(describe, model: PottsModel, args: tuple, cap) -> VerificationReport:
    """One claim on its own: describe (and certify) it, then one elimination."""
    claim = describe(model, *args)
    return _report(claim, model, spin_means(model, claim.columns, cap)[1])


def _pair_margin(anti: bool, key: str, means: list) -> tuple:
    """<a b> against the real product <a><b>, from the columns (ab, a, b):
    <ab> >= <a><b> is asked for, or <ab> <= <a><b> when anti. The slack is
    also details[key]."""
    both, a, b = means
    product = a.real * b.real
    primary = product - both.real if anti else both.real - product
    imag = max(abs(both.imag), abs(a.imag), abs(b.imag))
    return both, complex(product), primary, imag, {key: primary, "imag_residual": imag}


# ---------------------------------------------------------------------------
# the claims: certification, columns and margin of each
# ---------------------------------------------------------------------------


def _real_nonneg(model: PottsModel, f: SpinFunction, R: Iterable[str]) -> _Claim:
    R = tuple(R)
    certify(model, f, membership_bound(R))

    def margin(means):
        (mean,) = means
        imag = abs(mean.imag)
        return mean, 0.0, mean.real, imag, {"imag_residual": imag, "real_part": mean.real}

    return _Claim("real_nonneg", (f, R), ((((f, R),), None),), margin)


def _monotone(model: PottsModel, f: SpinFunction, R: Iterable[str], coordinate) -> _Claim:
    R = tuple(R)
    field, _ = _coordinate_position(model, coordinate)
    coord_label = f"h[{coordinate}]" if field else "J[{},{}]".format(*coordinate)
    certify(model, f, membership_bound(R), need_peak=field)

    def margin(means):
        mean, mean_fd, mean_d = means
        mean_d = mean_d.real
        cov = mean_fd - mean * mean_d
        fd_margins = {key: (c * cov / (1.0 + c * mean_d)).real for key, c in _FD_STEPS}
        details = {
            "coordinate": coord_label,
            "derivative": cov.real,
            "finite_steps": fd_margins,
            "imag_residual": abs(cov.imag),
        }
        primary = min(cov.real, *fd_margins.values())
        return cov, 0.0, primary, abs(cov.imag), details

    factors = ((f, R),)
    columns = ((factors, None), (factors, coordinate), ((), coordinate))
    return _Claim("monotone", (f, R, coord_label), columns, margin)


def _gks_pair(
    model: PottsModel, f: SpinFunction, R: Iterable[str], S: Iterable[str]
) -> _Claim:
    R, S = tuple(R), tuple(S)
    certify(model, f, membership_bound(R, S))
    columns = ((((f, R), (f, S)), None), (((f, R),), None), (((f, S),), None))
    margin = functools.partial(_pair_margin, False, "gks_margin")
    return _Claim("gks_pair", (f, R, S), columns, margin)


def _disjoint_support(
    model: PottsModel,
    f0: SpinFunction,
    f1: SpinFunction,
    R: Iterable[str],
    S: Iterable[str],
) -> _Claim:
    R, S = tuple(R), tuple(S)
    if f0.q != f1.q:
        raise ModelError("f0 and f1 must share q")
    if any(a * b != 0 for a, b in zip(f0.values, f1.values)):
        raise NotCertified("f0 * f1 must vanish pointwise")
    bound = membership_bound(R, S)
    certify(model, f0, bound)
    ok, violation = moments_real_nonneg(f1, bound)
    if not ok:
        raise NotCertified(f"f1 moments not real/non-negative: {violation}")
    columns = ((((f0, R), (f1, S)), None), (((f0, R),), None), (((f1, S),), None))
    margin = functools.partial(_pair_margin, True, "anticorrelation_margin")
    return _Claim("disjoint_support", (f0, f1, R, S), columns, margin)


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


def verify_real_nonneg(
    model: PottsModel,
    f: SpinFunction,
    R: Iterable[str],
    cap: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """<f^R> must be real and non-negative for certified f."""
    return _verify(_real_nonneg, model, (f, R), cap)


def verify_monotone(
    model: PottsModel,
    f: SpinFunction,
    R: Iterable[str],
    coordinate,
    cap: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """<f^R> non-decreasing in the given coupling or field coordinate.

    Reports the exact derivative (the covariance of f^R with the
    coordinate's Kronecker delta) and finite upward steps at 0.1 and 1.0;
    the margin is the smallest of them. All come from the same three
    means: delta is 0 or 1, so e^{s delta} = 1 + (e^s - 1) delta and the
    mean at the coordinate plus s is (<F> + c<F delta>) / (1 + c<delta>)
    with c = e^s - 1, which differs from <F> by c cov / (1 + c<delta>).
    With c > 0 each step is a positive multiple of the derivative and
    always has its sign, so the steps are not a second route; the
    independent one is re-enumerating the bumped model, which the tests do.
    """
    return _verify(_monotone, model, (f, R, coordinate), cap)


def verify_gks_pair(
    model: PottsModel,
    f: SpinFunction,
    R: Iterable[str],
    S: Iterable[str],
    cap: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """<f^R f^S> >= <f^R><f^S> for certified f."""
    return _verify(_gks_pair, model, (f, R, S), cap)


def verify_disjoint_support(
    model: PottsModel,
    f0: SpinFunction,
    f1: SpinFunction,
    R: Iterable[str],
    S: Iterable[str],
    cap: int = DEFAULT_STATE_CAP,
) -> VerificationReport:
    """<f0^R f1^S> <= <f0^R><f1^S> for disjointly supported f0, f1.

    f0 must be certified as usual; f1 only needs real non-negative moments.
    """
    return _verify(_disjoint_support, model, (f0, f1, R, S), cap)


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------


_BOUNDARY_PROB = 0.1  # chance of a fuzzed model with J = 0, and separately h = 0
_FUNCTION_KINDS = ("A", "B", "C", "table", "shiftA", "adversarial")


@dataclass(frozen=True)
class FuzzConfig:
    trials: int
    seed: int
    q_values: tuple[int, ...] = (2, 3, 4, 5)
    n_range: tuple[int, int] = (1, 5)
    edge_density: float = 0.5
    J_range: tuple[float, float] = (0.0, 3.0)
    h_range: tuple[float, float] = (0.0, 3.0)
    families: tuple[str, ...] = ("A", "B", "C", "table")
    cap: int = DEFAULT_STATE_CAP


@dataclass
class FuzzResult:
    config: FuzzConfig
    failures: list[VerificationReport]
    trials_run: int = 0
    checks_run: int = 0
    skipped_not_certified: int = 0
    skipped_too_large: int = 0

    def summary_dict(self) -> dict:
        return {
            "type": "summary",
            "trials": self.trials_run,
            "checks": self.checks_run,
            "violations": len(self.failures),
            "skipped_not_certified": self.skipped_not_certified,
            "skipped_too_large": self.skipped_too_large,
            "seed": self.config.seed,
        }


def _draw_model(rng: np.random.Generator, cfg: FuzzConfig) -> PottsModel:
    model = random_model(
        rng, cfg.q_values, cfg.n_range, cfg.edge_density, cfg.J_range, cfg.h_range
    )
    no_J, no_h = rng.random(2) < _BOUNDARY_PROB
    if no_J:
        model = replace(model, J=(0.0,) * len(model.J))
    if no_h:
        model = replace(model, h=(0.0,) * len(model.h))
    return model


# four kinds per q in the run's q_values; each entry is a few hundred bytes
@functools.lru_cache(maxsize=64)
def _fixed_function(kind: str, q: int) -> SpinFunction | tuple[SpinFunction, SpinFunction]:
    """A fuzz function whose values depend on q alone, built once per (kind, q)
    so that no trial rebuilds a SpinFunction (the membership memos key on
    values and would hit either way): family A or B, A shifted by one spin,
    or the indicator pair of spins 0 and 1."""
    if kind == "shiftA":
        base = make_family("A", q).values
        return SpinFunction(tuple(base[(x - 1) % q] for x in range(q)))
    if kind == "indicators":
        return tuple(SpinFunction(tuple(1.0 if x == y else 0.0 for x in range(q)))
                     for y in (0, 1))
    return make_family(kind, q)


def _draw_function(rng: np.random.Generator, q: int, kind: str) -> SpinFunction:
    if kind in ("A", "B", "shiftA"):
        return _fixed_function(kind, q)
    if kind == "C":
        vals = rng.uniform(0.0, 1.0, size=q)
        vals[0] = vals.max()
        return make_family("C", q, vals)
    if kind == "table":
        # non-negative and peaking at 0, so in F_q^0 by its sign
        scale = float(rng.uniform(0.2, 1.2))
        vals = scale * rng.uniform(0.0, 1.0, size=q)
        vals[0] = vals.max()
        return SpinFunction(tuple(vals))
    if kind == "adversarial":
        re = rng.uniform(-1.0, 1.0, size=q)
        im = rng.uniform(-1.0, 1.0, size=q)
        return SpinFunction(tuple(complex(a, b) for a, b in zip(re, im)))
    raise ModelError(f"unknown function kind {kind!r}")


def _draw_region(rng: np.random.Generator, model: PottsModel) -> tuple[str, ...]:
    keep = rng.random(model.n_vertices) < 0.5
    return tuple(v for v, k in zip(model.vertices, keep) if k)


def _draw_disjoint_pair(
    rng: np.random.Generator, q: int
) -> tuple[SpinFunction, SpinFunction]:
    if rng.random() < 0.5:  # the classic indicator pair
        return _fixed_function("indicators", q)
    in_supp0 = [True, *(rng.random(q - 1) < 0.5)]
    # drawn in the order v0's support, then v1's
    draws = iter(rng.uniform(0.1, 1.0, size=q).tolist())
    v0 = [next(draws) if m else 0.0 for m in in_supp0]
    v1 = [0.0 if m else next(draws) for m in in_supp0]
    v0[0] = max(v0)
    return SpinFunction(tuple(v0)), SpinFunction(tuple(v1))


def _check_config(config: FuzzConfig) -> None:
    """Refuse a config that some trial could not run, before the first draw."""
    if config.trials < 0:
        raise ModelError(f"trials must be at least 0, got {config.trials}")
    if not isinstance(config.seed, (int, np.integer)) or config.seed < 0:
        raise ModelError(f"seed must be an integer of at least 0, got {config.seed!r}")
    if config.cap < 1:
        raise ModelError(f"cap must be at least 1, got {config.cap}")
    if not config.q_values or any(integer_q(q) < 2 for q in config.q_values):
        raise ModelError(f"q_values must list q >= 2, got {config.q_values}")
    if not config.families or any(k not in _FUNCTION_KINDS for k in config.families):
        raise ModelError(
            f"families must list kinds among {_FUNCTION_KINDS}, got {config.families}"
        )
    lo, hi = config.n_range
    if not 0 <= lo <= hi:
        raise ModelError(f"n_range must be (lo, hi) with 0 <= lo <= hi, got {config.n_range}")
    for name, (lo, hi) in (("J_range", config.J_range), ("h_range", config.h_range)):
        if not 0.0 <= lo <= hi < inf:  # NaN fails every comparison
            raise ModelError(
                f"{name} must be (lo, hi) with 0 <= lo <= hi < inf, got {(lo, hi)}"
            )
    if not 0.0 <= config.edge_density <= 1.0:
        raise ModelError(f"edge_density must lie in [0, 1], got {config.edge_density}")


def _trial_means(
    model: PottsModel, claims: list[_Claim], budget: int, cap: int
) -> list[list[complex]]:
    """Each claim's means. When the trial's distinct columns, Z's included,
    fit the budget, they come from one spin_means call, which computes a
    column that several claims read (<f^R> feeds four) once; at the
    default cap every trial of the default fuzzer fits. Otherwise each
    claim makes the call its verify_* function makes."""
    index: dict = {}
    keys = [[index.setdefault(c, len(index)) for c in claim.columns] for claim in claims]
    if claims and 1 + len(index) <= budget:
        means = spin_means(model, list(index), cap)[1]
        return [[means[j] for j in key] for key in keys]
    return [spin_means(model, claim.columns, cap)[1] for claim in claims]


def fuzz(config: FuzzConfig) -> FuzzResult:
    """Randomized search for violations. Deterministic given the seed;
    uncertified functions and oversize instances are skipped, not failed.

    A trial draws its model, f, R, S, coordinates and disjoint pair, then
    describes its claims in a fixed order. Each certified claim whose own
    table, q^(w+1) x (1 + its columns), fits the cap is evaluated; their
    means come from one elimination when the trial's columns fit together,
    and from one per claim otherwise.
    A check's verdict is read from its margin; only a failing check gets a
    report, and with it the digest of its inputs.
    """
    _check_config(config)
    rng = np.random.default_rng(config.seed)
    result = FuzzResult(config, [])
    for _ in range(config.trials):
        model = _draw_model(rng, config)
        families = config.families
        if model.field_free and "shiftA" not in families:
            families = families + ("shiftA",)
        kind = families[int(rng.integers(0, len(families)))]
        f = _draw_function(rng, model.q, kind)
        R = _draw_region(rng, model)
        S = _draw_region(rng, model)

        requests = [(_real_nonneg, (f, R))]
        if model.edges:
            e = int(rng.integers(len(model.edges)))
            requests.append((_monotone, (f, R, model.edges[e])))
        if model.n_vertices:
            v = int(rng.integers(model.n_vertices))
            requests.append((_monotone, (f, R, model.vertices[v])))
        requests.append((_gks_pair, (f, R, S)))
        f0, f1 = _draw_disjoint_pair(rng, model.q)
        requests.append((_disjoint_support, (f0, f1, R, S)))

        budget = _column_budget(model, config.cap)
        claims = []
        for describe, args in requests:
            try:
                claim = describe(model, *args)
            except NotCertified:
                result.skipped_not_certified += 1
                continue
            if 1 + len(claim.columns) > budget:
                result.skipped_too_large += 1
                continue
            claims.append(claim)
        for claim, means in zip(claims, _trial_means(model, claims, budget, config.cap)):
            result.checks_run += 1
            _, _, primary, imag, _ = claim.margin(means)
            if not _fold(primary, imag) >= -DEFAULT_VERIFY_TOL:  # a NaN fails
                result.failures.append(_report(claim, model, means))
        result.trials_run += 1
    return result
