"""Checks of the correlation inequalities on concrete instances.

Every check gates on membership first (the hypotheses are part of the
claim), computes both sides exactly by enumeration, and reports the raw
margin. margin is the worst signed slack across the claim's constraints,
so verdict == (margin >= -tolerance) holds for every report. The fuzzer
drives the same checks over randomized instances and returns violations
only; with the hypotheses enforced there should be none.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from itertools import combinations
from math import expm1
from typing import Iterable, Sequence

import numpy as np

from .function_classes import (
    DEFAULT_M,
    MembershipReport,
    check_Fq,
    check_Fq_i,
    make_family,
    moments_real_nonneg,
)
from .instances import model_from_indices
from .model import (
    EnumerationTooLarge,
    ModelError,
    PottsModel,
    SpinFunction,
    potts_expectation,
    spin_means,
)

DEFAULT_VERIFY_TOL = 1e-8
MEMBERSHIP_TOL = 1e-9
_FD_STEPS = (0.1, 1.0)


class NotCertified(ModelError):
    """Function failed the membership check required by the claim."""

    def __init__(self, message: str, report: MembershipReport | None = None):
        super().__init__(message)
        self.report = report


class NotDisjoint(ModelError):
    """f0 * f1 is not identically zero."""


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


def _digest(*parts) -> str:
    def default(obj):
        if isinstance(obj, complex):
            return [obj.real, obj.imag]
        raise TypeError(f"not serializable: {obj!r}")

    blob = json.dumps(parts, sort_keys=True, default=default)
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
    tol: float = MEMBERSHIP_TOL,
    need_peak: bool = False,
) -> MembershipReport:
    """Require f in F_q^0, or just F_q when the field vanishes.

    need_peak forces the peak-at-0 condition regardless of the field:
    claims that raise h (monotonicity in a field coordinate) leave the
    field-free regime, so the relaxation does not apply to them.
    """
    field_free = all(h == 0.0 for h in model.h)
    relaxed = field_free and not need_peak
    report = check_Fq(f, M, tol) if relaxed else check_Fq_i(f, 0, M, tol)
    if not report.passed:
        raise NotCertified(
            f"function not certified ({'F_q' if relaxed else 'F_q^0'}, "
            f"M={M}): violation={report.first_violation}, "
            f"condition1_margin={report.condition1_margin}",
            report,
        )
    return report


def _fold_margin(primary: float, imag_residual: float, tol: float) -> float:
    """Margin such that (margin >= -tol) == (primary >= -tol and imag <= tol),
    without masking the informative slack in the usual all-real case."""
    if imag_residual <= tol:
        return primary
    return min(primary, -imag_residual)


# ---------------------------------------------------------------------------
# inequality checks
# ---------------------------------------------------------------------------


def verify_real_nonneg(
    model: PottsModel,
    f: SpinFunction,
    R: Iterable[str],
    tol: float = DEFAULT_VERIFY_TOL,
    M: int | None = None,
    cap: int | None = None,
) -> VerificationReport:
    """<f^R> must be real and non-negative for certified f."""
    R = tuple(R)
    certify(model, f, membership_bound(R) if M is None else M)
    mean = potts_expectation(model, [(f, R)], cap)
    margin = _fold_margin(mean.real, abs(mean.imag), tol)
    return VerificationReport(
        claim="real_nonneg",
        inputs=_digest("real_nonneg", model.to_json_dict(), f.values, R),
        lhs=mean,
        rhs=0.0,
        margin=margin,
        tolerance=tol,
        verdict=margin >= -tol,
        details={"imag_residual": abs(mean.imag), "real_part": mean.real},
    )


def verify_monotone(
    model: PottsModel,
    f: SpinFunction,
    R: Iterable[str],
    coordinate,
    tol: float = DEFAULT_VERIFY_TOL,
    M: int | None = None,
    cap: int | None = None,
) -> VerificationReport:
    """<f^R> non-decreasing in the given coupling or field coordinate.

    Two criteria, both reported: the exact derivative (the covariance of
    f^R with the coordinate's Kronecker delta) and finite upward
    comparisons at steps 0.1 and 1.0. All come from the same three means:
    delta is 0 or 1, so e^{s delta} = 1 + (e^s - 1) delta and the mean at
    the coordinate plus s is (<F> + c<F delta>) / (1 + c<delta>) with
    c = e^s - 1, which differs from <F> by c cov / (1 + c<delta>).
    """
    R = tuple(R)
    field = isinstance(coordinate, str)
    if field:
        model.vertex_index(coordinate)
        coord_label = f"h[{coordinate}]"
    else:
        u, v = coordinate
        model.edge_position(u, v)
        coord_label = f"J[{u},{v}]"
    certify(model, f, membership_bound(R) if M is None else M, need_peak=field)
    factors = [(f, R)]
    _, (mean, mean_fd, mean_d) = spin_means(
        model, [(factors, None), (factors, coordinate), ((), coordinate)], cap
    )
    mean_d = mean_d.real
    cov = mean_fd - mean * mean_d
    fd_margins = {}
    for step in _FD_STEPS:
        c = expm1(step)
        fd_margins[step] = (c * cov / (1.0 + c * mean_d)).real
    margin = _fold_margin(
        min(cov.real, *fd_margins.values()), abs(cov.imag), tol
    )
    return VerificationReport(
        claim="monotone",
        inputs=_digest(
            "monotone", model.to_json_dict(), f.values, R, coord_label
        ),
        lhs=cov,
        rhs=0.0,
        margin=margin,
        tolerance=tol,
        verdict=margin >= -tol,
        details={
            "coordinate": coord_label,
            "derivative": cov.real,
            "finite_steps": {str(s): m for s, m in fd_margins.items()},
            "imag_residual": abs(cov.imag),
        },
    )


def verify_gks_pair(
    model: PottsModel,
    f: SpinFunction,
    R: Iterable[str],
    S: Iterable[str],
    tol: float = DEFAULT_VERIFY_TOL,
    M: int | None = None,
    cap: int | None = None,
) -> VerificationReport:
    """<f^R f^S> >= <f^R><f^S> for certified f."""
    R, S = tuple(R), tuple(S)
    certify(model, f, membership_bound(R, S) if M is None else M)
    _, (lhs, mR, mS) = spin_means(
        model, [([(f, R), (f, S)], None), ([(f, R)], None), ([(f, S)], None)], cap
    )
    primary = lhs.real - mR.real * mS.real
    imag = max(abs(lhs.imag), abs(mR.imag), abs(mS.imag))
    margin = _fold_margin(primary, imag, tol)
    return VerificationReport(
        claim="gks_pair",
        inputs=_digest("gks_pair", model.to_json_dict(), f.values, R, S),
        lhs=lhs,
        rhs=complex(mR.real * mS.real),
        margin=margin,
        tolerance=tol,
        verdict=margin >= -tol,
        details={"gks_margin": primary, "imag_residual": imag},
    )


def verify_disjoint_support(
    model: PottsModel,
    f0: SpinFunction,
    f1: SpinFunction,
    R: Iterable[str],
    S: Iterable[str],
    tol: float = DEFAULT_VERIFY_TOL,
    M: int | None = None,
    cap: int | None = None,
) -> VerificationReport:
    """<f0^R f1^S> <= <f0^R><f1^S> for disjointly supported f0, f1.

    f0 must be certified as usual; f1 only needs real non-negative moments.
    """
    R, S = tuple(R), tuple(S)
    if f0.q != f1.q:
        raise ModelError("f0 and f1 must share q")
    if any(a * b != 0 for a, b in zip(f0.values, f1.values)):
        raise NotDisjoint("f0 * f1 must vanish pointwise")
    bound = membership_bound(R, S) if M is None else M
    certify(model, f0, bound)
    ok, violation = moments_real_nonneg(f1, bound, MEMBERSHIP_TOL)
    if not ok:
        raise NotCertified(f"f1 moments not real/non-negative: {violation}")
    _, (lhs, m0, m1) = spin_means(
        model, [([(f0, R), (f1, S)], None), ([(f0, R)], None), ([(f1, S)], None)], cap
    )
    primary = m0.real * m1.real - lhs.real
    imag = max(abs(lhs.imag), abs(m0.imag), abs(m1.imag))
    margin = _fold_margin(primary, imag, tol)
    return VerificationReport(
        claim="disjoint_support",
        inputs=_digest(
            "disjoint_support", model.to_json_dict(), f0.values, f1.values, R, S
        ),
        lhs=lhs,
        rhs=complex(m0.real * m1.real),
        margin=margin,
        tolerance=tol,
        verdict=margin >= -tol,
        details={"anticorrelation_margin": primary, "imag_residual": imag},
    )


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------


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
    boundary_prob: float = 0.1
    tol: float = DEFAULT_VERIFY_TOL
    cap: int | None = None


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
    q = int(rng.choice(cfg.q_values))
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    pairs = [e for e in combinations(range(n), 2) if rng.random() < cfg.edge_density]
    J = tuple(float(rng.uniform(*cfg.J_range)) for _ in pairs)
    h = tuple(float(rng.uniform(*cfg.h_range)) for _ in range(n))
    if rng.random() < cfg.boundary_prob:
        J = (0.0,) * len(J)
    if rng.random() < cfg.boundary_prob:
        h = (0.0,) * len(h)
    return model_from_indices(n, pairs, q, J=J, h=h)


def _draw_function(rng: np.random.Generator, q: int, kind: str) -> SpinFunction:
    if kind in ("A", "B"):
        return make_family(kind, q)
    if kind == "C":
        vals = rng.uniform(0.0, 1.0, size=q)
        vals[0] = vals.max()
        return make_family("C", q, vals)
    if kind == "table":
        # rejection-sample non-negative tables with the peak at 0; the
        # construction passes on the first draw in all but pathological cases
        while True:
            scale = float(rng.uniform(0.2, 1.2))
            vals = scale * rng.uniform(0.0, 1.0, size=q)
            vals[0] = vals.max()
            f = SpinFunction(tuple(vals))
            if check_Fq_i(f, 0, DEFAULT_M, MEMBERSHIP_TOL).passed:
                return f
    if kind == "shiftA":
        base = make_family("A", q).values
        return SpinFunction(tuple(base[(x - 1) % q] for x in range(q)))
    if kind == "adversarial":
        re = rng.uniform(-1.0, 1.0, size=q)
        im = rng.uniform(-1.0, 1.0, size=q)
        return SpinFunction(tuple(complex(a, b) for a, b in zip(re, im)))
    raise ModelError(f"unknown function kind {kind!r}")


def _draw_region(rng: np.random.Generator, model: PottsModel) -> tuple[str, ...]:
    return tuple(v for v in model.vertices if rng.random() < 0.5)


def _draw_disjoint_pair(
    rng: np.random.Generator, q: int
) -> tuple[SpinFunction, SpinFunction]:
    if rng.random() < 0.5:  # the classic indicator pair
        f0 = tuple(1.0 if x == 0 else 0.0 for x in range(q))
        f1 = tuple(1.0 if x == 1 else 0.0 for x in range(q))
        return SpinFunction(f0), SpinFunction(f1)
    in_supp0 = [True] + [bool(rng.random() < 0.5) for _ in range(q - 1)]
    v0 = [float(rng.uniform(0.1, 1.0)) if m else 0.0 for m in in_supp0]
    v1 = [0.0 if m else float(rng.uniform(0.1, 1.0)) for m in in_supp0]
    v0[0] = max(v0)
    return SpinFunction(tuple(v0)), SpinFunction(tuple(v1))


def fuzz(config: FuzzConfig) -> FuzzResult:
    """Randomized search for violations. Deterministic given the seed;
    uncertified functions and oversize instances are skipped, not failed."""
    rng = np.random.default_rng(config.seed)
    result = FuzzResult(config, [])

    def run(check, *args, **kwargs):
        try:
            report = check(*args, tol=config.tol, cap=config.cap, **kwargs)
        except NotCertified:
            result.skipped_not_certified += 1
            return
        except EnumerationTooLarge:
            result.skipped_too_large += 1
            return
        result.checks_run += 1
        if not report.verdict:
            result.failures.append(report)

    for _ in range(config.trials):
        model = _draw_model(rng, config)
        field_free = all(h == 0.0 for h in model.h)
        families = config.families
        if field_free and "shiftA" not in families:
            families = families + ("shiftA",)
        kind = str(rng.choice(families))
        f = _draw_function(rng, model.q, kind)
        R = _draw_region(rng, model)
        S = _draw_region(rng, model)

        run(verify_real_nonneg, model, f, R)
        if model.edges:
            e = int(rng.integers(len(model.edges)))
            run(verify_monotone, model, f, R, model.edges[e])
        v = int(rng.integers(model.n_vertices)) if model.n_vertices else None
        if v is not None:
            run(verify_monotone, model, f, R, model.vertices[v])
        run(verify_gks_pair, model, f, R, S)

        f0, f1 = _draw_disjoint_pair(rng, model.q)
        run(verify_disjoint_support, model, f0, f1, R, S)
        result.trials_run += 1
    return result
