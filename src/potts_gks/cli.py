"""Command-line front end.

Reports stream as JSON lines on stdout, one object per check, with a
summary object last (--csv renders just the summary as CSV). Each
subcommand returns its summary; run() writes it and maps its violations
to the exit code: 0 all checks passed, 1 at least one violation, 2
malformed input. Every subcommand that takes a spin function reads it
from --f as a family name, a JSON spec or a path to one; a family name is
never looked up on disk, and its q is the model's, or fclass's --q
(default 2).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from math import fsum, inf, log

import numpy as np

from . import mc, verify
from .function_classes import (
    DEFAULT_M,
    DEFAULT_TOL,
    check_Fq_i,
    is_family_name,
    make_family,
    spin_function_from_spec,
)
from .model import (
    DEFAULT_STATE_CAP,
    ModelError,
    PottsModel,
    SpinFunction,
    log_partition_function,
    potts_distribution,
    potts_expectation,
)
from .random_cluster import (
    augment,
    coupled_spin_marginal,
    rc_expectation,
    rc_partition,
    rc_probability,
)


def _emit(obj: dict) -> None:
    # strict JSON: a NaN or inf raises ValueError, reported by run() as exit 2
    print(json.dumps(obj, sort_keys=True, allow_nan=False))


def _summary(violations: int = 0, **extra) -> dict:
    return {"type": "summary", "status": "ok", "violations": violations, **extra}


def _emit_check(obj: dict, value: float, tolerance: float) -> bool:
    """Emit obj with its verdict, value <= tolerance; True when it fails."""
    _emit({**obj, "verdict": "pass" if value <= tolerance else "fail"})
    return value > tolerance


def _check_nonnegative(flag: str, value: float) -> None:
    if not 0.0 <= value < inf:  # NaN fails every comparison
        raise ModelError(f"{flag} must be finite and at least 0, got {value}")


def _parse_region(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    return tuple(part for part in (p.strip() for p in raw.split(",")) if part)


def _function_spec(raw: str):
    """The JSON spec given inline or as a path; None for a family name,
    which never reads the disk, and for any other name that is not a path."""
    s = raw.strip()
    if s.startswith("{"):
        return json.loads(s)
    if not is_family_name(s) and os.path.exists(s):
        with open(s) as fh:
            return json.load(fh)
    return None


def _parse_function(raw: str, q: int) -> SpinFunction:
    spec = _function_spec(raw)
    if spec is None:
        return make_family(raw.strip(), q)
    return spin_function_from_spec(spec)


def _build_factors(args, model: PottsModel):
    """[(f, R)], plus (f1 or f, S) when --S or --f1 is given (rc takes
    neither). --R, --S or --f1 without --f is refused, not ignored."""
    S, f1 = getattr(args, "S", None), getattr(args, "f1", None)
    if not args.f:
        for flag, value in (("--R", args.R), ("--S", S), ("--f1", f1)):
            if value is not None:
                raise ModelError(f"{flag} needs --f")
        return []
    f = _parse_function(args.f, model.q)
    factors = [(f, _parse_region(args.R))]
    S = _parse_region(S)
    if S or f1:
        factors.append((_parse_function(f1, model.q) if f1 else f, S))
    return factors


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_exact(args) -> dict:
    # every value is computed before the first line is written, so a bad
    # argument exits 2 with nothing on stdout
    model = PottsModel.from_json_file(args.model)
    factors = _build_factors(args, model)
    value = potts_expectation(model, factors, args.cap) if factors else None
    if args.dump_model:
        _emit({"type": "model", "model": model.to_json_dict()})
    if factors:
        _emit(
            {
                "type": "expectation",
                "regions": [list(r) for _, r in factors],
                "value": [value.real, value.imag],
            }
        )
    return _summary()


def _cmd_rc(args) -> dict:
    # every argument is parsed, and every check computed, before the first
    # line is written, so a bad argument exits 2 with nothing on stdout
    model = PottsModel.from_json_file(args.model)
    factors = _build_factors(args, model)
    aug = augment(model)
    probability = None if args.omega is None else rc_probability(aug, args.omega, args.cap)
    checks = []  # (line, value), each value checked against 1e-10
    # Z_rc = q Z e^(-sum J - sum h): the bond route against the spin route
    shift = fsum(model.J) + fsum(model.h)
    diff = abs(log(rc_partition(aug, args.cap)) - log(model.q)
               - (log_partition_function(model, args.cap) - shift))
    checks.append(({"type": "rc_partition", "log_difference": diff}, diff))
    marginal = coupled_spin_marginal(aug, args.cap)
    pi = potts_distribution(model, args.cap)
    tv = 0.5 * float(np.sum(np.abs(marginal - pi)))
    checks.append(({"type": "coupling_check", "total_variation": tv}, tv))
    if factors:
        lhs = rc_expectation(aug, factors, args.cap)
        rhs = potts_expectation(model, factors, args.cap)
        diff = abs(lhs - rhs)
        checks.append(({"type": "tower_check", "rc_mean": [lhs.real, lhs.imag],
                        "potts_mean": [rhs.real, rhs.imag], "difference": diff}, diff))
    failed = sum(_emit_check({**line, "tolerance": 1e-10}, value, 1e-10)
                 for line, value in checks)
    if args.omega is not None:
        _emit({"type": "rc_probability", "omega": args.omega, "probability": probability})
    return _summary(failed)


def _cmd_fclass(args) -> dict:
    _check_nonnegative("--tol", args.tol)
    spec = _function_spec(args.f)
    if spec is None:
        f = make_family(args.f.strip(), 2 if args.q is None else args.q)
    elif args.q is None:
        f = spin_function_from_spec(spec)
    else:
        raise ModelError("--q cannot be combined with a --f spec, "
                         "which gives its own q")
    report = check_Fq_i(f, args.i, args.M, args.tol)
    _emit(
        {
            "type": "membership",
            "q": f.q,
            "i": args.i,
            "M": report.M_checked,
            "tolerance": report.tolerance,
            "in_Fq": report.in_Fq,
            "in_Fq_i": report.in_Fq_i,
            "first_violation": list(report.first_violation)
            if report.first_violation
            else None,
            "condition1_margin": report.condition1_margin,
            "verdict": "pass" if report.passed else "fail",
        }
    )
    return _summary(0 if report.passed else 1)


def _cmd_verify(args) -> dict:
    model = PottsModel.from_json_file(args.model)
    f = _parse_function(args.f, model.q)
    R = _parse_region(args.R)
    reports = []
    if args.claim == "real":
        reports.append(verify.verify_real_nonneg(model, f, R, cap=args.cap))
    elif args.claim == "monotone":
        coords = []
        if args.edge:
            edge = _parse_region(args.edge)
            if len(edge) != 2:
                raise ModelError(f"--edge needs two vertices as u,v, got {args.edge!r}")
            coords.append(edge)
        if args.vertex:
            coords.append(args.vertex)
        if not coords:  # default: every coordinate
            coords = list(model.edges) + list(model.vertices)
        for coord in coords:
            reports.append(verify.verify_monotone(model, f, R, coord, cap=args.cap))
    elif args.claim == "gks":
        S = _parse_region(args.S)
        reports.append(verify.verify_gks_pair(model, f, R, S, cap=args.cap))
    elif args.claim == "disjoint":
        if not args.f1:
            raise ModelError("verify disjoint needs --f1 for the second function")
        f1 = _parse_function(args.f1, model.q)
        S = _parse_region(args.S)
        reports.append(verify.verify_disjoint_support(model, f, f1, R, S, cap=args.cap))
    for report in reports:
        _emit(verify.report_to_json_dict(report))
    return _summary(sum(not r.verdict for r in reports), checks=len(reports))


def _cmd_mc(args) -> dict:
    model = PottsModel.from_json_file(args.model)
    factors = _build_factors(args, model)
    est = mc.estimate_pooled(
        model,
        factors,
        sweeps=args.sweeps,
        burn_in=args.burn_in,
        seed=args.seed,
        chains=args.chains,
        rao_blackwell=args.rao,
    )
    _emit(est.to_json_dict())
    return _summary()


def _cmd_fuzz(args) -> dict:
    if args.n_max < 1:
        raise ModelError(f"--n-max must be at least 1, got {args.n_max}")
    for flag, value in (("--J-max", args.J_max), ("--h-max", args.h_max)):
        _check_nonnegative(flag, value)
    if not 0.0 <= args.density <= 1.0:
        raise ModelError(f"--density must lie in [0, 1], got {args.density}")
    if args.trials < 0:
        raise ModelError(f"--trials must be at least 0, got {args.trials}")
    q_values = (2, 3, 4, 5)
    if args.q is not None:
        try:
            q_values = tuple(int(q) for q in _parse_region(args.q))
        except ValueError:
            q_values = ()
        if not q_values or min(q_values) < 2:
            raise ModelError(f"--q must list integers of at least 2, got {args.q!r}")
    config = verify.FuzzConfig(
        trials=args.trials,
        seed=args.seed,
        q_values=q_values,
        n_range=(1, args.n_max),
        edge_density=args.density,
        J_range=(0.0, args.J_max),
        h_range=(0.0, args.h_max),
        cap=args.cap,
    )
    result = verify.fuzz(config)
    for report in result.failures:
        _emit(verify.report_to_json_dict(report))
    return result.summary_dict()


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


_SHARED_FLAGS = {
    "--f1": dict(help="second function (products, disjoint pairs)"),
    "--S": dict(help="comma-separated vertex list"),
    "--cap": dict(type=int, default=DEFAULT_STATE_CAP, help="table-size cap, in entries"),
}


# what each verify claim reads of _SHARED_FLAGS besides --cap
_CLAIMS = {"real": (), "monotone": (), "gks": ("--S",), "disjoint": ("--f1", "--S")}


def _add_common(p: argparse.ArgumentParser, *shared: str, f_required=False) -> None:
    """--model --f --R --csv, plus the named flags of _SHARED_FLAGS."""
    p.add_argument("--model", required=True, help="model JSON path")
    p.add_argument("--f", required=f_required, help="family name, JSON spec, or path")
    p.add_argument("--R", help="comma-separated vertex list")
    for flag in shared:
        p.add_argument(flag, **_SHARED_FLAGS[flag])
    p.add_argument("--csv", action="store_true", help="summary as CSV")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: argparse looks up stdout and
    stderr when it prints, so redirected output still reaches the caller."""
    parser = argparse.ArgumentParser(
        prog="potts-gks",
        description="Exact and Monte Carlo checks of Potts correlation "
        "inequalities via the ghost random-cluster representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="exact expectations by variable elimination")
    _add_common(p, "--f1", "--S", "--cap")
    p.add_argument("--dump-model", action="store_true")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("rc", help="random-cluster probabilities and coupling")
    _add_common(p, "--cap")
    p.add_argument("--omega", help="bond configuration as a 01 string over E+")
    p.set_defaults(func=_cmd_rc)

    p = sub.add_parser("fclass", help="membership report for a function")
    p.add_argument("--f", required=True, help="family name, JSON spec, or path")
    p.add_argument("--q", type=int, default=None, help="a family name's q (default 2)")
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--M", type=int, default=DEFAULT_M)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_fclass)

    p = sub.add_parser("verify", help="check a correlation inequality")
    claims = p.add_subparsers(dest="claim", required=True)
    for claim, shared in _CLAIMS.items():
        c = claims.add_parser(claim)
        _add_common(c, *shared, "--cap", f_required=True)
        if claim == "monotone":
            c.add_argument("--edge", help="edge coordinate, as u,v")
            c.add_argument("--vertex", help="vertex coordinate")
        c.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mc", help="cluster Monte Carlo estimate")
    _add_common(p, "--f1", "--S")
    p.add_argument("--sweeps", type=int, required=True)
    p.add_argument("--burn-in", type=int, default=None, dest="burn_in")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--rao", action="store_true", help="variance-reduced mode")
    p.add_argument("--chains", type=int, default=1, help="independent chains")
    p.set_defaults(func=_cmd_mc)

    p = sub.add_parser("fuzz", help="randomized search for violations")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--q", help="comma-separated q values (default 2,3,4,5)")
    p.add_argument("--n-max", type=int, default=5, dest="n_max")
    p.add_argument("--density", type=float, default=0.5)
    p.add_argument("--J-max", type=float, default=3.0, dest="J_max")
    p.add_argument("--h-max", type=float, default=3.0, dest="h_max")
    p.add_argument("--cap", type=int, default=DEFAULT_STATE_CAP)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "cap", 1) < 1:  # exact, rc, verify and fuzz take --cap
            raise ModelError(f"--cap must be at least 1, got {args.cap}")
        summary = args.func(args)
        if args.csv:
            keys = sorted(summary)
            print(",".join(keys))
            print(",".join(str(summary[k]) for k in keys))
        else:
            _emit(summary)
    except (ModelError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if summary["violations"] else 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
