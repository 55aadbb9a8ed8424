"""Command-line front end.

Reports stream as JSON lines on stdout, one object per check, with a
summary object last (--csv renders just the summary as CSV). Exit codes:
0 all checks passed, 1 at least one violation, 2 malformed input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from math import fsum

import numpy as np

from . import mc, verify
from .function_classes import (
    check_Fq_i,
    make_family,
    spin_function_from_spec,
)
from .model import (
    ModelError,
    PottsModel,
    SpinFunction,
    potts_distribution,
    potts_expectation,
)
from .random_cluster import (
    _check_bond_config,
    augment,
    coupled_spin_marginal,
    rc_distribution,
    rc_expectation,
)


def _emit(obj: dict) -> None:
    # strict JSON: a NaN or inf raises ValueError, reported by run() as exit 2
    print(json.dumps(obj, sort_keys=True, allow_nan=False))


def _emit_summary(summary: dict, csv: bool) -> None:
    if csv:
        keys = sorted(summary)
        print(",".join(keys))
        print(",".join(str(summary[k]) for k in keys))
    else:
        _emit(summary)


def _parse_region(raw: str | None) -> tuple[str, ...]:
    if not raw:
        return ()
    return tuple(part for part in (p.strip() for p in raw.split(",")) if part)


def _parse_function(spec: str, q: int) -> SpinFunction:
    s = spec.strip()
    if s.startswith("{"):
        return spin_function_from_spec(json.loads(s))
    if os.path.exists(s):
        with open(s) as fh:
            return spin_function_from_spec(json.load(fh))
    return make_family(s, q)


def _load_model(path: str) -> PottsModel:
    return PottsModel.from_json_file(path)


def _build_factors(args, model: PottsModel):
    factors = []
    f = _parse_function(args.f, model.q) if args.f else None
    R = _parse_region(getattr(args, "R", None))
    S = _parse_region(getattr(args, "S", None))
    if f is not None:
        factors.append((f, R))
        if S or getattr(args, "f1", None):
            f1 = (
                _parse_function(args.f1, model.q)
                if getattr(args, "f1", None)
                else f
            )
            factors.append((f1, S))
    return factors, f, R, S


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_exact(args) -> int:
    model = _load_model(args.model)
    if args.dump_model:
        _emit({"type": "model", "model": model.to_json_dict()})
    factors, f, R, S = _build_factors(args, model)
    if factors:
        value = potts_expectation(model, factors, args.cap)
        _emit(
            {
                "type": "expectation",
                "regions": [list(r) for _, r in factors],
                "value": [value.real, value.imag],
            }
        )
    _emit_summary({"type": "summary", "status": "ok", "violations": 0}, args.csv)
    return 0


def _cmd_rc(args) -> int:
    model = _load_model(args.model)
    aug = augment(model)
    failed = 0
    dist = rc_distribution(aug, args.cap)
    residual = abs(fsum(dist.tolist()) - 1.0)
    _emit(
        {
            "type": "rc_normalization",
            "configs": int(dist.shape[0]),
            "residual": residual,
            "verdict": "pass" if residual <= 1e-12 else "fail",
        }
    )
    failed += residual > 1e-12
    marginal = coupled_spin_marginal(aug, args.cap)
    pi = potts_distribution(model, args.cap)
    tv = 0.5 * float(np.sum(np.abs(marginal - pi)))
    _emit(
        {
            "type": "coupling_check",
            "total_variation": tv,
            "tolerance": 1e-10,
            "verdict": "pass" if tv <= 1e-10 else "fail",
        }
    )
    failed += tv > 1e-10
    if args.f:
        f = _parse_function(args.f, model.q)
        R = _parse_region(args.R)
        lhs = rc_expectation(aug, [(f, R)], args.cap)
        rhs = potts_expectation(model, [(f, R)], args.cap)
        diff = abs(lhs - rhs)
        _emit(
            {
                "type": "tower_check",
                "rc_mean": [lhs.real, lhs.imag],
                "potts_mean": [rhs.real, rhs.imag],
                "difference": diff,
                "tolerance": 1e-10,
                "verdict": "pass" if diff <= 1e-10 else "fail",
            }
        )
        failed += diff > 1e-10
    if args.omega:
        bits = _check_bond_config(aug, [int(c) for c in args.omega])
        code = sum(bit << i for i, bit in enumerate(bits))
        _emit(
            {
                "type": "rc_probability",
                "omega": args.omega,
                "probability": float(dist[code]),
            }
        )
    _emit_summary(
        {"type": "summary", "status": "ok", "violations": int(failed)}, args.csv
    )
    return 1 if failed else 0


def _cmd_fclass(args) -> int:
    if args.f:
        f = _parse_function(args.f, args.q or 2)
    else:
        values = json.loads(args.values) if args.values else None
        spec = {"kind": args.kind, "q": args.q, "values": values}
        f = spin_function_from_spec(spec)
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
    _emit_summary(
        {
            "type": "summary",
            "status": "ok",
            "violations": 0 if report.passed else 1,
        },
        args.csv,
    )
    return 0 if report.passed else 1


def _cmd_verify(args) -> int:
    model = _load_model(args.model)
    f = _parse_function(args.f, model.q)
    R = _parse_region(args.R)
    S = _parse_region(args.S)
    kw = {"tol": args.tol, "cap": args.cap}
    if args.M:
        kw["M"] = args.M
    reports = []
    if args.claim == "real":
        reports.append(verify.verify_real_nonneg(model, f, R, **kw))
    elif args.claim == "monotone":
        coords = []
        if args.edge:
            u, v = _parse_region(args.edge)
            coords.append((u, v))
        if args.vertex:
            coords.append(args.vertex)
        if not coords:  # default: every coordinate
            coords = list(model.edges) + list(model.vertices)
        for coord in coords:
            reports.append(verify.verify_monotone(model, f, R, coord, **kw))
    elif args.claim == "gks":
        reports.append(verify.verify_gks_pair(model, f, R, S, **kw))
    elif args.claim == "disjoint":
        if not args.f1:
            raise ModelError("verify disjoint needs --f1 for the second function")
        f1 = _parse_function(args.f1, model.q)
        reports.append(verify.verify_disjoint_support(model, f, f1, R, S, **kw))
    failures = 0
    for report in reports:
        _emit(verify.report_to_json_dict(report))
        failures += not report.verdict
    _emit_summary(
        {
            "type": "summary",
            "status": "ok",
            "checks": len(reports),
            "violations": failures,
        },
        args.csv,
    )
    return 1 if failures else 0


def _cmd_mc(args) -> int:
    model = _load_model(args.model)
    factors, f, R, S = _build_factors(args, model)
    est = mc.estimate_pooled(
        model,
        factors,
        sweeps=args.sweeps,
        burn_in=args.burn_in,
        seed=args.seed,
        chains=max(1, args.chains),
        rao_blackwell=args.rao,
    )
    _emit(est.to_json_dict())
    _emit_summary({"type": "summary", "status": "ok", "violations": 0}, args.csv)
    return 0


def _cmd_fuzz(args) -> int:
    config = verify.FuzzConfig(
        trials=args.trials,
        seed=args.seed,
        q_values=tuple(int(q) for q in _parse_region(args.q)) or (2, 3, 4, 5),
        n_range=(1, args.n_max),
        edge_density=args.density,
        J_range=(0.0, args.J_max),
        h_range=(0.0, args.h_max),
        tol=args.tol,
        cap=args.cap,
    )
    result = verify.fuzz(config)
    for report in result.failures:
        _emit(verify.report_to_json_dict(report))
    _emit_summary(result.summary_dict(), args.csv)
    return 1 if result.failures else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, model_required: bool = True) -> None:
    p.add_argument("--model", required=model_required, help="model JSON path")
    p.add_argument("--f", help="function: family name, JSON spec, or path")
    p.add_argument("--f1", help="second function (products, disjoint pairs)")
    p.add_argument("--R", help="comma-separated vertex list")
    p.add_argument("--S", help="comma-separated vertex list")
    p.add_argument("--tol", type=float, default=verify.DEFAULT_VERIFY_TOL)
    p.add_argument("--M", type=int, default=0, help="membership exponent bound")
    p.add_argument("--cap", type=int, default=None, help="enumeration cap")
    p.add_argument("--csv", action="store_true", help="summary as CSV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="potts-gks",
        description="Exact and Monte Carlo checks of Potts correlation "
        "inequalities via the ghost random-cluster representation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("exact", help="expectations by exhaustive enumeration")
    _add_common(p)
    p.add_argument("--dump-model", action="store_true")
    p.set_defaults(func=_cmd_exact)

    p = sub.add_parser("rc", help="random-cluster probabilities and coupling")
    _add_common(p)
    p.add_argument("--omega", help="bond configuration as a 01 string over E+")
    p.set_defaults(func=_cmd_rc)

    p = sub.add_parser("fclass", help="membership report for a function")
    p.add_argument("--kind", default="table", help="A | B | C | table")
    p.add_argument("--q", type=int, default=2)
    p.add_argument("--values", help="JSON value list (for C and table)")
    p.add_argument("--f", help="full function spec or path (overrides --kind)")
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--M", type=int, default=16)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_fclass)

    p = sub.add_parser("verify", help="check a correlation inequality")
    p.add_argument("claim", choices=["real", "monotone", "gks", "disjoint"])
    _add_common(p)
    p.add_argument("--edge", help="edge coordinate for monotone, as u,v")
    p.add_argument("--vertex", help="vertex coordinate for monotone")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("mc", help="cluster Monte Carlo estimate")
    _add_common(p)
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
    p.add_argument("--tol", type=float, default=verify.DEFAULT_VERIFY_TOL)
    p.add_argument("--cap", type=int, default=None)
    p.add_argument("--csv", action="store_true")
    p.set_defaults(func=_cmd_fuzz)

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ModelError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
