#!/usr/bin/env python3
"""Convergence of the cluster sampler against exact enumeration.

Runs the 3x3 periodic grid (q=3, J=0.5, h=0.2) at a ladder of sweep
counts and reports estimate, error bar, and the true error, raw vs
Rao-Blackwellized, with the wall time of each estimate and that time per
sweep (the sampler kernel's cost, the estimate's own setup included; a
short untimed run first takes the one-off costs of the first call).

    python scripts/mc_vs_exact.py --seed 7
"""

import argparse
import sys
import time

from potts_gks import estimate_pooled, make_family, potts_expectation
from potts_gks.instances import torus_grid


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--q", type=int, default=3)
    ap.add_argument("--J", type=float, default=0.5)
    ap.add_argument("--h", type=float, default=0.2)
    ap.add_argument(
        "--sweeps", type=int, nargs="+", default=[1000, 10_000, 100_000]
    )
    args = ap.parse_args()

    model = torus_grid(3, 3, q=args.q, J=args.J, h=args.h)
    f = make_family("A", args.q)
    factors = [(f, ("s00", "s01"))]
    exact = potts_expectation(model, factors).real
    for rao in (False, True):
        estimate_pooled(model, factors, sweeps=100, seed=args.seed, rao_blackwell=rao)
    print(f"# exact <f^R> = {exact:.12f}  (variable elimination)")
    print(f"{'sweeps':>8} {'mode':>4} {'estimate':>14} {'stderr':>10} "
          f"{'true err':>10} {'ess':>10} {'secs':>6} {'us/sweep':>8}")
    for sweeps in args.sweeps:
        for rao in (False, True):
            t0 = time.perf_counter()
            est = estimate_pooled(
                model, factors, sweeps=sweeps, seed=args.seed, rao_blackwell=rao
            )
            dt = time.perf_counter() - t0
            print(
                f"{sweeps:>8} {'rb' if rao else 'raw':>4} "
                f"{est.mean.real:>14.8f} {est.std_error:>10.2e} "
                f"{abs(est.mean.real - exact):>10.2e} "
                f"{est.effective_samples:>10.0f} {dt:>6.2f} {dt / sweeps * 1e6:>8.2f}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
