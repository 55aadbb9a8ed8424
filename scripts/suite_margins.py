#!/usr/bin/env python3
"""Worst observed margins over the small-instance verification suite.

Runs every inequality check on the atlas + random suite and prints the
minimum margin per claim (all should be >= -1e-8, and in practice sit at
rounding level). Exits 1 when a worst margin is below -DEFAULT_VERIFY_TOL,
that is, when some report's verdict fails.

    python scripts/suite_margins.py
"""

import sys
from collections import defaultdict

import numpy as np

from potts_gks import (
    SpinFunction,
    make_family,
    verify_disjoint_support,
    verify_gks_pair,
    verify_monotone,
    verify_real_nonneg,
)
from potts_gks.instances import verification_suite
from potts_gks.verify import DEFAULT_VERIFY_TOL


def main() -> int:
    rng = np.random.default_rng(0)
    worst = defaultdict(lambda: float("inf"))
    counts = defaultdict(int)
    for model in verification_suite():
        q = model.q
        functions = [
            make_family("A", q),
            make_family("B", q),
            make_family("C", q, [1 - x / q for x in range(q)]),
        ]
        R = tuple(v for v in model.vertices if rng.random() < 0.5)
        S = tuple(v for v in model.vertices if rng.random() < 0.5)
        for f in functions:
            for rep in (
                verify_real_nonneg(model, f, R),
                verify_gks_pair(model, f, R, S),
            ):
                worst[rep.claim] = min(worst[rep.claim], rep.margin)
                counts[rep.claim] += 1
            for coord in list(model.edges) + list(model.vertices):
                rep = verify_monotone(model, f, R, coord)
                worst[rep.claim] = min(worst[rep.claim], rep.margin)
                counts[rep.claim] += 1
        f0 = SpinFunction(tuple(1.0 if x == 0 else 0.0 for x in range(q)))
        f1 = SpinFunction(tuple(1.0 if x == 1 else 0.0 for x in range(q)))
        rep = verify_disjoint_support(model, f0, f1, R, S)
        worst[rep.claim] = min(worst[rep.claim], rep.margin)
        counts[rep.claim] += 1
    print(f"{'claim':<18} {'checks':>7} {'worst margin':>14}")
    for claim in sorted(worst):
        print(f"{claim:<18} {counts[claim]:>7} {worst[claim]:>14.3e}")
    return 1 if min(worst.values()) < -DEFAULT_VERIFY_TOL else 0


if __name__ == "__main__":
    sys.exit(main())
