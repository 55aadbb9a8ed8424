"""Freeze the default seed's outputs into bench/reference.json.

    python3 bench/freeze.py

The gate compares every run at the default seed with these values, so
regenerate the file only when the library's outputs are meant to change,
and say so in the change that commits it. Ops that fail the gate (the
known defects) are not frozen.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from harness import DEFAULT_SEED  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

FROZEN_CYCLES = {"fuzz": 4, "lattice": 2, "coupling": 1, "mc": 3}


def main() -> None:
    workdir = BENCH_DIR.parent / ".bench_out" / "freeze"
    workdir.mkdir(parents=True, exist_ok=True)
    reference = {}
    try:
        for name, cycles in FROZEN_CYCLES.items():
            wl = WORKLOADS[name](DEFAULT_SEED, "full", workdir)
            frozen = {}
            for cycle in range(cycles):
                for op in wl.ops(cycle):
                    out = wl.call(op)
                    if not wl.check(op, out):
                        frozen[op.id] = wl.ref_values(op, out)
            reference[name] = frozen
            print(f"{name}: {len(frozen)} ops frozen")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(BENCH_DIR / "reference.json", "w") as fh:
        json.dump({"seed": DEFAULT_SEED, **reference}, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
