"""Benchmark of the potts_gks library.

    python3 bench/run.py --workload {fuzz,lattice,coupling,mc} --seed N \
        --seconds S --trace {0,1}

Run it from the root of a checkout: the library is imported from ./src and
nowhere else, so a directory without the sources makes it exit with code 2
before measuring anything. Inputs come from --seed. Report lines go to
stdout; the last line is one JSON object with `correct`, `attempted`,
`failed` and `metrics` (the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1). Traces are written under .bench_out/.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("fuzz", "lattice", "coupling", "mc")
# one process, no threads: keep numerical libraries single-threaded as well
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="input sizes; tiny is for smoke tests")
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up (import, preparation, warm-up), print its "
                        "seconds, wall and scaled, and exit; setup_s is the median "
                        "of such runs")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "potts_gks" / "__init__.py").is_file():
        print(f"error: library sources not found under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    lib = importlib.import_module("potts_gks")
    import_s = time.perf_counter() - start
    if SRC.resolve() not in Path(lib.__file__).resolve().parents:
        print(f"error: potts_gks imported from {lib.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from harness import run_benchmark, setup_only

    if args.setup_only:
        print(*setup_only(args.workload, args.seed, args.size, import_s, ROOT / ".bench_out"))
        return 0
    lines, result = run_benchmark(args.workload, args.seed, args.seconds, args.trace,
                                  size=args.size, import_s=import_s,
                                  outdir=ROOT / ".bench_out")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
