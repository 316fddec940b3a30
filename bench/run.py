"""Benchmark entry point.

    python3 bench/run.py --workload {metrics-corpus,venue-horizons,cli-session} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  The shared corpus files are made
first, in a child process, and each workload is then measured in a fresh
child process (`measure.py`), so neither input generation nor this launcher
shows in the measured time or memory.  The last line of standard output is
the JSON result of `measure.py`.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the idtree benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "idtree" / "__init__.py").is_file():
        print(f"no idtree sources under {ROOT / 'src'}; run from a source checkout", file=sys.stderr)
        return 2
    prepared = subprocess.run([sys.executable, str(BENCH / "inputs.py"), "--prepare"], cwd=ROOT)
    if prepared.returncode != 0:
        return prepared.returncode
    measured = subprocess.run(
        [sys.executable, str(BENCH / "measure.py"), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT,
    )
    return measured.returncode


if __name__ == "__main__":
    sys.exit(main())
