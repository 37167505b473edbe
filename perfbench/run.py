"""Seeded benchmark of the polyreg pipeline.

    python3 perfbench/run.py --workload default_vocab --seed 0 --seconds 25 --trace 0

runs one workload in this process and prints its metrics, the result of
every correctness check and, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 1``
gives the per-layer metrics instead of the end-to-end ones.  Without
``--workload`` every workload runs, one after another, each in a fresh
process.  The exit code is nonzero if any check fails.

The package is imported from the ``src`` directory next to this one, never
from an installed copy.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import subprocess
import sys
from pathlib import Path

# One BLAS thread, set before numpy is first imported: a second thread buys
# no measurable speed on these matrix sizes and changes output bytes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

# Fixed glibc malloc thresholds, set before numpy allocates anything.  By
# default glibc starts with a 128 KiB mmap threshold, raises it after large
# frees (up to 32 MiB) and trims the heap above twice that, so whether a
# large temporary array costs fresh page faults depends on the process's
# history: evaluate on default_vocab ran at about 8,500 or 10,500
# instances/s depending on the process.  Pinned at the values the default
# settles at, every run allocates alike.
M_TRIM_THRESHOLD, M_MMAP_THRESHOLD = -1, -3  # from glibc's malloc.h
MMAP_THRESHOLD = 32 << 20
try:
    _libc = ctypes.CDLL(None)
    if _libc.mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1 and _libc.mallopt(M_TRIM_THRESHOLD, 2 * MMAP_THRESHOLD) == 1:
        os.environ["PERFBENCH_MMAP_THRESHOLD"] = str(MMAP_THRESHOLD)
except (OSError, AttributeError):  # not glibc: the thresholds stay as they are
    pass

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("default_vocab", "small_vocab", "wide_ablation")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_all(args) -> int:
    """Each workload in its own process; prints a summary, exit 1 on any failure."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        cmd = [
            sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        lines = done.stdout.strip().splitlines() or [""]
        try:
            summary[name] = json.loads(lines[-1])
        except ValueError:
            summary[name] = None
        if done.returncode != 0 or summary[name] is None:
            status = 1
    print(json.dumps({"workloads": summary, "ok": status == 0}))
    return status


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "polyreg" / "__init__.py").is_file():
        print(f"error: no polyreg sources at {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload is None:
        return _run_all(args)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import bench

    return bench.main_workload(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)


if __name__ == "__main__":
    sys.exit(main())
