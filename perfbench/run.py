"""Launcher of the CPDG benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload pretrain-hubs --seed 1 \
        --seconds 20 --trace 0

Before anything imports numpy or the program, the launcher pins the
BLAS / OpenMP / MKL thread pools to one thread and fixes
``PYTHONHASHSEED``, re-executing the interpreter when the environment
does not already say so.  It then checks that the program's sources
are present (``src/repro``), points the imports and every temporary
file at the checkout, runs one workload and prints the result as the
last line of standard output.
"""

import os
import shutil
import sys

PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")


def main() -> int:
    if any(os.environ.get(key) != value for key, value in PINNED_ENV.items()):
        os.environ.update(PINNED_ENV)
        os.execv(sys.executable, [sys.executable, *sys.argv])
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: the program's sources are missing ({SRC}/repro); "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(WORK, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    os.environ["TMPDIR"] = workdir
    try:
        import bench
        return bench.main(sys.argv[1:], workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)  # only when no other run is using it
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
