"""Benchmark entry point.

    python3 bench/run.py --workload corpus-bounds --seed 1 --seconds 20 --trace 0

Runs from the root of a checkout.  Starts ``bench/child.py`` in fresh
processes: with ``--trace 0``, two set-up-only children and then the
measuring child (set-up time is the median of the three); with
``--trace 1``, one traced child.  Prints machine facts and sample counts
as one JSON line, then the result as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exits non-zero, without a result, when a child fails (for instance when
the checkout has no ``src/ultragw`` to import).
"""

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
WORKLOADS = ("corpus-bounds", "ugw-inf-sweep", "fw-restarts")
SETUP_PROBES = 2
CHILD_TIMEOUT_S = 170
# One BLAS thread per process.  With the library default (a thread per
# core) on two cores, BLAS threads compete with the matrix thread pool and
# with each other: a ugw call on 24 x 32 points took 0.69 s instead of
# 0.23 s, and its run-to-run spread grew with it.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


def run_child(args, workdir, extra=()):
    cmd = [sys.executable, CHILD, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", workdir] + list(extra)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          env=dict(os.environ, **BLAS_ENV),
                          timeout=CHILD_TIMEOUT_S, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("child exited with code %d" % proc.returncode)
    return json.loads(lines[-1])


def machine_facts():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": "%s %s" % (blas.get("name"), blas.get("version")),
            "blas_threads": int(BLAS_ENV["OPENBLAS_NUM_THREADS"])}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    base = os.path.join(ROOT, ".bench_work", "%s-%d" % (args.workload,
                                                         os.getpid()))
    try:
        setups = []
        if not args.trace:
            for k in range(SETUP_PROBES):
                rec = run_child(args, "%s-setup%d" % (base, k), ["--setup-only"])
                setups.append(rec["setup_s"])
        rec = run_child(args, base)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        sys.stderr.write("benchmark failed: %s\n" % exc)
        return 1
    finally:
        with contextlib.suppress(OSError):  # other runs may still use it
            os.rmdir(os.path.dirname(base))
    metrics = rec["metrics"]
    if not args.trace:
        setups.append(rec["setup_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"machine": machine_facts(), "cycles": rec["cycles"],
                      "timed_s": rec["timed_s"], "samples": rec["samples"],
                      "setup_samples": setups}, sort_keys=True))
    print(json.dumps({"correct": rec["failed"] == 0,
                      "attempted": rec["attempted"], "failed": rec["failed"],
                      "metrics": metrics}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
