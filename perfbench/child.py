"""One measured process: set up a workload, optionally run it, report as JSON.

Started by run.py, never by hand:

    python3 perfbench/child.py --workload NAME --seed N --mode setup|run|trace \
        --dir WORKDIR --t0 MONOTONIC

Set-up time runs from ``--t0`` (the parent's clock just before spawning;
CLOCK_MONOTONIC is shared by all processes) to the moment the CLI call is
ready: interpreter start, importing numpy and mmqlab from the checkout's
``src``, and writing the seeded inputs. The result goes to WORKDIR/child.json.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def blas_info(np) -> dict:
    """BLAS build version, plus the runtime config and thread count of numpy's bundled OpenBLAS."""
    info = {"build": np.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")}
    for path in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")):
        lib = ctypes.CDLL(path)
        if hasattr(lib, "scipy_openblas_get_num_threads64_"):
            lib.scipy_openblas_get_num_threads64_.restype = ctypes.c_int
            lib.scipy_openblas_get_config64_.restype = ctypes.c_char_p
            info.update(
                threads=lib.scipy_openblas_get_num_threads64_(),
                config=lib.scipy_openblas_get_config64_().decode(),
            )
    return info


def environment(np) -> dict:
    return {
        "machine": platform.platform(),
        "arch": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(np),
        "env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(SRC))
    import numpy as np
    import mmqlab.cli

    if Path(mmqlab.cli.__file__).resolve().parent != SRC / "mmqlab":
        raise SystemExit(f"imported mmqlab from {mmqlab.cli.__file__}, not from {SRC}")
    import workloads

    workdir = Path(args.dir)
    argv, out = workloads.prepare(workloads.WORKLOADS[args.workload], args.seed, workdir)
    result = {"setup_s": time.monotonic() - args.t0, "output": str(out)}
    if args.mode != "setup":
        recorder = None
        if args.mode == "trace":
            import spans

            recorder = spans.Recorder()
            recorder.install()
        cpu_start, start = time.process_time(), time.perf_counter()
        if recorder is None:
            rc = mmqlab.cli.main(argv)
        else:
            rc = recorder.span(spans.ROOT, mmqlab.cli.main, (argv,))
        wall = time.perf_counter() - start
        result.update(
            rc=rc,
            wall_s=wall,
            cpu_s=time.process_time() - cpu_start,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            environment=environment(np),
        )
        if recorder is not None:
            recorder.uninstall()
            recorder.write(workdir / "spans.jsonl")
            result.update(layers=spans.layer_metrics(recorder.spans), missing=recorder.missing)
    (workdir / "child.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
