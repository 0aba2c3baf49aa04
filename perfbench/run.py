"""mmqlab benchmark: four workloads through the real CLI entry point.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src``. Each measured call runs in a fresh single-threaded
process (BLAS pinned to one thread, ``workers: 1``), one after another: a
closed loop with one client. Calls repeat while another fits in ``--seconds``,
at least three of them, and every metric is the median over them. Set-up is
also measured in five extra set-up-only processes.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates an
untraced and a traced call and reports the per-layer metrics of the traced
one plus ``trace.overhead_frac``. Every output is checked (pinned sha256 at
seed 0, invariants at other seeds) and the last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``. Exit code:
0 correct, 1 a check failed, 2 the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUPS = 5
MIN_CALLS = 3  # untraced calls per run, so a median can drop one slow call
DEADLINE_S = 170.0
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed check)."""


def spawn(workload: str, seed: int, mode: str, workdir: Path, deadline: float) -> dict:
    """Run one child process to completion and return its JSON report."""
    workdir.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in ("MMQ_WORKERS", "PYTHONPATH")}
    env.update(PINNED_ENV)
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--dir", str(workdir), "--t0", repr(time.monotonic()),
    ]
    try:
        proc = subprocess.run(
            cmd, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process for {workload} ran past the {DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} process for {workload} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads((workdir / "child.json").read_text(encoding="utf-8"))


def measure(name: str, seed: int, seconds: float, trace: bool, spawn) -> tuple[dict, dict]:
    """One benchmark run, each process started by spawn; returns (result line, results file payload)."""
    workload = workloads.WORKLOADS[name]
    run_dir = WORK / f"{name}-s{seed}-t{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    deadline = time.monotonic() + DEADLINE_S

    setups = [spawn(name, seed, "setup", run_dir / f"setup{i}", deadline)["setup_s"] for i in range(SETUPS)]
    calls = {"run": [], "trace": []}
    errors, digests = [], set()
    attempted = failed = 0
    started, longest = time.monotonic(), 0.0
    while True:
        rep_start = time.monotonic()
        for mode in ("run", "trace") if trace else ("run",):
            child = spawn(name, seed, mode, run_dir / f"rep{len(calls['run'])}-{mode}", deadline)
            out = Path(child["output"])
            verdict = workloads.verify(workload, seed, out)
            if child["rc"] != 0:
                verdict.errors.append(f"{name}: CLI exited {child['rc']}")
            attempted += verdict.attempted
            failed += verdict.failed
            errors += verdict.errors
            if out.is_file():
                digests.add(workloads.sha256_file(out))
            child["work"] = verdict.work
            calls[mode].append(child)
        longest = max(longest, time.monotonic() - rep_start)
        enough = len(calls["run"]) >= (1 if trace else MIN_CALLS)
        if enough and time.monotonic() - started + longest > seconds:
            break
    if len(digests) > 1:
        errors.append(f"{name}: output bytes differ between calls: {sorted(digests)}")
    errors = list(dict.fromkeys(errors))

    runs = calls["run"]
    if trace:
        traced = calls["trace"]
        metrics = {
            key: statistics.median(c["layers"][key] for c in traced) for key in traced[0]["layers"]
        }
        metrics["trace.overhead_frac"] = (
            statistics.median(c["wall_s"] for c in traced) / statistics.median(c["wall_s"] for c in runs) - 1.0
        )
        units = {n: u for n, u, _ in spans.metric_specs()}
    else:
        metrics = {
            "wall_s": statistics.median(c["wall_s"] for c in runs),
            "setup_s": statistics.median(setups + [c["setup_s"] for c in runs]),
            "work_per_s": statistics.median(c["work"] / c["wall_s"] for c in runs),
            "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in runs),
        }
        units = {"wall_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
    line = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    payload = {
        "workload": name,
        "path": str(run_dir / "results.json"),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": runs[0]["environment"],
        "output_sha256": sorted(digests),
        "pinned_sha256": workload.digest if seed == workloads.DEFAULT_SEED else None,
        "errors": errors,
        "setup_s": setups + [c["setup_s"] for c in runs],
        "calls": {mode: [{k: v for k, v in c.items() if k != "environment"} for c in cs] for mode, cs in calls.items()},
        "missing_spans": calls["trace"][0]["missing"] if trace else [],
        "result": line,
    }
    (run_dir / "results.json").write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    return line, payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "mmqlab" / "cli.py").is_file():
        print(f"error: no mmqlab sources at {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    try:
        line, payload = measure(args.workload, args.seed, args.seconds, bool(args.trace), spawn=spawn)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    env = payload["environment"]
    print(f"workload {args.workload} seed {args.seed}: {len(payload['calls']['run'])} calls, "
          f"output sha256 {' '.join(payload['output_sha256'])}")
    print(f"machine {env['machine']}, nproc {env['nproc']}, python {env['python']}, numpy {env['numpy']}, "
          f"blas {env['blas'].get('config', env['blas']['build'])} threads {env['blas'].get('threads')}")
    for error in payload["errors"]:
        print(f"CHECK FAILED: {error}")
    print(f"results file {payload['path']}")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
