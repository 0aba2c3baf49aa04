"""The benchmark's workloads: how each one is set up and how its output is checked.

Every workload is one ``mmqlab`` CLI call. Seed 0 is the repository's default
configuration (pipeline seed 7, probe seed 11, ``analyze --seed 0``); seed n
offsets all three by n. At seed 0 the output bytes are pinned by sha256; at
any other seed the output is checked against invariants that hold for every
seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
PIPELINE_SEED = 7
PROBE_SEED = 11

CSV_HEADER = (
    "run_id,method,task,vision_bits,connector_bits,language_bits,"
    "groups,layer_types,group_size,bpw,score,seed,wall_ms"
)
FIXTURE = HERE / "fixtures" / "gptq_vqa_343.csv"
FIXTURE_SHA256 = "c9191eaf77b63b49e5b3dfeb652069cc0641a3918c964b83a062b64702af1e44"
ANALYZE_BOOT = 1
REPORT_METHODS = ("impurity", "permutation", "shapley", "consensus")
FEATURES = ("vision", "connector", "language")


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "grid" or "analyze"
    method: str  # grid method, or the single method present in the analyze fixture
    tasks: tuple[str, ...]
    rows: int  # result rows of a grid, or fixture rows for analyze
    digest: str  # sha256 of the output at DEFAULT_SEED

    @property
    def config(self) -> Path:
        return HERE / "configs" / f"{self.name}.json"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gen-grid", "grid", "gptq", ("caption", "vqa"), 16,
            "62c95be6b247cec702c73383528e9231866ff534ccc2e0e737191494e1e7da8c",
        ),
        Workload(
            "quant-grid", "grid", "awq", ("retrieval",), 8,
            "f9a5ffc48bf6bb1059c8baa8ee6599938fe8efd6454a62145cbc5b58a9c3d929",
        ),
        Workload(
            "uniform-retrieval", "grid", "uniform", ("retrieval",), 148,
            "34fe5ef3e74ad264f33abb91754641775924bb8ef963d749f3fe784958c2870a",
        ),
        Workload(
            "analyze", "analyze", "gptq", ("vqa",), 343,
            "e9eb724d75579c83745a61cac56c32e53a34748aac4c26d3752784d64efa75e6",
        ),
    )
}


def sha256_file(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def prepare(workload: Workload, seed: int, workdir: Path) -> tuple[list[str], Path]:
    """Write the seeded inputs into workdir; return the CLI argv and its output path."""
    if workload.command == "analyze":
        if sha256_file(FIXTURE) != FIXTURE_SHA256:
            raise ValueError(f"fixture {FIXTURE} does not match its pinned sha256")
        out = workdir / "report.json"
        argv = [
            "analyze", str(FIXTURE), "--task", workload.tasks[0], "--out", str(out),
            "--seed", str(seed), "--boot", str(ANALYZE_BOOT),
        ]
        return argv, out
    config = json.loads(workload.config.read_text(encoding="utf-8"))
    config["pipeline"]["seed"] = PIPELINE_SEED + seed
    config["grid"]["seeds"] = [PIPELINE_SEED + seed]
    config["probes"]["seed"] = PROBE_SEED + seed
    config["output_dir"] = str(workdir)
    config_path = workdir / "config.json"
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    out = workdir / "results.csv"
    return ["grid", "--config", str(config_path), "--method", workload.method, "--out", str(out)], out


@dataclass
class Verdict:
    """Outcome of checking one output: operations attempted and failed, plus errors."""

    attempted: int
    failed: int
    work: int  # result rows for a grid, forests fitted for analyze
    errors: list[str]


def verify(workload: Workload, seed: int, out: Path) -> Verdict:
    """Check one output file: pinned digest at the default seed, invariants always."""
    if not out.is_file():
        return Verdict(1, 1, 0, [f"{workload.name}: no output written at {out}"])
    if workload.command == "analyze":
        verdict = _check_report(workload, out)
    else:
        verdict = _check_grid(workload, seed, out)
    if seed == DEFAULT_SEED:
        digest = sha256_file(out)
        if digest != workload.digest:
            verdict.errors.append(
                f"{workload.name}: output sha256 {digest} != pinned {workload.digest}"
            )
    return verdict


def _check_grid(workload: Workload, seed: int, out: Path) -> Verdict:
    text = out.read_text(encoding="utf-8")
    lines = text.splitlines()
    errors = []
    if not lines or lines[0] != CSV_HEADER:
        return Verdict(1, 0, 0, [f"{workload.name}: bad CSV header"])
    rows = list(csv.DictReader(lines))
    if len(rows) != workload.rows:
        errors.append(f"{workload.name}: {len(rows)} rows, expected {workload.rows}")
    if len({r["run_id"] for r in rows}) != len(rows):
        errors.append(f"{workload.name}: duplicate run_id")
    failed = 0
    for r in rows:
        score, bpw = float(r["score"]), float(r["bpw"])
        if math.isnan(score) or math.isnan(bpw):
            failed += 1
            continue
        if not 0.0 <= score <= 1.0:
            errors.append(f"{workload.name}: run {r['run_id']} score {score} outside [0, 1]")
        if r["method"] != workload.method or r["task"] not in workload.tasks:
            errors.append(f"{workload.name}: run {r['run_id']} has method/task {r['method']}/{r['task']}")
        if int(r["seed"]) != PIPELINE_SEED + seed or r["wall_ms"] != "0":
            errors.append(f"{workload.name}: run {r['run_id']} has seed {r['seed']}, wall_ms {r['wall_ms']}")
    for task in workload.tasks:
        baseline = [
            r for r in rows
            if r["task"] == task and r["vision_bits"] == r["connector_bits"] == r["language_bits"] == "16"
        ]
        if len(baseline) != 1 or float(baseline[0]["score"]) != 1.0 or float(baseline[0]["bpw"]) != 16.0:
            errors.append(f"{workload.name}: task {task} lacks one baseline row scoring 1.0 at 16 bpw")
    if failed:
        errors.append(f"{workload.name}: {failed} failed (NaN) rows")
    return Verdict(len(rows), failed, len(rows), errors)


def _check_report(workload: Workload, out: Path) -> Verdict:
    payload = json.loads(out.read_text(encoding="utf-8"))
    errors = []
    if payload.get("task") != workload.tasks[0] or set(payload.get("methods", {})) != {workload.method}:
        return Verdict(1, 0, 0, [f"{workload.name}: report covers the wrong task or methods"])
    body = payload["methods"][workload.method]
    if body.get("rows") != workload.rows:
        errors.append(f"{workload.name}: report has {body.get('rows')} rows, expected {workload.rows}")
    if not math.isfinite(body.get("linear_r2", math.nan)):
        errors.append(f"{workload.name}: linear_r2 is not finite")
    reports = body.get("reports", [])
    if [r.get("method") for r in reports] != list(REPORT_METHODS):
        errors.append(f"{workload.name}: reports {[r.get('method') for r in reports]}")
    failed = 0
    for report in reports:
        features = report.get("features", [])
        pct = [f.get("pct", math.nan) for f in features]
        if [f.get("name") for f in features] != list(FEATURES) or not all(map(math.isfinite, pct)):
            failed += 1
        elif not report.get("degenerate") and abs(sum(pct) - 100.0) > 1e-6:
            errors.append(f"{workload.name}: {report['method']} percentages sum to {sum(pct)}")
    if failed:
        errors.append(f"{workload.name}: {failed} failed method reports")
    forests = len(payload["methods"]) * (ANALYZE_BOOT + 2)
    return Verdict(len(REPORT_METHODS), failed, forests, errors)
