"""Tests for the benchmark's own code: span arithmetic, wrapping and output checks.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import hashlib
import json
import sys
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_direct_children_and_tracer_cost():
    clock = FakeClock()
    rec = spans.Recorder(clock=clock)
    # the counter stands in for tracer bookkeeping that takes time after a span ends
    counters = {"n": lambda a, k, r: clock.advance(0.25) or 1}

    def inner():
        clock.advance(3.0)

    def outer():
        clock.advance(1.0)
        rec.span("inner", inner, counters=counters)
        clock.advance(2.0)
        rec.span("inner", inner, counters=counters)
        clock.advance(0.5)

    rec.span("outer", outer)
    totals = spans.layer_totals(rec.spans)
    assert totals["outer"]["busy_s"] == pytest.approx(10.0)  # 1 + 3 + .25 + 2 + 3 + .25 + .5
    assert totals["outer"]["self_s"] == pytest.approx(3.5)
    assert totals["inner"] == {"calls": 2, "busy_s": 6.0, "self_s": 6.0, "n": 2}


def test_self_time_of_three_levels_counts_only_direct_children():
    tree = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None, "attrs": {}},
        {"name": "b", "start": 1.0, "end": 7.0, "parent": 0, "attrs": {}},
        {"name": "c", "start": 2.0, "end": 6.0, "parent": 1, "attrs": {}},
        {"name": "c", "start": 8.0, "end": 9.0, "parent": 0, "attrs": {}},
    ]
    totals = spans.layer_totals(tree)
    assert totals["a"]["self_s"] == pytest.approx(3.0)
    assert totals["b"]["self_s"] == pytest.approx(2.0)
    assert totals["c"] == {"calls": 2, "busy_s": 5.0, "self_s": 5.0}
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_install_wraps_the_callers_binding_and_uninstall_restores(monkeypatch):
    lib = types.ModuleType("fake_lib")
    exec("def f(x):\n    return x + 1\n", lib.__dict__)
    caller = types.ModuleType("fake_caller")
    caller.f = lib.f
    exec("def g(x):\n    return f(x) * 2\nclass Model:\n    def predict(self, x):\n        return x\n", caller.__dict__)
    monkeypatch.setitem(sys.modules, "fake_lib", lib)
    monkeypatch.setitem(sys.modules, "fake_caller", caller)
    original = caller.f

    rec = spans.Recorder()
    rec.install({
        "lib.f": [("fake_caller", "f"), ("fake_caller", "gone")],
        "caller.predict": [("fake_caller", "Model.predict")],
    })
    assert caller.g(1) == 4
    assert caller.Model().predict(5) == 5
    assert [s["name"] for s in rec.spans] == ["lib.f", "caller.predict"]
    assert rec.missing == ["fake_caller.gone"]
    rec.uninstall()
    assert caller.f is original and lib.f is original
    caller.g(1)
    assert len(rec.spans) == 2


def test_repeat_fraction_counts_calls_seen_before():
    def span(fp):
        return {"name": "pipeline.encode_vision", "start": 0.0, "end": 1.0, "parent": None,
                "attrs": {"fingerprint": fp}}

    assert spans.repeat_fractions([span("a"), span("a"), span("b"), span("a")]) == {
        "pipeline.encode_vision": 0.5
    }


def test_tokens_per_generated_uses_only_decodes_inside_generation():
    tree = [
        {"name": "pipeline.greedy_generate", "start": 0, "end": 1, "parent": None, "attrs": {"tokens_out": 4}},
        {"name": "pipeline.decode_hidden", "start": 0, "end": 1, "parent": 0, "attrs": {"tokens": 10}},
        {"name": "pipeline.decode_hidden", "start": 0, "end": 1, "parent": 0, "attrs": {"tokens": 12}},
        {"name": "pipeline.decode_hidden", "start": 0, "end": 1, "parent": None, "attrs": {"tokens": 99}},
    ]
    assert spans.tokens_per_generated(tree) == pytest.approx(22 / 4)


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.metric_specs()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {"wall_s", "setup_s", "work_per_s", "peak_rss_mb"}


def test_seed_offsets_pipeline_and_probe_seeds(tmp_path):
    argv, out = workloads.prepare(workloads.WORKLOADS["gen-grid"], 3, tmp_path)
    config = json.loads((tmp_path / "config.json").read_text())
    assert (config["pipeline"]["seed"], config["grid"]["seeds"], config["probes"]["seed"]) == (10, [10], 14)
    assert argv[:1] == ["grid"] and argv[-1] == str(out)
    argv, _ = workloads.prepare(workloads.WORKLOADS["analyze"], 3, tmp_path)
    assert argv[argv.index("--seed") + 1] == "3"


# --- output checks ----------------------------------------------------------

ROWS = [
    "aaaaaaaaaaaa,gptq,vqa,16,16,16,front+middle+end,attn+ff,128,16,1,8,0",
    "bbbbbbbbbbbb,gptq,vqa,4,16,16,front+middle+end,attn+ff,128,12.1,0.75,8,0",
]


def _toy(tmp_path, rows=ROWS):
    out = tmp_path / "results.csv"
    out.write_text("\n".join([workloads.CSV_HEADER, *rows]) + "\n")
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    return workloads.Workload("toy", "grid", "gptq", ("vqa",), 2, digest), out


def test_pinned_digest_is_checked_at_the_default_seed(tmp_path):
    toy, out = _toy(tmp_path, [r.replace(",8,0", ",7,0") for r in ROWS])
    assert workloads.verify(toy, 0, out).errors == []
    out.write_text(out.read_text().replace("0.75", "0.76"))
    errors = workloads.verify(toy, 0, out).errors
    assert len(errors) == 1 and "sha256" in errors[0]


def test_invariants_are_checked_at_other_seeds(tmp_path):
    toy, out = _toy(tmp_path)
    assert workloads.verify(toy, 1, out).errors == []
    _, bad = _toy(tmp_path, [ROWS[0], ROWS[1].replace("0.75", "nan")])
    verdict = workloads.verify(toy, 1, bad)
    assert (verdict.attempted, verdict.failed) == (2, 1) and verdict.errors
    _, short = _toy(tmp_path, ROWS[1:])
    assert any("baseline" in e for e in workloads.verify(toy, 1, short).errors)


def test_a_wrong_digest_fails_the_run(tmp_path, monkeypatch):
    toy, _ = _toy(tmp_path, [r.replace(",8,0", ",7,0") for r in ROWS])
    toy = workloads.Workload(toy.name, toy.command, toy.method, toy.tasks, toy.rows, "0" * 64)
    monkeypatch.setitem(workloads.WORKLOADS, "toy", toy)
    monkeypatch.setattr(run, "WORK", tmp_path / "work")

    def fake_spawn(workload, seed, mode, workdir, deadline):
        workdir.mkdir(parents=True)
        out = workdir / "results.csv"
        out.write_text("\n".join([workloads.CSV_HEADER, *[r.replace(",8,0", ",7,0") for r in ROWS]]) + "\n")
        return {"setup_s": 0.1, "output": str(out), "rc": 0, "wall_s": 1.0, "peak_rss_mb": 50.0,
                "environment": {"machine": "m", "nproc": 1, "python": "3", "numpy": "2", "blas": {"build": "b"}}}

    monkeypatch.setattr(run, "spawn", fake_spawn)
    assert run.main(["--workload", "toy", "--seconds", "0.001"]) == 1
    line = json.loads(Path(tmp_path / "work" / "toy-s0-t0" / "results.json").read_text())["result"]
    assert line["correct"] is False and line["attempted"] >= 2 and line["failed"] == 0


def test_layer_metrics_report_every_spec_and_coverage():
    tree = [
        {"name": spans.ROOT, "start": 0.0, "end": 10.0, "parent": None, "attrs": {}},
        {"name": "experiments.grid", "start": 0.5, "end": 10.0, "parent": 0, "attrs": {"rows": 3}},
    ]
    metrics = spans.layer_metrics(tree)
    assert set(metrics) == {n for n, _, _ in spans.metric_specs()} - {"trace.overhead_frac"}
    assert metrics["trace.coverage"] == pytest.approx(0.95)
    assert metrics["experiments.grid.rows"] == 3 and metrics["importance.predict.calls"] == 0
