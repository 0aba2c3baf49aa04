"""Outside-in span recorder for the traced benchmark run.

The package modules import each other with ``from .x import y``, so a call
from ``pipeline`` to ``quantizers.gptq_quantize`` goes through the name bound
in ``mmqlab.pipeline``. The recorder therefore wraps each public function in
the namespace of every module that calls it, from the benchmark's own files,
without touching the package. Spans (name, start, end, parent) stay in memory
and are written out when the run ends; per-layer metrics are computed from
them afterwards.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time
import weakref

import numpy as np

# Span name -> (module, attribute) bindings to wrap. A dotted attribute names a
# method on a class. Names missing from the package are skipped and reported.
SPANS = {
    "experiments.grid": [("mmqlab.cli", "run_uniform_grid"), ("mmqlab.cli", "run_sota_grid")],
    "experiments.load_results": [("mmqlab.cli", "load_results")],
    "experiments.save_results": [("mmqlab.cli", "save_results")],
    "experiments.compute_bpw": [("mmqlab.experiments", "compute_bpw")],
    "pipeline.build_model": [("mmqlab.experiments", "build_model")],
    "pipeline.collect_calibration": [("mmqlab.experiments", "collect_calibration")],
    "pipeline.apply_quantization": [("mmqlab.experiments", "apply_quantization")],
    "pipeline.image_embeddings": [
        ("mmqlab.experiments", "image_embeddings"), ("mmqlab.tasks", "image_embeddings"),
    ],
    "pipeline.text_embeddings": [
        ("mmqlab.experiments", "text_embeddings"), ("mmqlab.tasks", "text_embeddings"),
    ],
    "pipeline.generate_tokens": [("mmqlab.tasks", "generate_tokens")],
    "pipeline.encode_vision": [("mmqlab.pipeline", "encode_vision")],
    "pipeline.run_connector": [("mmqlab.pipeline", "run_connector")],
    "pipeline.greedy_generate": [("mmqlab.pipeline", "greedy_generate")],
    "pipeline.decode_hidden": [("mmqlab.pipeline", "decode_hidden")],
    "quantizers.uniform_quantize": [("mmqlab.pipeline", "uniform_quantize")],
    "quantizers.gptq_quantize": [("mmqlab.pipeline", "gptq_quantize")],
    "quantizers.awq_quantize": [("mmqlab.pipeline", "awq_quantize")],
    "quantizers.dequantize": [("mmqlab.pipeline", "dequantize"), ("mmqlab.quantizers", "dequantize")],
    "quantizers.proxy_loss": [("mmqlab.pipeline", "proxy_loss"), ("mmqlab.quantizers", "proxy_loss")],
    "numerics.factor": [("mmqlab.quantizers", "_invert_spd64"), ("mmqlab.quantizers", "_cholesky64")],
    "tasks.make_probe_set": [("mmqlab.cli", "make_probe_set")],
    "tasks.score_task": [("mmqlab.experiments", "score_task")],
    "tasks.retrieval_agreement": [
        ("mmqlab.experiments", "retrieval_agreement"), ("mmqlab.tasks", "retrieval_agreement"),
    ],
    "importance.fit_random_forest": [
        ("mmqlab.cli", "fit_random_forest"), ("mmqlab.importance", "fit_random_forest"),
    ],
    "importance.bootstrap_importance_ci": [("mmqlab.cli", "bootstrap_importance_ci")],
    "importance.permutation_importance": [("mmqlab.cli", "permutation_importance")],
    "importance.shapley_importance": [("mmqlab.cli", "shapley_importance")],
    "importance.predict": [("mmqlab.importance", "ForestModel.predict")],
}
ROOT = "cli.main"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _nbytes(obj, depth: int = 3) -> int:
    """Bytes of every numpy array reachable from obj through fields and containers."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if depth == 0:
        return 0
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__"):
        items = vars(obj).values()
    else:
        return 0
    return sum(_nbytes(v, depth - 1) for v in items)


# Per-span counters: span name -> {kind: f(args, kwargs, result)}.
COUNTERS = {
    "experiments.grid": {
        "rows": lambda a, k, r: len(r.rows),
        "rows_failed": lambda a, k, r: len(r.failures),
    },
    "pipeline.decode_hidden": {
        "tokens": lambda a, k, r: r.shape[0] * r.shape[1],
    },
    "pipeline.greedy_generate": {"tokens_out": lambda a, k, r: r.size},
    "pipeline.collect_calibration": {"bytes": lambda a, k, r: _nbytes(r)},
    "pipeline.apply_quantization": {"layers": lambda a, k, r: len(r[1].entries)},
    # x @ (w - w_hat)^T: 2 * samples * out * in
    "quantizers.proxy_loss": {"flops": lambda a, k, r: 2 * len(_arg(a, k, 2, "x")) * np.size(_arg(a, k, 0, "w"))},
    "importance.fit_random_forest": {"trees": lambda a, k, r: len(r.trees)},
    "importance.predict": {"rows": lambda a, k, r: len(_arg(a, k, 1, "x"))},
}

# Spans also totalled per label (calls and busy time), with every label value.
LABELS = {
    "tasks.score_task": (lambda a, k: _arg(a, k, 3, "task").value, ("retrieval", "caption", "vqa")),
}

# Spans whose repeat_frac is measured, with the component whose weights the
# call reads; the call's other positional arguments are its inputs.
REPEATS = {
    "pipeline.encode_vision": "vision",
    "pipeline.run_connector": "connector",
    "pipeline.greedy_generate": "language",
}


class Fingerprints:
    """Content hashes of arrays, computed once per live array object."""

    def __init__(self):
        self._by_id: dict[int, bytes] = {}

    def array(self, a) -> bytes:
        if not isinstance(a, np.ndarray):
            return repr(a).encode()
        key = id(a)
        digest = self._by_id.get(key)
        if digest is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(f"{a.dtype}{a.shape}".encode())
            h.update(np.ascontiguousarray(a).data)
            digest = h.digest()
            self._by_id[key] = digest
            weakref.finalize(a, self._by_id.pop, key, None)
        return digest

    def call(self, component: str, weights, inputs) -> bytes:
        h = hashlib.blake2b(digest_size=16)
        prefix = component + "."
        for table in (weights.layers, weights.extras):
            for name in sorted(n for n in table if n.startswith(prefix)):
                h.update(name.encode())
                h.update(self.array(table[name]))
        for value in inputs:
            h.update(self.array(value))
        return h.digest()


class Recorder:
    """Records nested spans. ``clock`` is injectable so tests can drive time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._fingerprints = Fingerprints()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def span(self, name, fn, args=(), kwargs=None, counters=None, repeat=None, label=None):
        """Run fn inside a span; returns fn's result."""
        kwargs = kwargs or {}
        t_pre = self.clock()
        fp = None
        if repeat is not None:
            fp = self._fingerprints.call(repeat, args[0], args[1:])
        record = {"name": name, "start": self.clock(), "end": None,
                  "parent": self._stack[-1] if self._stack else None, "attrs": {}}
        if label is not None:
            record["label"] = label(args, kwargs)
        record["tracer_s"] = record["start"] - t_pre
        index = len(self.spans)
        self.spans.append(record)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            record["end"] = self.clock()
        t_post = record["end"]
        if fp is not None:
            record["attrs"]["fingerprint"] = fp.hex()
        for kind, count in (counters or {}).items():
            record["attrs"][kind] = int(count(args, kwargs, result))
        record["tracer_s"] += self.clock() - t_post
        return result

    def _wrapper(self, name, fn):
        counters, repeat = COUNTERS.get(name), REPEATS.get(name)
        label = LABELS.get(name, (None,))[0]

        def wrapped(*args, **kwargs):
            return self.span(name, fn, args, kwargs, counters, repeat, label)

        wrapped.__wrapped__ = fn
        wrapped.__name__ = getattr(fn, "__name__", name)
        return wrapped

    def install(self, spans=None):
        """Wrap every binding in ``spans`` (default SPANS); names not found are skipped."""
        for name, bindings in (SPANS if spans is None else spans).items():
            for module_name, attr in bindings:
                owner = sys.modules.get(module_name)
                *path, leaf = attr.split(".")
                for part in path:
                    owner = getattr(owner, part, None)
                if owner is None or not callable(getattr(owner, leaf, None)):
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                original = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
                setattr(owner, leaf, self._wrapper(name, original))
                self._restore.append((owner, leaf, original))

    def uninstall(self):
        for owner, leaf, original in reversed(self._restore):
            setattr(owner, leaf, original)
        self._restore.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, **s}, sort_keys=True) + "\n")


def layer_totals(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s, self_s and summed counters.

    Self time is a span's duration minus the durations of its direct children
    and the tracer's own bookkeeping around them, so the self times of a call
    tree add up to the root's duration less the tracer cost.
    """
    child_s = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] += (s["end"] - s["start"]) + s.get("tracer_s", 0.0)
    totals: dict[str, dict[str, float]] = {}
    for i, s in enumerate(spans):
        duration = s["end"] - s["start"]
        if "label" in s:
            t = totals.setdefault(f"{s['name']}.{s['label']}", {"calls": 0, "busy_s": 0.0})
            t["calls"] += 1
            t["busy_s"] += duration
        t = totals.setdefault(s["name"], {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        t["calls"] += 1
        t["busy_s"] += duration
        t["self_s"] += duration - child_s[i]
        for kind, value in s["attrs"].items():
            if kind != "fingerprint":
                t[kind] = t.get(kind, 0) + value
    return totals


def repeat_fractions(spans: list[dict]) -> dict[str, float]:
    """Share of a span's calls whose weights-and-inputs fingerprint was seen before."""
    seen: dict[str, set] = {}
    repeats: dict[str, list[int]] = {}
    for s in spans:
        fp = s["attrs"].get("fingerprint")
        if fp is None:
            continue
        names = seen.setdefault(s["name"], set())
        counts = repeats.setdefault(s["name"], [0, 0])
        counts[0] += fp in names
        counts[1] += 1
        names.add(fp)
    return {name: hit / total for name, (hit, total) in repeats.items()}


def tokens_per_generated(spans: list[dict]) -> float:
    """Decoder positions processed inside greedy decoding per generated token."""
    decoded = sum(
        s["attrs"].get("tokens", 0) for s in spans
        if s["name"] == "pipeline.decode_hidden" and s["parent"] is not None
        and spans[s["parent"]]["name"] == "pipeline.greedy_generate"
    )
    generated = sum(s["attrs"].get("tokens_out", 0) for s in spans if s["name"] == "pipeline.greedy_generate")
    return decoded / generated if generated else 0.0



_COUNTER_UNITS = {"bytes": "B", "flops": "flop"}
_HIGHER = {"rows", "tokens_out"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{ROOT}.busy_s", "s", "lower"), (f"{ROOT}.self_s", "s", "lower")]
    for name in SPANS:
        specs += [(f"{name}.calls", "count", "lower"), (f"{name}.busy_s", "s", "lower"),
                  (f"{name}.self_s", "s", "lower")]
        for kind in COUNTERS.get(name, {}):
            better = "higher" if kind in _HIGHER else "lower"
            specs.append((f"{name}.{kind}", _COUNTER_UNITS.get(kind, "count"), better))
        if name in REPEATS:
            specs.append((f"{name}.repeat_frac", "ratio", "lower"))
        for label in LABELS.get(name, (None, ()))[1]:
            specs += [(f"{name}.{label}.calls", "count", "lower"), (f"{name}.{label}.busy_s", "s", "lower")]
    specs += [
        ("pipeline.decode.tokens_per_generated", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_frac", "ratio", "lower"),
    ]
    return specs


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer metric of one traced call; spans never entered read 0.

    ``trace.overhead_frac`` needs the untraced calls too, so run.py adds it.
    """
    totals = layer_totals(spans)
    repeats = repeat_fractions(spans)
    root = totals.get(ROOT, {"busy_s": 0.0, "self_s": 0.0})
    derived = {
        "pipeline.decode.tokens_per_generated": tokens_per_generated(spans),
        "trace.coverage": 1.0 - root["self_s"] / root["busy_s"] if root["busy_s"] else 0.0,
    }
    out = {}
    for name, _, _ in metric_specs():
        span_name, _, kind = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif kind == "repeat_frac":
            out[name] = repeats.get(span_name, 0.0)
        elif name != "trace.overhead_frac":
            out[name] = totals.get(span_name, {}).get(kind, 0)
    return out
