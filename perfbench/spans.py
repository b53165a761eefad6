"""Span tracer for the benchmark's traced run, and the per-layer metrics.

The traced run executes ``bbcq.cli.main(argv)`` in one process for gen,
calibrate and eval. Before each traced command the tracer replaces the public
functions each bbcq module calls, at the attribute that module resolves them
through (``bbcq.model.gelu``, ``bbcq.calibration.block_forward``,
``bbcq.cli.evaluate``, ...), with wrappers that record one span per call:
``(id, name, start_ns, end_ns, parent_id, thread, run, work)``. ``run`` names
the command; ``work`` is a count the wrapper computes from the call (matmul
flops, fake-quant elements, container bytes). Spans stay in memory and are
written out when the commands have finished. Nothing under ``src/`` is edited.

Every thread keeps its own parent stack. The calibration thread pool
(``BBCQ_THREADS`` > 1) is replaced by an executor that hands the submitting
thread's current span to the worker, so candidate spans on a pool worker
nest under their ``search_site`` span.

Run as a child of run.py::

    python3 perfbench/spans.py JOB.json
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

import numpy as np

#: Searched matmul operands per block: six weight/B sides plus five
#: activation sides (the post-softmax activation is never searched).
SEARCHED_SITES_PER_BLOCK = 11


class Tracer:
    """In-memory span recorder that patches module attributes."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.run: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list[int | None]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn, work=None):
        """``fn`` recording a span; ``name`` may be a function of the args."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                label = name(args) if callable(name) else name
                self.spans.append((span_id, label, start, end, parent,
                                   threading.get_ident(), self.run,
                                   work(args) if work else 0))
        return traced

    def adopt(self, parent, fn, *args, **kwargs):
        """Run ``fn`` on this thread with ``parent`` as its current span."""
        stack = self._stack()
        stack.append(parent)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()

    def executor(self) -> type[ThreadPoolExecutor]:
        """A ThreadPoolExecutor whose workers adopt the submitter's span."""
        tracer = self

        class TracedExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt, tracer.current(), fn,
                                      *args, **kwargs)

        return TracedExecutor

    def install(self, targets) -> None:
        for module, attr, replacement in targets:
            self._patched.append((module, attr, getattr(module, attr)))
            setattr(module, attr, replacement)

    def uninstall(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


def _matmul_flops(args) -> int:
    a, b = (np.shape(getattr(x, "data", x)) for x in args[:2])
    batch = np.broadcast_shapes(a[:-2], b[:-2])
    return 2 * math.prod(batch) * a[-2] * a[-1] * b[-1]


def _elements(args) -> int:
    return int(np.size(args[0]))


def _file_bytes(index: int):
    return lambda args: os.path.getsize(args[index])


def _fake_quant_name(args) -> str:
    # Only the post-softmax site carries a non-uniform scheme (mpq, log2,
    # twin); every other operand is uniform affine.
    if args[1].scheme == "uniform":
        return "quantizers.fake_quant"
    return "quantizers.fake_quant_softmax"


def traced_targets(tracer: Tracer) -> list[tuple]:
    """(module, attribute, wrapper) for every call the traced run records."""
    from bbcq import calibration, cli, metrics, model

    spec = [
        (cli, "generate_dataset", "data.generate_dataset", None),
        (cli, "save_model", "serialize.save_model", _file_bytes(1)),
        (cli, "save_dataset", "serialize.save_dataset", _file_bytes(2)),
        (cli, "load_model", "serialize.load_model", _file_bytes(0)),
        (cli, "load_dataset", "serialize.load_dataset", _file_bytes(0)),
        (cli, "calibrate", "calibration.calibrate", None),
        (cli, "evaluate", "metrics.evaluate", None),
        (calibration, "cache_fp_pass", "calibration.cache_fp_pass", None),
        (calibration, "search_site", "calibration.search_site", None),
        # One candidate: block_forward + bottom_mask + bbc_metric.
        (calibration, "_unit_metric", "calibration.candidate", None),
        (calibration, "bottom_mask", "calibration.bottom_mask", None),
        (calibration, "bbc_metric", "calibration.bbc_metric", None),
        (calibration, "block_forward", "model.block_forward", None),
        (calibration, "forward", "model.forward", None),
        (metrics, "forward", "model.forward", None),
        (model, "block_forward", "model.block_forward", None),
        (model, "gelu", "tensor.gelu", None),
        (model, "layernorm", "tensor.layernorm", None),
        (model, "softmax", "tensor.softmax", None),
        (model, "matmul", "tensor.matmul", _matmul_flops),
        (model, "add", "tensor.add", None),
        (model, "fake_quant_array", _fake_quant_name, _elements),
        (model, "fake_quant_softmax_dynamic",
         "quantizers.fake_quant_softmax_dynamic", _elements),
    ]
    targets = [(module, attr, tracer.wrap(name, getattr(module, attr), work))
               for module, attr, name, work in spec]
    targets.append((calibration, "ThreadPoolExecutor", tracer.executor()))
    return targets


def run_job(job: dict) -> dict:
    """Run gen, calibrate and eval traced, plus one untraced calibrate."""
    from bbcq import cli

    tracer = Tracer()
    walls = {}
    # The traced calibrate runs before the untraced one, so warm-up cost
    # lands on the traced side and the overhead estimate errs high.
    for phase in ("gen", "calibrate", "calibrate_untraced", "eval"):
        if phase != "calibrate_untraced":
            tracer.install(traced_targets(tracer))
        tracer.run = phase
        start = time.perf_counter()
        try:
            code = cli.main(job[phase])
        finally:
            walls[phase] = time.perf_counter() - start
            tracer.uninstall()
        if code != 0:
            raise SystemExit(f"bbcq {job[phase][0]} exited {code}")
    return {"walls": walls, "spans": tracer.spans}


# ---------------------------------------------------------------------------
# reduction (runs in the benchmark process)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _self_times(spans: list[list]) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for span in spans:
        if span[4] is not None:
            children[span[4]].append((span[2], span[3]))
    out = {}
    for span_id, _name, start, end, *_ in spans:
        covered, reach = 0, start
        for lo, hi in sorted(children.get(span_id, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[span_id] = end - start - covered
    return out


def layer_metrics(spans: list[list], walls: dict, workers: int) -> tuple[dict, dict]:
    """Per-layer metrics and a per-span-name detail table.

    Totals are summed over gen, calibrate and eval. Returns
    ``(metrics, details)``; ``metrics`` maps each name to ``(value, unit)``.
    """
    selfs = _self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def ms(name):
        return [(s[3] - s[2]) / 1e6 for s in by_name[name]]

    def total(*names):
        return sum(sum(ms(n)) for n in names)

    def calls(*names):
        return sum(len(by_name[n]) for n in names)

    def self_ms(name):
        return sum(selfs[s[0]] for s in by_name[name]) / 1e6

    def work(*names):
        return sum(s[7] for n in names for s in by_name[n])

    fake_quants = ("quantizers.fake_quant", "quantizers.fake_quant_softmax",
                   "quantizers.fake_quant_softmax_dynamic")
    softmax_quants = fake_quants[1:]
    site_wall = total("calibration.search_site")
    candidate_ms = ms("calibration.candidate")
    m = {
        "calibration.candidates": (len(candidate_ms), "count"),
        "calibration.candidate_ms_p50": (_percentile(candidate_ms, 0.5), "ms"),
        "calibration.candidate_ms_p99": (_percentile(candidate_ms, 0.99), "ms"),
        "calibration.cache_fp_pass_ms": (total("calibration.cache_fp_pass"), "ms"),
        "calibration.search_site_self_ms": (self_ms("calibration.search_site"), "ms"),
        "calibration.bottom_mask_ms": (total("calibration.bottom_mask"), "ms"),
        "calibration.bottom_mask_calls": (calls("calibration.bottom_mask"), "count"),
        "calibration.bbc_metric_ms": (total("calibration.bbc_metric"), "ms"),
        "calibration.pool_busy_frac": (
            sum(candidate_ms) / (site_wall * workers) if site_wall else 0.0,
            "fraction"),
        "model.block_forward_calls": (calls("model.block_forward"), "count"),
        "model.block_forward_ms_p50": (
            _percentile(ms("model.block_forward"), 0.5), "ms"),
        "model.block_forward_self_ms": (self_ms("model.block_forward"), "ms"),
        "model.forward_calls": (calls("model.forward"), "count"),
        "model.forward_ms": (total("model.forward"), "ms"),
    }
    for op in ("gelu", "layernorm", "softmax", "matmul", "add"):
        m[f"tensor.{op}_ms"] = (total(f"tensor.{op}"), "ms")
        m[f"tensor.{op}_calls"] = (calls(f"tensor.{op}"), "count")
    m["tensor.matmul_gflop"] = (work("tensor.matmul") / 1e9, "GFLOP")
    m.update({
        "quantizers.fake_quant_ms": (total(*fake_quants), "ms"),
        "quantizers.fake_quant_calls": (calls(*fake_quants), "count"),
        "quantizers.fake_quant_melems": (work(*fake_quants) / 1e6, "Melem"),
        "quantizers.fake_quant_softmax_ms": (total(*softmax_quants), "ms"),
        "metrics.evaluate_ms": (total("metrics.evaluate"), "ms"),
        "metrics.evaluate_calls": (calls("metrics.evaluate"), "count"),
        "serialize.save_dataset_ms": (total("serialize.save_dataset"), "ms"),
        "serialize.load_dataset_ms": (total("serialize.load_dataset"), "ms"),
        "serialize.load_model_ms": (total("serialize.load_model"), "ms"),
        "serialize.bytes_written": (
            work("serialize.save_model", "serialize.save_dataset"), "B"),
        "serialize.bytes_read": (
            work("serialize.load_model", "serialize.load_dataset"), "B"),
        "data.generate_dataset_ms": (total("data.generate_dataset"), "ms"),
        "trace_overhead_frac": (
            walls["calibrate"] / walls["calibrate_untraced"] - 1.0, "fraction"),
    })
    details = {}
    for name in sorted(by_name):
        durations = ms(name)
        details[name] = {"n": len(durations), "total_ms": sum(durations),
                         "self_ms": self_ms(name),
                         "p50_ms": _percentile(durations, 0.5),
                         "p99_ms": _percentile(durations, 0.99)}
    return m, details


def closed_form_problems(spans: list[list], blocks: int, candidates: int,
                         rounds: int, results: int = 1) -> list[str]:
    """Check the tracer's exact counts against the formulas they must obey.

    A mismatch means a wrapper is missing or mis-wired, not that bbcq is
    wrong.
    """
    counts = defaultdict(int)
    kinds = {}
    for span in spans:
        counts[(span[6], span[1])] += 1
        kinds[span[0]] = span[1]
    got = {
        "calibrate candidates": counts[("calibrate", "calibration.candidate")],
        "calibrate block forwards": counts[("calibrate", "model.block_forward")],
        "eval forwards": counts[("eval", "model.forward")],
        "eval block forwards": counts[("eval", "model.block_forward")],
    }
    searched = blocks * rounds * SEARCHED_SITES_PER_BLOCK * (candidates + 1)
    want = {
        "calibrate candidates": searched,
        "calibrate block forwards": got["calibrate candidates"] + blocks,
        "eval forwards": 1 + 2 * results,
        "eval block forwards": blocks * got["eval forwards"],
    }
    problems = [f"{key}: traced {got[key]}, closed form {want[key]}"
                for key in got if got[key] != want[key]]
    orphans = sum(1 for s in spans if s[1] == "calibration.candidate"
                  and kinds.get(s[4]) != "calibration.search_site")
    if orphans:
        problems.append(f"{orphans} candidate spans not nested under search_site")
    return problems


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    traced = run_job(job)
    with open(job["spans"], "w", encoding="utf-8") as fh:
        json.dump(traced, fh)
