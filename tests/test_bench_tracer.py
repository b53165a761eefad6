"""The benchmark's span tracer still finds every function it wraps, and its
closed-form call counts still hold.

``perfbench/spans.py`` patches bbcq functions by module attribute. A rename
under ``src/``, or a change in how often a candidate or block forward runs,
would otherwise only surface in a traced benchmark run.
"""

from __future__ import annotations

import importlib.util
from collections import Counter
from pathlib import Path

import pytest

from bbcq import cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_targets_resolve():
    spans = _load_spans()
    targets = spans.traced_targets(spans.Tracer())
    wrapped = [(module, attr, replacement)
               for module, attr, replacement in targets
               if attr != "ThreadPoolExecutor"]
    assert wrapped
    for module, attr, replacement in wrapped:
        assert replacement.__wrapped__ is getattr(module, attr), \
            f"{module.__name__}.{attr}"


#: Calibrate flag sets: the default, the ``eval-heavy`` workload's dynamic
#: twin softmax, and the layerwise baseline. The default keeps bare ids.
FLAG_SETS = [("", []),
             ("dynamic-twin", ["--dynamic-softmax", "--softmax-quant", "twin"]),
             ("layerwise", ["--blocks-as-layers"])]


@pytest.mark.parametrize("flags, threads", [
    pytest.param(flags, threads, id="-".join(filter(None, (name, threads))))
    for name, flags in FLAG_SETS for threads in ("1", "2")])
def test_traced_pipeline_meets_closed_forms(tmp_path, monkeypatch, flags,
                                            threads):
    """gen -> calibrate -> eval under the tracer: call counts obey the
    formulas the benchmark checks (a refactor that changes how often
    candidates or block forwards run fails here, not only in the bench).
    A dynamic result runs the per-row softmax kernel once per block in eval
    and the static softmax kernel nowhere."""
    spans = _load_spans()
    monkeypatch.setenv("BBCQ_THREADS", threads)
    data, out = str(tmp_path / "data"), str(tmp_path / "out")
    commands = {
        "gen": ["gen", "--blocks", "1", "--embed-dim", "16", "--heads", "2",
                "--patches", "4", "--classes", "4", "--calib-size", "8",
                "--eval-size", "8", "--out", data],
        "calibrate": ["calibrate", "--model", f"{data}/model.bbcv",
                      "--calib", f"{data}/calib.bbcv", "--out", out,
                      "--wbits", "4", "--abits", "4", "--candidates", "3",
                      "--rounds", "2", *flags],
        "eval": ["eval", "--model", f"{data}/model.bbcv",
                 "--eval", f"{data}/eval.bbcv",
                 "--result", f"{out}/calib_result.json", "--out", out],
    }
    tracer = spans.Tracer()
    tracer.install(spans.traced_targets(tracer))
    try:
        for phase, argv in commands.items():
            tracer.run = phase
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert spans.closed_form_problems(tracer.spans, blocks=1, candidates=3,
                                      rounds=2) == []
    if "--dynamic-softmax" in flags:
        calls = Counter((span[6], span[1]) for span in tracer.spans)
        # One per block and result: 1 x 1.
        assert calls[("eval", "quantizers.fake_quant_softmax_dynamic")] == 1
        assert calls[("calibrate", "quantizers.fake_quant_softmax")] == 0
        assert calls[("eval", "quantizers.fake_quant_softmax")] == 0
