"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They run every workload in smoke mode (1 block, dim 16), so they take
seconds per workload, not minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402
from spans import Tracer, closed_form_problems  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


def bench(*args: str, script: Path = HERE / "run.py") -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(script), *args], capture_output=True,
                          text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert sorted(run.WORKLOADS) == sorted(NAMES)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_is_printed_with_its_unit(workload, trace, section):
    out = bench("--workload", workload, "--smoke", "--seconds", "1",
                "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCH[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def _smoke_calibration(tmp_path: Path) -> run.Plan:
    plan = run.Plan(run.WORKLOADS["blockwise"], 0, tmp_path, smoke=True)
    env = run.command_env(plan.workload)
    deadline = time.monotonic() + 120
    for argv in (plan.gen, plan.calibrate):
        assert run.run_command(argv, env, tmp_path / "log", deadline).code == 0
    return plan


def test_gate_fires_on_tampered_calib_result(tmp_path):
    plan = _smoke_calibration(tmp_path)
    good = plan.result.read_text(encoding="utf-8")
    recorded = {"calib_result.json sha256": run.sha256(plan.result)}
    assert run.check_calib(plan, run.Gate(recorded)) == []

    # A changed metric value keeps the structure valid; only the digest catches it.
    payload = json.loads(good)
    site = next(s for s in payload["sites"] if s["searched"])
    site["trace"][0][0] *= 1.0 + 1e-12
    plan.result.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n",
                           encoding="utf-8")
    assert run.check_calib(plan, run.Gate(recorded))

    # A chosen index that is not the argmin fails the structural check.
    payload = json.loads(good)
    site = next(s for s in payload["sites"] if s["searched"])
    site["chosen_index"] = (site["chosen_index"] + 1) % len(site["trace"][-1])
    plan.result.write_text(json.dumps(payload), encoding="utf-8")
    assert any("argmin" in p for p in run.check_calib(plan, run.Gate(None)))


def test_gate_compares_repeats_when_no_digest_is_recorded():
    gate = run.Gate(None)
    assert gate.check("digest", "a") == []
    assert gate.check("digest", "a") == []
    assert gate.check("digest", "b")


def _spans(blocks=1, candidates=2, rounds=1, forwards=3):
    """Synthetic spans of a correctly wired tracer."""
    spans, ids = [], iter(range(1, 10**6))

    def add(name, run_id, parent=None):
        span_id = next(ids)
        spans.append([span_id, name, 0, 1, parent, 1, run_id, 0])
        return span_id

    for _ in range(blocks * rounds * 11):
        site = add("calibration.search_site", "calibrate")
        for _ in range(candidates + 1):
            add("model.block_forward", "calibrate",
                add("calibration.candidate", "calibrate", site))
    for _ in range(blocks):
        add("model.block_forward", "calibrate")
    for _ in range(forwards):
        for _ in range(blocks):
            add("model.block_forward", "eval", add("model.forward", "eval"))
    return spans


def test_closed_form_check_catches_a_miswired_tracer():
    assert closed_form_problems(_spans(), 1, 2, 1) == []
    missing = [s for s in _spans() if s[0] != 2]  # drop one candidate span
    assert closed_form_problems(missing, 1, 2, 1)
    orphaned = _spans()
    orphaned[1][4] = None
    assert any("search_site" in p for p in closed_form_problems(orphaned, 1, 2, 1))
    assert closed_form_problems(_spans(forwards=2), 1, 2, 1)


def test_fails_without_printing_a_result_when_sources_are_missing(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("--workload", "blockwise", "--seed", "0", "--seconds", "1",
                "--trace", "0", script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert '"correct"' not in out.stdout


def test_pool_worker_spans_nest_under_the_submitting_span():
    tracer = Tracer()
    inner = tracer.wrap("inner", lambda x: x)
    outer = tracer.wrap("outer", lambda pool: list(pool.map(inner, range(8))))
    with tracer.executor()(max_workers=2) as pool:
        assert outer(pool) == list(range(8))
    (outer_span,) = [s for s in tracer.spans if s[1] == "outer"]
    inners = [s for s in tracer.spans if s[1] == "inner"]
    assert len(inners) == 8
    assert all(s[4] == outer_span[0] for s in inners)
