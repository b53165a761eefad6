#!/usr/bin/env python3
"""Round-trip benchmark of the bbcq CLI: gen -> calibrate -> eval.

    python3 perfbench/run.py --workload blockwise --seed 0 --seconds 12 --trace 0

Run from anywhere; bbcq is imported from ``src/`` next to this directory.

``--trace 0`` runs every command as its own ``python3 -m bbcq.cli`` process,
as a user would, so interpreter start-up and imports count. ``gen`` runs 5
times; ``calibrate`` and ``eval`` each repeat until they have run for half
of ``--seconds`` (eval at least twice); the repeats are interleaved. Each
time metric is the median of its command's repeats; peak RSS comes from the
``os.wait4`` rusage of each process.

``--trace 1`` runs the same round trip in one process through
``bbcq.cli.main`` with spans recorded around each module's public
functions (see spans.py), and reports the per-layer metrics.

Every command's outputs are checked: the ``calib_result.json`` structure
(trace lengths, argmin of the final round), its sha256 and the eval metric
row. For a seed listed in expected.json they must equal the recorded
values; for any other seed every repeat in the run must produce the same
bytes. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
EXPECTED = HERE / "expected.json"

sys.path.insert(0, str(HERE))
from spans import (SEARCHED_SITES_PER_BLOCK, closed_form_problems,  # noqa: E402
                   layer_metrics)

#: The README walkthrough model; smoke mode shrinks it to one 16-dim block.
MODEL = {"blocks": 4, "embed-dim": 64, "heads": 4, "patches": 16,
         "classes": 10, "calib-size": 32}
SMOKE_MODEL = {**MODEL, "blocks": 1, "embed-dim": 16}
QUANT = ("--wbits", "4", "--abits", "4", "--gamma", "10")
SETUP_REPEATS = 5
MIN_REPEATS = {"calibrate": 1, "eval": 2}
#: Every run must finish well inside the 180 s a run may take.
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    threads: int
    eval_size: int
    softmax_quant: str = "mpq"
    dynamic_softmax: bool = False
    blocks_as_layers: bool = False
    candidates: int = 24
    rounds: int = 2

    def calibrate_flags(self) -> list[str]:
        flags = ["--softmax-quant", self.softmax_quant,
                 "--candidates", str(self.candidates), "--rounds", str(self.rounds)]
        if self.dynamic_softmax:
            flags.append("--dynamic-softmax")
        if self.blocks_as_layers:
            flags.append("--blocks-as-layers")
        return flags


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "blockwise": Workload(threads=1, eval_size=256),
    "layerwise": Workload(threads=1, eval_size=256, blocks_as_layers=True),
    "blockwise-2t": Workload(threads=2, eval_size=256),
    "eval-heavy": Workload(threads=1, eval_size=2048, softmax_quant="twin",
                           dynamic_softmax=True, candidates=2, rounds=1),
}

END_TO_END_UNITS = {"setup_s": "s", "calibrate_s": "s", "eval_s": "s",
                    "calibrate_rss_mb": "MB", "eval_rss_mb": "MB",
                    "fp_agreement": "fraction", "ok_ops": "fraction"}


class Plan:
    """The argv of each command of one round trip inside a work directory."""

    def __init__(self, workload: Workload, seed: int, work: Path, smoke: bool):
        self.workload = workload
        self.model = SMOKE_MODEL if smoke else MODEL
        self.data = work / "data"
        self.calib_out = work / "calib"
        self.eval_out = work / "eval"
        self.result = self.calib_out / "calib_result.json"
        self.gen = ["gen", *(f for k, v in self.model.items()
                             for f in (f"--{k}", str(v))),
                    "--eval-size", str(workload.eval_size), "--seed", str(seed),
                    "--out", str(self.data)]
        self.calibrate = ["calibrate", "--model", str(self.data / "model.bbcv"),
                          "--calib", str(self.data / "calib.bbcv"), *QUANT,
                          *workload.calibrate_flags(), "--out", str(self.calib_out)]
        self.eval = ["eval", "--model", str(self.data / "model.bbcv"),
                     "--eval", str(self.data / "eval.bbcv"),
                     "--result", str(self.result), "--out", str(self.eval_out)]

    @property
    def blocks(self) -> int:
        return self.model["blocks"]


def threads_for(workload: Workload) -> int:
    return min(workload.threads, len(os.sched_getaffinity(0)))


def command_env(workload: Workload) -> dict:
    env = dict(os.environ)
    env.update({"PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1",
                "OMP_NUM_THREADS": "1", "BBCQ_THREADS": str(threads_for(workload))})
    return env


@dataclass
class Command:
    code: int
    wall_s: float
    rss_mb: float
    log: str


def run_command(argv: list[str], env: dict, log: Path, deadline: float) -> Command:
    """Run ``python3 -m bbcq.cli argv``; wall time from spawn to exit."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "bbcq.cli", *argv],
                                env=env, cwd=ROOT, stdout=out,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux.
    return Command(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                   log.read_text(errors="replace"))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def calib_problems(path: Path, plan: Plan) -> list[str]:
    """Structural checks of a calib_result.json that hold for every seed."""
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return [f"calib_result.json unreadable: {exc}"]
    w = plan.workload
    config = payload.get("config", {})
    want = {"num_candidates": w.candidates, "rounds": w.rounds, "w_bits": 4,
            "a_bits": 4, "gamma": 10.0, "softmax_quantizer": w.softmax_quant,
            "blocks_as_layers": w.blocks_as_layers,
            "dynamic_softmax": w.dynamic_softmax}
    problems = [f"config {k}={config.get(k)!r}, want {v!r}"
                for k, v in want.items() if config.get(k) != v]
    searched = [s for s in payload.get("sites", []) if s.get("searched")]
    if len(searched) != plan.blocks * SEARCHED_SITES_PER_BLOCK:
        problems.append(f"{len(searched)} searched sites, want "
                        f"{plan.blocks * SEARCHED_SITES_PER_BLOCK}")
    for site in searched:
        trace = site.get("trace", [])
        if len(trace) != w.rounds or any(len(r) != w.candidates + 1 for r in trace):
            problems.append(f"{site['site_id']}: trace shape is wrong")
            continue
        final = trace[-1]
        if not all(math.isfinite(v) for v in final):
            problems.append(f"{site['site_id']}: non-finite metric")
        elif site.get("chosen_index") != final.index(min(final)):
            problems.append(f"{site['site_id']}: chosen_index is not the argmin")
    return problems


def eval_row(plan: Plan) -> tuple[dict | None, list[str]]:
    """The calibrated model's metric row from the eval report."""
    try:
        report = json.loads((plan.eval_out / "report.json").read_text(encoding="utf-8"))
        fp, row = report["metrics"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return None, [f"eval report unreadable: {exc}"]
    problems = []
    if fp.get("fp_agreement") != 1.0:
        problems.append("full-precision row does not agree with itself")
    picked = {k: row.get(k) for k in ("top1_accuracy", "fp_agreement", "mean_loss")}
    if not all(isinstance(v, float) and math.isfinite(v) for v in picked.values()):
        problems.append(f"eval row has bad values: {picked}")
    return picked, problems


class Gate:
    """Checks each output against the recorded or first-seen digest."""

    def __init__(self, expected: dict | None):
        self.reference = dict(expected) if expected else {}
        self.recorded = expected is not None
        self.seen: dict = {}

    def check(self, key: str, value) -> list[str]:
        self.seen[key] = value
        if key not in self.reference:
            self.reference[key] = value
            return []
        if self.reference[key] != value:
            source = "expected.json" if self.recorded else "the first repeat"
            return [f"{key} {value!r} differs from {source}: {self.reference[key]!r}"]
        return []


def load_expected(name: str, seed: int, smoke: bool) -> dict | None:
    if smoke:
        return None
    table = json.loads(EXPECTED.read_text(encoding="utf-8"))
    return table.get(name, {}).get(str(seed))


def check_gen(plan: Plan, gate: Gate) -> list[str]:
    return [p for name in ("model", "calib", "eval")
            for p in gate.check(f"{name}.bbcv sha256",
                                sha256(plan.data / f"{name}.bbcv"))]


def check_calib(plan: Plan, gate: Gate) -> list[str]:
    return calib_problems(plan.result, plan) or \
        gate.check("calib_result.json sha256", sha256(plan.result))


def check_eval(plan: Plan, gate: Gate) -> tuple[dict | None, list[str]]:
    row, problems = eval_row(plan)
    return row, problems or gate.check("eval row", row)


def interleave(counts: dict[str, int]) -> list[str]:
    """Each kind ``counts[kind]`` times, spread evenly over the sequence."""
    slots = [((i + 0.5) / n, kind) for kind, n in counts.items() for i in range(n)]
    return [kind for _, kind in sorted(slots)]


def run_untraced(plan: Plan, seconds: float, gate: Gate, env: dict,
                 deadline: float, log_dir: Path) -> tuple[dict, int, int]:
    """Timed round trips; returns (metrics, attempted, failed).

    After one gen, calibrate and eval, calibrate and eval each repeat until
    they have run for half of ``seconds`` and at least MIN_REPEATS times,
    and gen until it has run SETUP_REPEATS times. The repeats are
    interleaved rather than run back to back, because the machine's speed
    drifts.
    """
    walls = {"gen": [], "calibrate": [], "eval": []}
    rss = {"calibrate": [], "eval": []}
    rows = []
    attempted = failed = 0

    def evaluated() -> list[str]:
        row, problems = check_eval(plan, gate)
        rows.append(row)
        return problems

    commands = {"gen": (plan.gen, lambda: check_gen(plan, gate)),
                "calibrate": (plan.calibrate, lambda: check_calib(plan, gate)),
                "eval": (plan.eval, evaluated)}

    def attempt(kind: str) -> bool:
        nonlocal attempted, failed
        argv, check = commands[kind]
        attempted += 1
        cmd = run_command(argv, env, log_dir / f"{kind}.log", deadline)
        problems = [f"bbcq {kind} exited {cmd.code}: {cmd.log.strip()[-400:]}"] \
            if cmd.code != 0 else check()
        for problem in problems:
            print(f"FAIL {kind}: {problem}", file=sys.stderr)
        failed += bool(problems)
        walls[kind].append(cmd.wall_s)
        if kind in rss:
            rss[kind].append(cmd.rss_mb)
        return not problems

    ok = attempt("gen") and attempt("calibrate") and attempt("eval")
    if ok:
        repeats = {kind: max(MIN_REPEATS[kind],
                             math.ceil(seconds / 2 / walls[kind][0])) - 1
                   for kind in ("calibrate", "eval")}
        repeats["gen"] = SETUP_REPEATS - 1
        for kind in interleave(repeats):
            if time.monotonic() + max(walls[kind]) > deadline:
                break
            ok = attempt(kind)
            if not ok:
                break
    if not ok:
        return {}, attempted, failed
    metrics = {
        "setup_s": statistics.median(walls["gen"]),
        "calibrate_s": statistics.median(walls["calibrate"]),
        "eval_s": statistics.median(walls["eval"]),
        "calibrate_rss_mb": statistics.median(rss["calibrate"]),
        "eval_rss_mb": statistics.median(rss["eval"]),
        "fp_agreement": rows[-1]["fp_agreement"],
        "ok_ops": 1.0 - failed / attempted,
    }
    print(json.dumps({"samples": {k: {"n": len(v), "values": v}
                                  for k, v in walls.items()}}))
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, \
        attempted, failed


def run_traced(plan: Plan, gate: Gate, env: dict, deadline: float,
               work: Path) -> tuple[dict, int, int]:
    """One in-process traced round trip; returns (metrics, attempted, failed)."""
    job = {"gen": plan.gen, "calibrate": plan.calibrate, "eval": plan.eval,
           "calibrate_untraced": [*plan.calibrate[:-1], str(work / "calib-untraced")],
           "spans": str(work / "spans.json")}
    job_path = work / "job.json"
    job_path.write_text(json.dumps(job), encoding="utf-8")
    try:
        cmd = subprocess.run([sys.executable, str(HERE / "spans.py"), str(job_path)],
                             env=env, cwd=ROOT, capture_output=True, text=True,
                             timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        print("FAIL traced run timed out", file=sys.stderr)
        return {}, 1, 1
    if cmd.returncode != 0:
        print(f"FAIL traced run exited {cmd.returncode}: {cmd.stderr.strip()[-800:]}",
              file=sys.stderr)
        return {}, 1, 1
    traced = json.loads(Path(job["spans"]).read_text(encoding="utf-8"))
    spans, walls = traced["spans"], traced["walls"]
    problems = check_calib(plan, gate) + check_eval(plan, gate)[1]
    w = plan.workload
    problems += closed_form_problems(spans, plan.blocks, w.candidates, w.rounds)
    for problem in problems:
        print(f"FAIL traced: {problem}", file=sys.stderr)
    metrics, details = layer_metrics(spans, walls, threads_for(w))
    print(json.dumps({"spans": details}))
    print(json.dumps({"trace_overhead_frac": metrics["trace_overhead_frac"][0],
                      "calibrate_traced_s": walls["calibrate"],
                      "calibrate_untraced_s": walls["calibrate_untraced"]}))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, \
        1, int(bool(problems))


def environment(workload: Workload) -> dict:
    """Versions, cores, pinned thread settings and load at start."""
    import numpy as np

    rev = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or rev
        except (OSError, subprocess.SubprocessError):
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cores = sorted(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "openblas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(cores),
        "sched_getaffinity": cores,
        "cpu_count": os.cpu_count(),
        "thread_env": {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                       "BBCQ_THREADS": str(threads_for(workload))},
        "loadavg": list(load),
        "load_warning": load[0] >= len(cores),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="passed to bbcq gen --seed (default 0)")
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny model (1 block, dim 16) for a quick check")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not (SRC / "bbcq" / "cli.py").is_file():
        print(f"error: bbcq sources not found under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = command_env(workload)
    print(json.dumps({"env": environment(workload)}))
    # Compile bytecode and fill the page cache once, untimed: users pay
    # imports on every command but bytecode compilation only once.
    subprocess.run([sys.executable, "-c", "import bbcq.cli"], env=env,
                   cwd=ROOT, capture_output=True, timeout=60)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        plan = Plan(workload, args.seed, work, args.smoke)
        gate = Gate(load_expected(args.workload, args.seed, args.smoke))
        if args.trace:
            metrics, attempted, failed = run_traced(plan, gate, env, deadline, work)
        else:
            metrics, attempted, failed = run_untraced(plan, args.seconds, gate,
                                                      env, deadline, work)
        print(json.dumps({"digest": gate.seen.get("calib_result.json sha256"),
                          "eval_row": gate.seen.get("eval row"),
                          "seed": args.seed, "workload": args.workload}))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run is still using it
            pass
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
