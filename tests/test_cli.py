"""End-to-end command-line tests driven through ``main()``."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import time
import warnings

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bbcq import cli
from bbcq.cli import main, report_schema
from bbcq.data import generate_dataset
from bbcq.errors import ParameterError
from bbcq.serialize import MAGIC, load_dataset, load_model, save_dataset, save_model

from _result_edits import RESULT_EDITS

ERROR_LINE = re.compile(r"^error:[a-z-]+: .+$")

TINY_GEN = ["gen", "--blocks", "1", "--embed-dim", "16", "--heads", "2",
            "--patches", "4", "--classes", "4", "--calib-size", "8",
            "--eval-size", "16", "--seed", "5"]


def _gen(tmp_path, name="data", extra=()):
    out = tmp_path / name
    assert main(TINY_GEN + list(extra) + ["--out", str(out)]) == 0
    return out


def _calibrate(tmp_path, data, name="run", extra=()):
    out = tmp_path / name
    args = ["calibrate", "--model", str(data / "model.bbcv"),
            "--calib", str(data / "calib.bbcv"), "--out", str(out),
            "--wbits", "4", "--abits", "4", "--candidates", "6",
            "--rounds", "1"] + list(extra)
    assert main(args) == 0
    return out


def _with_nan(data, split):
    """Copy of a split with its first input value set to NaN in the
    container's payload bytes, since the writer refuses to save one."""
    blob = bytearray((data / f"{split}.bbcv").read_bytes())
    inputs_start = 16 + struct.unpack_from("<Q", blob, 8)[0]
    struct.pack_into("<d", blob, inputs_start, np.nan)
    path = data / f"{split}-nan.bbcv"
    path.write_bytes(bytes(blob))
    return path


def _report(path):
    return json.loads((path / "report.json").read_text())


def _without_clock(path):
    payload = _report(path)
    payload.pop("wall_clock_seconds")
    return payload


# ---------------------------------------------------------------------------
# gen


def test_gen_writes_model_and_splits(tmp_path, capsys):
    out = _gen(tmp_path)
    model = load_model(out / "model.bbcv")
    assert model.spec.num_blocks == 1 and model.spec.embed_dim == 16
    cx, cy, cmeta = load_dataset(out / "calib.bbcv")
    ex, ey, emeta = load_dataset(out / "eval.bbcv")
    assert cx.shape == (8, 4, 16) and ex.shape == (16, 4, 16)
    assert cy.dtype == np.int64 and set(np.unique(ey)) <= {0, 1, 2, 3}
    assert cmeta == {"split": "calib", "seed": 6, "num_classes": 4}
    assert emeta["split"] == "eval" and emeta["seed"] == 7
    assert "wrote" in capsys.readouterr().out


def test_gen_is_deterministic(tmp_path):
    a = _gen(tmp_path, "a")
    b = _gen(tmp_path, "b")
    for name in ("model.bbcv", "calib.bbcv", "eval.bbcv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_gen_splits_regenerate_from_their_meta_seed(tmp_path):
    """Without ``--seed`` the seed is 0, and each split's meta records the
    seed it was generated from."""
    out = tmp_path / "data"
    assert main(TINY_GEN[:-2] + ["--out", str(out)]) == 0
    for name, seed in (("calib", 1), ("eval", 2)):
        inputs, labels, meta = load_dataset(out / f"{name}.bbcv")
        assert meta["seed"] == seed
        want_inputs, want_labels = generate_dataset(len(inputs), 4, 16, 4, seed)
        np.testing.assert_array_equal(inputs, want_inputs)
        np.testing.assert_array_equal(labels, want_labels)


def test_gen_rejects_bad_spec_before_writing(tmp_path, capsys):
    out = tmp_path / "never"
    rc = main(["gen", "--blocks", "1", "--embed-dim", "65", "--heads", "4",
               "--out", str(out)])
    captured = capsys.readouterr()
    assert rc == 1
    err = captured.err.strip()
    assert "\n" not in err and ERROR_LINE.match(err)
    assert err.startswith("error:dimension: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# calibrate


def test_calibrate_outputs_and_report_config(tmp_path):
    data = _gen(tmp_path)
    run = _calibrate(tmp_path, data)
    assert (run / "calib_result.json").exists()
    payload = _report(run)
    cfg = payload["config"]
    assert payload["command"] == "calibrate"
    assert cfg["command"] == "calibrate"
    assert cfg["w_bits"] == 4 and cfg["a_bits"] == 4
    assert cfg["num_candidates"] == 6 and cfg["rounds"] == 1
    assert cfg["gamma"] == 10.0  # default
    assert cfg["profile"] == "classification"
    assert (cfg["alpha"], cfg["beta"]) == (0.0, 1.2)
    assert cfg["calib_batch"] == 8  # clamped to the split size
    assert payload["fp_loss"] > 0.0
    assert len(payload["softmax_max"]) == 1
    searched = [s for s in payload["sites"] if s["searched"]]
    assert len(searched) == 11
    for site in searched:
        assert site["trace_digest"]["candidates"] == 7  # 6 + min-max
        assert site["chosen_metric"] is not None


def test_calibrate_accepts_gamma_100(tmp_path):
    """Every error is eliminated: each metric is 0 and the pick index 0."""
    report = _report(_calibrate(tmp_path, _gen(tmp_path), extra=["--gamma", "100"]))
    assert report["config"]["gamma"] == 100.0
    assert {row["chosen_index"] for row in report["sites"]} == {0, None}


def test_calibrate_same_command_is_reproducible(tmp_path):
    data = _gen(tmp_path)
    run = _calibrate(tmp_path, data)
    first_result = (run / "calib_result.json").read_bytes()
    first_report = _without_clock(run)
    run = _calibrate(tmp_path, data)  # identical command, same --out
    assert (run / "calib_result.json").read_bytes() == first_result
    assert _without_clock(run) == first_report


def test_calibrate_softmax_flag_spelling(tmp_path):
    data = _gen(tmp_path)
    run = _calibrate(tmp_path, data, "log-run", ["--softmax-quant", "log"])
    assert _report(run)["config"]["softmax_quantizer"] == "log2"
    result = json.loads((run / "calib_result.json").read_text())
    softmax_rows = [s for s in result["sites"]
                    if s["site_id"].endswith("attn-apply.A")]
    assert softmax_rows[0]["scheme"] == "log2"


@pytest.mark.parametrize("extra", [
    [], ["--blocks-as-layers"], ["--softmax-quant", "twin", "--dynamic-softmax"],
], ids=["default", "blocks-as-layers", "dynamic-twin"])
def test_calibrate_report_is_the_saved_result(tmp_path, extra):
    """The calibrate report copies every field of the saved result, each
    site row's trace replaced by its digest and the chosen candidate's
    metric."""
    data = _gen(tmp_path)
    run = _calibrate(tmp_path, data, extra=extra)
    report = _report(run)
    result = json.loads((run / "calib_result.json").read_text())
    jsonschema.validate(report, report_schema())
    for key in ("fp_loss", "fp_block_inputs", "softmax_max"):
        assert report[key] == result[key]
    assert report["config"] == {"command": "calibrate", "out": str(run),
                                "model": str(data / "model.bbcv"),
                                "calib": str(data / "calib.bbcv"),
                                **result["config"]}
    assert len(report["sites"]) == len(result["sites"])
    searched = 0
    for got, row in zip(report["sites"], result["sites"]):
        trace = row.pop("trace")
        row["trace_digest"] = row["chosen_metric"] = None
        if trace:
            searched += 1
            row["trace_digest"] = {
                "rounds": len(trace), "candidates": len(trace[-1]),
                "sha256": hashlib.sha256(json.dumps(
                    trace, sort_keys=True).encode("utf-8")).hexdigest()}
            row["chosen_metric"] = trace[-1][row["chosen_index"]]
        assert got == row
    assert searched == 11


def test_calibrate_profile_changes_search_range(tmp_path):
    data = _gen(tmp_path)
    for name, extra, expected in (
            ("det", [], (0.5, 1.2)),
            ("det-alpha", ["--alpha", "0.3"], (0.3, 1.2))):
        run = _calibrate(tmp_path, data, name,
                         ["--profile", "detection"] + extra)
        cfg = _report(run)["config"]
        assert (cfg["alpha"], cfg["beta"]) == expected


def _run_cli(args):
    """``bbcq <args>`` in a fresh process, where numpy's warnings filters
    stay the default."""
    return subprocess.run(
        [sys.executable, "-m", "bbcq.cli", *args], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})


def _run_with_scaled_weights(tmp_path, scale, command, fields=("w1", "w2")):
    """``bbcq <command>`` in a fresh process on the generated model with
    block 0's ``fields`` (the MLP weights by default) times ``scale``."""
    data = _gen(tmp_path)
    model = load_model(data / "model.bbcv")
    for field in fields:
        setattr(model.blocks[0], field, getattr(model.blocks[0], field) * scale)
    save_model(model, data / "big.bbcv")
    if command == "calibrate":
        extra = ["--calib", str(data / "calib.bbcv"), "--wbits", "4",
                 "--abits", "4", "--candidates", "4", "--rounds", "1"]
    else:
        extra = ["--eval", str(data / "eval.bbcv")]
    return _run_cli([command, "--model", str(data / "big.bbcv"),
                     "--out", str(tmp_path / "o")] + extra)


def test_calibrate_model_with_a_zero_projection(tmp_path):
    """A pruned, all-zero w_o calibrates; its site is left unsearched."""
    data = _gen(tmp_path)
    model = load_model(data / "model.bbcv")
    model.blocks[0].w_o = np.zeros_like(model.blocks[0].w_o)
    save_model(model, data / "model.bbcv")
    run = _calibrate(tmp_path, data)
    rows = {row["site_id"]: row for row in
            json.loads((run / "calib_result.json").read_text())["sites"]}
    assert not rows["b0.out-projection.B"]["searched"]
    assert rows["b0.out-projection.A"]["searched"]


def test_calibrate_non_finite_metric_is_an_error(tmp_path):
    """Weights whose products overflow end the run with one error line and
    none of numpy's overflow warnings."""
    proc = _run_with_scaled_weights(tmp_path, 1e80, "calibrate")
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error:non-finite: site b0.mlp-2.A")
    assert not (tmp_path / "o" / "calib_result.json").exists()


@pytest.mark.parametrize("command, what", [("calibrate", "the FP loss"),
                                           ("eval", "the FP logit array")])
def test_overflowing_fp_forward_is_one_error_line(tmp_path, command, what):
    """Weights so large the FP forward itself overflows to NaN."""
    proc = _run_with_scaled_weights(tmp_path, 1e200, command)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        f"error:non-finite: {what} holds NaN or infinite values"]
    assert not (tmp_path / "o").exists()


def test_eval_loss_past_the_float_range_is_one_error_line(tmp_path):
    """Finite logits whose mean loss overflows: the report would hold an
    ``Infinity`` token, which is not JSON, so none is written."""
    data = tmp_path / "data"
    assert main(["gen", "--blocks", "1", "--embed-dim", "8", "--heads", "2",
                 "--patches", "4", "--classes", "3", "--calib-size", "8",
                 "--eval-size", "16", "--seed", "7", "--out", str(data)]) == 0
    model = load_model(data / "model.bbcv")
    model.head_w = model.head_w * 1e307
    save_model(model, data / "big.bbcv")
    proc = _run_cli(["eval", "--model", str(data / "big.bbcv"),
                     "--eval", str(data / "eval.bbcv"),
                     "--out", str(tmp_path / "o")])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "error:non-finite: the report holds NaN or infinite values"]
    assert not (tmp_path / "o" / "report.json").exists()


def test_warnings_wait_for_the_command_outcome(monkeypatch, capsys):
    """A command's warnings are shown after it succeeds and dropped when
    it fails, so a failure stays one line."""
    def command(fails):
        def run(args):
            warnings.warn("held", RuntimeWarning)
            if fails:
                raise ParameterError("bad")
            return 0
        return run

    monkeypatch.setattr(cli, "cmd_inspect", command(False))
    with pytest.warns(RuntimeWarning, match="held"):
        assert main(["inspect", "x"]) == 0
    monkeypatch.setattr(cli, "cmd_inspect", command(True))
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("always")
        assert main(["inspect", "x"]) == 1
    assert shown == []
    assert capsys.readouterr().err == "error:parameter: bad\n"


def test_calibrate_missing_model_is_io_error(tmp_path, capsys):
    rc = main(["calibrate", "--model", str(tmp_path / "nope.bbcv"),
               "--calib", str(tmp_path / "nope2.bbcv"),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:io: ") and "\n" not in err


def test_calibrate_rejects_non_container_model(tmp_path, capsys):
    bogus = tmp_path / "model.bbcv"
    bogus.write_bytes(b"definitely not a container")
    rc = main(["calibrate", "--model", str(bogus), "--calib", str(bogus),
               "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:bad-magic: ")


def test_calibrate_rejects_nan_calibration_split(tmp_path, capsys):
    data = _gen(tmp_path)
    rc = main(["calibrate", "--model", str(data / "model.bbcv"),
               "--calib", str(_with_nan(data, "calib")),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip()
    assert rc != 0
    assert err.startswith("error:non-finite: ") and "\n" not in err


# ---------------------------------------------------------------------------
# eval


def test_eval_fp_row_and_result_rows(tmp_path, capsys):
    data = _gen(tmp_path)
    run = _calibrate(tmp_path, data)
    out = tmp_path / "ev"
    rc = main(["eval", "--model", str(data / "model.bbcv"),
               "--eval", str(data / "eval.bbcv"),
               "--result", str(run / "calib_result.json"),
               "--out", str(out)])
    assert rc == 0
    rows = _report(out)["metrics"]
    assert len(rows) == 2
    fp = rows[0]
    assert fp["label"] == "fp" and fp["w_bits"] is None
    assert fp["fp_agreement"] == 1.0
    quant = rows[1]
    assert quant["label"] == str(run / "calib_result.json")
    assert quant["w_bits"] == 4 and quant["a_bits"] == 4
    assert 0.0 <= quant["fp_agreement"] <= 1.0
    stdout = capsys.readouterr().out
    assert "fp: top1=" in stdout


def test_eval_loads_a_result_file_named_fp(tmp_path, capsys, monkeypatch):
    """The FP row is the one without a result, not the one labelled fp."""
    data = _gen(tmp_path)
    run = _calibrate(tmp_path, data)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "fp").write_bytes((run / "calib_result.json").read_bytes())
    capsys.readouterr()
    assert main(["eval", "--model", str(data / "model.bbcv"),
                 "--eval", str(data / "eval.bbcv"), "--result", "fp",
                 "--out", "ev"]) == 0
    rows = _report(tmp_path / "ev")["metrics"]
    assert [(row["label"], row["w_bits"]) for row in rows] == \
        [("fp", None), ("fp", 4)]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == ["fp", "fp", "wrote ev/report.json"]


def test_eval_failing_on_a_later_result_prints_nothing(tmp_path, capsys):
    data = _gen(tmp_path)
    run = _calibrate(tmp_path, data)
    capsys.readouterr()
    rc = main(["eval", "--model", str(data / "model.bbcv"),
               "--eval", str(data / "eval.bbcv"),
               "--result", str(run / "calib_result.json"),
               "--result", str(tmp_path / "ghost.json"),
               "--out", str(tmp_path / "ev")])
    out, err = capsys.readouterr()
    assert rc == 1 and out == ""
    assert err.count("\n") == 1 and err.startswith("error:io: ")
    assert not (tmp_path / "ev" / "report.json").exists()


def test_eval_without_results_reports_fp_only(tmp_path):
    data = _gen(tmp_path)
    out = tmp_path / "ev"
    rc = main(["eval", "--model", str(data / "model.bbcv"),
               "--eval", str(data / "eval.bbcv"), "--out", str(out)])
    assert rc == 0
    rows = _report(out)["metrics"]
    assert len(rows) == 1 and rows[0]["label"] == "fp"


def test_eval_rejects_nan_eval_split(tmp_path, capsys):
    data = _gen(tmp_path)
    rc = main(["eval", "--model", str(data / "model.bbcv"),
               "--eval", str(_with_nan(data, "eval")),
               "--out", str(tmp_path / "ev")])
    assert rc != 0
    assert capsys.readouterr().err.startswith("error:non-finite: ")


def test_eval_rejects_an_empty_eval_split(tmp_path, capsys):
    data = _gen(tmp_path)
    inputs, labels, meta = load_dataset(data / "eval.bbcv")
    empty = data / "eval-empty.bbcv"
    save_dataset(inputs[:0], labels[:0], empty, meta)
    rc = main(["eval", "--model", str(data / "model.bbcv"),
               "--eval", str(empty), "--out", str(tmp_path / "ev")])
    err = capsys.readouterr().err.strip()
    assert rc == 1
    assert "\n" not in err and err.startswith("error:parameter: ")
    assert not (tmp_path / "ev" / "report.json").exists()


def test_calibrate_rejects_an_empty_calib_split(tmp_path, capsys):
    """The error names the empty split, not the clamped --calib-batch."""
    data = _gen(tmp_path)
    inputs, labels, meta = load_dataset(data / "calib.bbcv")
    empty = data / "calib-empty.bbcv"
    save_dataset(inputs[:0], labels[:0], empty, meta)
    rc = main(["calibrate", "--model", str(data / "model.bbcv"),
               "--calib", str(empty), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip()
    assert rc == 1
    assert err == "error:parameter: the FP pass needs at least one sample"


def test_eval_corrupt_result_is_format_error(tmp_path, capsys):
    data = _gen(tmp_path)
    bad = tmp_path / "calib_result.json"
    bad.write_text("{ not json")
    rc = main(["eval", "--model", str(data / "model.bbcv"),
               "--eval", str(data / "eval.bbcv"),
               "--result", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:format: ")


def _eval_with_edited_result(tmp_path, capsys, edit, extra=()):
    """Run eval on a calib result altered by ``edit``; return (rc, stderr)."""
    data = _gen(tmp_path)
    path = _calibrate(tmp_path, data, extra=extra) / "calib_result.json"
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload))
    rc = main(["eval", "--model", str(data / "model.bbcv"),
               "--eval", str(data / "eval.bbcv"),
               "--result", str(path), "--out", str(tmp_path / "o")])
    return rc, capsys.readouterr().err.strip()


def test_eval_result_without_sites_is_parameter_error(tmp_path, capsys):
    rc, err = _eval_with_edited_result(tmp_path, capsys,
                                       lambda p: p.pop("sites"))
    assert rc == 1
    assert "\n" not in err and ERROR_LINE.match(err)
    assert err.startswith("error:parameter: ")


def test_eval_result_with_string_scale_is_parameter_error(tmp_path, capsys):
    def string_scale(payload):
        payload["sites"][0]["scale"] = "wide"

    rc, err = _eval_with_edited_result(tmp_path, capsys, string_scale)
    assert rc == 1
    assert "\n" not in err and ERROR_LINE.match(err)
    assert err.startswith("error:parameter: ")


def _quote_dynamic_softmax(payload):
    payload["config"]["dynamic_softmax"] = "false"


def _set_fractional_chosen_index(payload):
    searched = next(e for e in payload["sites"] if e["searched"])
    searched["chosen_index"] = 3.9


@pytest.mark.parametrize("edit", [_quote_dynamic_softmax,
                                  _set_fractional_chosen_index])
def test_eval_result_with_wrong_json_type_is_parameter_error(tmp_path, capsys,
                                                             edit):
    rc, err = _eval_with_edited_result(tmp_path, capsys, edit)
    assert rc == 1
    assert "\n" not in err and ERROR_LINE.match(err)
    assert err.startswith("error:parameter: ")


@pytest.mark.parametrize("edit", RESULT_EDITS.values(), ids=RESULT_EDITS.keys())
def test_eval_result_that_disagrees_with_the_search_is_parameter_error(
        tmp_path, capsys, edit):
    """``eval --result`` and ``inspect`` reject the file with one line."""
    rc, err = _eval_with_edited_result(tmp_path, capsys, edit,
                                       extra=["--rounds", "2"])
    assert rc == 1
    assert "\n" not in err and ERROR_LINE.match(err)
    assert err.startswith("error:parameter: ")
    assert main(["inspect", str(tmp_path / "run" / "calib_result.json")]) == 1
    assert capsys.readouterr().err.strip() == err


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("field", ["fp_loss", "softmax_max"])
def test_non_finite_fp_loss_or_softmax_max_is_one_error_line(tmp_path, capsys,
                                                             field, value):
    """Rejected on load like a non-finite trace metric: ``inspect`` would
    print a number that is not JSON, and ``dumps`` would write it back."""
    data = _gen(tmp_path)
    # A uniform softmax row has no calibrated_max to hold softmax_max to.
    path = _calibrate(tmp_path, data, extra=["--softmax-quant", "uniform"]) \
        / "calib_result.json"
    payload = json.loads(path.read_text())
    payload[field] = value if field == "fp_loss" else [value]
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    for argv in (["eval", "--model", str(data / "model.bbcv"),
                  "--eval", str(data / "eval.bbcv"), "--result", str(path),
                  "--out", str(tmp_path / "ev")], ["inspect", str(path)]):
        assert main(argv) == 1
        assert capsys.readouterr() == (
            "", f"error:non-finite: {field} holds NaN or infinite values\n")


def test_eval_result_with_infinite_calibrated_max_is_degenerate_scale(
        tmp_path, capsys):
    """Rejected on load, not after the forward as non-finite logits, with
    the error naming the row's site."""
    def infinite_max(payload):
        row = next(e for e in payload["sites"] if e["calibrated_max"] is not None)
        row["calibrated_max"] = float("inf")

    rc, err = _eval_with_edited_result(tmp_path, capsys, infinite_max)
    assert rc == 1
    assert "\n" not in err and ERROR_LINE.match(err)
    assert err.startswith("error:degenerate-scale: site b0.attn-apply.A: ")


def test_eval_result_with_duplicate_site_is_parameter_error(tmp_path, capsys):
    def duplicate_site(payload):
        row = next(e for e in payload["sites"]
                   if e["site_id"] == "b0.qkv-projection.A")
        payload["sites"].append({**row, "scale": row["scale"] * 100})

    rc, err = _eval_with_edited_result(tmp_path, capsys, duplicate_site)
    assert rc == 1
    assert "\n" not in err and ERROR_LINE.match(err)
    assert err.startswith("error:parameter: ") and "b0.qkv-projection.A" in err


def _drop_mlp_1_weight_row(payload):
    payload["sites"] = [e for e in payload["sites"]
                        if e["site_id"] != "b0.mlp-1.B"]


@pytest.mark.parametrize("edit", [lambda p: p.update(sites=[]),
                                  _drop_mlp_1_weight_row],
                         ids=["no-sites", "one-row-dropped"])
def test_eval_result_missing_sites_is_contract_error(tmp_path, capsys, edit):
    """A result that leaves a site out would run that site at full
    precision; eval names the missing sites instead."""
    rc, err = _eval_with_edited_result(tmp_path, capsys, edit)
    assert rc == 1
    assert "\n" not in err and ERROR_LINE.match(err)
    assert err.startswith("error:contract: ") and "b0.mlp-1.B" in err


def test_eval_result_of_a_smaller_model_is_contract_error(tmp_path, capsys):
    """A 1-block result on a 2-block model of the same dims would leave
    block 1 at full precision."""
    run = _calibrate(tmp_path, _gen(tmp_path))
    big = _gen(tmp_path, "big", extra=["--blocks", "2"])
    capsys.readouterr()
    rc = main(["eval", "--model", str(big / "model.bbcv"),
               "--eval", str(big / "eval.bbcv"),
               "--result", str(run / "calib_result.json"),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip()
    assert rc == 1
    assert "\n" not in err and ERROR_LINE.match(err)
    assert err.startswith("error:contract: ") and "b1.qkv-projection.A" in err


def _with_manifest(source, edit):
    """Copy of a container whose manifest is replaced by ``edit(manifest)``."""
    blob = source.read_bytes()
    (manifest_len,) = struct.unpack_from("<Q", blob, 8)
    manifest = edit(json.loads(blob[16:16 + manifest_len]))
    raw = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    bad = source.parent / "bad.bbcv"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw
                    + blob[16 + manifest_len:])
    return bad


def _with_model_spec(data, field, value):
    """Copy of the model container with one manifest spec field replaced."""
    return _with_manifest(data / "model.bbcv",
                          lambda m: {**m, "spec": {**m["spec"], field: value}})


@pytest.mark.parametrize("edit", [
    lambda m: {**m, "tensors": 5},
    lambda m: {**m, "spec": [1]},
    lambda m: "kind spec tensors",
], ids=["tensors-int", "spec-list", "manifest-string"])
def test_calibrate_manifest_of_wrong_json_shape_is_one_error_line(
        tmp_path, capsys, edit):
    data = _gen(tmp_path)
    bad = _with_manifest(data / "calib.bbcv", edit)
    capsys.readouterr()
    rc = main(["calibrate", "--model", str(data / "model.bbcv"),
               "--calib", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:manifest-mismatch: ")


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_calibrate_non_finite_calib_meta_is_one_error_line(tmp_path, capsys,
                                                          value):
    data = _gen(tmp_path)
    bad = _with_manifest(data / "calib.bbcv", lambda m: {**m, "spec": {"seed": value}})
    capsys.readouterr()
    rc = main(["calibrate", "--model", str(data / "model.bbcv"),
               "--calib", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    _assert_non_finite_error(capsys)


def test_eval_model_with_fractional_spec_field_is_parameter_error(tmp_path,
                                                                  capsys):
    data = _gen(tmp_path)
    bad = _with_model_spec(data, "num_blocks", 1.7)
    capsys.readouterr()
    rc = main(["eval", "--model", str(bad), "--eval", str(data / "eval.bbcv"),
               "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err.strip()
    assert rc == 1
    assert "\n" not in err and err.startswith("error:parameter: ")


# ---------------------------------------------------------------------------
# compare-softmax


def test_compare_softmax_synthetic_powerlaw(tmp_path, capsys):
    out = tmp_path / "cmp"
    rc = main(["compare-softmax", "--bits", "4", "--synthetic", "powerlaw",
               "--rows", "32", "--cols", "8", "--seed", "3",
               "--out", str(out)])
    assert rc == 0
    payload = _report(out)
    rows = payload["metrics"]
    assert [r["scheme"] for r in rows] == ["uniform", "log2", "twin", "mpq"]
    by_scheme = {r["scheme"]: r for r in rows}
    assert by_scheme["mpq"]["max_value_error"] == 0.0
    assert by_scheme["mpq"]["top_exact"] is True
    assert all(r["entropy_bits"] <= 4.0 + 1e-9 for r in rows)
    assert payload["config"]["bits"] == 4
    assert "mpq: entropy=" in capsys.readouterr().out


def test_compare_softmax_defaults_and_wall_clock(tmp_path):
    out = tmp_path / "cmp"
    start = time.perf_counter()
    assert main(["compare-softmax", "--synthetic", "powerlaw",
                 "--out", str(out)]) == 0
    elapsed = time.perf_counter() - start
    payload = _report(out)
    assert {key: payload["config"][key] for key in
            ("bits", "rows", "cols", "exponent", "seed")} == \
        {"bits": 4, "rows": 512, "cols": 16, "exponent": 2.0, "seed": 0}
    assert 0.0 <= payload["wall_clock_seconds"] <= elapsed


def test_compare_softmax_entropy_respects_bits(tmp_path):
    out = tmp_path / "cmp8"
    assert main(["compare-softmax", "--bits", "8", "--synthetic", "gaussian",
                 "--rows", "64", "--cols", "16", "--out", str(out)]) == 0
    assert all(r["entropy_bits"] <= 8.0 + 1e-9
               for r in _report(out)["metrics"])


def test_compare_softmax_deterministic_given_seed(tmp_path):
    args = ["compare-softmax", "--synthetic", "powerlaw", "--rows", "16",
            "--cols", "8", "--seed", "9"]
    out = tmp_path / "cmp"
    assert main(args + ["--out", str(out)]) == 0
    first = _without_clock(out)
    assert main(args + ["--out", str(out)]) == 0
    assert _without_clock(out) == first


def test_compare_softmax_harvests_model_attention(tmp_path):
    data = _gen(tmp_path)
    out = tmp_path / "cmp"
    rc = main(["compare-softmax", "--bits", "4",
               "--model", str(data / "model.bbcv"),
               "--eval", str(data / "eval.bbcv"), "--out", str(out)])
    assert rc == 0
    payload = _report(out)
    assert payload["config"]["model"] == str(data / "model.bbcv")
    assert len(payload["metrics"]) == 4


def test_compare_softmax_harvests_one_row_per_attention_query(tmp_path):
    """Rows of every block's pre-softmax scores: blocks x samples x heads x
    patches rows of one score per key patch."""
    data = _gen(tmp_path, extra=["--blocks", "2"])
    scores = cli._harvest_scores(str(data / "model.bbcv"),
                                 str(data / "eval.bbcv"))
    assert scores.shape == (2 * 16 * 2 * 4, 4)


def test_compare_softmax_requires_a_source(tmp_path, capsys):
    rc = main(["compare-softmax", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:config: ") and ERROR_LINE.match(err)


@pytest.mark.parametrize("args", [
    ["gen", "--seed", "-1"],
    ["compare-softmax", "--synthetic", "gaussian", "--seed", "-1"],
    ["compare-softmax", "--synthetic", "powerlaw", "--exponent", "nan"],
    ["compare-softmax", "--synthetic", "powerlaw", "--exponent=-inf"],
    ["compare-softmax", "--synthetic", "gaussian", "--exponent", "inf"]],
    ids=["gen-seed", "compare-seed", "exponent-nan", "exponent-minus-inf",
         "exponent-inf"])
def test_bad_seed_or_exponent_is_one_error_line(tmp_path, capsys, args):
    """A negative seed or a non-finite exponent is rejected before any
    draw, so nothing is written."""
    out = tmp_path / "o"
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and ERROR_LINE.match(err.strip())
    assert err.startswith("error:parameter: ")
    assert not out.exists()


@pytest.mark.parametrize("source", ["underflowing-exponent", "overflowing-model"])
def test_non_finite_softmax_scores_are_one_error_line(tmp_path, source):
    """Scores that reach -inf (rank ** -400 underflows to 0) or NaN (q and k
    times 1e160) end compare-softmax with one error line and no report."""
    if source == "underflowing-exponent":
        proc = _run_cli(["compare-softmax", "--synthetic", "powerlaw",
                         "--rows", "4", "--exponent", "400",
                         "--out", str(tmp_path / "o")])
    else:
        proc = _run_with_scaled_weights(tmp_path, 1e160, "compare-softmax",
                                        ("w_q", "w_k"))
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error:non-finite: the score array holds NaN or infinite values"]
    assert not (tmp_path / "o").exists()


def test_compare_softmax_on_an_empty_split_is_one_error_line(tmp_path):
    """A 0-sample eval split is a legal container, but it gives no score to
    compare: one error line in a fresh process, and no report."""
    data = _gen(tmp_path)
    inputs, labels, meta = load_dataset(data / "eval.bbcv")
    save_dataset(inputs[:0], labels[:0], data / "eval-empty.bbcv", meta)
    proc = _run_cli(["compare-softmax", "--model", str(data / "model.bbcv"),
                     "--eval", str(data / "eval-empty.bbcv"),
                     "--out", str(tmp_path / "o")])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and ERROR_LINE.match(lines[0])
    assert lines[0].startswith("error:parameter: ")
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# reports validate against the published schema


def test_reports_validate_against_schema(tmp_path):
    schema = report_schema()
    data = _gen(tmp_path)
    run = _calibrate(tmp_path, data)
    jsonschema.validate(_report(run), schema)
    out = tmp_path / "ev"
    main(["eval", "--model", str(data / "model.bbcv"),
          "--eval", str(data / "eval.bbcv"), "--out", str(out)])
    jsonschema.validate(_report(out), schema)
    cmp_out = tmp_path / "cmp"
    main(["compare-softmax", "--synthetic", "powerlaw", "--out", str(cmp_out)])
    jsonschema.validate(_report(cmp_out), schema)


COMMON_REPORT_FIELDS = {"schema_version", "tool_version", "command", "config",
                        "wall_clock_seconds"}


def test_reports_hold_only_their_commands_fields(tmp_path):
    """A report has no top-level null: only the common fields and those its
    command writes. Only the three commands that write one are in the
    schema's command enum; ``gen`` and ``inspect`` write none."""
    schema = report_schema()
    assert schema["properties"]["command"]["enum"] == \
        ["calibrate", "eval", "compare-softmax"]
    data = _gen(tmp_path)
    run = _calibrate(tmp_path, data)
    ev, cmp_out = tmp_path / "ev", tmp_path / "cmp"
    assert main(["eval", "--model", str(data / "model.bbcv"),
                 "--eval", str(data / "eval.bbcv"),
                 "--result", str(run / "calib_result.json"),
                 "--out", str(ev)]) == 0
    assert main(["compare-softmax", "--synthetic", "powerlaw",
                 "--out", str(cmp_out)]) == 0
    assert main(["inspect", str(run / "report.json")]) == 0
    assert not (data / "report.json").exists()
    for out, own in ((run, {"fp_loss", "fp_block_inputs", "softmax_max", "sites"}),
                     (ev, {"metrics"}), (cmp_out, {"metrics"})):
        report = _report(out)
        assert set(report) == COMMON_REPORT_FIELDS | own
        assert None not in report.values()
        jsonschema.validate(report, schema)


# ---------------------------------------------------------------------------
# inspect


def test_inspect_model_and_dataset(tmp_path, capsys):
    data = _gen(tmp_path)
    capsys.readouterr()  # drain gen output
    assert main(["inspect", str(data / "model.bbcv")]) == 0
    model_info = json.loads(capsys.readouterr().out)
    assert model_info["kind"] == "model"
    assert model_info["spec"]["embed_dim"] == 16
    assert any(p["name"] == "embed.weight" for p in model_info["parameters"])

    assert main(["inspect", str(data / "eval.bbcv")]) == 0
    ds_info = json.loads(capsys.readouterr().out)
    assert ds_info["kind"] == "dataset"
    assert ds_info["inputs_shape"] == [16, 4, 16]
    assert set(ds_info["classes_present"]) <= {0, 1, 2, 3}


def test_inspect_reports_the_model_container_error(tmp_path, capsys):
    """A model whose spec disagrees with its tensors is not read as a dataset."""
    bad = _with_model_spec(_gen(tmp_path), "num_classes", 5)
    capsys.readouterr()
    assert main(["inspect", str(bad)]) == 1
    err = capsys.readouterr().err.strip()
    assert err == ("error:manifest-mismatch: tensor list does not match "
                   "the model spec")


@pytest.mark.parametrize("command", ["inspect", "calibrate"])
def test_header_cut_after_the_magic_is_one_length_error_line(tmp_path, command):
    """A model cut inside its 16-byte header, magic intact, is a truncated
    container: one ``error:length-mismatch`` line in a fresh process."""
    data = _gen(tmp_path)
    cut = tmp_path / "cut.bbcv"
    cut.write_bytes((data / "model.bbcv").read_bytes()[:10])
    args = {"inspect": ["inspect", str(cut)],
            "calibrate": ["calibrate", "--model", str(cut),
                          "--calib", str(data / "calib.bbcv"),
                          "--out", str(tmp_path / "o")]}[command]
    proc = _run_cli(args)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "error:length-mismatch: header needs 16 bytes, got 10"]
    assert not (tmp_path / "o").exists()


def _set_descriptor(field, value):
    """Manifest edit that sets ``field`` of the first tensor descriptor."""
    def edit(manifest):
        manifest["tensors"][0][field] = value
        return manifest
    return edit


@pytest.mark.parametrize("field,value", [
    ("name", ["inputs"]), ("dtype", ["<f8"]), ("offset", "0"), ("offset", 0.0),
    ("offset", False), ("shape", "234"), ("shape", [2.0, 3, 4]),
    ("shape", [-2, 3, 4]), ("shape", [2, 3, 4] + [1] * 67),
    ("shape", [2**32, 2**32, 1]), ("shape", [10**30, 3, 4]),
], ids=["name-list", "dtype-list", "offset-str", "offset-float",
        "offset-bool", "shape-str", "shape-float", "shape-negative",
        "shape-67-ones", "shape-wraps-int64", "shape-past-int64"])
def test_inspect_bad_tensor_descriptor_is_one_error_line(tmp_path, capsys,
                                                         field, value):
    """Each edit of the (2, 3, 4) inputs descriptor is one error line."""
    split = tmp_path / "split.bbcv"
    save_dataset(np.zeros((2, 3, 4)), np.zeros(2, dtype=np.int64), split)
    bad = _with_manifest(split, _set_descriptor(field, value))
    capsys.readouterr()
    assert main(["inspect", str(bad)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert re.match(r"^error:(manifest|length)-mismatch: ", err[0])


def test_inspect_calib_result_and_report(tmp_path, capsys):
    data = _gen(tmp_path)
    run = _calibrate(tmp_path, data)
    capsys.readouterr()  # drain pipeline output
    assert main(["inspect", str(run / "calib_result.json")]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["kind"] == "calib-result"
    assert info["sites"] == 14 and info["searched_sites"] == 11

    assert main(["inspect", str(run / "report.json")]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["kind"] == "report" and rep["command"] == "calibrate"
    assert rep["has_sites"] is True


def test_inspect_unknown_json(tmp_path, capsys):
    path = tmp_path / "misc.json"
    path.write_text('{"a": 1, "b": 2}')
    assert main(["inspect", str(path)]) == 0
    out = capsys.readouterr().out
    assert json.loads(out) == {"kind": "unknown-json", "top_level_keys": ["a", "b"]}
    assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("content", [b"[1, 2]", b'{"a": "\xff"}'])
def test_inspect_non_object_or_non_utf8_json_is_format_error(tmp_path, capsys,
                                                              content):
    path = tmp_path / "odd.json"
    path.write_bytes(content)
    assert main(["inspect", str(path)]) == 1
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and err.startswith("error:format: ")


@pytest.mark.parametrize("command", ["inspect", "eval"])
def test_json_int_past_the_digit_limit_is_format_error(tmp_path, capsys,
                                                       command):
    """json.loads raises a plain ValueError for an int of over 4300 digits."""
    path = tmp_path / "calib_result.json"
    path.write_text('{"kind": "calib-result", "schema_version": '
                    + "1" * 5000 + "}")
    if command == "inspect":
        argv = ["inspect", str(path)]
    else:
        data = _gen(tmp_path)
        argv = ["eval", "--model", str(data / "model.bbcv"),
                "--eval", str(data / "eval.bbcv"), "--result", str(path),
                "--out", str(tmp_path / "o")]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and err.startswith("error:format: ")


@pytest.mark.parametrize("sites", [None, [1], [{"site_id": 3}]],
                         ids=["bare", "int_site", "int_site_id"])
def test_inspect_malformed_calib_result_is_parameter_error(tmp_path, capsys,
                                                            sites):
    path = tmp_path / "calib_result.json"
    if sites is None:
        payload = {"kind": "calib-result", "sites": [1]}
    else:
        run = _calibrate(tmp_path, _gen(tmp_path))
        payload = json.loads((run / "calib_result.json").read_text())
        payload["sites"] = sites
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main(["inspect", str(path)]) == 1
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and err.startswith("error:parameter: ")


@pytest.mark.parametrize("field, value", [("metrics", 5), ("sites", "x")])
def test_inspect_malformed_report_is_format_error(tmp_path, capsys, field,
                                                  value):
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema_version": 1, "command": "x",
                                field: value}))
    assert main(["inspect", str(path)]) == 1
    err = capsys.readouterr().err.strip()
    assert "\n" not in err and err.startswith("error:format: ")


def _assert_non_finite_error(capsys):
    """One ``error:non-finite`` line and nothing on stdout."""
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.strip()
    assert "\n" not in err and err.startswith("error:non-finite: ")


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("field", ["command", "tool_version"])
def test_inspect_non_finite_report_field_is_non_finite_error(tmp_path, capsys,
                                                             field, token):
    """``inspect`` echoes these fields, and prints only strict JSON."""
    path = tmp_path / "report.json"
    path.write_text(json.dumps({"schema_version": 1, "command": "x",
                                field: "VALUE"}).replace('"VALUE"', token))
    assert main(["inspect", str(path)]) == 1
    _assert_non_finite_error(capsys)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_inspect_non_finite_dataset_meta_is_non_finite_error(tmp_path, capsys,
                                                             value):
    """The writer refuses such meta, and the reader a hand-edited container
    that holds it, so ``inspect`` prints no ``NaN`` or ``Infinity`` token."""
    split = tmp_path / "split.bbcv"
    save_dataset(np.zeros((2, 3, 4)), np.zeros(2, dtype=np.int64), split)
    bad = _with_manifest(split, lambda m: {**m, "spec": {"seed": value}})
    capsys.readouterr()
    assert main(["inspect", str(bad)]) == 1
    _assert_non_finite_error(capsys)


def test_inspect_missing_file(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "ghost.json")]) == 1
    assert capsys.readouterr().err.startswith("error:io: ")


# ---------------------------------------------------------------------------
# parser-level behaviour


@pytest.mark.parametrize("argv, message", [
    ([], "bbcq: the following arguments are required: command"),
    (["gen", "--blocks", "x", "--out", "q"],
     "bbcq gen: argument --blocks: invalid int value: 'x'"),
    (["compare-softmax", "--synthetic", "power-law", "--out", "o"],
     "bbcq compare-softmax: argument --synthetic: invalid choice: 'power-law'"),
    (["calibrate"], "bbcq calibrate: the following arguments are required: "
                    "--model, --calib, --out"),
], ids=["no-command", "gen-bad-int", "compare-softmax-bad-choice",
        "calibrate-bare"])
def test_bad_or_missing_flag_is_one_config_error_line(tmp_path, argv, message):
    """In a fresh process: one ``error:config:`` line and exit 1, not
    argparse's usage block and exit 2, and nothing written."""
    proc = subprocess.run(
        [sys.executable, "-m", "bbcq.cli", *argv], capture_output=True,
        text=True, cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(
            os.path.abspath(p) for p in sys.path)})
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith(f"error:config: {message}")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["eval", "--help"]])
def test_help_still_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: bbcq") and captured.err == ""


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert re.match(r"\d+\.\d+", capsys.readouterr().out)


def test_bad_thread_env_surfaces_as_config_error(tmp_path, monkeypatch, capsys):
    data = _gen(tmp_path)
    monkeypatch.setenv("BBCQ_THREADS", "zero")
    rc = main(["calibrate", "--model", str(data / "model.bbcv"),
               "--calib", str(data / "calib.bbcv"),
               "--out", str(tmp_path / "o"), "--candidates", "4",
               "--rounds", "1"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:config: ")


# ---------------------------------------------------------------------------
# input boundary: cut and flipped artifacts


@pytest.fixture(scope="module")
def boundary_work(tmp_path_factory):
    """A directory holding a 1-block model and its splits in ``data`` and a
    calib result in ``run``."""
    work = tmp_path_factory.mktemp("boundary")
    _calibrate(work, _gen(work), extra=["--candidates", "2"])
    return work


def _outcome(argv) -> str | None:
    """The error category ``main(argv)`` reports, None if it succeeds: a
    failure prints one line, its error line, and a success prints no error
    line or traceback.
    ``main`` runs under Python's default warning filters, as in a ``bbcq``
    process, rather than the suite's ``error`` filter: it holds numpy's
    overflow warnings, which a flipped weight can raise, drops them when
    the command fails and shows them (here into a list) when it succeeds."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True), contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("default")
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code == 0:
        assert not [line for line in lines
                    if line.startswith("error:") or "Traceback" in line], (argv, lines)
        return None
    assert len(lines) == 1 and ERROR_LINE.match(lines[0]), (argv, lines)
    return lines[0].split(":")[1]


_MUTATION = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 5)),
    st.tuples(st.just("cut"), st.integers(0, 2**20)),
    st.tuples(st.just("flip"), st.integers(0, 2**20), st.integers(1, 255)))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["model", "calib", "result"]), _MUTATION)
@example("model", ("cut", 3))
@example("calib", ("cut", 5))
@example("model", ("flip", 61014, 64))  # a weight whose square overflows
def test_a_cut_or_flipped_artifact_fails_with_one_error_line(boundary_work,
                                                             name, mutation):
    """A truncated artifact, or one with a byte flipped, makes ``inspect``
    and the command that reads it each print one ``error:`` line or run.
    A container cut short or flipped past its magic that ``inspect``
    rejects, the reading command rejects with the same category: a
    container cut to under six bytes is bad magic to both."""
    work = boundary_work
    files = {other: str(work / "data" / f"{other}.bbcv") for other in ("model", "calib")}
    files["result"] = str(work / "run" / "calib_result.json")
    with open(files[name], "rb") as fh:
        blob = bytearray(fh.read())
    at = mutation[1] % len(blob)
    if mutation[0] == "cut":
        blob = blob[:at]
    else:
        blob[at] ^= mutation[2]
    path = work / f"mutant-{name}"
    path.write_bytes(bytes(blob))
    files[name] = str(path)
    if name == "result":
        reader = ["eval", "--model", files["model"], "--eval",
                  str(work / "data" / "eval.bbcv"), "--result", files["result"]]
    else:
        reader = ["calibrate", "--model", files["model"], "--calib",
                  files["calib"], "--wbits", "4", "--abits", "4",
                  "--candidates", "2", "--rounds", "1"]
    inspected = _outcome(["inspect", str(path)])
    read = _outcome([*reader, "--out", str(work / "out")])
    still_container = mutation[0] == "cut" or at >= len(MAGIC)
    if name != "result" and still_container and inspected is not None:
        assert read == inspected
