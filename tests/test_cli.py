"""End-to-end command-line tests driven through ``main()``."""

from __future__ import annotations

import json
import re
import struct

import jsonschema
import numpy as np
import pytest

from bbcq.cli import main
from bbcq.report import report_schema
from bbcq.serialize import load_dataset, load_model, save_dataset

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
    """Copy of a split with one input value set to NaN."""
    inputs, labels, meta = load_dataset(data / f"{split}.bbcv")
    inputs[0, 0, 0] = np.nan
    path = data / f"{split}-nan.bbcv"
    save_dataset(inputs, labels, path, meta)
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


def test_calibrate_profile_changes_search_range(tmp_path):
    data = _gen(tmp_path)
    run = _calibrate(tmp_path, data, "det", ["--profile", "detection"])
    cfg = _report(run)["config"]
    assert (cfg["alpha"], cfg["beta"]) == (0.5, 1.2)


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


def test_eval_corrupt_result_is_format_error(tmp_path, capsys):
    data = _gen(tmp_path)
    bad = tmp_path / "calib_result.json"
    bad.write_text("{ not json")
    rc = main(["eval", "--model", str(data / "model.bbcv"),
               "--eval", str(data / "eval.bbcv"),
               "--result", str(bad), "--out", str(tmp_path / "o")])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:format: ")


def _eval_with_edited_result(tmp_path, capsys, edit):
    """Run eval on a calib result altered by ``edit``; return (rc, stderr)."""
    data = _gen(tmp_path)
    path = _calibrate(tmp_path, data) / "calib_result.json"
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


def test_eval_model_with_fractional_spec_field_is_parameter_error(tmp_path,
                                                                  capsys):
    data = _gen(tmp_path)
    blob = (data / "model.bbcv").read_bytes()
    (manifest_len,) = struct.unpack_from("<Q", blob, 8)
    manifest = json.loads(blob[16:16 + manifest_len])
    manifest["spec"]["num_blocks"] += 0.7
    raw = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode()
    bad = tmp_path / "bad.bbcv"
    bad.write_bytes(blob[:8] + struct.pack("<Q", len(raw)) + raw
                    + blob[16 + manifest_len:])
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


def test_compare_softmax_requires_a_source(tmp_path, capsys):
    rc = main(["compare-softmax", "--out", str(tmp_path / "o")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:config: ") and ERROR_LINE.match(err)


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
    info = json.loads(capsys.readouterr().out)
    assert info == {"kind": "unknown-json", "top_level_keys": ["a", "b"]}


@pytest.mark.parametrize("content", [b"[1, 2]", b'{"a": "\xff"}'])
def test_inspect_non_object_or_non_utf8_json_is_format_error(tmp_path, capsys,
                                                              content):
    path = tmp_path / "odd.json"
    path.write_bytes(content)
    assert main(["inspect", str(path)]) == 1
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


def test_inspect_missing_file(tmp_path, capsys):
    assert main(["inspect", str(tmp_path / "ghost.json")]) == 1
    assert capsys.readouterr().err.startswith("error:io: ")


# ---------------------------------------------------------------------------
# parser-level behaviour


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
