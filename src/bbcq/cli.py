"""Command-line surface: gen / calibrate / eval / compare-softmax / inspect.

Every command exits 0 on success. On failure it prints exactly one line to
standard error of the form ``error:<category>: <message>`` and exits
nonzero. With fixed seeds the gen -> calibrate -> eval pipeline is
byte-reproducible (reports differ only in their wall-clock field).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (PROFILE_RANGES, PROFILES, CalibConfig, CalibResult,
                          calibrate, load_result, save_result)
from .data import SYNTHETIC_KINDS, generate_dataset, synthetic_scores
from .errors import BBCQError, ConfigError, FormatError
from .metrics import compare_softmax_quantizers, evaluate
from .model import ModelSpec, forward, init_model
from .report import Report, site_summaries, write_report
from .serialize import (MAGIC, load_dataset, load_model, save_dataset,
                        save_model)
from .tensor import Tensor

#: CLI flag spelling -> internal scheme name.
SOFTMAX_CHOICES = {"uniform": "uniform", "log": "log2", "twin": "twin",
                   "mpq": "mpq"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bbcq",
        description="Toy vision-transformer post-training quantization "
                    "with blockwise bottom-elimination calibration.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a seeded model and datasets")
    gen.add_argument("--blocks", type=int, default=4)
    gen.add_argument("--embed-dim", type=int, default=64)
    gen.add_argument("--heads", type=int, default=4)
    gen.add_argument("--patches", type=int, default=16)
    gen.add_argument("--classes", type=int, default=10)
    gen.add_argument("--mlp-ratio", type=float, default=4.0)
    gen.add_argument("--calib-size", type=int, default=32,
                     help="samples in the calibration split (default 32)")
    gen.add_argument("--eval-size", type=int, default=256)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.set_defaults(func=cmd_gen)

    cal = sub.add_parser("calibrate", help="search quantizer scales")
    cal.add_argument("--model", required=True)
    cal.add_argument("--calib", required=True)
    cal.add_argument("--out", required=True, help="output directory")
    cal.add_argument("--wbits", type=int, default=8)
    cal.add_argument("--abits", type=int, default=8)
    cal.add_argument("--gamma", type=float, default=10.0)
    cal.add_argument("--alpha", type=float, default=None,
                     help="search-range lower multiplier (profile default)")
    cal.add_argument("--beta", type=float, default=None,
                     help="search-range upper multiplier (profile default)")
    cal.add_argument("--candidates", type=int, default=100)
    cal.add_argument("--rounds", type=int, default=3)
    cal.add_argument("--profile", choices=PROFILES, default="classification")
    cal.add_argument("--softmax-quant", choices=sorted(SOFTMAX_CHOICES),
                     default="mpq")
    cal.add_argument("--dynamic-softmax", action="store_true")
    cal.add_argument("--blocks-as-layers", action="store_true",
                     help="layerwise-baseline mode: score each matmul "
                          "against its own output instead of the block's")
    cal.add_argument("--calib-batch", type=int, default=32,
                     help="how many calibration samples to use (default 32)")
    cal.set_defaults(func=cmd_calibrate)

    ev = sub.add_parser("eval", help="accuracy/agreement of calibrated models")
    ev.add_argument("--model", required=True)
    ev.add_argument("--eval", required=True, help="labeled dataset file")
    ev.add_argument("--result", action="append", default=[],
                    help="CalibResult JSON (repeatable; omit for FP only)")
    ev.add_argument("--out", required=True, help="output directory")
    ev.set_defaults(func=cmd_eval)

    cmp_ = sub.add_parser("compare-softmax",
                          help="quantizer shoot-out on softmax rows")
    cmp_.add_argument("--bits", type=int, default=4)
    cmp_.add_argument("--synthetic", choices=SYNTHETIC_KINDS, default=None,
                      help="generate synthetic score rows instead of "
                           "harvesting them from a model run")
    cmp_.add_argument("--rows", type=int, default=512)
    cmp_.add_argument("--cols", type=int, default=16)
    cmp_.add_argument("--exponent", type=float, default=2.0)
    cmp_.add_argument("--seed", type=int, default=0)
    cmp_.add_argument("--model", default=None)
    cmp_.add_argument("--eval", default=None, help="dataset to forward")
    cmp_.add_argument("--out", required=True, help="output directory")
    cmp_.set_defaults(func=cmd_compare_softmax)

    ins = sub.add_parser("inspect", help="summarize a model/dataset/JSON file")
    ins.add_argument("path")
    ins.set_defaults(func=cmd_inspect)
    return parser


def _outdir(raw: str) -> Path:
    out = Path(raw)
    out.mkdir(parents=True, exist_ok=True)
    return out


def cmd_gen(args) -> int:
    spec = ModelSpec(num_blocks=args.blocks, embed_dim=args.embed_dim,
                     num_heads=args.heads, patch_count=args.patches,
                     num_classes=args.classes, mlp_ratio=args.mlp_ratio,
                     init_seed=args.seed)
    model = init_model(spec)
    calib_x, calib_y = generate_dataset(args.calib_size, spec.patch_count,
                                        spec.embed_dim, spec.num_classes,
                                        args.seed + 1)
    eval_x, eval_y = generate_dataset(args.eval_size, spec.patch_count,
                                      spec.embed_dim, spec.num_classes,
                                      args.seed + 2)
    out = _outdir(args.out)
    save_model(model, out / "model.bbcv")
    for name, (x, y, seed) in (("calib", (calib_x, calib_y, args.seed + 1)),
                               ("eval", (eval_x, eval_y, args.seed + 2))):
        save_dataset(x, y, out / f"{name}.bbcv",
                     meta={"split": name, "seed": seed,
                           "num_classes": spec.num_classes})
    print(f"wrote {out / 'model.bbcv'} ({spec.num_blocks} blocks, "
          f"dim {spec.embed_dim})")
    print(f"wrote {out / 'calib.bbcv'} ({args.calib_size} samples)")
    print(f"wrote {out / 'eval.bbcv'} ({args.eval_size} samples)")
    return 0


def _resolve_config(args, sample_count: int) -> CalibConfig:
    alpha_default, beta_default = PROFILE_RANGES[args.profile]
    batch = min(args.calib_batch, sample_count)
    return CalibConfig(
        w_bits=args.wbits, a_bits=args.abits, gamma=args.gamma,
        alpha=args.alpha if args.alpha is not None else alpha_default,
        beta=args.beta if args.beta is not None else beta_default,
        num_candidates=args.candidates, rounds=args.rounds,
        softmax_quantizer=SOFTMAX_CHOICES[args.softmax_quant],
        dynamic_softmax=args.dynamic_softmax, calib_batch=batch,
        blocks_as_layers=args.blocks_as_layers, profile=args.profile)


def cmd_calibrate(args) -> int:
    started = time.perf_counter()
    model = load_model(args.model)
    inputs, labels, _meta = load_dataset(args.calib)
    config = _resolve_config(args, len(inputs))
    result = calibrate(model, inputs[:config.calib_batch],
                       labels[:config.calib_batch], config)
    out = _outdir(args.out)
    save_result(result, out / "calib_result.json")
    report = Report(command="calibrate",
                    config={"command": "calibrate", "model": args.model,
                            "calib": args.calib, "out": args.out,
                            **config.to_json()},
                    fp_loss=result.fp_loss,
                    fp_block_inputs=result.fp_block_inputs,
                    softmax_max=result.softmax_max,
                    sites=site_summaries(result),
                    wall_clock_seconds=time.perf_counter() - started)
    write_report(report, out / "report.json")
    print(f"wrote {out / 'calib_result.json'} "
          f"(W{config.w_bits}A{config.a_bits}, fp_loss={result.fp_loss:.6f})")
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_eval(args) -> int:
    started = time.perf_counter()
    model = load_model(args.model)
    inputs, labels, _meta = load_dataset(args.eval)
    rows = []
    fp = evaluate(model, None, inputs, labels)
    rows.append({"label": "fp", "w_bits": None, "a_bits": None,
                 "softmax_quantizer": None, "dynamic_softmax": None,
                 **fp.to_json()})
    for path in args.result:
        result = load_result(path)
        m = evaluate(model, result, inputs, labels)
        rows.append({"label": path,
                     "w_bits": result.config.w_bits,
                     "a_bits": result.config.a_bits,
                     "softmax_quantizer": result.config.softmax_quantizer,
                     "dynamic_softmax": result.config.dynamic_softmax,
                     **m.to_json()})
    out = _outdir(args.out)
    report = Report(command="eval",
                    config={"command": "eval", "model": args.model,
                            "eval": args.eval, "result": list(args.result),
                            "out": args.out},
                    metrics=rows,
                    wall_clock_seconds=time.perf_counter() - started)
    write_report(report, out / "report.json")
    for row in rows:
        print(f"{row['label']}: top1={row['top1_accuracy']:.4f} "
              f"agreement={row['fp_agreement']:.4f} "
              f"loss={row['mean_loss']:.6f}")
    print(f"wrote {out / 'report.json'}")
    return 0


def _harvest_scores(model_path: str, data_path: str) -> np.ndarray:
    """Pre-softmax attention rows from a full-precision forward pass."""
    model = load_model(model_path)
    inputs, _labels, _meta = load_dataset(data_path)
    per_block: list[np.ndarray] = []

    def hook(kind, block, a, b, out):
        if kind == "attn-score":
            per_block.append(out.data)

    forward(model, Tensor(np.asarray(inputs, dtype=np.float64)), hook=hook)
    cols = per_block[0].shape[-1]
    return np.concatenate([s.reshape(-1, cols) for s in per_block], axis=0)


def cmd_compare_softmax(args) -> int:
    started = time.perf_counter()
    if args.synthetic is not None:
        scores = synthetic_scores(args.synthetic, args.rows, args.cols,
                                  args.seed, args.exponent)
        source = {"synthetic": args.synthetic, "rows": args.rows,
                  "cols": args.cols, "exponent": args.exponent,
                  "seed": args.seed}
    elif args.model is not None and args.eval is not None:
        scores = _harvest_scores(args.model, args.eval)
        source = {"model": args.model, "eval": args.eval}
    else:
        raise ConfigError(
            "compare-softmax needs --synthetic or both --model and --eval")
    rows = compare_softmax_quantizers(scores, args.bits)
    out = _outdir(args.out)
    report = Report(command="compare-softmax",
                    config={"command": "compare-softmax", "bits": args.bits,
                            "out": args.out, **source},
                    metrics=[r.to_json() for r in rows],
                    wall_clock_seconds=time.perf_counter() - started)
    write_report(report, out / "report.json")
    for row in rows:
        print(f"{row.scheme}: entropy={row.entropy_bits:.4f}b "
              f"mean_err={row.mean_abs_error:.3e} "
              f"argmax_rate={row.argmax_preservation_rate:.4f} "
              f"max_value_err={row.max_value_error:.3e}")
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_inspect(args) -> int:
    path = Path(args.path)
    with path.open("rb") as fh:
        head = fh.read(6)
    if head == MAGIC:
        summary = _inspect_container(path)
    else:
        payload = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(payload, dict):
            raise FormatError(f"{path}: top level is not a JSON object")
        summary = _inspect_json(payload)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return 0


def _inspect_container(path: Path) -> dict:
    with path.open("rb") as fh:
        blob = fh.read()
    # Try both container kinds; the manifest records which one it is.
    from .errors import ManifestError
    from .serialize import deserialize_dataset, deserialize_model
    try:
        model = deserialize_model(blob)
        return {"kind": "model", "spec": model.spec.to_json(),
                "parameters": [{"name": n, "shape": list(a.shape)}
                               for n, a in model.parameters()]}
    except ManifestError:
        inputs, labels, meta = deserialize_dataset(blob)
        return {"kind": "dataset", "meta": meta,
                "inputs_shape": list(inputs.shape),
                "labels_shape": list(labels.shape),
                "classes_present": sorted(int(c) for c in np.unique(labels))}


def _inspect_json(payload: dict) -> dict:
    if payload.get("kind") == "calib-result":
        result = CalibResult.from_json(payload)
        return {"kind": "calib-result",
                "config": result.config.to_json(),
                "fp_loss": result.fp_loss,
                "sites": len(result.params),
                "searched_sites": sum(1 for t in result.traces.values() if t)}
    if "schema_version" in payload and "command" in payload:
        for key in ("sites", "metrics"):
            if not isinstance(payload.get(key), (list, type(None))):
                raise FormatError(f"report field {key!r} must be a list or null, "
                                  f"got {type(payload[key]).__name__}")
        return {"kind": "report", "command": payload["command"],
                "tool_version": payload.get("tool_version"),
                "has_sites": payload.get("sites") is not None,
                "metric_rows": len(payload.get("metrics") or [])}
    return {"kind": "unknown-json", "top_level_keys": sorted(payload)}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BBCQError as exc:
        print(f"error:{exc.category}: {exc}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error:format: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error:io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
