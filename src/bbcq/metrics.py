"""Code entropy, softmax-quantizer comparisons, and model-level evaluation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calibration import CalibResult, bottom_threshold
from .errors import ContractError, DimensionError, ParameterError
from .model import Model, forward
from .quantizers import (CodeTensor, fake_quant_array, mpq_code_values,
                         mpq_dequant_values, quantize, softmax_site_params)
from .tensor import Tensor, cross_entropy, require_finite

COMPARE_SCHEMES = ("uniform", "log2", "twin", "mpq")


def code_entropy(codes: CodeTensor) -> float:
    """Shannon entropy (bits) of the code histogram.

    A deterministic quantizer leaks no extra randomness, so this equals the
    empirical mutual information between inputs and codes; it is bounded by
    the bit-width and hits it exactly for uniformly distributed codes.
    """
    if codes.size == 0:
        raise ContractError("code_entropy needs at least one code")
    counts = np.bincount(codes.codes, minlength=codes.params.num_codes)
    probs = counts / codes.size
    probs = probs[probs > 0]
    return float(-(probs * np.log2(probs)).sum())


@dataclass
class QuantReportRow:
    """One quantizer's behaviour on one batch of softmax rows."""

    site_id: str
    scheme: str
    bits: int
    entropy_bits: float
    mean_abs_error: float
    max_abs_error: float
    argmax_preservation_rate: float
    max_value_error: float
    top_exact: bool

    def __post_init__(self):
        if not 0.0 <= self.entropy_bits <= self.bits + 1e-9:
            raise ContractError(
                f"entropy {self.entropy_bits} outside [0, {self.bits}] bits")
        if not 0.0 <= self.argmax_preservation_rate <= 1.0:
            raise ContractError(
                f"rate {self.argmax_preservation_rate} outside [0, 1]")

    def to_json(self) -> dict:
        return {
            "site_id": self.site_id,
            "scheme": self.scheme,
            "bits": self.bits,
            "entropy_bits": self.entropy_bits,
            "mean_abs_error": self.mean_abs_error,
            "max_abs_error": self.max_abs_error,
            "argmax_preservation_rate": self.argmax_preservation_rate,
            "max_value_error": self.max_value_error,
            "top_exact": self.top_exact,
        }


def _stable_softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def compare_softmax_quantizers(scores, bits: int,
                               site_id: str = "softmax") -> list[QuantReportRow]:
    """Push softmax rows through each quantizer and report the differences.

    ``scores`` are pre-softmax values, one attention row per last-axis slice.
    The uniform/log/twin rows use a single static range calibrated on this
    batch; the max-anchored scheme follows its defining rule of anchoring to
    each row's own maximum, which is what makes the per-row top value exactly
    representable. ``max_value_error`` is the worst dequantization error at
    any row's argmax position.
    """
    arr = scores.data if isinstance(scores, Tensor) else \
        np.asarray(scores, dtype=np.float64)
    if arr.ndim < 2:
        raise DimensionError(f"scores must be at least 2-d, got shape {arr.shape}")
    probs = _stable_softmax(arr).reshape(-1, arr.shape[-1])
    static_max = float(probs.max())
    static_min = float(probs.min())
    row_idx = np.arange(probs.shape[0])
    fp_argmax = probs.argmax(axis=1)

    rows = []
    for scheme in COMPARE_SCHEMES:
        if scheme == "mpq":
            row_max = probs.max(axis=1, keepdims=True)
            code_values = mpq_code_values(probs, bits, row_max)
            deq = mpq_dequant_values(code_values, bits, row_max)
            params = softmax_site_params("mpq", bits, static_max)
            ct = CodeTensor(probs.shape, code_values, params)
        else:
            params = softmax_site_params(scheme, bits, static_max, static_min)
            ct = quantize(probs, params)
            deq = fake_quant_array(probs, params)
        abs_err = np.abs(deq - probs)
        at_max = np.abs(deq[row_idx, fp_argmax] - probs[row_idx, fp_argmax])
        max_value_error = float(at_max.max())
        rows.append(QuantReportRow(
            site_id=site_id,
            scheme=scheme,
            bits=bits,
            entropy_bits=code_entropy(ct),
            mean_abs_error=float(abs_err.mean()),
            max_abs_error=float(abs_err.max()),
            argmax_preservation_rate=float(
                (deq.argmax(axis=1) == fp_argmax).mean()),
            max_value_error=max_value_error,
            top_exact=max_value_error == 0.0,
        ))
    return rows


@dataclass
class EvalMetrics:
    top1_accuracy: float
    fp_agreement: float
    mean_loss: float

    def to_json(self) -> dict:
        return {
            "top1_accuracy": self.top1_accuracy,
            "fp_agreement": self.fp_agreement,
            "mean_loss": self.mean_loss,
        }


def evaluate(model: Model, result: CalibResult | None, inputs,
             labels) -> EvalMetrics:
    """Top-1 accuracy, agreement with the FP model's argmax, and mean loss.

    With no calibration result the model runs in full precision and agrees
    with itself exactly.
    """
    x = require_finite(np.asarray(inputs, dtype=np.float64), "inputs")
    labels = np.asarray(labels)
    fp_logits = forward(model, Tensor(x)).logits.data
    if result is None:
        logits = fp_logits
    else:
        logits = forward(model, Tensor(x), quant=result.quant_state(),
                         dynamic_softmax=result.config.dynamic_softmax).logits.data
    pred = logits.argmax(axis=1)
    return EvalMetrics(
        top1_accuracy=float((pred == labels).mean()),
        fp_agreement=float((pred == fp_logits.argmax(axis=1)).mean()),
        mean_loss=cross_entropy(Tensor(logits), labels).item(),
    )


@dataclass
class ErrorStats:
    """Magnitude histogram of one block's output drift, metric-weighted."""

    bin_edges: list[float]
    bin_mass: list[float]
    percentiles: dict[int, float]
    threshold: float

    def to_json(self) -> dict:
        return {
            "bin_edges": self.bin_edges,
            "bin_mass": self.bin_mass,
            "percentiles": {str(k): v for k, v in self.percentiles.items()},
            "threshold": self.threshold,
        }


def error_stats(sigma, h_diag, gamma: float = 10.0, bins: int = 16) -> ErrorStats:
    """Histogram |sigma| with each entry's sensitivity-weighted squared mass.

    Bin mass is sigma^2 * h_diag summed per |sigma| bin (so an all-zero drift
    yields an all-zero histogram); the percentile summary uses the
    nearest-rank rule on |sigma| and ``threshold`` is bit-identical to the
    one bottom_mask would apply at this gamma.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    h = np.asarray(h_diag, dtype=np.float64)
    if sigma.shape != h.shape:
        raise DimensionError(
            f"sigma shape {sigma.shape} does not match h_diag shape {h.shape}")
    if bins < 1:
        raise ParameterError(f"bins must be >= 1, got {bins}")
    abs_sigma = np.abs(sigma).ravel()
    weights = (sigma * sigma * h).ravel()
    top = float(abs_sigma.max()) if abs_sigma.size else 0.0
    edges = np.linspace(0.0, top if top > 0.0 else 1.0, bins + 1)
    mass, _ = np.histogram(abs_sigma, bins=edges, weights=weights)
    ordered = np.sort(abs_sigma)
    percentiles = {}
    for p in (25, 50, 75, 90, 100):
        if ordered.size == 0:
            percentiles[p] = 0.0
            continue
        rank = min(max(int(math.ceil(p / 100.0 * ordered.size)), 1), ordered.size)
        percentiles[p] = float(ordered[rank - 1])
    return ErrorStats(bin_edges=[float(e) for e in edges],
                      bin_mass=[float(m) for m in mass],
                      percentiles=percentiles,
                      threshold=bottom_threshold(sigma, gamma))
