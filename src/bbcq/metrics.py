"""Code entropy, softmax-quantizer comparisons, and model-level evaluation."""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .calibration import CalibResult, worker_pool
from .errors import ContractError, DimensionError, ParameterError
from .model import Model, enumerate_sites, forward
from .quantizers import SCHEME_TABLE, CodeTensor, softmax_site_params
from .tensor import cross_entropy, require_finite, softmax

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
    # + 0.0 turns the -0.0 of a single code into 0.0.
    return float(-(probs * np.log2(probs)).sum()) + 0.0


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
        return asdict(self)


def compare_softmax_quantizers(scores, bits: int) -> list[QuantReportRow]:
    """Push softmax rows through each quantizer and report the differences.

    ``scores`` are pre-softmax values, one attention row per last-axis slice.
    The uniform/log/twin rows use a single static range calibrated on this
    batch; the max-anchored scheme follows its defining rule of anchoring to
    each row's own maximum, which is what makes the per-row top value exactly
    representable. ``max_value_error`` is the worst dequantization error at
    any row's argmax position; NaN or infinite scores raise NonFiniteError
    and an empty score array (no rows, or rows of no score) ParameterError.
    """
    scores = require_finite(np.asarray(scores, dtype=np.float64), "the score array")
    if not scores.size:
        raise ParameterError(f"the score array of shape {scores.shape} is empty")
    probs = softmax(scores)
    if probs.ndim < 2:
        raise DimensionError(f"scores must be at least 2-d, got shape {probs.shape}")
    probs = probs.reshape(-1, probs.shape[-1])
    static_max = float(probs.max())
    static_min = float(probs.min())
    row_max = probs.max(axis=1, keepdims=True)
    row_idx = np.arange(probs.shape[0])
    fp_argmax = probs.argmax(axis=1)

    rows = []
    for scheme in COMPARE_SCHEMES:
        entry = SCHEME_TABLE[scheme]
        params = softmax_site_params(scheme, bits, static_max, static_min)
        anchor = entry.anchor(bits, row_max, 0.0) if scheme == "mpq" else params
        codes = entry.encode(probs, anchor)
        deq = entry.decode(codes, anchor)
        abs_err = np.abs(deq - probs)
        at_max = np.abs(deq[row_idx, fp_argmax] - probs[row_idx, fp_argmax])
        max_value_error = float(at_max.max())
        rows.append(QuantReportRow(
            site_id="softmax",
            scheme=scheme,
            bits=bits,
            entropy_bits=code_entropy(CodeTensor(probs.shape, codes, params)),
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
        return asdict(self)


def evaluate(model: Model, result: CalibResult | None, inputs,
             labels) -> EvalMetrics:
    """Top-1 accuracy, agreement with the FP model's argmax, and mean loss.

    With no calibration result the model runs in full precision and agrees
    with itself exactly. A result must cover every site of the model, and
    ``labels`` must hold one label per input sample, of which there must be
    at least one. Both forwards share one ``worker_pool()``.
    """
    if result is not None:
        missing = [site.site_id for site in enumerate_sites(model.spec)
                   if site not in result.params]
        if missing:
            raise ContractError(
                f"calib result misses sites of the model: {', '.join(missing)}")
    x = require_finite(np.asarray(inputs, dtype=np.float64), "inputs")
    labels = np.asarray(labels)
    if labels.shape != x.shape[:1]:
        raise DimensionError(f"labels shape {labels.shape} does not match "
                             f"{x.shape[:1]}, one label per input sample")
    if labels.shape == (0,):
        raise ParameterError("evaluate needs at least one sample")
    with worker_pool() as executor:
        fp_logits = require_finite(
            forward(model, x, executor=executor),
            "the FP logit array")
        if result is None:
            logits = fp_logits
        else:
            logits = require_finite(
                forward(model, x, quant=result.quant_state(), executor=executor),
                "the quantized logit array")
    pred = logits.argmax(axis=1)
    return EvalMetrics(
        top1_accuracy=float((pred == labels).mean()),
        fp_agreement=float((pred == fp_logits.argmax(axis=1)).mean()),
        mean_loss=cross_entropy(logits, labels).item(),
    )
