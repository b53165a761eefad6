"""Code entropy, softmax-quantizer comparison rows, and evaluation."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from bbcq import metrics as metrics_module
from bbcq.calibration import CalibConfig, CalibResult, calibrate
from bbcq.data import generate_dataset, synthetic_scores
from bbcq.errors import (ContractError, DimensionError, NonFiniteError,
                         ParameterError)
from bbcq.metrics import (COMPARE_SCHEMES, EvalMetrics, QuantReportRow,
                          code_entropy, compare_softmax_quantizers,
                          evaluate)
from bbcq.model import MatmulSite, ModelSpec, forward, init_model
from bbcq.quantizers import CodeTensor, DynamicSoftmax, QuantParams, quantize


def _codes(values, bits=4):
    params = QuantParams(bits=bits, scale=1.0, zero_point=0, scheme="uniform")
    arr = np.asarray(values)
    return CodeTensor(arr.shape, arr, params)


# ---------------------------------------------------------------------------
# entropy


def test_entropy_uniform_codes_hit_the_bit_width():
    for bits in (2, 4, 6, 8):
        codes = _codes(np.tile(np.arange(1 << bits), 3), bits=bits)
        assert code_entropy(codes) == float(bits)


def test_entropy_constant_codes_is_zero():
    h = code_entropy(_codes(np.full(50, 9)))
    # +0.0, not the -0.0 that a report line would print as -0.0000b.
    assert h == 0.0 and math.copysign(1.0, h) == 1.0


def test_entropy_hand_example():
    # counts {0: 2, 1: 2, 2: 1, 3: 1} over six codes
    h = code_entropy(_codes([0, 0, 1, 1, 2, 3], bits=2))
    expected = (2 / 3) * math.log2(3) + (1 / 3) * math.log2(6)
    assert h == pytest.approx(expected, abs=1e-12)


def test_entropy_is_permutation_invariant(rng):
    codes = rng.integers(0, 16, size=400)
    shuffled = rng.permutation(codes)
    assert code_entropy(_codes(codes)) == code_entropy(_codes(shuffled))


def test_entropy_bounded_by_bits(rng):
    for bits in (2, 3, 5, 8):
        codes = rng.integers(0, 1 << bits, size=257)
        assert 0.0 <= code_entropy(_codes(codes, bits=bits)) <= bits


def test_entropy_counts_unused_codes_as_zero_mass(rng):
    # only two of sixteen codes in use: entropy of a coin, not of the alphabet
    codes = rng.integers(0, 2, size=1000)
    assert code_entropy(_codes(codes)) <= 1.0


def test_entropy_rejects_empty():
    with pytest.raises(ContractError):
        code_entropy(_codes(np.zeros((0,), dtype=np.int64)))


def test_entropy_accepts_quantize_output(rng):
    params = QuantParams(bits=4, scale=0.05, zero_point=8, scheme="uniform")
    ct = quantize(rng.normal(size=(10, 10)), params)
    assert 0.0 <= code_entropy(ct) <= 4.0


# ---------------------------------------------------------------------------
# report rows


def test_report_row_validation():
    base = dict(site_id="s", scheme="mpq", bits=4, mean_abs_error=0.0,
                max_abs_error=0.0, max_value_error=0.0, top_exact=True)
    with pytest.raises(ContractError):
        QuantReportRow(entropy_bits=4.5, argmax_preservation_rate=1.0, **base)
    with pytest.raises(ContractError):
        QuantReportRow(entropy_bits=1.0, argmax_preservation_rate=1.5, **base)
    for entropy, rate in ((0.0, 0.0), (4.0, 1.0)):  # the bounds are inside
        QuantReportRow(entropy_bits=entropy, argmax_preservation_rate=rate,
                       **base)
    row = QuantReportRow(entropy_bits=1.0, argmax_preservation_rate=0.5, **base)
    assert set(row.to_json()) == {
        "site_id", "scheme", "bits", "entropy_bits", "mean_abs_error",
        "max_abs_error", "argmax_preservation_rate", "max_value_error",
        "top_exact"}


def test_compare_hand_example():
    """Rows softmax to [1/4, 3/4] and [1/2, 1/2]. 2-bit uniform over the
    static range [1/4, 3/4] has step 1/6 and zero point 0, so it gives
    [1/3, 1/2] and [1/2, 1/2]; mpq anchors each row to its max."""
    scores = np.array([[0.0, math.log(3.0)], [0.0, 0.0]])
    rows = {r.scheme: r for r in compare_softmax_quantizers(scores, 2)}
    uniform = rows["uniform"]
    assert uniform.mean_abs_error == pytest.approx((1 / 12 + 1 / 4) / 4)
    assert uniform.max_abs_error == pytest.approx(0.25)
    assert uniform.max_value_error == pytest.approx(0.25)
    assert uniform.argmax_preservation_rate == 1.0
    assert rows["mpq"].mean_abs_error == pytest.approx(0.0, abs=1e-15)


def test_compare_uniform_is_exact_on_constant_rows():
    """Equal scores give constant rows, a zero-width uniform range."""
    rows = {r.scheme: r for r in compare_softmax_quantizers(np.zeros((4, 8)), 4)}
    assert rows["uniform"].mean_abs_error == 0.0
    assert rows["uniform"].top_exact


def test_compare_rows_come_back_in_scheme_order():
    scores = synthetic_scores("gaussian", 8, 6, seed=3)
    rows = compare_softmax_quantizers(scores, 4)
    assert tuple(r.scheme for r in rows) == COMPARE_SCHEMES
    assert all(r.bits == 4 for r in rows)
    assert all(r.site_id == "softmax" for r in rows)


def test_compare_max_anchored_scheme_is_top_exact_on_heavy_tails():
    scores = synthetic_scores("powerlaw", 64, 16, seed=0)
    rows = {r.scheme: r for r in compare_softmax_quantizers(scores, 4)}
    assert rows["mpq"].max_value_error == 0.0
    assert rows["mpq"].top_exact
    assert rows["mpq"].argmax_preservation_rate == 1.0
    for scheme in ("uniform", "log2", "twin"):
        assert rows[scheme].max_value_error > 0.0
        assert not rows[scheme].top_exact


def test_compare_error_fields_are_consistent():
    scores = synthetic_scores("powerlaw", 32, 8, seed=5)
    for row in compare_softmax_quantizers(scores, 6):
        assert 0.0 <= row.mean_abs_error <= row.max_abs_error
        assert row.max_value_error <= row.max_abs_error
        assert 0.0 <= row.entropy_bits <= 6.0


def test_compare_is_deterministic():
    scores = synthetic_scores("powerlaw", 16, 8, seed=11)
    a = compare_softmax_quantizers(scores, 4)
    b = compare_softmax_quantizers(scores, 4)
    assert [r.to_json() for r in a] == [r.to_json() for r in b]


def test_compare_handles_batched_attention_shapes(rng):
    scores = rng.normal(size=(2, 3, 5, 5))  # (batch, heads, rows, cols)
    rows = compare_softmax_quantizers(scores, 4)
    assert len(rows) == 4
    assert rows[0].site_id == "softmax"


def test_compare_rejects_vectors():
    with pytest.raises(DimensionError):
        compare_softmax_quantizers(np.zeros(5), 4)


@pytest.mark.parametrize("shape", [(0, 16), (4, 0)], ids=["no-rows", "no-cols"])
def test_compare_rejects_an_empty_score_array(shape):
    """No rows (an empty split) or rows of no score have no maximum to
    quantize against: a ParameterError, not numpy's ValueError."""
    with pytest.raises(ParameterError, match="is empty"):
        compare_softmax_quantizers(np.empty(shape), 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_compare_rejects_non_finite_scores(bad):
    scores = np.zeros((3, 4))
    scores[1, 2] = bad
    with pytest.raises(NonFiniteError, match="the score array"):
        compare_softmax_quantizers(scores, 4)


# ---------------------------------------------------------------------------
# evaluation


def _eval_setup():
    spec = ModelSpec(num_blocks=1, embed_dim=16, num_heads=2, patch_count=4,
                     num_classes=4, init_seed=2)
    model = init_model(spec)
    x, y = generate_dataset(24, 4, 16, 4, seed=20)
    return model, x, y


def test_evaluate_fp_agrees_with_itself():
    model, x, y = _eval_setup()
    metrics = evaluate(model, None, x, y)
    assert metrics.fp_agreement == 1.0
    assert 0.0 <= metrics.top1_accuracy <= 1.0
    assert math.isfinite(metrics.mean_loss) and metrics.mean_loss > 0.0


def test_evaluate_top1_accuracy_counts_label_hits():
    model, x, _ = _eval_setup()
    fp_pred = forward(model, x).argmax(axis=1)
    assert evaluate(model, None, x, fp_pred).top1_accuracy == 1.0
    assert evaluate(model, None, x, (fp_pred + 1) % 4).top1_accuracy == 0.0


def test_evaluate_one_patch_uniform_softmax_agrees_with_fp():
    """With one patch every softmax row is [1.0], a zero-width range; the
    uniform row holds it exactly, as mpq does."""
    spec = ModelSpec(num_blocks=1, embed_dim=16, num_heads=2, patch_count=1,
                     num_classes=4, init_seed=0)
    model = init_model(spec)
    x, y = generate_dataset(16, 1, 16, 4, seed=1)
    result = calibrate(model, x, y, CalibConfig(
        w_bits=8, a_bits=8, num_candidates=4, rounds=1,
        softmax_quantizer="uniform"))
    assert evaluate(model, result, x, y).fp_agreement == 1.0


def test_evaluate_quantized_model():
    model, x, y = _eval_setup()
    result = calibrate(model, x, y, CalibConfig(w_bits=8, a_bits=8,
                                                num_candidates=4, rounds=1))
    metrics = evaluate(model, result, x, y)
    assert 0.0 <= metrics.fp_agreement <= 1.0
    assert math.isfinite(metrics.mean_loss)
    again = evaluate(model, result, x, y)
    assert metrics == again


def _two_block_result(**config):
    model = init_model(ModelSpec(num_blocks=2, embed_dim=16, num_heads=2,
                                 patch_count=4, num_classes=4, init_seed=0))
    cx, cy = generate_dataset(16, 4, 16, 4, seed=1)
    result = calibrate(model, cx, cy, CalibConfig(w_bits=4, a_bits=4,
                                                  num_candidates=4, rounds=1,
                                                  **config))
    return model, result


def test_every_consumer_runs_a_dynamic_result_dynamically():
    """``quant_state()`` carries the softmax mode, so a plain forward, eval
    and a JSON round trip all run a dynamic result as calibrate searched it."""
    model, result = _two_block_result(dynamic_softmax=True,
                                      softmax_quantizer="twin")
    ex, ey = generate_dataset(128, 4, 16, 4, seed=2)
    state = result.quant_state()
    for b in range(2):
        assert state[MatmulSite("attn-apply", "A", b)] == DynamicSoftmax("twin", 4)
    fp = forward(model, ex).argmax(axis=1)

    def agreement(quant):
        return float((forward(model, ex, quant=quant).argmax(axis=1)
                      == fp).mean())

    assert evaluate(model, result, ex, ey).fp_agreement == agreement(state)
    # The static params give another agreement on this data, so the check
    # above tells the two modes apart.
    assert agreement(result.params) != agreement(state)
    loaded = CalibResult.from_json(json.loads(result.dumps()))
    assert loaded.quant_state() == state


def test_static_result_quant_state_is_its_params():
    _, result = _two_block_result()
    assert result.quant_state() == result.params


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_rejects_non_finite_inputs(bad):
    model, x, y = _eval_setup()
    x = x.copy()
    x[0, 0, 0] = bad
    with pytest.raises(NonFiniteError):
        evaluate(model, None, x, y)


def test_evaluate_rejects_labels_of_another_length():
    model, x, y = _eval_setup()
    with pytest.raises(DimensionError, match="one label per input sample"):
        evaluate(model, None, x[:8], y[:5])


def test_evaluate_rejects_zero_samples():
    model, x, y = _eval_setup()
    with pytest.raises(ParameterError, match="at least one sample"):
        evaluate(model, None, x[:0], y[:0])


def test_evaluate_rejects_non_finite_quantized_logits(monkeypatch):
    model, x, y = _eval_setup()
    result = calibrate(model, x, y, CalibConfig(w_bits=8, a_bits=8,
                                                num_candidates=4, rounds=1))
    fp_forward = metrics_module.forward

    def overflowing_forward(model, x, quant=None, **kwargs):
        out = fp_forward(model, x, quant=quant, **kwargs)
        if quant is not None:
            out[0, 0] = np.inf
        return out

    monkeypatch.setattr(metrics_module, "forward", overflowing_forward)
    evaluate(model, None, x, y)
    with pytest.raises(NonFiniteError, match="the quantized logit array"):
        evaluate(model, result, x, y)


def test_eval_metrics_json_keys():
    m = EvalMetrics(top1_accuracy=0.5, fp_agreement=1.0, mean_loss=2.0)
    assert m.to_json() == {"top1_accuracy": 0.5, "fp_agreement": 1.0,
                           "mean_loss": 2.0}


# ---------------------------------------------------------------------------
# synthetic score generators (shared by the comparison CLI)


def test_synthetic_scores_shapes_and_determinism():
    a = synthetic_scores("powerlaw", 5, 7, seed=3)
    b = synthetic_scores("powerlaw", 5, 7, seed=3)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (5, 7)
    assert synthetic_scores("gaussian", 4, 4, seed=0).shape == (4, 4)


def test_synthetic_scores_powerlaw_is_heavy_tailed():
    probs = np.exp(synthetic_scores("powerlaw", 200, 16, seed=1))
    probs = probs / probs.sum(axis=1, keepdims=True)
    assert probs.max(axis=1).mean() > 0.5  # one weight dominates each row


def test_synthetic_scores_validation():
    with pytest.raises(ParameterError):
        synthetic_scores("cauchy", 4, 4, seed=0)
    with pytest.raises(ParameterError):
        synthetic_scores("gaussian", 0, 4, seed=0)
    with pytest.raises(ParameterError):
        synthetic_scores("gaussian", 4, 1, seed=0)
    for seed, exponent in ((-1, 2.0), (0, np.nan), (0, np.inf), (0, -np.inf)):
        with pytest.raises(ParameterError):
            synthetic_scores("gaussian", 4, 4, seed=seed, exponent=exponent)


def test_generate_dataset_rejects_a_negative_seed():
    with pytest.raises(ParameterError, match="seed"):
        generate_dataset(4, 2, 2, 2, seed=-1)


def test_generate_dataset_smallest_sizes_and_one_below():
    """1 sample of 1 patch with embed dim 1 and 2 classes is legal; one
    less of any of them is not."""
    inputs, labels = generate_dataset(1, 1, 1, 2, seed=0)
    assert inputs.shape == (1, 1, 1) and labels.shape == (1,)
    for args in ((0, 1, 1, 2), (1, 0, 1, 2), (1, 1, 0, 2), (1, 1, 1, 1)):
        with pytest.raises(ParameterError):
            generate_dataset(*args, seed=0)


def test_synthetic_scores_smallest_sizes_and_one_below():
    """1 row of 2 columns is legal for both kinds; 0 rows or 1 column is not."""
    for kind in ("powerlaw", "gaussian"):
        assert synthetic_scores(kind, 1, 2, seed=0).shape == (1, 2)
        for rows, cols in ((0, 2), (1, 1)):
            with pytest.raises(ParameterError, match="need rows >= 1 and cols >= 2"):
                synthetic_scores(kind, rows, cols, seed=0)


def test_synthetic_powerlaw_bytes_are_pinned():
    """The default exponent (2) and the jittered rank weights, bit for bit."""
    want = np.array([[-2.0582816131797226, 0.07815751024077053,
                      -2.8764578666605605, -1.2008558251264783],
                     [-1.2296729176255357, -2.049942078468788,
                      -0.22018619478889104, -2.7620734729833885]])
    got = synthetic_scores("powerlaw", 2, 4, seed=7)
    assert got.tobytes() == want.tobytes()
