"""Code entropy, softmax-quantizer comparison rows, evaluation, error stats."""

from __future__ import annotations

import math

import numpy as np
import pytest

from bbcq.calibration import CalibConfig, bottom_threshold, calibrate
from bbcq.data import generate_dataset, synthetic_scores
from bbcq.errors import (ContractError, DimensionError, NonFiniteError,
                         ParameterError)
from bbcq.metrics import (COMPARE_SCHEMES, EvalMetrics, QuantReportRow,
                          code_entropy, compare_softmax_quantizers, error_stats,
                          evaluate)
from bbcq.model import ModelSpec, init_model
from bbcq.quantizers import CodeTensor, QuantParams, quantize


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
    assert code_entropy(_codes(np.full(50, 9))) == 0.0


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
    row = QuantReportRow(entropy_bits=1.0, argmax_preservation_rate=0.5, **base)
    assert set(row.to_json()) == {
        "site_id", "scheme", "bits", "entropy_bits", "mean_abs_error",
        "max_abs_error", "argmax_preservation_rate", "max_value_error",
        "top_exact"}


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
    rows = compare_softmax_quantizers(scores, 4, site_id="b0.attn")
    assert len(rows) == 4
    assert rows[0].site_id == "b0.attn"


def test_compare_rejects_vectors():
    with pytest.raises(DimensionError):
        compare_softmax_quantizers(np.zeros(5), 4)


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


def test_evaluate_quantized_model():
    model, x, y = _eval_setup()
    result = calibrate(model, x, y, CalibConfig(w_bits=8, a_bits=8,
                                                num_candidates=4, rounds=1))
    metrics = evaluate(model, result, x, y)
    assert 0.0 <= metrics.fp_agreement <= 1.0
    assert math.isfinite(metrics.mean_loss)
    again = evaluate(model, result, x, y)
    assert metrics == again


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_evaluate_rejects_non_finite_inputs(bad):
    model, x, y = _eval_setup()
    x = x.copy()
    x[0, 0, 0] = bad
    with pytest.raises(NonFiniteError):
        evaluate(model, None, x, y)


def test_eval_metrics_json_keys():
    m = EvalMetrics(top1_accuracy=0.5, fp_agreement=1.0, mean_loss=2.0)
    assert m.to_json() == {"top1_accuracy": 0.5, "fp_agreement": 1.0,
                           "mean_loss": 2.0}


# ---------------------------------------------------------------------------
# drift histograms


def test_error_stats_zero_drift():
    stats = error_stats(np.zeros((3, 4)), np.ones((3, 4)), gamma=10.0, bins=4)
    assert stats.bin_mass == [0.0] * 4
    assert stats.bin_edges[0] == 0.0 and stats.bin_edges[-1] == 1.0
    assert all(v == 0.0 for v in stats.percentiles.values())


def test_error_stats_hand_percentiles():
    sigma = np.array([10.0, 20.0, 30.0, 40.0])
    stats = error_stats(sigma, np.ones(4), gamma=0.0, bins=2)
    assert stats.percentiles == {25: 10.0, 50: 20.0, 75: 30.0, 90: 40.0,
                                 100: 40.0}


def test_error_stats_mass_accounts_for_everything(rng):
    sigma = rng.normal(size=(5, 6))
    h = rng.uniform(0.0, 2.0, size=(5, 6))
    stats = error_stats(sigma, h, bins=8)
    assert sum(stats.bin_mass) == pytest.approx(float((sigma * sigma * h).sum()),
                                                rel=1e-12)
    assert stats.bin_edges[-1] == pytest.approx(float(np.abs(sigma).max()))
    assert len(stats.bin_edges) == 9 and len(stats.bin_mass) == 8


def test_error_stats_threshold_matches_masking_rule(rng):
    sigma = rng.normal(size=37)
    for gamma in (0.0, 10.0, 50.0, 100.0):
        stats = error_stats(sigma, np.ones(37), gamma=gamma)
        assert stats.threshold == bottom_threshold(sigma, gamma)


def test_error_stats_validation(rng):
    with pytest.raises(DimensionError):
        error_stats(np.zeros(3), np.zeros(4))
    with pytest.raises(ParameterError):
        error_stats(np.zeros(3), np.zeros(3), bins=0)


def test_error_stats_json_round_trip(rng):
    sigma = rng.normal(size=10)
    payload = error_stats(sigma, np.ones(10)).to_json()
    assert set(payload) == {"bin_edges", "bin_mass", "percentiles", "threshold"}
    assert set(payload["percentiles"]) == {"25", "50", "75", "90", "100"}


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
