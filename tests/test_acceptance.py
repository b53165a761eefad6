"""Ten end-to-end acceptance checks, one test function per criterion.

Tolerances and time budgets are stated inline next to each assertion. The
terminal summary prints one PASS/FAIL line per criterion (see conftest).
"""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from bbcq.calibration import (CalibConfig, CalibInstrumentation, bbc_metric,
                              bottom_mask, cache_fp_pass, calibrate,
                              total_blockwise_metric)
from bbcq.cli import main as cli_main
from bbcq.data import generate_dataset, synthetic_scores
from bbcq.metrics import (code_entropy, compare_softmax_quantizers, evaluate)
from bbcq.model import ModelSpec, forward_from, init_model
from bbcq.quantizers import (CodeTensor, QuantParams, fake_quant_array,
                             softmax_site_params)
from bbcq.tensor import cross_entropy

from _oracles import naive_bbc_metric, oracle_calibrate


def test_c01_metric_matches_naive_double_loop():
    """100 random (sigma, H) pairs, relative error <= 1e-12, under 5s."""
    rng = np.random.default_rng(101)
    shapes = [(3,), (17,), (4, 9), (2, 3, 5), (6, 2, 2, 2), (1, 40)]
    start = time.perf_counter()
    for i in range(100):
        shape = shapes[i % len(shapes)]
        sigma = rng.normal(scale=rng.uniform(0.1, 10.0), size=shape)
        h = rng.uniform(0.0, 3.0, size=shape)
        fast = bbc_metric(sigma, h)
        slow = naive_bbc_metric(sigma, h)
        assert abs(fast - slow) <= 1e-12 * max(abs(slow), 1e-300)
    assert time.perf_counter() - start < 5.0


def test_c02_search_matches_straight_line_oracle_across_seeds():
    """Single-block search equals an independent exhaustive oracle exactly
    (scale, zero point, and chosen index per site), 5 seeds, under 60s."""
    start = time.perf_counter()
    for seed in range(5):
        spec = ModelSpec(num_blocks=1, embed_dim=32, num_heads=4,
                         patch_count=8, num_classes=5, init_seed=seed)
        model = init_model(spec)
        x, y = generate_dataset(8, 8, 32, 5, seed=100 + seed)
        config = CalibConfig(w_bits=4, a_bits=4, gamma=10.0, alpha=0.0,
                             beta=1.2, num_candidates=20, rounds=2)
        result = calibrate(model, x, y, config)
        oracle = oracle_calibrate(model, x, y, w_bits=4, a_bits=4, gamma=10.0,
                                  alpha=0.0, beta=1.2, n=20, rounds=2)
        searched = [s for s in result.params if result.traces.get(s)]
        assert len(searched) == len(oracle) == 11
        for site in searched:
            scale, zero_point, idx, _ = oracle[site.site_id]
            assert result.params[site].scale == scale, (seed, site.site_id)
            assert result.params[site].zero_point == zero_point, site.site_id
            assert result.chosen_index[site] == idx, (seed, site.site_id)
    assert time.perf_counter() - start < 60.0


def test_c03_cached_gradients_match_finite_differences():
    """Loss gradient at every block output vs central differences (h=1e-5),
    max relative error <= 1e-4 over 64 sampled coordinates, 3 seeds."""
    h = 1e-5
    worst = 0.0
    for seed in range(3):
        spec = ModelSpec(num_blocks=2, embed_dim=16, num_heads=2,
                         patch_count=4, num_classes=4, init_seed=seed)
        model = init_model(spec)
        x, y = generate_dataset(4, 4, 16, 4, seed=200 + seed)
        fp = cache_fp_pass(model, x, y)
        probe = np.random.default_rng(300 + seed)
        for b, cache in enumerate(fp.caches):
            base = cache.output
            for flat in probe.choice(base.size, size=64, replace=False):
                idx = np.unravel_index(flat, base.shape)

                def loss_at(value):
                    patched = base.copy()
                    patched[idx] = value
                    logits = forward_from(model, b, patched)
                    return cross_entropy(logits, y).item()

                fd = (loss_at(base[idx] + h) - loss_at(base[idx] - h)) / (2 * h)
                rel = abs(cache.grad[idx] - fd) / max(abs(fd), 1e-10)
                worst = max(worst, rel)
    assert worst <= 1e-4


def test_c04_quantizer_property_suites():
    """Four randomized property suites, >= 1000 cases each, zero failures."""
    cases = 1000
    rng = np.random.default_rng(404)

    # uniform affine: monotone, idempotent, in-range error bounded by step/2
    for _ in range(cases):
        bits = int(rng.integers(2, 9))
        top = (1 << bits) - 1
        scale = float(rng.uniform(1e-3, 5.0))
        zp = int(rng.integers(0, top + 1))
        params = QuantParams(bits=bits, scale=scale, zero_point=zp,
                             scheme="uniform")
        x = np.sort(rng.normal(scale=scale * top, size=9))
        deq = fake_quant_array(x, params)
        assert (np.diff(deq) >= 0.0).all()
        np.testing.assert_array_equal(fake_quant_array(deq, params), deq)
        lo, hi = (0 - zp) * scale, (top - zp) * scale
        inside = (x >= lo) & (x <= hi)
        assert (np.abs(deq[inside] - x[inside])
                <= scale / 2.0 * (1.0 + 1e-9)).all()

    # max-anchored power-of-two levels: top value exact, order preserved
    for _ in range(cases):
        bits = int(rng.integers(2, 9))
        row = rng.uniform(0.0, 1.0, size=12)
        row /= row.sum()
        m = float(row.max())
        deq = fake_quant_array(row, softmax_site_params("mpq", bits, m))
        assert float(deq[int(row.argmax())]) == m
        order = np.argsort(row, kind="stable")
        assert (np.diff(deq[order]) >= 0.0).all()

    # log-domain codes: every output is the anchor divided by a power of two
    for _ in range(cases):
        bits = int(rng.integers(2, 9))
        row = rng.dirichlet(np.ones(10))
        m = float(row.max())
        params = softmax_site_params("log2", bits, m, float(row.min()))
        deq = fake_quant_array(row, params)
        mantissa_m, _ = np.frexp(m)
        mantissa_d, _ = np.frexp(deq)
        assert (mantissa_d == mantissa_m).all()
        order = np.argsort(row, kind="stable")
        assert (np.diff(deq[order]) >= 0.0).all()

    # twin-range: monotone and value-idempotent
    for _ in range(cases):
        bits = int(rng.integers(2, 9))
        row = rng.dirichlet(np.ones(8))
        params = softmax_site_params("twin", bits, float(row.max()),
                                     float(row.min()))
        deq = fake_quant_array(row, params)
        order = np.argsort(row, kind="stable")
        assert (np.diff(deq[order]) >= 0.0).all()
        np.testing.assert_array_equal(fake_quant_array(deq, params), deq)


def test_c05_bottom_elimination_grades_monotonically():
    """gamma=0 is a bitwise no-op, gamma=100 kills the metric, and the
    metric is non-increasing along the gamma grid, 30 random pairs."""
    rng = np.random.default_rng(505)
    for _ in range(30):
        shape = (int(rng.integers(2, 6)), int(rng.integers(3, 40)))
        sigma = rng.normal(size=shape)
        h = rng.uniform(0.0, 2.0, size=shape)
        np.testing.assert_array_equal(bottom_mask(sigma, 0.0), sigma)
        series = [bbc_metric(bottom_mask(sigma, g), h)
                  for g in (0.0, 10.0, 25.0, 50.0, 75.0, 100.0)]
        assert series[-1] == 0.0
        assert all(a >= b for a, b in zip(series, series[1:]))


def test_c06_chosen_candidates_dominate_minmax_baseline():
    """On a 4-block/64-dim/4-head model every searched site's chosen metric
    is <= the appended min-max candidate's metric, read from the traces."""
    model = init_model(ModelSpec(num_blocks=4, embed_dim=64, num_heads=4,
                                 patch_count=16, num_classes=10, init_seed=6))
    x, y = generate_dataset(16, 16, 64, 10, seed=606)
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=20, rounds=1)
    result = calibrate(model, x, y, config)
    searched = [s for s in result.params if result.traces.get(s)]
    assert len(searched) == 44
    for site in searched:
        final = result.traces[site][-1]
        chosen = result.chosen_index[site]
        assert chosen == int(np.argmin(final)), site.site_id
        assert final[chosen] <= final[-1], site.site_id


def test_c07_quantization_quality_trends():
    """(a) W8A8 keeps >= 0.95 argmax agreement with FP; (b) blockwise
    bottom-elimination calibration beats the layerwise baseline on the
    whole-assignment metric at W4A4; (c) the max-anchored softmax quantizer
    is exactly top-value-lossless where log/twin are not. Under 120s."""
    start = time.perf_counter()
    model = init_model(ModelSpec(num_blocks=2, embed_dim=32, num_heads=4,
                                 patch_count=8, num_classes=10, init_seed=0))
    cx, cy = generate_dataset(32, 8, 32, 10, seed=1)
    ex, ey = generate_dataset(256, 8, 32, 10, seed=2)

    r8 = calibrate(model, cx, cy, CalibConfig(w_bits=8, a_bits=8, gamma=10.0,
                                              num_candidates=20, rounds=2))
    assert evaluate(model, r8, ex, ey).fp_agreement >= 0.95

    bbc = calibrate(model, cx, cy,
                    CalibConfig(w_bits=4, a_bits=4, gamma=10.0,
                                num_candidates=20, rounds=2))
    baseline = calibrate(model, cx, cy,
                         CalibConfig(w_bits=4, a_bits=4, gamma=0.0,
                                     num_candidates=20, rounds=2,
                                     blocks_as_layers=True))
    t_bbc = total_blockwise_metric(model, cx, cy, bbc.quant_state(),
                                   gamma=0.0)
    t_base = total_blockwise_metric(model, cx, cy, baseline.quant_state(),
                                    gamma=0.0)
    assert t_bbc <= t_base

    rows = {r.scheme: r for r in compare_softmax_quantizers(
        synthetic_scores("powerlaw", 256, 16, seed=7), 4)}
    assert rows["mpq"].max_value_error == 0.0
    for scheme in ("uniform", "log2", "twin"):
        assert rows[scheme].max_value_error > 0.0
    assert time.perf_counter() - start < 120.0


def test_c08_entropy_saturates_at_bit_width():
    """Uniformly distributed codes measure exactly k bits for k in
    {2,4,6,8}; constant codes measure exactly zero."""
    for bits in (2, 4, 6, 8):
        params = QuantParams(bits=bits, scale=1.0, zero_point=0,
                             scheme="uniform")
        codes = np.tile(np.arange(1 << bits), 4)
        assert code_entropy(CodeTensor(codes.shape, codes,
                                       params)) == float(bits)
    const = CodeTensor((64,), np.full(64, 3),
                       QuantParams(bits=4, scale=1.0, zero_point=0,
                                   scheme="uniform"))
    assert code_entropy(const) == 0.0


def test_c09_pipeline_reproduces_byte_identically(tmp_path):
    """gen -> calibrate -> eval twice with identical commands: all binary
    artifacts byte-identical, reports identical minus wall clock."""

    def run_all():
        data, run, ev = tmp_path / "data", tmp_path / "run", tmp_path / "ev"
        assert cli_main(["gen", "--blocks", "1", "--embed-dim", "16",
                         "--heads", "2", "--patches", "4", "--classes", "4",
                         "--calib-size", "8", "--eval-size", "32",
                         "--seed", "9", "--out", str(data)]) == 0
        assert cli_main(["calibrate", "--model", str(data / "model.bbcv"),
                         "--calib", str(data / "calib.bbcv"),
                         "--out", str(run), "--wbits", "4", "--abits", "4",
                         "--candidates", "12", "--rounds", "1"]) == 0
        assert cli_main(["eval", "--model", str(data / "model.bbcv"),
                         "--eval", str(data / "eval.bbcv"),
                         "--result", str(run / "calib_result.json"),
                         "--out", str(ev)]) == 0
        artifacts = {}
        for p in (data / "model.bbcv", data / "calib.bbcv",
                  data / "eval.bbcv", run / "calib_result.json"):
            artifacts[p.name] = p.read_bytes()
        for p in (run / "report.json", ev / "report.json"):
            payload = json.loads(p.read_text())
            payload.pop("wall_clock_seconds")
            artifacts[str(p)] = json.dumps(payload, sort_keys=True)
        return artifacts

    assert run_all() == run_all()


def test_c10_one_working_block_of_cache():
    """Calibrating an 8-block model allocates exactly one FP cache triple
    per block and never holds more than one block's working state."""
    model = init_model(ModelSpec(num_blocks=8, embed_dim=32, num_heads=4,
                                 patch_count=8, num_classes=10, init_seed=10))
    x, y = generate_dataset(16, 8, 32, 10, seed=1010)
    instr = CalibInstrumentation()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=6, rounds=1)
    calibrate(model, x, y, config, instrumentation=instr)
    assert instr.cache_triples_allocated == 8
    assert instr.max_live_working_blocks == 1
