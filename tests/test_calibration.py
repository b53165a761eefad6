"""Calibration search: grids, masking, metric, caching, and the full pipeline.

The heavyweight checks here compare the production pipeline against the
straight-line oracle in ``_oracles.py`` — exact equality, not tolerance,
since both sides mirror the same documented arithmetic.
"""

from __future__ import annotations

import json
import math
import sys
import threading
from dataclasses import asdict, fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcq.calibration import (CalibConfig, CalibInstrumentation, CalibResult,
                              PROFILE_RANGES, bbc_metric, bottom_mask,
                              bottom_threshold, cache_fp_pass, calibrate,
                              candidate_scales, load_result, save_result,
                              search_site, total_blockwise_metric)
from bbcq.data import generate_dataset
from bbcq.errors import (ConfigError, DegenerateRangeError, DimensionError,
                         NonFiniteError, ParameterError)
from bbcq.model import (BLOCK_KINDS, MatmulSite, ModelSpec, block_forward,
                        enumerate_sites, forward, forward_from, init_model,
                        record_fields)
from bbcq.quantizers import (EPSILON, SCHEMES, QuantParams,
                             minmax_affine_params, softmax_site_params)
from bbcq.tensor import Tape, Tensor, add, cross_entropy

from _oracles import naive_bbc_metric, oracle_calibrate


def _small_setup(num_blocks=1, embed_dim=16, seed=7, samples=6):
    spec = ModelSpec(num_blocks=num_blocks, embed_dim=embed_dim, num_heads=2,
                     patch_count=4, num_classes=4, init_seed=seed)
    model = init_model(spec)
    x, y = generate_dataset(samples, spec.patch_count, spec.embed_dim,
                            spec.num_classes, seed=seed + 100)
    return model, x, y


# ---------------------------------------------------------------------------
# candidate grid


def test_candidate_grid_hand_example():
    """Range [0,2], k=2, alpha=.5, beta=1.2, n=8: steps 0.25..0.60 plus 2/3."""
    cands = candidate_scales(0.0, 2.0, bits=2, alpha=0.5, beta=1.2, n=8)
    assert len(cands) == 9
    scales = [c.scale for c in cands]
    np.testing.assert_allclose(scales[:8], 0.25 + 0.05 * np.arange(8),
                               rtol=1e-14)
    assert scales[0] == 0.25
    assert scales[8] == 2.0 / 3.0
    assert all(c.zero_point == 0 for c in cands)
    assert all(c.bits == 2 and c.scheme == "uniform" for c in cands)


def test_candidate_grid_minmax_always_last():
    cands = candidate_scales(-1.0, 3.0, bits=4, alpha=0.2, beta=0.9, n=5)
    assert cands[-1].scale == 4.0 / 15.0


def test_candidate_grid_zero_points_follow_scale():
    cands = candidate_scales(-1.0, 3.0, bits=4, alpha=0.5, beta=1.0, n=2)
    for c in cands:
        expected = int(np.clip(np.floor(abs(1.0 / c.scale) + 0.5), 0, 15))
        assert c.zero_point == expected


def test_candidate_grid_equal_alpha_beta_collapses():
    cands = candidate_scales(0.0, 1.0, bits=4, alpha=0.7, beta=0.7, n=6)
    assert all(c.scale == cands[0].scale for c in cands[:-1])


def test_candidate_grid_alpha_zero_floors_at_epsilon():
    cands = candidate_scales(0.0, 1.0, bits=4, alpha=0.0, beta=1.0, n=4)
    assert cands[0].scale == EPSILON


def test_candidate_grid_errors():
    with pytest.raises(DegenerateRangeError):
        candidate_scales(1.0, 1.0, 4, 0.0, 1.0, 4)
    with pytest.raises(DegenerateRangeError):
        candidate_scales(2.0, 1.0, 4, 0.0, 1.0, 4)
    with pytest.raises(ParameterError):
        candidate_scales(0.0, 1.0, 4, -0.1, 1.0, 4)
    with pytest.raises(ParameterError):
        candidate_scales(0.0, 1.0, 4, 0.8, 0.2, 4)
    with pytest.raises(ParameterError):
        candidate_scales(0.0, 1.0, 4, 0.0, 1.0, 1)


# ---------------------------------------------------------------------------
# bottom elimination


SIGMA_EXAMPLE = np.array([0.5, -0.1, 0.02, -0.3, 0.01, 0.2, -0.04, 0.08,
                          0.9, -0.06])


def test_bottom_mask_gamma_zero_is_identity():
    out = bottom_mask(SIGMA_EXAMPLE, 0.0)
    np.testing.assert_array_equal(out, SIGMA_EXAMPLE)


def test_bottom_mask_gamma_hundred_zeroes_everything():
    np.testing.assert_array_equal(bottom_mask(SIGMA_EXAMPLE, 100.0),
                                  np.zeros_like(SIGMA_EXAMPLE))
    assert bottom_threshold(SIGMA_EXAMPLE, 100.0) == math.inf


def test_bottom_mask_ten_percent_example():
    """Nearest-rank 10th percentile of ten entries drops exactly the smallest."""
    out = bottom_mask(SIGMA_EXAMPLE, 10.0)
    expected = SIGMA_EXAMPLE.copy()
    expected[4] = 0.0  # 0.01 is the single smallest magnitude
    np.testing.assert_array_equal(out, expected)


def test_bottom_mask_survivors_are_bit_identical(rng):
    sigma = rng.normal(size=(4, 5, 6))
    out = bottom_mask(sigma, 25.0)
    kept = out != 0.0
    np.testing.assert_array_equal(out[kept], sigma[kept])


def test_bottom_mask_ties_survive():
    sigma = np.array([1.0, 1.0, 2.0, 3.0])
    # m = 1, threshold = second-smallest |sigma| = 1.0; nothing is < 1.0
    out = bottom_mask(sigma, 25.0)
    np.testing.assert_array_equal(out, sigma)
    # at 50% the threshold moves to 2.0 and both ones drop
    np.testing.assert_array_equal(bottom_mask(sigma, 50.0),
                                  [0.0, 0.0, 2.0, 3.0])


def test_bottom_mask_count_never_exceeds_rank(rng):
    sigma = rng.normal(size=200)
    for gamma in (10.0, 33.0, 75.0):
        m = math.ceil(gamma / 100.0 * sigma.size)
        zeroed = int((bottom_mask(sigma, gamma) == 0.0).sum())
        assert zeroed <= m  # ties at the threshold survive


def test_bottom_mask_gamma_out_of_range():
    with pytest.raises(ParameterError):
        bottom_mask(SIGMA_EXAMPLE, -1.0)
    with pytest.raises(ParameterError):
        bottom_threshold(SIGMA_EXAMPLE, 100.5)


# ---------------------------------------------------------------------------
# metric


def test_metric_hand_example():
    assert bbc_metric(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 19.0


def test_metric_zero_sigma():
    assert bbc_metric(np.zeros(5), np.ones(5)) == 0.0


def test_metric_quadratic_homogeneity(rng):
    sigma = rng.normal(size=(3, 7))
    h = rng.uniform(0.1, 2.0, size=(3, 7))
    assert bbc_metric(2.0 * sigma, h) == 4.0 * bbc_metric(sigma, h)


def test_metric_batch_mean():
    sigma = np.array([[1.0, 2.0], [3.0, 4.0]])
    h = np.ones((2, 2))
    # per-sample sums 5 and 25, batch mean 15
    assert bbc_metric(sigma, h) == 15.0


def test_metric_matches_naive_double_loop(rng):
    for shape in [(7,), (3, 5), (2, 3, 4)]:
        sigma = rng.normal(size=shape)
        h = rng.uniform(0.0, 1.0, size=shape)
        fast = bbc_metric(sigma, h)
        slow = naive_bbc_metric(sigma, h)
        assert fast == pytest.approx(slow, rel=1e-12)


def test_metric_shape_mismatch():
    with pytest.raises(DimensionError):
        bbc_metric(np.zeros(3), np.zeros(4))


def test_metric_nonincreasing_in_gamma(rng):
    sigma = rng.normal(size=(4, 9))
    h = rng.uniform(0.0, 1.0, size=(4, 9))
    values = [bbc_metric(bottom_mask(sigma, g), h)
              for g in (0.0, 10.0, 25.0, 50.0, 75.0, 100.0)]
    assert all(a >= b for a, b in zip(values, values[1:]))
    assert values[-1] == 0.0


def test_metric_accepts_tensors():
    assert bbc_metric(Tensor(np.array([1.0, 2.0])),
                      Tensor(np.array([3.0, 4.0]))) == 19.0


# ---------------------------------------------------------------------------
# config


def test_config_defaults():
    cfg = CalibConfig()
    assert (cfg.w_bits, cfg.a_bits) == (8, 8)
    assert cfg.gamma == 10.0
    assert (cfg.alpha, cfg.beta) == (0.0, 1.2)
    assert cfg.num_candidates == 100
    assert cfg.rounds == 3
    assert cfg.softmax_quantizer == "mpq"
    assert not cfg.dynamic_softmax


def test_config_profile_defaults():
    det = CalibConfig.for_profile("detection")
    assert (det.alpha, det.beta) == PROFILE_RANGES["detection"] == (0.5, 1.2)
    cls = CalibConfig.for_profile("classification", w_bits=4)
    assert cls.alpha == 0.0 and cls.w_bits == 4


@pytest.mark.parametrize("kwargs", [
    {"w_bits": 1}, {"a_bits": 9}, {"w_bits": 4.0}, {"gamma": -1.0},
    {"gamma": 101.0}, {"alpha": 1.2, "beta": 1.2}, {"alpha": -0.5},
    {"alpha": 0.9, "beta": 0.3}, {"num_candidates": 1}, {"rounds": 0},
    {"softmax_quantizer": "nope"}, {"calib_batch": 0}, {"profile": "video"},
    {"beta": float("inf")},
])
def test_config_validation(kwargs):
    with pytest.raises(ParameterError):
        CalibConfig(**kwargs)


def test_config_json_round_trip():
    cfg = CalibConfig(w_bits=4, a_bits=6, gamma=25.0, rounds=2,
                      softmax_quantizer="log2", blocks_as_layers=True)
    assert CalibConfig.from_json(cfg.to_json()) == cfg


@pytest.mark.parametrize("field,value", [
    ("dynamic_softmax", "false"), ("w_bits", 4.7), ("rounds", True),
])
def test_config_from_json_rejects_wrong_types(field, value):
    payload = {**CalibConfig().to_json(), field: value}
    with pytest.raises(ParameterError, match=field):
        CalibConfig.from_json(payload)


def test_config_from_json_widens_int_to_float():
    cfg = CalibConfig.from_json({**CalibConfig().to_json(), "gamma": 25})
    assert type(cfg.gamma) is float and cfg.gamma == 25.0


def test_config_from_json_reports_missing_field():
    payload = CalibConfig().to_json()
    del payload["gamma"]
    with pytest.raises(ParameterError,
                       match="calib config is missing field 'gamma'"):
        CalibConfig.from_json(payload)


#: One JSON value of each type, for swapping into a record field.
JSON_SAMPLES = [True, 3, 2.5, "3", None, [3], {"v": 3}]


def _json_type_fits(annotation: str, value) -> bool:
    base, _, optional = annotation.partition(" | ")
    if value is None:
        return optional == "None"
    return {"int": type(value) is int, "float": type(value) in (int, float),
            "bool": type(value) is bool, "str": type(value) is str}[base]


@st.composite
def json_records(draw):
    """A valid CalibConfig, ModelSpec or QuantParams."""
    kind = draw(st.sampled_from(["config", "spec", "params"]))
    if kind == "config":
        alpha = draw(st.floats(0.0, 1.0))
        return CalibConfig(
            w_bits=draw(st.integers(2, 8)), a_bits=draw(st.integers(2, 8)),
            gamma=draw(st.floats(0.0, 100.0)), alpha=alpha,
            beta=alpha + draw(st.floats(0.01, 2.0)),
            num_candidates=draw(st.integers(2, 200)),
            rounds=draw(st.integers(1, 5)),
            softmax_quantizer=draw(st.sampled_from(SCHEMES)),
            dynamic_softmax=draw(st.booleans()),
            calib_batch=draw(st.integers(1, 64)),
            blocks_as_layers=draw(st.booleans()),
            profile=draw(st.sampled_from(["classification", "detection"])))
    if kind == "spec":
        heads = draw(st.integers(1, 4))
        return ModelSpec(
            num_blocks=draw(st.integers(1, 4)),
            embed_dim=heads * draw(st.integers(1, 8)), num_heads=heads,
            patch_count=draw(st.integers(1, 16)),
            num_classes=draw(st.integers(2, 10)),
            mlp_ratio=draw(st.floats(1.0, 8.0)),
            init_seed=draw(st.integers(0, 2**32)))
    return softmax_site_params(draw(st.sampled_from(SCHEMES)),
                               draw(st.integers(2, 8)),
                               draw(st.floats(0.01, 1.0)),
                               draw(st.floats(-1.0, 0.0)))


@given(json_records(), st.data())
@settings(max_examples=60)
def test_record_json_round_trip_and_exact_types(record, data):
    cls = type(record)
    payload = json.loads(json.dumps(asdict(record)))
    assert record_fields(cls, payload, "record") == record
    field = data.draw(st.sampled_from(fields(cls)))
    wrong = data.draw(st.sampled_from(
        [v for v in JSON_SAMPLES if not _json_type_fits(field.type, v)]))
    with pytest.raises(ParameterError):
        record_fields(cls, {**payload, field.name: wrong}, "record")


# ---------------------------------------------------------------------------
# FP caching pass


def test_cache_fp_pass_structure():
    model, x, y = _small_setup(num_blocks=2)
    fp = cache_fp_pass(model, x, y)
    assert len(fp.caches) == 2
    assert [c.kind for c in fp.caches] == ["block", "block"]
    result = forward(model, x)
    np.testing.assert_array_equal(fp.caches[0].block_input,
                                  result.embed_output.data)
    np.testing.assert_array_equal(fp.caches[1].block_input,
                                  result.block_outputs[0].data)
    for b, cache in enumerate(fp.caches):
        np.testing.assert_array_equal(cache.output,
                                      result.block_outputs[b].data)
        assert cache.grads == [cache.grad]
    assert fp.loss == cross_entropy(result.logits, y).item()
    assert np.isfinite(fp.logits).all()


def test_cache_fp_pass_deterministic():
    model, x, y = _small_setup()
    a = cache_fp_pass(model, x, y)
    b = cache_fp_pass(model, x, y)
    assert a.loss == b.loss
    np.testing.assert_array_equal(a.caches[0].grad, b.caches[0].grad)
    assert a.ranges == b.ranges
    softmax = MatmulSite("attn-apply", "A", 0)
    assert a.ranges[softmax] == b.ranges[softmax]


def test_cache_fp_pass_ranges_match_operands():
    model, x, y = _small_setup()
    fp = cache_fp_pass(model, x, y)
    embed = fp.ranges[MatmulSite("embed", "B")]
    assert embed == (float(model.embed_w.min()), float(model.embed_w.max()))
    blk = model.blocks[0]
    qkv = fp.ranges[MatmulSite("qkv-projection", "B", 0)]
    assert qkv == (min(float(blk.w_q.min()), float(blk.w_k.min()),
                       float(blk.w_v.min())),
                   max(float(blk.w_q.max()), float(blk.w_k.max()),
                       float(blk.w_v.max())))
    softmax_min, softmax_max = fp.ranges[MatmulSite("attn-apply", "A", 0)]
    assert 0.0 < softmax_max <= 1.0
    assert 0.0 <= softmax_min < softmax_max


def test_cache_fp_pass_counts_allocations():
    model, x, y = _small_setup(num_blocks=3)
    instr = CalibInstrumentation()
    cache_fp_pass(model, x, y, instrumentation=instr)
    assert instr.cache_triples_allocated == 3


def test_cache_fp_pass_layerwise_units():
    model, x, y = _small_setup(num_blocks=2)
    fp = cache_fp_pass(model, x, y, blocks_as_layers=True)
    assert len(fp.caches) == 12
    kinds = {(c.block, c.kind) for c in fp.caches}
    assert kinds == {(b, k) for b in range(2) for k in BLOCK_KINDS}
    qkv = next(c for c in fp.caches if c.kind == "qkv-projection")
    assert len(qkv.outputs) == len(qkv.grads) == 3
    block0 = [c for c in fp.caches if c.block == 0]
    for cache in block0[1:]:
        np.testing.assert_array_equal(cache.block_input,
                                      block0[0].block_input)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_rejected(bad):
    model, x, y = _small_setup()
    x = x.copy()
    x[1, 2, 3] = bad
    with pytest.raises(NonFiniteError):
        cache_fp_pass(model, x, y)
    with pytest.raises(NonFiniteError):
        calibrate(model, x, y, CalibConfig(num_candidates=2, rounds=1))


def test_block_output_gradient_matches_finite_difference():
    """Spot check of the cached loss gradient via the forward_from tail."""
    model, x, y = _small_setup(num_blocks=2, seed=3)
    fp = cache_fp_pass(model, x, y)
    h = 1e-5
    probe_rng = np.random.default_rng(0)
    for b, cache in enumerate(fp.caches):
        base = cache.output
        flat = probe_rng.choice(base.size, size=8, replace=False)
        for f_idx in flat:
            idx = np.unravel_index(f_idx, base.shape)

            def loss_at(value):
                probe = base.copy()
                probe[idx] = value
                logits = forward_from(model, b, probe)
                return cross_entropy(logits, y).item()

            fd = (loss_at(base[idx] + h) - loss_at(base[idx] - h)) / (2 * h)
            assert np.isclose(cache.grad[idx], fd, rtol=1e-4, atol=1e-9), \
                f"block {b} coord {idx}"


# ---------------------------------------------------------------------------
# search_site


def _one_block_search_fixture():
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=6, rounds=1)
    fp = cache_fp_pass(model, x, y)
    return model, config, fp


def test_search_site_tie_breaks_to_lowest_index():
    model, config, fp = _one_block_search_fixture()
    site = MatmulSite("mlp-1", "B", 0)
    same = QuantParams(bits=4, scale=0.021, zero_point=7, scheme="uniform")
    params, chosen, trace = search_site(model, site, [same] * 5, {},
                                        fp.caches[0], config)
    assert chosen == 0
    assert params is same
    assert len(set(trace)) == 1


def test_search_site_returns_argmin_and_full_trace():
    model, config, fp = _one_block_search_fixture()
    site = MatmulSite("mlp-1", "B", 0)
    lo, hi = fp.ranges[site]
    cands = candidate_scales(lo, hi, 4, config.alpha, config.beta,
                             config.num_candidates)
    params, chosen, trace = search_site(model, site, cands, {}, fp.caches[0],
                                        config)
    assert len(trace) == config.num_candidates + 1
    assert chosen == int(np.argmin(trace))
    assert params == cands[chosen]
    assert trace[chosen] <= trace[-1]  # dominates the min-max baseline


def test_search_site_leaves_state_untouched():
    model, config, fp = _one_block_search_fixture()
    site = MatmulSite("mlp-1", "B", 0)
    frozen = {MatmulSite("mlp-2", "B", 0):
              QuantParams(bits=4, scale=0.01, zero_point=8, scheme="uniform")}
    before = dict(frozen)
    cands = candidate_scales(*fp.ranges[site], 4, 0.2, 1.0, 4)
    search_site(model, site, cands, frozen, fp.caches[0], config)
    assert frozen == before


def _full_reforward_trace(model, site, candidates, state, cache, config):
    """Every candidate scored by re-forwarding the whole block from the
    cached FP input, with no carry: the path the staged search replaces."""
    trace = []
    for params in candidates:
        trial = dict(state)
        trial[site] = params
        outputs = []

        def hook(kind, block, a, b, out):
            if kind == cache.kind:
                outputs.append(out.data)

        out = block_forward(model, cache.block, Tensor(cache.block_input), trial,
                            config.dynamic_softmax,
                            None if cache.kind == "block" else hook)
        if cache.kind == "block":
            outputs.append(out.data)
        total = 0.0
        for produced, reference, g in zip(outputs, cache.outputs, cache.grads,
                                          strict=True):
            total += bbc_metric(bottom_mask(produced - reference, config.gamma),
                                g * g)
        trace.append(total)
    return trace


def _every_site_state(model, fp, config):
    """A quant state for every block site, each at a different grid point,
    with the configured softmax quantizer on the post-softmax sites."""
    state = {}
    for i, site in enumerate(s for s in enumerate_sites(model.spec)
                             if s.block is not None):
        lo, hi = fp.ranges[site]
        if site.is_softmax_output:
            state[site] = softmax_site_params(config.softmax_quantizer,
                                              config.a_bits, hi, lo)
        else:
            bits = config.w_bits if site.is_weight_operand else config.a_bits
            grid = candidate_scales(lo, hi, bits, config.alpha, config.beta,
                                    config.num_candidates)
            state[site] = grid[i % len(grid)]
    return state


@pytest.mark.parametrize("blocks_as_layers", [False, True],
                         ids=["blockwise", "layerwise"])
@pytest.mark.parametrize("dynamic_softmax", [False, True],
                         ids=["static", "dynamic"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_staged_search_matches_full_reforward(scheme, dynamic_softmax,
                                              blocks_as_layers):
    """search_site resumes each candidate from a carry at the searched
    matmul; every trace equals a full block re-forward bit for bit, with
    sites before and after the searched one frozen."""
    model, x, y = _small_setup(num_blocks=2)
    config = CalibConfig(w_bits=3, a_bits=4, gamma=10.0, num_candidates=4,
                         rounds=1, softmax_quantizer=scheme,
                         dynamic_softmax=dynamic_softmax,
                         blocks_as_layers=blocks_as_layers)
    fp = cache_fp_pass(model, x, y, blocks_as_layers=blocks_as_layers)
    by_unit = {(c.block, c.kind): c for c in fp.caches}
    state = _every_site_state(model, fp, config)
    for site in state:
        if site.is_softmax_output:
            continue
        cache = by_unit[(site.block,
                         site.kind if blocks_as_layers else "block")]
        bits = config.w_bits if site.is_weight_operand else config.a_bits
        candidates = candidate_scales(*fp.ranges[site], bits, config.alpha,
                                      config.beta, config.num_candidates)
        _, chosen, trace = search_site(model, site, candidates, state, cache,
                                       config)
        want = _full_reforward_trace(model, site, candidates, state, cache,
                                     config)
        assert trace == want, site.site_id
        assert chosen == int(np.argmin(want)), site.site_id


def test_staged_search_with_earlier_sites_frozen():
    """Searching mlp-1.B while only the qkv-projection sites (and the
    softmax) are frozen: not the last-to-first order calibrate uses."""
    model, x, y = _small_setup(num_blocks=2)
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=6, rounds=1,
                         dynamic_softmax=True)
    fp = cache_fp_pass(model, x, y)
    full = _every_site_state(model, fp, config)
    state = {site: params for site, params in full.items()
             if site.block == 1 and (site.kind == "qkv-projection"
                                     or site.is_softmax_output)}
    site = MatmulSite("mlp-1", "B", 1)
    candidates = candidate_scales(*fp.ranges[site], 4, config.alpha,
                                  config.beta, config.num_candidates)
    _, _, trace = search_site(model, site, candidates, state, fp.caches[1],
                              config)
    assert trace == _full_reforward_trace(model, site, candidates, state,
                                          fp.caches[1], config)
    assert len(set(trace)) > 1


# ---------------------------------------------------------------------------
# calibrate: structure and bookkeeping


def test_calibrate_covers_every_site():
    model, x, y = _small_setup(num_blocks=2)
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=1)
    result = calibrate(model, x, y, config)
    spec = model.spec
    assert len(result.params) == 12 * spec.num_blocks + 2
    searched = [s for s in result.params if result.traces.get(s)]
    assert len(searched) == 11 * spec.num_blocks
    for site in searched:
        final = result.traces[site][-1]
        assert len(final) == config.num_candidates + 1
        assert result.chosen_index[site] == int(np.argmin(final))
        assert final[result.chosen_index[site]] <= final[-1]


def test_calibrate_edges_and_softmax_are_not_searched():
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=1)
    result = calibrate(model, x, y, config)
    embed = result.params[MatmulSite("embed", "B")]
    assert embed == minmax_affine_params(model.embed_w, 4)
    assert result.chosen_index[MatmulSite("embed", "B")] is None
    head = result.params[MatmulSite("head", "B")]
    assert head == minmax_affine_params(model.head_w, 4)
    softmax_site = MatmulSite("attn-apply", "A", 0)
    softmax = result.params[softmax_site]
    assert softmax.scheme == "mpq"
    assert softmax.calibrated_max == result.softmax_max[0]
    assert result.traces[softmax_site] == []


def test_calibrate_weight_vs_activation_bits():
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=3, a_bits=5, num_candidates=4, rounds=1)
    result = calibrate(model, x, y, config)
    assert result.params[MatmulSite("mlp-1", "B", 0)].bits == 3
    assert result.params[MatmulSite("mlp-1", "A", 0)].bits == 5
    # attn-score B is an activation operand despite its role letter
    assert result.params[MatmulSite("attn-score", "B", 0)].bits == 5
    assert result.params[MatmulSite("attn-apply", "A", 0)].bits == 5


def test_calibrate_deterministic():
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=2)
    a = calibrate(model, x, y, config)
    b = calibrate(model, x, y, config)
    assert a.dumps() == b.dumps()


def test_calibrate_thread_count_does_not_change_result(monkeypatch):
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=5, rounds=1)
    monkeypatch.delenv("BBCQ_THREADS", raising=False)
    sequential = calibrate(model, x, y, config)
    monkeypatch.setenv("BBCQ_THREADS", "3")
    threaded = calibrate(model, x, y, config)
    assert sequential.dumps() == threaded.dumps()


@pytest.mark.parametrize("blocks_as_layers", [False, True],
                         ids=["blockwise", "layerwise"])
def test_pool_threads_share_one_carry(monkeypatch, blocks_as_layers):
    """Pool threads resume candidates from one shared carry per site; with
    more workers than cores and a short switch interval, the result equals
    the sequential one byte for byte."""
    model, x, y = _small_setup(num_blocks=2)
    config = CalibConfig(w_bits=3, a_bits=3, num_candidates=7, rounds=2,
                         dynamic_softmax=True, softmax_quantizer="twin",
                         blocks_as_layers=blocks_as_layers)
    monkeypatch.delenv("BBCQ_THREADS", raising=False)
    sequential = calibrate(model, x, y, config).dumps()
    monkeypatch.setenv("BBCQ_THREADS", "6")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = calibrate(model, x, y, config).dumps()
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential


def test_calibrate_while_another_thread_holds_a_tape():
    """The tape is context-local: one recording in another thread neither
    blocks calibrate() nor receives its operations."""
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=5, rounds=1)
    sequential = calibrate(model, x, y, config).dumps()
    held: list[Tape] = []
    holding, release = threading.Event(), threading.Event()

    def hold_tape():
        with Tape() as tape:
            add(Tensor([1.0]), Tensor([2.0]))
            held.append(tape)
            holding.set()
            release.wait(timeout=60)

    holder = threading.Thread(target=hold_tape)
    holder.start()
    try:
        assert holding.wait(timeout=60)
        before = len(held[0])
        concurrent = calibrate(model, x, y, config).dumps()
        assert len(held[0]) == before > 0
    finally:
        release.set()
        holder.join(timeout=60)
    assert not holder.is_alive()
    assert concurrent == sequential


def test_bad_thread_env_rejected(monkeypatch):
    model, x, y = _small_setup()
    config = CalibConfig(num_candidates=2, rounds=1)
    monkeypatch.setenv("BBCQ_THREADS", "many")
    with pytest.raises(ConfigError):
        calibrate(model, x, y, config)
    monkeypatch.setenv("BBCQ_THREADS", "0")
    with pytest.raises(ConfigError):
        calibrate(model, x, y, config)


def test_calib_result_json_round_trip(tmp_path):
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=1)
    result = calibrate(model, x, y, config)
    clone = CalibResult.from_json(result.to_json())
    assert clone.dumps() == result.dumps()
    assert clone.params == result.params
    assert clone.chosen_index == result.chosen_index
    path = tmp_path / "calib.json"
    save_result(result, path)
    assert load_result(path).dumps() == result.dumps()


def test_calib_result_rejects_other_documents():
    with pytest.raises(ParameterError):
        CalibResult.from_json({"kind": "report"})


def test_instrumentation_tracks_single_working_block():
    model, x, y = _small_setup(num_blocks=3)
    instr = CalibInstrumentation()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=2, rounds=1)
    calibrate(model, x, y, config, instrumentation=instr)
    assert instr.cache_triples_allocated == 3
    assert instr.max_live_working_blocks == 1
    assert instr.live_working_blocks == 0


# ---------------------------------------------------------------------------
# calibrate vs the straight-line oracle


def _assert_matches_oracle(result, oracle):
    searched = [s for s in result.params if result.traces.get(s)]
    assert len(searched) == len(oracle)
    for site in searched:
        scale, zero_point, idx, trace = oracle[site.site_id]
        got = result.params[site]
        assert got.scale == scale, site.site_id
        assert got.zero_point == zero_point, site.site_id
        assert result.chosen_index[site] == idx, site.site_id
        assert result.traces[site][-1] == trace, site.site_id


def test_single_block_reduces_to_layerwise_search():
    """With one block and gamma=0 the pipeline is a plain layerwise
    Hessian-guided search over that block; an independent exhaustive
    implementation must pick identical scales."""
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, gamma=0.0, alpha=0.0, beta=1.2,
                         num_candidates=8, rounds=1)
    result = calibrate(model, x, y, config)
    oracle = oracle_calibrate(model, x, y, w_bits=4, a_bits=4, gamma=0.0,
                              alpha=0.0, beta=1.2, n=8, rounds=1)
    _assert_matches_oracle(result, oracle)


def test_matmul_units_match_layerwise_oracle():
    """blocks_as_layers scores each matmul against its own output; the
    oracle re-runs that search with the package's cached sensitivities."""
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, gamma=0.0, alpha=0.0, beta=1.2,
                         num_candidates=6, rounds=1, blocks_as_layers=True)
    result = calibrate(model, x, y, config)
    fp = cache_fp_pass(model, x, y, blocks_as_layers=True)
    h_override = {(c.block, c.kind): [g * g for g in c.grads] for c in fp.caches}
    oracle = oracle_calibrate(model, x, y, w_bits=4, a_bits=4, gamma=0.0,
                              alpha=0.0, beta=1.2, n=6, rounds=1,
                              unit="layer", h_override=h_override)
    _assert_matches_oracle(result, oracle)


def test_multi_round_oracle_agreement():
    """Two alternation rounds with a nonzero gamma, still exact."""
    model, x, y = _small_setup(seed=9)
    config = CalibConfig(w_bits=4, a_bits=4, gamma=10.0, alpha=0.0, beta=1.2,
                         num_candidates=6, rounds=2)
    result = calibrate(model, x, y, config)
    oracle = oracle_calibrate(model, x, y, w_bits=4, a_bits=4, gamma=10.0,
                              alpha=0.0, beta=1.2, n=6, rounds=2)
    _assert_matches_oracle(result, oracle)


@st.composite
def oracle_cases(draw):
    heads = draw(st.integers(1, 2))
    spec = ModelSpec(num_blocks=draw(st.integers(1, 2)),
                     embed_dim=heads * draw(st.sampled_from([2, 4])),
                     num_heads=heads, patch_count=draw(st.integers(2, 4)),
                     num_classes=draw(st.integers(2, 4)),
                     mlp_ratio=draw(st.sampled_from([1.0, 2.0])),
                     init_seed=draw(st.integers(0, 1000)))
    config = CalibConfig(w_bits=draw(st.integers(2, 8)),
                         a_bits=draw(st.integers(2, 8)),
                         gamma=draw(st.sampled_from([0.0, 10.0, 50.0])),
                         num_candidates=draw(st.integers(2, 4)),
                         rounds=draw(st.integers(1, 2)),
                         blocks_as_layers=draw(st.booleans()))
    return spec, config, draw(st.integers(0, 1000))


@given(oracle_cases())
@settings(max_examples=20, deadline=None)
def test_calibrate_matches_oracle_on_random_specs(case):
    """The staged search against the straight-line oracle on random small
    models, bit widths 2-8, both units; the oracle takes the package's
    cached sensitivities, since it has no autodiff of its own."""
    spec, config, data_seed = case
    model = init_model(spec)
    x, y = generate_dataset(5, spec.patch_count, spec.embed_dim,
                            spec.num_classes, seed=data_seed)
    result = calibrate(model, x, y, config)
    fp = cache_fp_pass(model, x, y, blocks_as_layers=config.blocks_as_layers)
    if config.blocks_as_layers:
        unit, h_override = "layer", {(c.block, c.kind): [g * g for g in c.grads]
                                     for c in fp.caches}
    else:
        unit, h_override = "block", {c.block: c.grad * c.grad for c in fp.caches}
    oracle = oracle_calibrate(model, x, y, w_bits=config.w_bits,
                              a_bits=config.a_bits, gamma=config.gamma,
                              alpha=config.alpha, beta=config.beta,
                              n=config.num_candidates, rounds=config.rounds,
                              unit=unit, h_override=h_override)
    _assert_matches_oracle(result, oracle)


# ---------------------------------------------------------------------------
# alternation rounds


def _frozen_rounds_setup():
    """Pinned seed where extra rounds strictly help (see notes on A-site
    regressions: alternation guarantees monotone weight-side metrics, but an
    activation row can drift when its partner moves; this seed is stable)."""
    spec = ModelSpec(num_blocks=1, embed_dim=32, num_heads=4, patch_count=8,
                     num_classes=5, init_seed=12)
    model = init_model(spec)
    x, y = generate_dataset(16, 8, 32, 5, seed=112)
    return model, x, y


def _final_metrics(result):
    return {site.site_id: result.traces[site][-1][result.chosen_index[site]]
            for site in result.params if result.traces.get(site)}


def test_second_round_never_worse_at_frozen_seed():
    model, x, y = _frozen_rounds_setup()
    base = dict(w_bits=4, a_bits=4, num_candidates=20)
    one = calibrate(model, x, y, CalibConfig(rounds=1, **base))
    two = calibrate(model, x, y, CalibConfig(rounds=2, **base))
    metrics_one, metrics_two = _final_metrics(one), _final_metrics(two)
    assert metrics_one.keys() == metrics_two.keys()
    for site_id, first in metrics_one.items():
        assert metrics_two[site_id] <= first, site_id


def test_rounds_improve_within_single_run_at_frozen_seed():
    model, x, y = _frozen_rounds_setup()
    result = calibrate(model, x, y, CalibConfig(w_bits=4, a_bits=4,
                                                num_candidates=20, rounds=3))
    for site in result.params:
        rounds = result.traces.get(site)
        if not rounds:
            continue
        chosen_per_round = [min(trace) for trace in rounds]
        for earlier, later in zip(chosen_per_round, chosen_per_round[1:]):
            assert later <= earlier, site.site_id


# ---------------------------------------------------------------------------
# whole-assignment metric


def test_total_blockwise_metric_zero_for_fp_assignment():
    model, x, y = _small_setup(num_blocks=2)
    assert total_blockwise_metric(model, x, y, {}, gamma=0.0) == 0.0


def test_total_blockwise_metric_positive_under_coarse_quant():
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=2, a_bits=2, num_candidates=3, rounds=1)
    result = calibrate(model, x, y, config)
    total = total_blockwise_metric(model, x, y, result.quant_state(),
                                   gamma=0.0)
    assert total > 0.0
