"""Calibration search: grids, masking, metric, caching, and the full pipeline.

The heavyweight checks here compare the production pipeline against the
straight-line oracle in ``_oracles.py`` — exact equality, not tolerance,
since both sides mirror the same documented arithmetic.
"""

from __future__ import annotations

import json
import math
import os
import re
import sys
import weakref
from collections import Counter
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import erf

from bbcq import calibration as calibration_module
from bbcq import model as model_module
from bbcq import tensor as tensor_module
from bbcq.calibration import (CalibConfig, CalibInstrumentation, CalibResult,
                              PROFILE_RANGES, bbc_metric, bottom_mask,
                              bottom_threshold, cache_fp_pass, calibrate,
                              candidate_scales, layer_caches, load_result,
                              save_result, search_site, total_blockwise_metric)
from bbcq.data import generate_dataset
from bbcq.errors import (ConfigError, ContractError, DegenerateRangeError,
                         DimensionError, NonFiniteError, ParameterError)
from bbcq.metrics import evaluate
from bbcq.model import (BLOCK_KINDS, MatmulSite, ModelSpec, block_forward,
                        block_prefix, enumerate_sites, forward, forward_from,
                        init_model)
from bbcq.quantizers import (EPSILON, SCHEMES, DynamicSoftmax, QuantParams,
                             fake_quant_array, softmax_site_params)
from bbcq.records import record_fields
from bbcq.tensor import cross_entropy

from _oracles import (_block_fwd, _grid, _mask, _metric, naive_bbc_metric,
                      oracle_calibrate, oracle_forward, oracle_taped_gradients)
from _result_edits import RESULT_EDITS, SOURCE_EDITS


def _small_setup(num_blocks=1, embed_dim=16, seed=7, samples=6):
    spec = ModelSpec(num_blocks=num_blocks, embed_dim=embed_dim, num_heads=2,
                     patch_count=4, num_classes=4, init_seed=seed)
    model = init_model(spec)
    x, y = generate_dataset(samples, spec.patch_count, spec.embed_dim,
                            spec.num_classes, seed=seed + 100)
    return model, x, y


def _fp_units(model, x, y, layerwise=False):
    """The FP pass with its search units as ``calibrate`` scores them: one
    cache per block, or every block's rebuilt layerwise units."""
    fp = cache_fp_pass(model, x, y)
    if not layerwise:
        return fp
    return replace(fp, caches=[unit for cache in fp.caches
                               for unit in layer_caches(model, cache)])


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


@st.composite
def grid_inputs(draw):
    """A range (often starting below zero, some narrow enough that every
    step floors at EPSILON), bits, an (alpha, beta) pair and a count."""
    lo = draw(st.one_of(st.floats(-100.0, 0.0), st.floats(-1e-9, 1e-9),
                        st.floats(0.0, 100.0)))
    width = draw(st.floats(1.0, 10.0)) * 10.0 ** draw(st.integers(-14, 2))
    alpha = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    beta = draw(st.one_of(st.just(alpha), st.floats(alpha, alpha + 2.0)))
    return (lo, lo + width, draw(st.integers(2, 8)), alpha, beta,
            draw(st.integers(2, 128)))


@given(grid_inputs())
@settings(max_examples=200, deadline=None)
def test_candidate_grid_equals_oracle(case):
    lo, hi, bits, alpha, beta, n = case
    assume(hi > lo)
    cands = candidate_scales(lo, hi, bits, alpha, beta, n)
    assert [(c.scheme, c.scale, c.zero_point, c.bits) for c in cands] == \
        _grid(lo, hi, bits, alpha, beta, n)


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


def _bits(array):
    """``array``'s float64 bits, so that -0.0 and +0.0 differ."""
    return np.ascontiguousarray(array).view(np.uint64)


def _reference_bottom_mask(sigma, gamma):
    """The mask as one expression, its threshold from a partitioned copy."""
    magnitudes = np.abs(sigma)
    m = math.ceil(gamma / 100.0 * sigma.size)
    t = 0.0 if m == 0 else math.inf if m == sigma.size else \
        np.partition(magnitudes.ravel(), m)[m]
    return np.where(magnitudes < t, 0.0, sigma)


#: Few values, so draws repeat them: ties at the threshold, both zeros,
#: subnormals and the largest finite magnitudes.
_MASK_VALUES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 0.25,
                                -0.25, 1.0, -1.0, 3.0, 1.7e308, -1.7e308])


@settings(max_examples=300, deadline=None)
@given(st.lists(_MASK_VALUES | st.floats(allow_nan=False, allow_infinity=False,
                                         allow_subnormal=True),
                min_size=1, max_size=24),
       st.sampled_from([0.0, 100.0]) | st.floats(0.0, 100.0),
       st.sampled_from(["contiguous", "strided", "transposed"]))
def test_bottom_mask_bits_match_the_where_expression(values, gamma, layout):
    """``bottom_mask`` partitions its own magnitudes in place and masks by
    ``-t < sigma < t``; compared as uint64 it equals ``np.where(|sigma| <
    t, 0.0, sigma)``, for any layout of sigma, which it leaves as it was."""
    base = np.array(values * 2).reshape(2, -1)
    sigma = {"contiguous": base, "strided": base[:, ::2],
             "transposed": base.T}[layout]
    before = sigma.copy()
    got = bottom_mask(sigma, gamma)
    want = _reference_bottom_mask(sigma, gamma)
    np.testing.assert_array_equal(_bits(got), _bits(want))
    np.testing.assert_array_equal(_bits(sigma), _bits(before))


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
    """Any array-like: a list is taken as a float64 array."""
    assert bbc_metric([1.0, 2.0], np.array([3.0, 4.0])) == 19.0


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


def test_config_accepts_gamma_at_both_bounds():
    assert CalibConfig(gamma=0.0).gamma == 0.0
    assert CalibConfig(gamma=100.0).gamma == 100.0


#: A value of the wrong JSON type for each field annotation.
WRONG_TYPE = {"int": 2.5, "float": "10", "bool": 1, "str": 3,
              "float | None": "2"}

#: Valid arguments of the records that have fields without defaults.
VALID_ARGS = {
    ModelSpec: {"num_blocks": 1, "embed_dim": 16, "num_heads": 2,
                "patch_count": 4, "num_classes": 4},
    QuantParams: {"bits": 4, "scale": 0.1, "zero_point": 0, "scheme": "mpq",
                  "calibrated_max": 1.0},
    DynamicSoftmax: {"scheme": "mpq", "bits": 4},
}


@pytest.mark.parametrize("cls,field,wrong", [
    pytest.param(cls, f.name, WRONG_TYPE[f.type], id=f"{cls.__name__}.{f.name}")
    for cls in (CalibConfig, ModelSpec, QuantParams, DynamicSoftmax)
    for f in fields(cls)] + [
    pytest.param(QuantParams, "zero_point", True, id="QuantParams.zero_point-bool"),
    pytest.param(QuantParams, "scale", 10**400, id="QuantParams.scale-huge-int"),
    pytest.param(ModelSpec, "mlp_ratio", 10**400, id="ModelSpec.mlp_ratio-huge-int"),
])
def test_records_reject_wrong_field_types_at_construction(cls, field, wrong):
    with pytest.raises(ParameterError, match=f"field '{field}' must be"):
        cls(**{**VALID_ARGS.get(cls, {}), field: wrong})


def test_records_keep_an_int_in_a_float_field():
    assert CalibConfig(gamma=10).to_json()["gamma"] == 10
    assert type(CalibConfig(gamma=10).gamma) is int


def test_calibrate_rejects_zero_samples():
    model, x, y = _small_setup()
    with pytest.raises(ParameterError, match="at least one sample"):
        calibrate(model, x[:0], y[:0], CalibConfig(num_candidates=2, rounds=1))


@pytest.mark.parametrize("samples,labels", [(10, 40), (40, 39), (40, 20)],
                         ids=["more-labels", "one-short", "half"])
def test_calibrate_rejects_labels_of_another_length(samples, labels):
    """One label per input sample, whatever ``calib_batch`` slices off:
    more labels than samples, one short past the batch's 32 samples or
    short inside it, is a DimensionError before anything runs."""
    model, x, y = _small_setup(samples=40)
    with pytest.raises(DimensionError, match=re.escape(
            f"labels shape ({labels},) does not match ({samples},), "
            "one label per input sample")):
        calibrate(model, x[:samples], y[:labels],
                  CalibConfig(num_candidates=2, rounds=1))


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
    logits, block_outputs, embed_output = oracle_forward(model, x)
    np.testing.assert_array_equal(fp.caches[0].block_input, embed_output)
    np.testing.assert_array_equal(fp.caches[1].block_input, block_outputs[0])
    for b, cache in enumerate(fp.caches):
        np.testing.assert_array_equal(cache.output, block_outputs[b])
        assert cache.grads == [cache.grad]
    assert fp.loss == cross_entropy(logits, y).item()


def test_gelu_runs_erf_on_non_negative_inputs_only(monkeypatch):
    """scipy's erf branches on the sign of each element, which GeLU's
    inputs flip at random; ``gelu`` feeds it |x| in the FP pass's forward,
    in a layerwise rebuild (its re-run and backward step through GeLU) and
    in block forwards."""
    model, x, y = _small_setup()
    seen = []

    def spy(u, *args, **kwargs):
        assert not np.signbit(u).any(), "erf got an input with its sign set"
        seen.append(u.size)
        return erf(u, *args, **kwargs)

    monkeypatch.setattr(tensor_module, "erf", spy)
    fp = cache_fp_pass(model, x, y)
    assert len(seen) == 1
    layer_caches(model, fp.caches[0])
    assert len(seen) == 3
    block_forward(model, 0, fp.caches[0].block_input)
    assert len(seen) == 4


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
    fp = cache_fp_pass(model, x, y)
    assert [(c.block, c.kind, len(c.outputs), len(c.grads))
            for c in fp.caches] == [(b, "block", 1, 1) for b in range(3)]


def test_layerwise_calibrate_holds_one_block_of_units(monkeypatch):
    """c10's layerwise companion: one cache triple per block and one live
    working block, and each block's units, built when its search starts,
    are dead before the next block's are built."""
    monkeypatch.setenv("BBCQ_THREADS", "1")
    model, x, y = _small_setup(num_blocks=3)
    built = []
    rebuild = calibration_module.layer_caches

    def spy(model, cache):
        assert all(ref() is None for ref in built), "units outlived their block"
        units = rebuild(model, cache)
        built.extend(weakref.ref(values) for unit in units
                     for values in unit.outputs)
        return units

    monkeypatch.setattr(calibration_module, "layer_caches", spy)
    instr = CalibInstrumentation()
    calibrate(model, x, y, CalibConfig(w_bits=4, a_bits=4, num_candidates=2,
                                       rounds=1, blocks_as_layers=True),
              instrumentation=instr)
    assert len(built) == 3 * 8
    assert instr.cache_triples_allocated == 3
    assert instr.max_live_working_blocks == 1


@pytest.mark.parametrize("blocks_as_layers", [False, True],
                         ids=["blockwise", "layerwise"])
def test_calibrate_frees_each_block_carry_with_its_block(monkeypatch,
                                                          blocks_as_layers):
    """Every carry ``block_prefix`` paused a block at, in this block or an
    earlier one, is dead before the next carry is made or a later block's
    units are rebuilt; layerwise, each unit is dead once the next layer's
    search begins. Block 1 is pruned to zero, so it searches no layer and
    binds no carry, and its units must die all the same."""
    monkeypatch.setenv("BBCQ_THREADS", "1")
    model, x, y = _small_setup(num_blocks=3)
    pruned = model.blocks[1]
    for f in fields(pruned):
        setattr(pruned, f.name, np.zeros_like(getattr(pruned, f.name)))
    carries = []  # (block, weak reference to the carry's operand A)
    units = {}  # (block, kind index) -> weak reference to the unit's outputs[0]
    pause, rebuild = calibration_module.block_prefix, calibration_module.layer_caches

    def assert_searched_dead(block, layer):
        """Every carry and every unit of a layer searched before ``layer``
        of ``block`` (layers run last to first) is dead."""
        assert [b for b, ref in carries if ref() is not None] == [], \
            f"a carry outlived its layer when block {block} layer {layer} began"
        assert [key for key, ref in units.items() if ref() is not None
                and (key[0] < block or key[0] == block and key[1] > layer)] \
            == [], f"a unit outlived its layer when block {block} layer {layer} began"

    def prefix_spy(model, block, block_input, kind, quant):
        assert_searched_dead(block, BLOCK_KINDS.index(kind))
        carry = pause(model, block, block_input, kind, quant)
        carries.append((block, weakref.ref(carry.a)))
        return carry

    def rebuild_spy(model, cache):
        assert_searched_dead(cache.block, len(BLOCK_KINDS))
        built = rebuild(model, cache)
        units.update(((cache.block, k), weakref.ref(unit.outputs[0]))
                     for k, unit in enumerate(built))
        return built

    monkeypatch.setattr(calibration_module, "block_prefix", prefix_spy)
    monkeypatch.setattr(calibration_module, "layer_caches", rebuild_spy)
    calibrate(model, x, y, CalibConfig(w_bits=4, a_bits=4, num_candidates=2,
                                       rounds=1, blocks_as_layers=blocks_as_layers))
    assert [b for b, _ in carries] == [0] * 6 + [2] * 6
    assert len(units) == (3 * len(BLOCK_KINDS) if blocks_as_layers else 0)


def test_cache_fp_pass_layerwise_units():
    """``layer_caches`` rebuilds one block's six units, in ``BLOCK_KINDS``
    order, from that block's cache: they share its input array, and mlp-2's
    gradient is the block output's."""
    model, x, y = _small_setup(num_blocks=2)
    fp = cache_fp_pass(model, x, y)
    for cache in fp.caches:
        units = layer_caches(model, cache)
        assert [(u.block, u.kind) for u in units] == \
            [(cache.block, kind) for kind in BLOCK_KINDS]
        assert [len(u.outputs) for u in units] == [len(u.grads) for u in units] \
            == [3, 1, 1, 1, 1, 1]
        assert all(u.block_input is cache.block_input for u in units)
        assert units[-1].grad is cache.grad


@pytest.mark.parametrize("blocks_as_layers", [False, True],
                         ids=["blockwise", "layerwise"])
def test_cache_fp_pass_shares_read_only_arrays(blocks_as_layers):
    """The caches hold the pass's own arrays, not copies, and so do the
    rebuilt layerwise units, so none of them can be written; blockwise,
    block b's input is block b-1's output."""
    model, x, y = _small_setup(num_blocks=3)
    fp = _fp_units(model, x, y, blocks_as_layers)
    for cache in fp.caches:
        for values in (cache.block_input, *cache.outputs, *cache.grads):
            with pytest.raises(ValueError):
                values[(0,) * values.ndim] = 0.0
    if not blocks_as_layers:
        for before, cache in zip(fp.caches, fp.caches[1:]):
            assert np.shares_memory(cache.block_input, before.output)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_inputs_rejected(bad):
    model, x, y = _small_setup()
    x = x.copy()
    x[1, 2, 3] = bad
    with pytest.raises(NonFiniteError):
        cache_fp_pass(model, x, y)
    with pytest.raises(NonFiniteError):
        calibrate(model, x, y, CalibConfig(num_candidates=2, rounds=1))


#: Block weights a differential case may zero: a constant operand or a
#: zero layernorm gain.
_ZEROABLE = (None, "w_q", "w_k", "w_v", "w_o", "w1", "w2", "ln1_gamma",
             "ln2_gamma")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 3), st.sampled_from([1, 2, 4]), st.integers(1, 5),
       st.sampled_from([8, 32]), st.integers(1, 4), st.sampled_from(_ZEROABLE),
       st.integers(0, 2**16))
def test_fp_pass_gradients_match_the_reference_tape(num_blocks, heads, patches,
                                                    embed_dim, samples, zeroed,
                                                    seed):
    """Every blockwise block-output gradient and every rebuilt layerwise
    unit gradient equals the reference tape's, and every rebuilt unit
    output a hooked ``block_forward``'s from the cached block input,
    compared as uint64. A dim of 32 is past the size where a matmul's bits
    depend on its operands' layout, so every gradient must be as C-ordered
    as the tape's buffers."""
    spec = ModelSpec(num_blocks=num_blocks, embed_dim=embed_dim, num_heads=heads,
                     patch_count=patches, num_classes=3, init_seed=seed)
    model = init_model(spec)
    if zeroed is not None:
        p = model.blocks[seed % num_blocks]
        setattr(p, zeroed, np.zeros_like(getattr(p, zeroed)))
    x, y = generate_dataset(samples, patches, embed_dim, 3, seed=seed + 1)
    block_grads, unit_grads = oracle_taped_gradients(model, x, y)
    blockwise = cache_fp_pass(model, x, y)
    assert [c.block for c in blockwise.caches] == list(range(num_blocks))
    for cache in blockwise.caches:
        np.testing.assert_array_equal(cache.grad.view(np.uint64),
                                      block_grads[cache.block].view(np.uint64))
    units = [unit for cache in blockwise.caches
             for unit in layer_caches(model, cache)]
    assert {(c.block, c.kind) for c in units} == set(unit_grads)
    outputs = {}
    for cache in blockwise.caches:
        block_forward(model, cache.block, cache.block_input,
                      hook=lambda kind, block, a, b, out:
                      outputs.setdefault((block, kind), []).append(out))
    for cache in units:
        unit = (cache.block, cache.kind)
        for got, want in [*zip(cache.grads, unit_grads[unit], strict=True),
                          *zip(cache.outputs, outputs[unit], strict=True)]:
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))


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


def _search(model, site, candidates, state, cache, config):
    """``search_site`` from the block paused in front of the site's matmul
    under ``state``, as ``calibrate`` pauses it."""
    prefix = block_prefix(model, cache.block, cache.block_input,
                          site.kind, state)
    return search_site(model, site, candidates, state, cache, prefix,
                       config.gamma)


def test_first_argmin_tie_breaks_to_lowest_index():
    """Equal candidates score equal metrics, and the pick is the first."""
    model, config, fp = _one_block_search_fixture()
    site = MatmulSite("mlp-1", "B", 0)
    same = QuantParams(bits=4, scale=0.021, zero_point=7, scheme="uniform")
    trace = _search(model, site, [same] * 5, {}, fp.caches[0], config)
    assert len(trace) == 5 and len(set(trace)) == 1
    assert calibration_module._first_argmin(trace) == 0
    assert calibration_module._first_argmin([3.0, 1.0, 2.0, 1.0]) == 1


def test_search_site_returns_the_full_trace():
    """One finite metric per candidate, in candidate order; the grid's best
    dominates the min-max baseline at its end."""
    model, config, fp = _one_block_search_fixture()
    site = MatmulSite("mlp-1", "B", 0)
    lo, hi = fp.ranges[site]
    cands = candidate_scales(lo, hi, 4, config.alpha, config.beta,
                             config.num_candidates)
    trace = _search(model, site, cands, {}, fp.caches[0], config)
    assert len(trace) == config.num_candidates + 1
    assert all(isinstance(m, float) and math.isfinite(m) for m in trace)
    assert trace[::-1] == _search(model, site, cands[::-1], {}, fp.caches[0],
                                  config)
    assert min(trace) <= trace[-1]


def test_search_site_leaves_state_untouched():
    model, config, fp = _one_block_search_fixture()
    site = MatmulSite("mlp-1", "B", 0)
    frozen = {MatmulSite("mlp-2", "B", 0):
              QuantParams(bits=4, scale=0.01, zero_point=8, scheme="uniform")}
    before = dict(frozen)
    cands = candidate_scales(*fp.ranges[site], 4, 0.2, 1.0, 4)
    _search(model, site, cands, frozen, fp.caches[0], config)
    assert frozen == before


def test_search_site_rejects_a_prefix_paused_at_another_matmul():
    model, config, fp = _one_block_search_fixture()
    site = MatmulSite("mlp-1", "A", 0)
    cands = candidate_scales(*fp.ranges[site], 4, 0.2, 1.0, 2)
    for kind in BLOCK_KINDS:
        if kind == site.kind:
            continue
        prefix = block_prefix(model, 0, fp.caches[0].block_input, kind)
        with pytest.raises(ContractError, match=kind):
            search_site(model, site, cands, {}, fp.caches[0], prefix,
                        config.gamma)


@pytest.mark.parametrize("site_id,layerwise,unit,count,error", [
    ("b1.mlp-1.B", False, (0, "block"), 4, ContractError),
    ("b0.mlp-1.B", True, (0, "mlp-2"), 4, ContractError),
    ("b0.mlp-1.B", False, (0, "block"), 0, ParameterError)],
    ids=["other-block", "other-unit", "no-candidates"])
def test_search_site_scores_only_the_unit_of_its_site(site_id, layerwise, unit,
                                                      count, error):
    """A cache of another block, or of another layerwise unit, would score
    the site on an output it does not feed; no candidates leave nothing to
    pick."""
    model, x, y = _small_setup(num_blocks=2)
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=1)
    fp = _fp_units(model, x, y, layerwise)
    cache = next(c for c in fp.caches if (c.block, c.kind) == unit)
    site = MatmulSite.parse(site_id)
    cands = candidate_scales(*fp.ranges[site], 4, 0.2, 1.0, 4)[:count]
    with pytest.raises(error):
        _search(model, site, cands, {}, cache, config)


@pytest.mark.parametrize("site_id,partner_operands,layerwise", [
    pytest.param("b0.mlp-1.A", 1, False, id="b0.mlp-1.A-1"),
    pytest.param("b0.mlp-1.B", 1, False, id="b0.mlp-1.B-1"),
    pytest.param("b0.qkv-projection.A", 3, False, id="b0.qkv-projection.A-3"),
    pytest.param("b0.qkv-projection.B", 1, False, id="b0.qkv-projection.B-1"),
    pytest.param("b0.qkv-projection.A", 3, True, id="b0.qkv-projection.A-layerwise"),
    pytest.param("b0.mlp-1.B", 1, True, id="b0.mlp-1.B-layerwise")])
def test_search_site_quantizes_the_partner_once(monkeypatch, site_id,
                                                partner_operands, layerwise):
    """What every candidate holds fixed, the partner operand and, for a
    block unit, each later weight, is fake-quantized exactly once per
    search (once per q/k/v weight) and never by a candidate; a candidate
    quantizes only the searched operand and, for a block unit, the later
    activation operands. A layerwise unit stops at its own matmul, so it
    quantizes nothing later."""
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=6, rounds=1)
    fp = _fp_units(model, x, y, layerwise)
    site = MatmulSite.parse(site_id)
    cache = next(c for c in fp.caches if c.kind in ("block", site.kind))
    state = _every_site_state(model, fp, config)
    prefix = block_prefix(model, 0, cache.block_input, site.kind, state)
    cands = candidate_scales(*fp.ranges[site], 4, config.alpha, config.beta,
                             config.num_candidates)
    # Every state entry is its own object, so a call's params name its site;
    # a candidate's params are not in the state and stand for the site.
    owner = {id(params): other for other, params in state.items()}
    calls = []

    def spy(x, params):
        calls.append(owner.get(id(params), site))
        return fake_quant_array(x, params)

    def counted(*args):
        calls.append(None)
        return unit_metric(*args)

    unit_metric = calibration_module._unit_metric
    monkeypatch.setattr(model_module, "fake_quant_array", spy)
    monkeypatch.setattr(calibration_module, "_unit_metric", counted)
    search_site(model, site, cands, state, cache, prefix, config.gamma)
    groups = [[]]
    for other in calls:
        if other is None:
            groups.append([])
        else:
            groups[-1].append(other)
    fixed, *per_candidate = groups
    later = [other for other in state
             if other.layer > site.layer and not layerwise]
    partner = MatmulSite(site.kind, "B" if site.role == "A" else "A", 0)
    # One fake-quant per operand; the searched q/k/v weights are three.
    moving = [site] * (3 if site_id == "b0.qkv-projection.B" else 1)
    assert Counter(fixed) == Counter(
        [partner] * partner_operands + [w for w in later if w.is_weight_operand])
    assert len(per_candidate) == len(cands)
    for quantized in per_candidate:
        assert Counter(quantized) == Counter(
            moving + [a for a in later if not a.is_weight_operand])


@pytest.mark.parametrize("threads", ["1", "2"])
def test_calibrate_rejects_non_finite_candidate_metrics(monkeypatch, threads):
    """Finite weights whose products overflow give NaN metrics, not an argmin;
    pool threads run under the caller's numpy error state, so the overflow
    is no warning on any thread count."""
    monkeypatch.setenv("BBCQ_THREADS", threads)
    model, x, y = _small_setup()
    model.blocks[0].w1 = model.blocks[0].w1 * 1e80
    model.blocks[0].w2 = model.blocks[0].w2 * 1e80
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=1)
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteError, match=r"site b0\.mlp-2\.A"):
        calibrate(model, x, y, config)


def test_calibrate_uses_the_first_calib_batch_samples():
    model, x, y = _small_setup(samples=8)
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=1,
                         calib_batch=4)
    assert (calibrate(model, x, y, config).dumps()
            == calibrate(model, x[:4], y[:4], config).dumps())


def test_calibrate_records_the_batch_it_used():
    """A split smaller than ``calib_batch`` gives a result whose config
    holds the split's size, the batch the search ran on; an empty split is
    still the FP pass's error."""
    model, x, y = _small_setup(samples=4)
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=1)
    assert config.calib_batch == 32
    result = calibrate(model, x, y, config)
    assert result.config.calib_batch == 4
    assert result.dumps() == calibrate(
        model, x, y, CalibConfig(**{**asdict(config), "calib_batch": 4})).dumps()
    assert calibrate(model, x[:1], y[:1], config).config.calib_batch == 1
    with pytest.raises(ParameterError, match="^the FP pass needs at least one sample$"):
        calibrate(model, x[:0], y[:0], config)


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
                outputs.append(out)

        out = block_forward(model, cache.block, cache.block_input, trial,
                            hook=None if cache.kind == "block" else hook)
        if cache.kind == "block":
            outputs.append(out)
        total = 0.0
        for produced, reference, g in zip(outputs, cache.outputs, cache.grads,
                                          strict=True):
            total += bbc_metric(bottom_mask(produced - reference, config.gamma),
                                g * g)
        trace.append(total)
    return trace


def _every_site_state(model, fp, config):
    """A quant state for every block site, each at a different grid point,
    with the configured softmax quantizer on the post-softmax sites (a
    ``DynamicSoftmax`` entry under ``config.dynamic_softmax``)."""
    state = {}
    for i, site in enumerate(s for s in enumerate_sites(model.spec)
                             if s.block is not None):
        lo, hi = fp.ranges[site]
        if site.is_softmax_output and config.dynamic_softmax:
            state[site] = DynamicSoftmax(config.softmax_quantizer, config.a_bits)
        elif site.is_softmax_output:
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
    fp = _fp_units(model, x, y, blocks_as_layers)
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
        trace = _search(model, site, candidates, state, cache, config)
        want = _full_reforward_trace(model, site, candidates, state, cache,
                                     config)
        assert trace == want, site.site_id
        # The shared prefix depends only on earlier matmuls' entries, so
        # one paused without this layer's or later layers' sites serves.
        earlier = {s: p for s, p in state.items()
                   if s.block != site.block or s.layer < site.layer}
        prefix = block_prefix(model, site.block, cache.block_input,
                              site.kind, earlier)
        shared = search_site(model, site, candidates, state, cache, prefix,
                             config.gamma)
        assert shared == want, site.site_id


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
    trace = _search(model, site, candidates, state, fp.caches[1], config)
    assert trace == _full_reforward_trace(model, site, candidates, state,
                                          fp.caches[1], config)
    assert len(set(trace)) > 1


@pytest.mark.parametrize("zero_w_v", [False, True],
                         ids=["every-layer", "constant-v"])
@pytest.mark.parametrize("blocks_as_layers", [False, True],
                         ids=["blockwise", "layerwise"])
def test_calibrate_advances_each_searched_layer_once(monkeypatch,
                                                     blocks_as_layers,
                                                     zero_w_v):
    """Both sites of a layer, in every round, resume from one prefix: the
    search enters a block from its cached input once per layer with a
    searched site, on top of the FP pass entering each block once forward
    and once more for each block backward but block 0's, and, layerwise,
    the one ``block_backward`` that rebuilds each block's units. A zero
    ``w_v`` makes attn-apply's B operand constant, leaving that layer with
    no searched site."""
    model, x, y = _small_setup(num_blocks=2)
    if zero_w_v:
        model.blocks[1].w_v = np.zeros_like(model.blocks[1].w_v)
    entries = []
    real_entry = model_module._block_entry

    def counting_entry(model, block, x):
        entries.append(block)
        return real_entry(model, block, x)

    monkeypatch.setattr(model_module, "_block_entry", counting_entry)
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=3, rounds=2,
                         blocks_as_layers=blocks_as_layers)
    result = calibrate(model, x, y, config)
    searched_layers = {(site.block, site.kind)
                       for site, trace in result.traces.items() if trace}
    assert len(searched_layers) == 12 - zero_w_v
    fp_entries = (3 if blocks_as_layers else 2) * model.spec.num_blocks - 1
    assert len(entries) == fp_entries + len(searched_layers)


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
    for kind, weights in (("embed", model.embed_w), ("head", model.head_w)):
        site = MatmulSite(kind, "B")
        assert result.params[site] == softmax_site_params(
            "uniform", 4, float(weights.max()), float(weights.min()))
        assert result.chosen_index[site] is None
    softmax_site = MatmulSite("attn-apply", "A", 0)
    softmax = result.params[softmax_site]
    assert softmax.scheme == "mpq"
    assert softmax.calibrated_max == result.softmax_max[0]
    assert result.traces[softmax_site] == []


@pytest.mark.parametrize("blocks_as_layers", [False, True],
                         ids=["blockwise", "layerwise"])
def test_calibrate_leaves_a_constant_operand_unsearched(blocks_as_layers):
    """An all-zero w_o (a pruned projection) calibrates: its site holds the
    constant exactly and is not searched, while the activation side of the
    same matmul still is."""
    model, x, y = _small_setup()
    model.blocks[0].w_o = np.zeros_like(model.blocks[0].w_o)
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=2,
                         blocks_as_layers=blocks_as_layers)
    result = calibrate(model, x, y, config)
    rows = {row["site_id"]: row for row in result.to_json()["sites"]}
    weight = rows["b0.out-projection.B"]
    assert (weight["searched"], weight["trace"], weight["chosen_index"]) \
        == (False, [], None)
    w_params = result.params[MatmulSite("out-projection", "B", 0)]
    np.testing.assert_array_equal(
        fake_quant_array(model.blocks[0].w_o, w_params), 0.0)
    activation = rows["b0.out-projection.A"]
    assert activation["searched"] and len(activation["trace"]) == 2
    assert sum(row["searched"] for row in rows.values()) == 10
    # The oracle, too, holds the constant exactly and leaves it unsearched.
    oracle = _oracle_of(model, x, y, config)
    assert oracle.pop("b0.out-projection.B") == \
        (w_params.scale, w_params.zero_point, None, None)
    _assert_matches_oracle(result, oracle)


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


def _allow_cpus(monkeypatch, count: int) -> None:
    """Let this process run on ``count`` CPUs, as the affinity mask that
    caps ``BBCQ_THREADS`` reads them."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def test_calibrate_thread_count_does_not_change_result(monkeypatch):
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=5, rounds=1)
    _allow_cpus(monkeypatch, 3)
    monkeypatch.setenv("BBCQ_THREADS", "1")
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
    _allow_cpus(monkeypatch, 6)
    monkeypatch.setenv("BBCQ_THREADS", "1")
    sequential = calibrate(model, x, y, config).dumps()
    monkeypatch.setenv("BBCQ_THREADS", "6")
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = calibrate(model, x, y, config).dumps()
    finally:
        sys.setswitchinterval(interval)
    assert threaded == sequential


def _record_pools(monkeypatch) -> list[int]:
    """The ``max_workers`` of every pool ``worker_pool`` builds from here on."""
    built = []

    class Recorded(calibration_module.ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            built.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(calibration_module, "ThreadPoolExecutor", Recorded)
    return built


@pytest.mark.parametrize("threads,pools", [("1", []), ("2", [1]), ("3", [2])])
def test_calibrate_pools_only_above_one_thread(monkeypatch, threads, pools):
    """BBCQ_THREADS=1 runs every candidate and slice on the calling thread,
    with no pool (a pool thread's malloc arena would cost RSS); n > 1
    threads are the caller and one pool of n - 1 workers, built once per
    ``calibrate`` and once per ``evaluate`` call."""
    built = _record_pools(monkeypatch)
    _allow_cpus(monkeypatch, 3)
    monkeypatch.setenv("BBCQ_THREADS", threads)
    model, x, y = _small_setup()
    result = calibrate(model, x, y, CalibConfig(num_candidates=2, rounds=1))
    assert built == pools
    built.clear()
    evaluate(model, None, x, y)
    assert built == pools
    built.clear()
    evaluate(model, result, x, y)
    assert built == pools


@pytest.mark.parametrize("threads,cpus,pools", [("8", 1, []), ("8", 3, [2])])
def test_thread_env_is_capped_at_the_affinity_mask(monkeypatch, threads, cpus,
                                                   pools):
    """BBCQ_THREADS asks for at most one thread per CPU this process may
    run on: above the mask it gets the mask, so on one CPU no pool."""
    built = _record_pools(monkeypatch)
    _allow_cpus(monkeypatch, cpus)
    monkeypatch.setenv("BBCQ_THREADS", threads)
    assert calibration_module._threads_from_env() == min(int(threads), cpus)
    with calibration_module.worker_pool():
        pass
    assert built == pools


def test_unset_thread_env_uses_every_cpu_of_the_affinity_mask(monkeypatch):
    """Without BBCQ_THREADS the pool has one thread per CPU this process
    may run on, the caller being one of them."""
    monkeypatch.delenv("BBCQ_THREADS", raising=False)
    assert calibration_module._threads_from_env() == len(os.sched_getaffinity(0))
    built = _record_pools(monkeypatch)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    with calibration_module.worker_pool() as pool:
        assert pool.threads == 3
    assert built == [2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
    with calibration_module.worker_pool() as pool:
        assert pool is None
    assert built == [2]


def test_without_an_affinity_mask_every_cpu_counts(monkeypatch):
    """Where ``os`` has no ``sched_getaffinity`` (not Linux) the CPU count
    caps the threads, and an unknown count (None) means one thread."""
    monkeypatch.delattr(os, "sched_getaffinity")
    built = _record_pools(monkeypatch)
    monkeypatch.delenv("BBCQ_THREADS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert calibration_module._threads_from_env() == 1
    with calibration_module.worker_pool() as pool:
        assert pool is None
    assert built == []
    monkeypatch.setenv("BBCQ_THREADS", "8")
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert calibration_module._threads_from_env() == 3


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("blocks_as_layers", [False, True],
                         ids=["blockwise", "layerwise"])
@pytest.mark.parametrize("scheme,dynamic", [("mpq", False), ("twin", True)],
                         ids=["static-mpq", "dynamic-twin"])
def test_calibrate_keeps_the_candidate_at_chosen_index(monkeypatch, scheme,
                                                       dynamic,
                                                       blocks_as_layers,
                                                       threads):
    """Every searched site's params are its grid's candidate at the index
    CalibResult derives from the final round: calibrate picks by the same
    first-argmin rule."""
    monkeypatch.setenv("BBCQ_THREADS", threads)
    model, x, y = _small_setup(num_blocks=2)
    config = CalibConfig(w_bits=3, a_bits=4, num_candidates=6, rounds=2,
                         softmax_quantizer=scheme, dynamic_softmax=dynamic,
                         blocks_as_layers=blocks_as_layers)
    result = calibrate(model, x, y, config)
    fp = cache_fp_pass(model, x, y)
    searched = [site for site, trace in result.traces.items() if trace]
    assert len(searched) == 2 * 11
    for site in searched:
        _, bits = config.site_quantizer(site)
        grid = candidate_scales(*fp.ranges[site], bits, config.alpha,
                                config.beta, config.num_candidates)
        assert result.params[site] == grid[result.chosen_index[site]], \
            site.site_id


def test_bad_thread_env_rejected(monkeypatch):
    model, x, y = _small_setup()
    config = CalibConfig(num_candidates=2, rounds=1)
    for raw in ("many", "0"):
        monkeypatch.setenv("BBCQ_THREADS", raw)
        with pytest.raises(ConfigError):
            calibrate(model, x, y, config)
        with pytest.raises(ConfigError):
            evaluate(model, None, x, y)


def test_calib_result_json_round_trip(tmp_path):
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=1)
    result = calibrate(model, x, y, config)
    assert result.dumps().startswith('{\n  "config": {\n    "a_bits": 4,\n')
    clone = CalibResult.from_json(result.to_json())
    assert clone.dumps() == result.dumps()
    assert clone.params == result.params
    assert clone.chosen_index == result.chosen_index
    path = tmp_path / "calib.json"
    save_result(result, path)
    assert load_result(path).dumps() == result.dumps()


@pytest.mark.parametrize("blocks_as_layers", [False, True],
                         ids=["blockwise", "layerwise"])
def test_calib_result_rows_follow_site_order(blocks_as_layers):
    """Rows are written in ``enumerate_sites`` order, each layer's A row
    before its B row, however the params were built or the rows loaded."""
    model, x, y = _small_setup(num_blocks=2)
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=1,
                         blocks_as_layers=blocks_as_layers)
    result = calibrate(model, x, y, config)
    payload = result.to_json()
    assert [row["site_id"] for row in payload["sites"]] == \
        [site.site_id for site in enumerate_sites(model.spec)]
    payload["sites"].reverse()
    assert CalibResult.from_json(payload).dumps() == result.dumps()


def _built(payload: dict) -> CalibResult:
    """The result ``payload`` holds, built with ``CalibResult(...)`` rather
    than read by ``from_json``; a row without params gives a trace only."""
    rows = {MatmulSite.parse(row["site_id"]): row for row in payload["sites"]}
    return CalibResult(
        config=CalibConfig.from_json(payload["config"]),
        params={site: record_fields(QuantParams, row, "quant params")
                for site, row in rows.items() if "scheme" in row},
        traces={site: row["trace"] for site, row in rows.items()},
        fp_loss=payload["fp_loss"], softmax_max=payload["softmax_max"])


@pytest.mark.parametrize("name, edit, built", [
    *(pytest.param(name, edit, False, id=name) for name, edit in RESULT_EDITS.items()),
    *(pytest.param(name, edit, True, id=f"built-{name}")
      for name, edit in SOURCE_EDITS.items())])
def test_calib_result_rejects_copies_that_disagree_with_the_search(name, edit,
                                                                   built):
    """Each stored copy (chosen index, searched flag, trace shape,
    fp_block_inputs, a row's anchored fields, scheme and bits, softmax_max)
    is checked against its source on load. A result built with a bad source
    value (a trace's shape or metric, fp_loss, softmax_max) fails as the
    same values loaded do. A trace without a params row, which ``dumps``
    would drop, fails to build, naming its site as loading such a row does."""
    model, x, y = _small_setup()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=2)
    payload = json.loads(calibrate(model, x, y, config).dumps())
    CalibResult.from_json(payload)
    edit(payload)
    if not built:
        with pytest.raises(ParameterError):
            CalibResult.from_json(payload)
        return
    with pytest.raises((ParameterError, NonFiniteError)) as loaded:
        CalibResult.from_json(payload)
    with pytest.raises(type(loaded.value)) as direct:
        _built(payload)
    if name == "orphan-trace":
        site_id = next(row["site_id"] for row in payload["sites"]
                       if "scheme" not in row)
        assert str(loaded.value).startswith(f"site {site_id}: quant params is missing")
        assert str(direct.value) == (f"site {site_id} needs both params and a "
                                     "trace (empty if unsearched)")
        return
    assert (type(direct.value), str(direct.value)) == \
        (type(loaded.value), str(loaded.value))


def test_calib_result_needs_a_trace_for_every_params_row():
    """The reverse of an orphan trace: ``dumps`` would write an empty trace
    for the site, so the result read back would differ from the built one."""
    model, x, y = _small_setup()
    result = calibrate(model, x, y, CalibConfig(w_bits=4, a_bits=4,
                                                num_candidates=2, rounds=1))
    site = MatmulSite("mlp-2", "A", 0)
    traces = {s: t for s, t in result.traces.items() if s != site}
    with pytest.raises(ParameterError,
                       match="site b0.mlp-2.A needs both params and a trace"):
        CalibResult(config=result.config, params=result.params, traces=traces,
                    fp_loss=result.fp_loss, softmax_max=result.softmax_max)


def test_a_one_unit_mlp_builds_forwards_and_calibrates():
    """Hidden dim 1 is the smallest legal MLP and a working model; a spec
    whose hidden dim rounds to 0 is rejected."""
    spec = ModelSpec(num_blocks=1, embed_dim=4, num_heads=2, patch_count=4,
                     num_classes=4, mlp_ratio=0.25)
    assert spec.hidden_dim == 1
    model = init_model(spec)
    x, y = generate_dataset(6, spec.patch_count, spec.embed_dim,
                            spec.num_classes, seed=3)
    logits = forward(model, x)
    assert logits.shape == (6, 4) and np.isfinite(logits).all()
    config = CalibConfig(w_bits=4, a_bits=4, num_candidates=4, rounds=1)
    result = calibrate(model, x, y, config)
    assert sorted(result.params, key=str) == sorted(enumerate_sites(spec), key=str)
    assert result.traces[MatmulSite("mlp-2", "A", 0)]
    with pytest.raises(ParameterError, match="rounds to 0"):
        ModelSpec(num_blocks=1, embed_dim=4, num_heads=2, patch_count=4,
                  num_classes=4, mlp_ratio=0.1)


def test_calib_result_rejects_other_documents():
    with pytest.raises(ParameterError):
        CalibResult.from_json({"kind": "report"})
    with pytest.raises(ParameterError, match="unsupported calib-result schema_version 2"):
        CalibResult.from_json({"kind": "calib-result", "schema_version": 2})


@pytest.mark.parametrize("field", ["schema_version", "fp_block_inputs", "config",
                                   "fp_loss", "softmax_max", "sites"])
def test_calib_result_names_a_missing_field(field):
    model, x, y = _small_setup()
    payload = calibrate(model, x, y, CalibConfig(num_candidates=2, rounds=1)).to_json()
    del payload[field]
    with pytest.raises(ParameterError, match=f"calib-result is missing field '{field}'"):
        CalibResult.from_json(payload)


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
    """Each site the oracle sets, searched or held constant (no pick, no
    trace), has its params, pick and last trace; no other site is searched."""
    searched = {s.site_id for s in result.params if result.traces.get(s)}
    assert searched == {s for s, (*_, idx, _) in oracle.items() if idx is not None}
    for site_id, (scale, zero_point, idx, trace) in oracle.items():
        site = MatmulSite.parse(site_id)
        got = result.params[site]
        assert got.scale == scale, site_id
        assert got.zero_point == zero_point, site_id
        assert result.chosen_index[site] == idx, site_id
        assert (result.traces[site] or [None])[-1] == trace, site_id


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
    fp = _fp_units(model, x, y, layerwise=True)
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
                         rounds=draw(st.integers(1, 4)),
                         softmax_quantizer=draw(st.sampled_from(SCHEMES)),
                         dynamic_softmax=draw(st.booleans()),
                         blocks_as_layers=draw(st.booleans()))
    # A zeroed (pruned) weight makes constant operands the search holds fixed.
    zeroed = draw(st.sampled_from([None, "w_v", "w_o", "w1", "w2"]))
    block = draw(st.integers(0, spec.num_blocks - 1))
    return spec, config, draw(st.integers(0, 1000)), zeroed, block


def _oracle_of(model, x, y, config):
    """The oracle's search under ``config``; it takes the package's cached
    sensitivities, since it has no autodiff of its own."""
    fp = _fp_units(model, x, y, config.blocks_as_layers)
    if config.blocks_as_layers:
        unit, h_override = "layer", {(c.block, c.kind): [g * g for g in c.grads]
                                     for c in fp.caches}
    else:
        unit, h_override = "block", {c.block: c.grad * c.grad for c in fp.caches}
    return oracle_calibrate(model, x, y, w_bits=config.w_bits,
                            a_bits=config.a_bits, gamma=config.gamma,
                            alpha=config.alpha, beta=config.beta,
                            n=config.num_candidates, rounds=config.rounds,
                            unit=unit, h_override=h_override,
                            softmax=config.softmax_quantizer,
                            dynamic=config.dynamic_softmax)


@given(oracle_cases())
@settings(max_examples=20, deadline=None)
def test_calibrate_matches_oracle_on_random_specs(case):
    """The staged search against the straight-line oracle on random small
    models, bit widths 2-8, one to four rounds, every softmax quantizer
    static or dynamic, both units, and at most one zeroed weight."""
    spec, config, data_seed, zeroed, block = case
    model = init_model(spec)
    if zeroed is not None:
        p = model.blocks[block]
        setattr(p, zeroed, np.zeros_like(getattr(p, zeroed)))
    x, y = generate_dataset(5, spec.patch_count, spec.embed_dim,
                            spec.num_classes, seed=data_seed)
    result = calibrate(model, x, y, config)
    _assert_matches_oracle(result, _oracle_of(model, x, y, config))


@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_calibrate_matches_oracle_for_every_softmax_mode(scheme, dynamic):
    """Each of the CLI's eight softmax settings, on a 2-block model."""
    model, x, y = _small_setup(num_blocks=2, seed=3)
    config = CalibConfig(w_bits=3, a_bits=3, num_candidates=4, rounds=2,
                         softmax_quantizer=scheme, dynamic_softmax=dynamic)
    result = calibrate(model, x, y, config)
    _assert_matches_oracle(result, _oracle_of(model, x, y, config))


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


@pytest.mark.parametrize("gamma", [0.0, 10.0])
def test_total_blockwise_metric_is_the_oracle_sum_over_blocks(gamma):
    """Each block re-forwards its FP input under one coarse W4A4 assignment
    in the oracle, and its masked drift weighs by the square of the block
    output's gradient from ``cache_fp_pass``; the blocks' metrics add up to
    ``total_blockwise_metric`` exactly."""
    model, x, y = _small_setup(num_blocks=2)
    result = calibrate(model, x, y, CalibConfig(w_bits=4, a_bits=4,
                                                num_candidates=3, rounds=1))
    state = {(site.block, site.kind, site.role):
             ("uniform", p.scale, p.zero_point, p.bits) if p.scheme == "uniform"
             else (p.scheme, p.bits, p.calibrated_max)
             for site, p in result.params.items() if site.block is not None}
    _, fp_outputs, embed_out = oracle_forward(model, x)
    grads = [cache.grads[0] for cache in cache_fp_pass(model, x, y).caches]
    spec = model.spec
    want = 0.0
    for b, block_input in enumerate([embed_out, *fp_outputs[:-1]]):
        out, _ = _block_fwd(model.blocks[b], block_input, spec.num_heads,
                            spec.head_dim, state, b)
        want += _metric(_mask(out - fp_outputs[b], gamma), grads[b] * grads[b])
    got = total_blockwise_metric(model, x, y, result.quant_state(), gamma)
    assert got == want > 0.0
