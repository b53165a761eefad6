"""Quantizer zoo: hand-checked examples plus property-based invariants."""

from __future__ import annotations

import inspect
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcq.errors import (ContractError, DegenerateScaleError, DimensionError,
                         ParameterError)
from bbcq.quantizers import (EPSILON, SCHEME_TABLE, SCHEMES, Anchor,
                             CodeTensor, DynamicSoftmax, QuantParams,
                             dequantize, fake_quant_array,
                             fake_quant_softmax_dynamic, quantize,
                             round_half_away, softmax_site_params)

import _oracles as oracles


# ---------------------------------------------------------------------------
# rounding


@pytest.mark.parametrize("value,expected", [
    (0.5, 1.0), (-0.5, -1.0), (1.5, 2.0), (2.5, 3.0), (-2.5, -3.0),
    (0.49, 0.0), (-0.49, 0.0), (3.0, 3.0), (0.0, 0.0),
])
def test_round_half_away_ties(value, expected):
    assert round_half_away(value) == expected


def test_round_half_away_is_elementwise():
    out = round_half_away(np.array([[0.5, -1.5], [2.4, -2.5]]))
    np.testing.assert_array_equal(out, [[1.0, -2.0], [2.0, -3.0]])


# ---------------------------------------------------------------------------
# params / code containers


def test_quant_params_validation():
    with pytest.raises(ParameterError):
        QuantParams(bits=1, scale=1.0, zero_point=0, scheme="uniform")
    with pytest.raises(ParameterError):
        QuantParams(bits=9, scale=1.0, zero_point=0, scheme="uniform")
    with pytest.raises(DegenerateScaleError):
        QuantParams(bits=4, scale=0.0, zero_point=0, scheme="uniform")
    with pytest.raises(DegenerateScaleError):
        QuantParams(bits=4, scale=float("inf"), zero_point=0, scheme="uniform")
    with pytest.raises(ParameterError):
        QuantParams(bits=4, scale=1.0, zero_point=16, scheme="uniform")
    with pytest.raises(ParameterError):
        QuantParams(bits=4, scale=1.0, zero_point=0, scheme="nope")
    with pytest.raises(DegenerateScaleError):
        QuantParams(bits=4, scale=1.0, zero_point=0, scheme="mpq",
                    calibrated_max=0.0)
    with pytest.raises(ParameterError):
        QuantParams(bits=4, scale=1.0, zero_point=0, scheme="twin",
                    calibrated_max=1.0, threshold=1.5)
    for scheme in ("mpq", "log2", "twin"):
        for value in (float("nan"), float("inf"), EPSILON):
            with pytest.raises(DegenerateScaleError):
                QuantParams(bits=4, scale=1.0, zero_point=0, scheme=scheme,
                            calibrated_max=value, threshold=0.5)

    # A max-anchored row is its bits and calibrated_max, every other field
    # its anchor's; a uniform row has no calibrated_max or threshold.
    for scheme, field, value in [
            ("mpq", "scale", 99.0), ("mpq", "threshold", 0.5),
            ("log2", "zero_point", 1),
            ("twin", "threshold", float(np.nextafter(0.1, 1.0))),
            ("uniform", "calibrated_max", 0.8), ("uniform", "threshold", 0.1)]:
        params = softmax_site_params(scheme, 4, 0.8, 0.0)
        assert (params.threshold == 0.1) == (scheme == "twin")
        with pytest.raises(ParameterError, match="threshold.* must be"):
            replace(params, **{field: value})


def test_code_tensor_rejects_out_of_range_codes():
    params = QuantParams(bits=2, scale=1.0, zero_point=0, scheme="uniform")
    with pytest.raises(ContractError):
        CodeTensor((2,), np.array([0, 4]), params)
    with pytest.raises(DimensionError):
        CodeTensor((3,), np.array([0, 1]), params)


def test_num_codes():
    params = QuantParams(bits=5, scale=1.0, zero_point=0, scheme="uniform")
    assert params.num_codes == 32


def _uniform(scale, zero_point, bits):
    return QuantParams(bits=bits, scale=scale, zero_point=zero_point,
                       scheme="uniform")


def _twin(bits, cal_max, threshold):
    """Twin kernel arguments split at any threshold. A ``QuantParams`` row
    always splits at its anchor's, ``cal_max / 2^(bits-1)``; the kernels
    take any threshold in (0, cal_max)."""
    span = (1 << (bits - 1)) - 1
    return Anchor(bits, (cal_max - threshold) / span, 0, calibrated_max=cal_max,
                  threshold=threshold)


def _twin_encode_decode(values, anchor):
    """(codes, values) of the twin kernels, as ``quantize`` and
    ``dequantize`` compute them."""
    twin = SCHEME_TABLE["twin"]
    codes = twin.encode(np.asarray(values, dtype=np.float64), anchor)
    codes = codes.astype(np.uint8)
    return codes, twin.decode(codes, anchor)


# ---------------------------------------------------------------------------
# uniform affine: hand examples


def test_uniform_hand_example():
    """k=2, step 2/3, zero point 2: 0.4 lands on code 3 and dequants to 2/3."""
    ct = quantize(np.array([0.4]), _uniform(scale=2.0 / 3.0, zero_point=2, bits=2))
    assert ct.codes.tolist() == [3]
    assert dequantize(ct)[0] == 2.0 / 3.0


def test_uniform_grid_points_are_fixed():
    scale, zp, bits = 0.37, 5, 4
    codes = np.arange(16)
    grid = (codes - zp) * scale
    ct = quantize(grid, _uniform(scale, zp, bits))
    np.testing.assert_array_equal(ct.codes, codes)
    np.testing.assert_array_equal(dequantize(ct), grid)


def test_uniform_saturates():
    ct = quantize(np.array([1e9, -1e9]), _uniform(0.1, 3, 4))
    assert ct.codes.tolist() == [15, 0]


def test_uniform_scalar_round_trip():
    """A shape-() input is one code: ``np.prod(())`` is 1."""
    ct = quantize(np.float64(0.75), _uniform(0.5, 2, 4))
    assert ct.shape == () and ct.size == 1 and ct.codes.tolist() == [4]
    out = dequantize(ct)
    assert out.shape == () and out == 1.0


def test_uniform_accepts_tensor_input():
    ct = quantize([[0.0, 1.0]], _uniform(0.5, 0, 4))
    assert ct.shape == (1, 2)
    assert ct.codes.tolist() == [0, 2]


# ---------------------------------------------------------------------------
# mpq: hand examples


def test_mpq_one_hot_row_exact():
    for bits in (2, 4, 8):
        ct = quantize(np.array([1.0, 0.0, 0.0]), softmax_site_params("mpq", bits, 1.0))
        assert ct.codes.tolist() == [(1 << bits) - 1, 0, 0]
        np.testing.assert_array_equal(dequantize(ct), [1.0, 0.0, 0.0])


def test_mpq_hand_example():
    ct = quantize(np.array([0.7, 0.2, 0.1]), softmax_site_params("mpq", 2, 0.7))
    assert ct.codes.tolist() == [3, 1, 0]
    deq = dequantize(ct)
    assert deq[0] == 0.7  # top of range survives the round trip exactly
    np.testing.assert_allclose(deq, [0.7, 0.7 / 3.0, 0.0], rtol=1e-15)


def test_mpq_uniform_row_all_top():
    row = np.full(3, 1.0 / 3.0)
    ct = quantize(row, softmax_site_params("mpq", 4, 1.0 / 3.0))
    assert ct.codes.tolist() == [15, 15, 15]
    np.testing.assert_array_equal(dequantize(ct), row)


def test_mpq_rejects_degenerate_max():
    with pytest.raises(DegenerateScaleError):
        quantize(np.array([0.5]), softmax_site_params("mpq", 4, 0.0))


# ---------------------------------------------------------------------------
# log2: hand examples


def test_log_top_of_range():
    ct = quantize(np.array([0.8]), softmax_site_params("log2", 4, 0.8))
    assert ct.codes.tolist() == [0]
    assert dequantize(ct)[0] == 0.8


def test_log_quarter_power():
    ct = quantize(np.array([0.2]), softmax_site_params("log2", 4, 0.8))
    assert ct.codes.tolist() == [2]
    assert dequantize(ct)[0] == 0.2


def test_log_zero_maps_to_smallest():
    ct = quantize(np.array([0.0, -0.3]), softmax_site_params("log2", 4, 1.0))
    assert ct.codes.tolist() == [15, 15]
    np.testing.assert_array_equal(dequantize(ct), [2.0 ** -15, 2.0 ** -15])


# ---------------------------------------------------------------------------
# twin-uniform: hand examples


def test_twin_segment_boundary_and_top():
    bits, cal_max = 4, 1.0
    threshold = 0.25
    codes, values = _twin_encode_decode([threshold, cal_max],
                                        _twin(bits, cal_max, threshold))
    assert codes.tolist() == [8, 15]
    np.testing.assert_array_equal(values, [threshold, cal_max])


def test_twin_hand_example_small_segment():
    codes, values = _twin_encode_decode([0.005], _twin(bits=4, cal_max=1.0,
                                                       threshold=0.01))
    # 0.005 / (0.01/7) = 3.5 rounds away from zero to code 4
    assert codes.tolist() == [4]
    assert values[0] == pytest.approx(4 * 0.01 / 7, rel=1e-15)


def test_twin_default_threshold():
    assert softmax_site_params("twin", 4, 1.0).threshold == 1.0 / 8.0
    ct = quantize(np.array([0.5]), softmax_site_params("twin", 4, 1.0))
    assert ct.params.threshold == 1.0 / 8.0


# ---------------------------------------------------------------------------
# property suites


def _finite_arrays(draw, lo=-100.0, hi=100.0, min_size=1, max_size=64):
    size = draw(st.integers(min_size, max_size))
    return np.asarray(draw(st.lists(
        st.floats(min_value=lo, max_value=hi, allow_nan=False,
                  allow_infinity=False),
        min_size=size, max_size=size)))


@st.composite
def uniform_cases(draw):
    values = _finite_arrays(draw)
    bits = draw(st.integers(2, 8))
    scale = draw(st.floats(min_value=1e-4, max_value=50.0))
    zero_point = draw(st.integers(0, (1 << bits) - 1))
    return values, QuantParams(bits=bits, scale=scale, zero_point=zero_point,
                               scheme="uniform")


@st.composite
def softmax_rows(draw):
    """A positive row normalized to sum 1, plus a bit width."""
    raw = _finite_arrays(draw, lo=0.0, hi=1.0, min_size=2, max_size=32)
    total = raw.sum()
    if total <= 0:
        raw = np.ones_like(raw)
        total = raw.sum()
    return raw / total, draw(st.integers(2, 8))


@given(uniform_cases())
def test_uniform_dequant_monotone(case):
    values, params = case
    ordered = np.sort(values)
    deq = fake_quant_array(ordered, params)
    assert (np.diff(deq) >= 0).all()


@given(uniform_cases())
def test_uniform_fake_quant_idempotent(case):
    values, params = case
    once = quantize(values, params)
    twice = quantize(dequantize(once), params)
    np.testing.assert_array_equal(once.codes, twice.codes)


@given(uniform_cases())
def test_uniform_in_range_error_bound(case):
    values, params = case
    lo = (0 - params.zero_point) * params.scale
    hi = ((1 << params.bits) - 1 - params.zero_point) * params.scale
    inside = np.clip(values, lo, hi)
    err = np.abs(fake_quant_array(inside, params) - inside)
    assert (err <= params.scale / 2.0 * (1.0 + 1e-9)).all()


@pytest.mark.parametrize("scheme", ["mpq", "log2", "twin"])
@given(case=softmax_rows())
def test_max_anchored_dequant_monotone(scheme, case):
    row, bits = case
    cal_max = float(row.max())
    ct = quantize(np.sort(row), softmax_site_params(scheme, bits, cal_max))
    deq = dequantize(ct)
    assert (np.diff(deq) >= -1e-18).all()


@pytest.mark.parametrize("scheme", ["mpq", "log2"])
@given(case=softmax_rows())
def test_max_anchored_idempotent(scheme, case):
    row, bits = case
    cal_max = float(row.max())
    params = softmax_site_params(scheme, bits, cal_max)
    once = quantize(row, params)
    twice = quantize(dequantize(once), params)
    np.testing.assert_array_equal(once.codes, twice.codes)


@given(case=softmax_rows())
def test_twin_idempotent(case):
    """Twin fake-quant is value-stable; codes agree except at the seam.

    The segment boundary T is representable by both the top low-segment code
    and the bottom high-segment code, so a dequantized T re-encodes into the
    high segment. Every other value keeps its code, and a second fake-quant
    pass is always a bitwise no-op.
    """
    row, bits = case
    cal_max = float(row.max())
    params = softmax_site_params("twin", bits, cal_max)
    once = quantize(row, params)
    deq = dequantize(once)
    twice = quantize(deq, params)
    np.testing.assert_array_equal(deq, dequantize(twice))
    off_seam = deq != once.params.threshold
    np.testing.assert_array_equal(once.codes[off_seam.ravel()],
                                  twice.codes[off_seam.ravel()])


@given(case=softmax_rows())
def test_mpq_dominant_value_survives_exactly(case):
    row, bits = case
    cal_max = float(row.max())
    ct = quantize(row, softmax_site_params("mpq", bits, cal_max))
    deq = dequantize(ct)
    top = int(np.argmax(row))
    assert ct.codes.reshape(row.shape)[top] == ct.codes.max()
    assert deq[top] == cal_max  # the observed maximum survives exactly
    assert deq[top] == deq.max()


@given(case=softmax_rows())
def test_log_dequant_on_power_of_two_grid(case):
    row, bits = case
    cal_max = float(row.max())
    deq = dequantize(quantize(row, softmax_site_params("log2", bits, cal_max)))
    # power-of-two multiples leave the mantissa of cal_max untouched
    mantissa, _ = np.frexp(deq)
    ref, _ = np.frexp(cal_max)
    np.testing.assert_array_equal(mantissa, np.full_like(deq, ref))


@given(uniform_cases())
@settings(max_examples=50)
def test_fake_quant_array_matches_two_step(case):
    values, params = case
    np.testing.assert_array_equal(fake_quant_array(values, params),
                                  dequantize(quantize(values, params)))


# ---------------------------------------------------------------------------
# dynamic softmax path


def test_dynamic_mpq_anchors_each_row():
    rows = np.array([[0.6, 0.3, 0.1], [0.34, 0.33, 0.33]])
    out = fake_quant_softmax_dynamic(rows, "mpq", bits=4)
    assert out[0, 0] == 0.6
    assert out[1, 0] == 0.34


def test_dynamic_uniform_handles_constant_rows():
    """A constant row [v, v] takes step |v|, so v is a code rather than ~0
    on a 1e-12 grid; a row beside it keeps its own step."""
    rows = np.array([[0.25] * 4, [0.1, 0.2, 0.3, 0.4]])
    out = fake_quant_softmax_dynamic(rows, "uniform", bits=4)
    np.testing.assert_array_equal(out[0], rows[0])
    np.testing.assert_array_equal(
        out[1], fake_quant_array(rows[1], softmax_site_params("uniform", 4,
                                                              0.4, 0.1)))


def test_dynamic_rejects_unknown_scheme():
    with pytest.raises(ParameterError):
        fake_quant_softmax_dynamic(np.ones((1, 2)), "nope", 4)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("bits", [0, 1, 9, 40])
def test_dynamic_rejects_bits_outside_the_range(scheme, bits):
    """As ``DynamicSoftmax`` does: 1-bit twin would give NaN rows, 0 bits a
    raw numpy shift error, and 40 bits would run."""
    rows = np.array([[0.5, 0.3, 0.2]])
    with pytest.raises(ParameterError, match=r"\[2, 8\]"):
        fake_quant_softmax_dynamic(rows, scheme, bits)


@pytest.mark.parametrize("scheme, bits", [("nope", 4), (["mpq"], 4),
                                          ("mpq", 1), ("mpq", 9),
                                          ("mpq", 4.0), ("twin", "4")])
def test_dynamic_softmax_entry_validation(scheme, bits):
    with pytest.raises(ParameterError):
        DynamicSoftmax(scheme, bits)


# ---------------------------------------------------------------------------
# calibration statistics helpers


@pytest.mark.parametrize("value", [0.0, 0.37, -2.5])
@pytest.mark.parametrize("bits", [2, 4, 8])
def test_constant_params_hold_the_constant_exactly(value, bits):
    x = np.full((3, 5), value)
    params = softmax_site_params("uniform", bits, value, value)
    assert params.scheme == "uniform" and params.bits == bits
    np.testing.assert_array_equal(fake_quant_array(x, params), x)
    np.testing.assert_array_equal(dequantize(quantize(x, params)), x)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("bits", [0, 1, 9])
def test_site_params_check_bits_before_anchoring(scheme, bits):
    """As ``QuantParams`` and ``fake_quant_softmax_dynamic`` check: no anchor
    sees bits outside [2, 8], where 0 bits would divide by zero."""
    with pytest.raises(ParameterError, match=r"\[2, 8\]"):
        softmax_site_params(scheme, bits, 0.5, 0.0)


def test_minmax_affine_params_floor():
    params = softmax_site_params("uniform", 8, 0.0, 0.0)
    assert params.scale == EPSILON
    spread = softmax_site_params("uniform", 2, 2.0, -1.0)
    assert spread.scale == 1.0
    assert spread.zero_point == 1


# ---------------------------------------------------------------------------
# public API


def test_public_api_names_resolve():
    """Every name in ``__all__`` resolves, and every public name the
    package imports (its submodules aside) is in ``__all__``, so an export
    dropped from only one of the two lists fails."""
    import bbcq

    assert [name for name in bbcq.__all__ if not hasattr(bbcq, name)] == []
    assert [name for name, value in vars(bbcq).items()
            if not name.startswith("_") and not inspect.ismodule(value)
            and name not in bbcq.__all__] == []


# ---------------------------------------------------------------------------
# differential: every scheme against the straight-line oracle, bit for bit


def _nudge_to_tie(pre_round, guess: float, target: float) -> float:
    """The float nearest ``guess`` whose pre-rounding value is ``target``.

    Rounding a product or quotient can miss an exact half step by an ulp;
    stepping a few ulps either way usually finds an input that lands on it.
    Returns ``guess`` unchanged when no nearby float does.
    """
    for direction in (np.inf, -np.inf):
        value = guess
        for _ in range(16):
            if pre_round(value) == target:
                return value
            value = float(np.nextafter(value, direction))
    return guess


def _tie_value(scheme: str, bits: int, anchor: dict, index: int) -> float:
    """A value on (or, for log2, beside) a half-step tie of the quantizer.

    ``anchor`` holds the oracle's kernel arguments; ``index`` picks the tie.
    Every returned value lies inside the quantizer's range.
    """
    levels = (1 << bits) - 1
    if scheme == "uniform":
        scale, lo, hi = anchor["scale"], anchor["lo"], anchor["hi"]
        first = math.ceil(lo / scale - 0.5)
        count = math.floor(hi / scale - 0.5) - first + 1
        if count <= 0:
            return hi
        target = first + index % count + 0.5
        return _nudge_to_tie(lambda v: v / scale, target * scale, target)
    cal_max = anchor["cal_max"]
    if scheme == "mpq":
        target = index % levels + 0.5
        return _nudge_to_tie(lambda v: (v / cal_max) * levels,
                             target / levels * cal_max, target)
    if scheme == "log2":
        # -log2(v / max) is irrational at a half step, so aim beside it.
        return cal_max * 2.0 ** -(index % levels + 0.5)
    threshold = anchor["threshold"]
    span = (1 << (bits - 1)) - 1
    target = (index // 2) % span + 0.5
    if index % 2 == 0:
        step = threshold / span
        return _nudge_to_tie(lambda v: v / step, target * step, target)
    step = (cal_max - threshold) / span
    return _nudge_to_tie(lambda v: (v - threshold) / step,
                         threshold + target * step, target)


@st.composite
def static_scheme_cases(draw):
    """(params, oracle tuple, values) with zeros, the anchor and ties.

    A twin case split at a free threshold gives its kernel arguments (an
    ``Anchor``), as no ``QuantParams`` row holds that threshold.
    """
    scheme = draw(st.sampled_from(["uniform", "mpq", "log2", "twin"]))
    bits = draw(st.integers(2, 8))
    levels = (1 << bits) - 1
    if scheme == "uniform":
        scale = draw(st.one_of(st.floats(min_value=1e-4, max_value=50.0),
                               st.integers(-8, 4).map(lambda e: 2.0 ** e)))
        zero_point = draw(st.integers(0, levels))
        params = QuantParams(bits=bits, scale=scale, zero_point=zero_point,
                             scheme="uniform")
        oracle = ("uniform", scale, zero_point, bits)
        lo, hi = -zero_point * scale, (levels - zero_point) * scale
        anchor = {"scale": scale, "lo": lo, "hi": hi}
    else:
        cal_max = draw(st.one_of(st.floats(min_value=1e-3, max_value=1.0),
                                 st.integers(-8, 0).map(lambda e: 2.0 ** e)))
        lo, hi = 0.0, cal_max
        anchor = {"cal_max": cal_max}
        if scheme == "mpq":
            params = QuantParams(bits=bits, scale=cal_max / levels, zero_point=0,
                                 scheme="mpq", calibrated_max=cal_max)
            oracle = ("mpq", bits, cal_max)
        elif scheme == "log2":
            params = QuantParams(bits=bits, scale=cal_max, zero_point=0,
                                 scheme="log2", calibrated_max=cal_max)
            oracle = ("log2", bits, cal_max)
        else:
            fraction = draw(st.one_of(
                st.just(1.0 / (1 << (bits - 1))),
                st.floats(min_value=0.01, max_value=0.99)))
            threshold = cal_max * fraction
            params = _twin(bits, cal_max, threshold)
            if threshold == cal_max / (1 << (bits - 1)):
                params = QuantParams(scheme="twin", **params._asdict())
            oracle = ("twin", bits, cal_max, threshold)
            anchor["threshold"] = threshold
    ties = [_tie_value(scheme, bits, anchor, i)
            for i in draw(st.lists(st.integers(0, 255), min_size=1, max_size=8))]
    width = hi - lo
    noise = _finite_arrays(draw, lo=lo - 0.25 * width, hi=hi + 0.25 * width,
                           max_size=16)
    values = np.concatenate([noise, ties, [0.0, -0.0, lo, hi]])
    return params, oracle, values


@st.composite
def dynamic_scheme_cases(draw):
    """(scheme, bits, rows): each row holds its own max, ties, maybe a zero."""
    scheme = draw(st.sampled_from(["uniform", "mpq", "log2", "twin"]))
    bits = draw(st.integers(2, 8))
    levels = (1 << bits) - 1
    width = draw(st.integers(2, 8))
    tie_count = draw(st.integers(0, 6))
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        base = _finite_arrays(draw, lo=1e-6, hi=1.0, min_size=width,
                              max_size=width)
        if draw(st.booleans()):
            base[-1] = 0.0
        hi, lo = float(base.max()), float(base.min())
        scale = max((hi - lo) / levels, 1e-12)
        anchor = {"scale": scale, "lo": lo, "hi": hi, "cal_max": hi,
                  "threshold": hi / (1 << (bits - 1))}
        indices = draw(st.lists(st.integers(0, 255), min_size=tie_count,
                                max_size=tie_count))
        ties = [_tie_value(scheme, bits, anchor, i) for i in indices]
        rows.append(np.concatenate([base, ties]))
    return scheme, bits, np.stack(rows)


@given(static_scheme_cases())
@settings(max_examples=200)
def test_fake_quant_array_matches_oracle(case):
    params, oracle, values = case
    if isinstance(params, Anchor):
        got = SCHEME_TABLE["twin"].fake_quant(values, params)
    else:
        got = fake_quant_array(values, params)
    want = oracles._fq(values, oracle)
    np.testing.assert_array_equal(got, want)
    # assert_array_equal holds -0.0 equal to +0.0; the sign of zero must
    # match too.
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


@given(dynamic_scheme_cases())
@settings(max_examples=200)
def test_dynamic_softmax_matches_oracle(case):
    scheme, bits, rows = case
    np.testing.assert_array_equal(fake_quant_softmax_dynamic(rows, scheme, bits),
                                  oracles.fq_softmax_rows(rows, scheme, bits))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_fake_quant_leaves_its_input_untouched(scheme, rng):
    """The fake-quant kernels write only into arrays they allocated."""
    rows = np.abs(rng.normal(size=(3, 2, 6))) + 1e-3
    rows /= rows.sum(axis=-1, keepdims=True)
    rows[0, 0, 0] = -0.0
    params = softmax_site_params(scheme, 4, float(rows.max()),
                                 float(rows.min()))
    before = rows.copy()
    fake_quant_array(rows, params)
    np.testing.assert_array_equal(rows, before)
    fake_quant_softmax_dynamic(rows, scheme, 4)
    np.testing.assert_array_equal(rows, before)
    assert np.signbit(rows[0, 0, 0])
