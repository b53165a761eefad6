"""Hook-free block forwards run large batches in slices of samples.

Every stage of a block is per sample, so a sliced run equals a one-slice
run bit for bit. A call that a hook, ``stop`` or a carry can observe, and
the FP pass's forward and block backward, still run the whole batch in one
pass. A sliced call may write its output into a given array, the block
input itself included, and a hook-free forward runs every block in its
embed output that way.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from bbcq import model as model_module
from bbcq.calibration import (CalibConfig, cache_fp_pass, calibrate,
                              total_blockwise_metric)
from bbcq.data import generate_dataset
from bbcq.errors import ContractError, DimensionError
from bbcq.metrics import evaluate
from bbcq.model import (BlockCarry, ModelSpec, block_forward, block_prefix,
                        forward, forward_from, init_model)
from bbcq.quantizers import SCHEMES

SPEC = ModelSpec(num_blocks=2, embed_dim=32, num_heads=2, patch_count=16,
                 num_classes=4, init_seed=3)
#: 2**17 // (16 patches * 128 hidden): the MLP activation is the widest.
ROWS = 64
BATCHES = [ROWS - 1, ROWS, ROWS + 1, 3 * ROWS + 5]
#: Full precision, then every softmax scheme static and dynamic.
SETTINGS = [None] + [(scheme, dynamic) for scheme in SCHEMES
                     for dynamic in (False, True)]


def _setting_id(setting) -> str:
    if setting is None:
        return "fp"
    scheme, dynamic = setting
    return f"{scheme}-{'dynamic' if dynamic else 'static'}"


@pytest.fixture(scope="module")
def model():
    return init_model(SPEC)


@pytest.fixture(scope="module")
def results(model):
    """One W4A4 calibration result per softmax setting; None for FP."""
    cx, cy = generate_dataset(16, SPEC.patch_count, SPEC.embed_dim,
                              SPEC.num_classes, seed=1)
    found = {None: None}
    for scheme, dynamic in SETTINGS[1:]:
        found[(scheme, dynamic)] = calibrate(model, cx, cy, CalibConfig(
            w_bits=4, a_bits=4, num_candidates=2, rounds=1, calib_batch=16,
            softmax_quantizer=scheme, dynamic_softmax=dynamic))
    return found


def _batch(samples: int):
    return generate_dataset(samples, SPEC.patch_count, SPEC.embed_dim,
                            SPEC.num_classes, seed=2)


def _slices_seen(monkeypatch) -> list[int]:
    """The batch size of every ``_run_stages`` call from here on."""
    sizes = []
    run_stages = model_module._run_stages

    def spy(model, block, x, *args):
        sizes.append(x.residual.shape[0] if isinstance(x, BlockCarry) else x.shape[0])
        return run_stages(model, block, x, *args)

    monkeypatch.setattr(model_module, "_run_stages", spy)
    return sizes


def test_slice_rows_fit_the_widest_intermediate():
    assert model_module._slice_rows(SPEC) == ROWS
    # The README model: 4 heads, 16 patches, hidden 256.
    assert model_module._slice_rows(ModelSpec(4, 64, 4, 16, 10)) == 32
    # Attention scores wider than the MLP: 8 heads of 64 x 64.
    assert model_module._slice_rows(ModelSpec(1, 16, 8, 64, 4)) == 4
    # A sample wider than the budget still runs, one at a time.
    assert model_module._slice_rows(ModelSpec(1, 16, 2, 1024, 4)) == 1


@pytest.mark.parametrize("samples, slices", [(ROWS - 1, [ROWS - 1]),
                                             (ROWS, [ROWS]),
                                             (ROWS + 1, [ROWS, 1]),
                                             (3 * ROWS + 5, [ROWS] * 3 + [5])])
def test_untaped_forward_runs_each_block_in_slices(model, monkeypatch,
                                                   samples, slices):
    """One ``block_forward`` call per block, each over the slices in order."""
    sizes = _slices_seen(monkeypatch)
    calls = []
    real_block_forward = model_module.block_forward
    monkeypatch.setattr(model_module, "block_forward",
                        lambda *a, **k: calls.append(a[1]) or real_block_forward(*a, **k))
    forward(model, _batch(samples)[0])
    assert calls == [0, 1]
    assert sizes == slices * SPEC.num_blocks


@pytest.mark.parametrize("samples", BATCHES)
@pytest.mark.parametrize("setting", SETTINGS, ids=_setting_id)
def test_sliced_runs_equal_one_slice(model, results, monkeypatch, samples,
                                     setting):
    """``block_forward``, ``forward``, ``forward_from``, ``evaluate`` and
    ``total_blockwise_metric`` equal a one-slice run bit for bit."""
    result = results[setting]
    quant = None if result is None else result.quant_state()
    x, y = _batch(samples)
    block_input = x @ model.embed_w

    def run():
        in_place = block_input.copy()
        return (block_forward(model, 0, block_input, quant),
                forward(model, x, quant),
                forward_from(model, 0, block_input),
                block_forward(model, 0, in_place, quant, out=in_place),
                evaluate(model, result, x, y),
                total_blockwise_metric(model, x, y, quant or {}, gamma=10.0))

    sliced = run()
    with monkeypatch.context() as one_slice:
        one_slice.setattr(model_module, "_slice_rows", lambda spec: sys.maxsize)
        whole = run()
    for got, want in zip(sliced[:4], whole[:4], strict=True):
        assert np.array_equal(got, want)
    assert np.array_equal(sliced[3], whole[0])
    assert sliced[4:] == whole[4:]


def test_sliced_block_forward_quantizes_each_weight_once(model, results,
                                                         monkeypatch):
    """Each block's six weights are fake-quantized once per sliced call,
    not once per slice: over 4 slices, the 2-D operands fake-quantized are
    the embedding and head weights plus 6 per block."""
    shapes = []
    fake_quant_array = model_module.fake_quant_array
    monkeypatch.setattr(model_module, "fake_quant_array",
                        lambda x, params: shapes.append(x.ndim)
                        or fake_quant_array(x, params))
    forward(model, _batch(3 * ROWS + 5)[0], results[("mpq", False)].quant_state())
    assert shapes.count(2) == 2 + 6 * SPEC.num_blocks


@pytest.mark.parametrize("setting", [None, ("twin", True)], ids=_setting_id)
def test_forward_writes_neither_input_nor_block_output(model, results, setting):
    """``forward`` runs its blocks in its own embed output, never in the
    caller's ``x``; ``forward_from`` leaves its ``block_output`` as given."""
    result = results[setting]
    quant = None if result is None else result.quant_state()
    x, _ = _batch(3 * ROWS + 5)
    x_before = x.copy()
    forward(model, x, quant)
    assert np.array_equal(x, x_before)
    block_output = block_forward(model, 0, x @ model.embed_w)
    output_before = block_output.copy()
    forward_from(model, 0, block_output)
    assert np.array_equal(block_output, output_before)


def _block_input(model, samples=3 * ROWS + 5) -> np.ndarray:
    return _batch(samples)[0] @ model.embed_w


@pytest.mark.parametrize("samples, calls", [(ROWS, 1), (ROWS + 1, 2),
                                            (8 * ROWS, 8)])
def test_block_forward_slices_only_past_one_slice(model, monkeypatch, samples,
                                                  calls):
    """Without ``out``, a hook-free call on a block input runs a batch of at
    most one slice in one pass on ``x`` itself, and a larger one in slices."""
    seen = []
    run_stages = model_module._run_stages
    monkeypatch.setattr(model_module, "_run_stages",
                        lambda model, block, x, *args: seen.append(x)
                        or run_stages(model, block, x, *args))
    block_input = _block_input(model, samples)
    block_forward(model, 0, block_input)
    assert len(seen) == calls
    assert (seen[0] is block_input) == (samples == ROWS)


def test_one_slice_batch_returns_its_output_in_out(model):
    block_input = _block_input(model, ROWS - 1)
    out = np.empty(block_input.shape)
    got = block_forward(model, 0, block_input, out=out)
    assert got is out
    assert np.array_equal(out, block_forward(model, 0, block_input))


def _read_only(shape):
    array = np.empty(shape)
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("make_out", [
    lambda shape: np.empty((shape[0] - 1, *shape[1:])),
    lambda shape: np.empty(shape, dtype=np.float32),
    lambda shape: np.empty(shape[::-1]).T,
    _read_only,
], ids=["shape", "dtype", "non-contiguous", "read-only"])
def test_out_must_match_the_block_input(model, make_out):
    block_input = _block_input(model)
    with pytest.raises(DimensionError):
        block_forward(model, 0, block_input, out=make_out(block_input.shape))


@pytest.mark.parametrize("call", [
    lambda model, x, out: block_forward(
        model, 0, block_prefix(model, 0, x, "attn-apply"), out=out),
    lambda model, x, out: block_forward(
        model, 0, x, hook=lambda *args: None, out=out),
    lambda model, x, out: block_forward(model, 0, x, stop="mlp-2", out=out),
], ids=["carry", "hook", "stop"])
def test_out_needs_a_sliced_call(model, call):
    """``out`` belongs to the sliced path: a carry, a hook or ``stop``,
    each of which runs in one pass, rejects it."""
    block_input = _block_input(model)
    with pytest.raises(ContractError):
        call(model, block_input, np.empty(block_input.shape))


def test_a_hooked_forward_runs_in_one_pass(model, results, monkeypatch):
    """The hook sees one call per matmul, with full-batch operands."""
    samples = 3 * ROWS + 5
    x, _ = _batch(samples)
    sizes = _slices_seen(monkeypatch)
    calls = []
    forward(model, x, results[("twin", True)].quant_state(),
            hook=lambda kind, block, a, b, out: calls.append((kind, block, a, out)))
    assert sizes == [samples] * SPEC.num_blocks
    # embed, q/k/v (3) and five more per block, head.
    assert len(calls) == 2 + 8 * SPEC.num_blocks
    assert all(a.shape[0] == samples and out.shape[0] == samples
               for _, _, a, out in calls)


def test_stop_carry_and_fp_pass_run_in_one_pass(model, monkeypatch):
    """The FP pass runs each block forward once with its hook, and the
    backward of block 1 re-runs it in four stage calls, all full-batch."""
    samples = 3 * ROWS + 5
    x, y = _batch(samples)
    block_input = x @ model.embed_w
    sizes = _slices_seen(monkeypatch)
    block_forward(model, 0, block_input, stop="mlp-1")
    carry = block_prefix(model, 0, block_input, "attn-apply")
    block_forward(model, 0, carry)
    cache_fp_pass(model, x, y)
    assert sizes == [samples] * (3 + SPEC.num_blocks + 4)
