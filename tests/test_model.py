"""Toy transformer: construction, sites, forward semantics, quant hooks."""

from __future__ import annotations

import numpy as np
import pytest

from bbcq.data import generate_dataset
from bbcq.errors import ContractError, DimensionError, ParameterError
from bbcq.model import (BLOCK_KINDS, MatmulSite, ModelSpec, block_carry,
                        block_forward, enumerate_sites, forward, forward_from,
                        init_model, parameter_shapes, validate_quant_sites)
from bbcq.quantizers import QuantParams, softmax_site_params
from bbcq.tensor import Tape, Tensor, cross_entropy

from _oracles import oracle_forward


# ---------------------------------------------------------------------------
# spec / sites


def test_spec_validation():
    with pytest.raises(DimensionError):
        ModelSpec(num_blocks=1, embed_dim=65, num_heads=4, patch_count=4,
                  num_classes=4)
    with pytest.raises(ParameterError):
        ModelSpec(num_blocks=0, embed_dim=16, num_heads=2, patch_count=4,
                  num_classes=4)
    with pytest.raises(ParameterError):
        ModelSpec(num_blocks=1, embed_dim=16, num_heads=2, patch_count=4,
                  num_classes=1)
    with pytest.raises(ParameterError):
        ModelSpec(num_blocks=1, embed_dim=16, num_heads=2, patch_count=4,
                  num_classes=4, mlp_ratio=0.0)


def test_spec_rejects_overflowing_hidden_dim(tiny_spec):
    """embed_dim * mlp_ratio past the float range is a ParameterError, from
    the constructor and from a JSON manifest alike."""
    with pytest.raises(ParameterError, match="overflows"):
        ModelSpec(num_blocks=1, embed_dim=16, num_heads=2, patch_count=4,
                  num_classes=4, mlp_ratio=1e308)
    with pytest.raises(ParameterError, match="overflows"):
        ModelSpec.from_json({**tiny_spec.to_json(), "mlp_ratio": 1e308})


def test_spec_derived_dims(tiny_spec):
    assert tiny_spec.head_dim == 8
    assert tiny_spec.hidden_dim == 64
    round_trip = ModelSpec.from_json(tiny_spec.to_json())
    assert round_trip == tiny_spec


def test_site_identity_round_trip():
    for site in enumerate_sites(ModelSpec(2, 16, 2, 4, 4)):
        assert MatmulSite.parse(site.site_id) == site


def test_site_count_is_twelve_per_block_plus_edges():
    for blocks in (1, 3, 8):
        spec = ModelSpec(blocks, 16, 2, 4, 4)
        assert len(enumerate_sites(spec)) == 12 * blocks + 2


def test_site_properties():
    softmax_site = MatmulSite("attn-apply", "A", 0)
    assert softmax_site.is_softmax_output
    assert not softmax_site.is_weight_operand
    assert MatmulSite("attn-score", "B", 1).is_weight_operand is False
    assert MatmulSite("mlp-1", "B", 0).is_weight_operand
    assert MatmulSite("embed", "B").layer is None
    assert MatmulSite("mlp-2", "A", 0).layer == 6


def test_site_validation_errors():
    with pytest.raises(ParameterError):
        MatmulSite("nope", "A", 0)
    with pytest.raises(ParameterError):
        MatmulSite("mlp-1", "C", 0)
    with pytest.raises(ParameterError):
        MatmulSite("mlp-1", "A")  # block index required
    with pytest.raises(ParameterError):
        MatmulSite("embed", "B", 0)  # edges carry no block
    with pytest.raises(ParameterError):
        MatmulSite.parse("b0")


def test_validate_quant_sites_rejects_stranger(tiny_spec):
    stranger = MatmulSite("mlp-1", "A", 5)
    with pytest.raises(ContractError, match="b5.mlp-1.A"):
        validate_quant_sites(tiny_spec, [stranger])


# ---------------------------------------------------------------------------
# init


def test_init_is_deterministic(tiny_spec):
    a, b = init_model(tiny_spec), init_model(tiny_spec)
    for (name_a, arr_a), (name_b, arr_b) in zip(a.parameters(), b.parameters()):
        assert name_a == name_b
        np.testing.assert_array_equal(arr_a, arr_b)


def test_init_seed_changes_weights(tiny_spec):
    other = ModelSpec(**{**tiny_spec.to_json(), "init_seed": 8})
    assert not np.array_equal(init_model(tiny_spec).embed_w,
                              init_model(other).embed_w)


def test_parameter_order_and_shapes(tiny_spec):
    model = init_model(tiny_spec)
    named = model.parameters()
    assert [n for n, _ in named] == [n for n, _ in parameter_shapes(tiny_spec)]
    for (name, arr), (_, shape) in zip(named, parameter_shapes(tiny_spec)):
        assert arr.shape == shape, name


def test_xavier_bounds(tiny_spec):
    model = init_model(tiny_spec)
    d = tiny_spec.embed_dim
    bound = np.sqrt(6.0 / (d + d))
    assert np.abs(model.embed_w).max() <= bound
    np.testing.assert_array_equal(model.blocks[0].ln1_gamma, np.ones(d))
    np.testing.assert_array_equal(model.blocks[0].b2, np.zeros(d))


# ---------------------------------------------------------------------------
# forward semantics


def test_forward_shapes(tiny_model, tiny_batch):
    x, _ = tiny_batch
    result = forward(tiny_model, x)
    spec = tiny_model.spec
    assert result.logits.shape == (len(x), spec.num_classes)
    assert result.embed_output.shape == x.shape
    assert len(result.block_outputs) == spec.num_blocks
    assert result.block_outputs[-1].shape == x.shape


def test_forward_input_validation(tiny_model):
    with pytest.raises(DimensionError):
        forward(tiny_model, np.zeros((2, 3, 16)))  # wrong patch count
    with pytest.raises(DimensionError):
        forward(tiny_model, np.zeros((2, 4)))


def test_forward_matches_straight_line_oracle():
    """Dual route: the taped forward equals a plain numpy reimplementation."""
    spec = ModelSpec(num_blocks=2, embed_dim=16, num_heads=2, patch_count=5,
                     num_classes=3, init_seed=3)
    model = init_model(spec)
    x, _ = generate_dataset(4, 5, 16, 3, seed=9)
    result = forward(model, x)
    logits, block_outputs, embed_out = oracle_forward(model, x)
    np.testing.assert_array_equal(result.logits.data, logits)
    np.testing.assert_array_equal(result.embed_output.data, embed_out)
    for got, want in zip(result.block_outputs, block_outputs):
        np.testing.assert_array_equal(got.data, want)


def test_forward_composes_from_block_forward(tiny_model, tiny_batch):
    """Running embed + blocks + pool + head by hand equals forward(), bitwise."""
    x, _ = tiny_batch
    full = forward(tiny_model, x)
    current = Tensor(np.asarray(x, dtype=np.float64)) @ Tensor(tiny_model.embed_w)
    np.testing.assert_array_equal(current.data, full.embed_output.data)
    for b in range(tiny_model.spec.num_blocks):
        current = block_forward(tiny_model, b, current)
        np.testing.assert_array_equal(current.data, full.block_outputs[b].data)
    logits = current.mean(axis=1) @ Tensor(tiny_model.head_w)
    np.testing.assert_array_equal(logits.data, full.logits.data)


def test_forward_from_tail(tiny_model, tiny_batch):
    x, _ = tiny_batch
    full = forward(tiny_model, x)
    tail = forward_from(tiny_model, 0, full.block_outputs[0].data)
    np.testing.assert_array_equal(tail.data, full.logits.data)


def test_batch_permutation_permutes_logits(tiny_model, tiny_batch):
    x, _ = tiny_batch
    perm = np.array([3, 0, 5, 1, 4, 2])
    logits = forward(tiny_model, x).logits.data
    permuted = forward(tiny_model, x[perm]).logits.data
    np.testing.assert_array_equal(permuted, logits[perm])


def _collect_calls(model, x, **kwargs) -> list[tuple]:
    """Every (kind, block, a, b, out) the forward hook receives, in order."""
    calls = []
    forward(model, x, hook=lambda *call: calls.append(call), **kwargs)
    return calls


def test_attention_rows_sum_to_one(tiny_model, tiny_batch):
    x, _ = tiny_batch
    rows = [a for kind, block, a, _, _ in _collect_calls(tiny_model, x)
            if MatmulSite(kind, "A", block).is_softmax_output]
    assert len(rows) == tiny_model.spec.num_blocks
    for block_rows in rows:
        np.testing.assert_allclose(block_rows.sum(axis=-1), 1.0, atol=1e-9)


def test_empty_quant_state_is_bitwise_noop(tiny_model, tiny_batch):
    x, _ = tiny_batch
    plain = forward(tiny_model, x).logits.data
    quantless = forward(tiny_model, x, quant={}).logits.data
    np.testing.assert_array_equal(plain, quantless)


def test_quantized_forward_changes_logits(tiny_model, tiny_batch):
    x, _ = tiny_batch
    coarse = QuantParams(bits=2, scale=0.05, zero_point=2, scheme="uniform")
    quant = {MatmulSite("mlp-1", "B", 0): coarse}
    plain = forward(tiny_model, x).logits.data
    quantized = forward(tiny_model, x, quant=quant).logits.data
    assert not np.array_equal(plain, quantized)


def test_quant_rejected_under_recording_tape(tiny_model, tiny_batch):
    x, _ = tiny_batch
    quant = {MatmulSite("embed", "B"):
             QuantParams(bits=8, scale=0.01, zero_point=128, scheme="uniform")}
    with Tape():
        with pytest.raises(ContractError):
            forward(tiny_model, x, quant=quant)
    # outside a tape the same call is fine
    forward(tiny_model, x, quant=quant)


def test_quant_unknown_site_rejected(tiny_model, tiny_batch):
    x, _ = tiny_batch
    quant = {MatmulSite("mlp-1", "A", 3):
             QuantParams(bits=8, scale=0.01, zero_point=0, scheme="uniform")}
    with pytest.raises(ContractError):
        forward(tiny_model, x, quant=quant)


def _block_outputs(calls, block: int) -> dict[str, list[Tensor]]:
    """The hook's matmul outputs of one block, keyed by kind."""
    outs: dict[str, list[Tensor]] = {}
    for kind, b, _, _, out in calls:
        if b == block:
            outs.setdefault(kind, []).append(out)
    return outs


def test_observer_sees_every_site(tiny_model, tiny_batch):
    x, _ = tiny_batch
    seen = []
    for kind, block, _, _, _ in _collect_calls(tiny_model, x):
        # embed and head expose their weight operand only
        roles = ("B",) if block is None else ("A", "B")
        seen.extend(MatmulSite(kind, role, block) for role in roles)
    # every site appears, the softmax output included; the shared qkv weight
    # site fires three times (w_q, w_k, w_v)
    assert set(seen) == set(enumerate_sites(tiny_model.spec))
    assert seen.count(MatmulSite("qkv-projection", "B", 0)) == 3


def test_block_taps_expose_matmul_outputs(tiny_model, tiny_batch):
    x, _ = tiny_batch
    calls = _collect_calls(tiny_model, x)
    blocks = {block for _, block, _, _, _ in calls if block is not None}
    assert blocks == set(range(tiny_model.spec.num_blocks))
    tap = _block_outputs(calls, 0)
    assert sorted(tap) == sorted(BLOCK_KINDS)
    assert len(tap["qkv-projection"]) == 3
    batch, n, d = x.shape
    spec = tiny_model.spec
    assert tap["qkv-projection"][0].shape == (batch, n, d)
    assert tap["attn-score"][0].shape == (batch, spec.num_heads, n, n)
    assert tap["mlp-1"][0].shape == (batch, n, spec.hidden_dim)


def test_taps_carry_gradients_under_tape(tiny_model, tiny_batch):
    x, y = tiny_batch
    calls = []
    with Tape() as tape:
        result = forward(tiny_model, Tensor(np.asarray(x, dtype=np.float64)),
                         hook=lambda *call: calls.append(call))
        tape.backward(cross_entropy(result.logits, y))
        tap = _block_outputs(calls, 0)
        for kind in BLOCK_KINDS:
            for t in tap[kind]:
                grad = tape.grad(t)
                assert grad is not None and grad.shape == t.shape


def test_hook_receives_pre_quant_operands(tiny_model, tiny_batch):
    """Under a quant state the hook sees the operands before fake-quant;
    only ``out`` reflects the quantized matmul."""
    x, _ = tiny_batch
    coarse = QuantParams(bits=2, scale=0.05, zero_point=2, scheme="uniform")
    quant = {MatmulSite(kind, role, 0): coarse
             for kind in ("qkv-projection", "attn-apply") for role in ("A", "B")}
    fp_calls = _collect_calls(tiny_model, x)
    calls = _collect_calls(tiny_model, x, quant=quant)
    assert [c[:2] for c in calls] == [c[:2] for c in fp_calls]
    blk = tiny_model.blocks[0]
    qkv = [c for c in calls if c[0] == "qkv-projection"]
    for (_, _, a, b, out), weight, fp in zip(qkv, (blk.w_q, blk.w_k, blk.w_v),
                                             fp_calls[1:4], strict=True):
        assert b is weight
        np.testing.assert_array_equal(a, fp[2])
        assert not np.array_equal(out.data, a @ b)
    softmax_rows = next(c[2] for c in calls if c[0] == "attn-apply")
    np.testing.assert_allclose(softmax_rows.sum(axis=-1), 1.0, atol=1e-9)


def _block_input(model, x):
    return forward(model, x).embed_output


def test_block_forward_stop_ends_after_that_matmul(tiny_model, tiny_batch):
    """With ``stop`` the forward returns None right after that matmul's hook
    calls, which equal the first calls of a full block forward."""
    x = _block_input(tiny_model, tiny_batch[0])
    full = []
    block_forward(tiny_model, 0, x, hook=lambda *call: full.append(call))
    for kind in BLOCK_KINDS:
        calls = []
        assert block_forward(tiny_model, 0, x, stop=kind,
                             hook=lambda *call: calls.append(call)) is None
        assert calls[-1][0] == kind
        assert len(calls) == max(i for i, c in enumerate(full) if c[0] == kind) + 1
        for got, want in zip(calls, full):
            assert got[:2] == want[:2]
            np.testing.assert_array_equal(got[4].data, want[4].data)


@pytest.mark.parametrize("dynamic_softmax", [False, True])
def test_block_carry_resumes_bit_for_bit(tiny_model, tiny_batch,
                                         dynamic_softmax):
    """A forward resumed from ``block_carry`` at any site equals the full
    block forward under a state that differs from the carry's only at
    that site."""
    x = _block_input(tiny_model, tiny_batch[0])
    state = {site: QuantParams(bits=3, scale=0.07, zero_point=3, scheme="uniform")
             for site in enumerate_sites(tiny_model.spec) if site.block == 0}
    state[MatmulSite("attn-apply", "A", 0)] = softmax_site_params("mpq", 4, 1.0)
    for site in state:
        if site.is_softmax_output:
            continue
        carry = block_carry(tiny_model, 0, x, site, state, dynamic_softmax)
        assert carry.kind == site.kind
        trial = {**state, site: QuantParams(bits=3, scale=0.11, zero_point=1,
                                            scheme="uniform")}
        resumed = block_forward(tiny_model, 0, carry, trial, dynamic_softmax)
        full = block_forward(tiny_model, 0, x, trial, dynamic_softmax)
        np.testing.assert_array_equal(resumed.data, full.data, site.site_id)


def test_block_forward_cannot_stop_before_its_carry(tiny_model, tiny_batch):
    x = _block_input(tiny_model, tiny_batch[0])
    carry = block_carry(tiny_model, 0, x, MatmulSite("mlp-1", "A", 0))
    with pytest.raises(ContractError):
        block_forward(tiny_model, 0, carry, stop="attn-score")
