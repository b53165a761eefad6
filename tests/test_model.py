"""Toy transformer: construction, sites, forward semantics, quant hooks."""

from __future__ import annotations

import numpy as np
import pytest

from bbcq.data import generate_dataset
from bbcq.errors import ContractError, DimensionError, ParameterError
from bbcq.model import (BLOCK_KINDS, MatmulSite, ModelSpec, Observer,
                        block_forward, enumerate_sites, forward, forward_from,
                        init_model, parameter_shapes, validate_quant_sites)
from bbcq.quantizers import QuantParams
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


def test_weight_operand_values(tiny_model):
    qkv = tiny_model.weight_operand_values(MatmulSite("qkv-projection", "B", 0))
    assert len(qkv) == 3
    assert qkv[0] is tiny_model.blocks[0].w_q
    with pytest.raises(ContractError):
        tiny_model.weight_operand_values(MatmulSite("attn-score", "B", 0))


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


def test_attention_rows_sum_to_one(tiny_model, tiny_batch):
    x, _ = tiny_batch

    class SoftmaxProbe(Observer):
        def __init__(self):
            self.rows = []

        def observe_operand(self, site, values):
            if site.is_softmax_output:
                self.rows.append(values)

    probe = SoftmaxProbe()
    forward(tiny_model, x, observer=probe)
    assert len(probe.rows) == tiny_model.spec.num_blocks
    for rows in probe.rows:
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-9)


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


def test_observer_sees_every_site(tiny_model, tiny_batch):
    x, _ = tiny_batch

    class SiteProbe(Observer):
        def __init__(self):
            self.seen = []

        def observe_operand(self, site, values):
            self.seen.append(site)

    probe = SiteProbe()
    forward(tiny_model, x, observer=probe)
    # every site appears, the softmax output included; the shared qkv weight
    # site fires three times (w_q, w_k, w_v)
    assert set(probe.seen) == set(enumerate_sites(tiny_model.spec))
    assert probe.seen.count(MatmulSite("qkv-projection", "B", 0)) == 3


def test_block_taps_expose_matmul_outputs(tiny_model, tiny_batch):
    x, _ = tiny_batch
    taps: list[dict] = []
    forward(tiny_model, x, block_taps=taps)
    assert len(taps) == tiny_model.spec.num_blocks
    tap = taps[0]
    assert sorted(tap) == sorted(BLOCK_KINDS)
    assert len(tap["qkv-projection"]) == 3
    batch, n, d = x.shape
    spec = tiny_model.spec
    assert tap["qkv-projection"][0].shape == (batch, n, d)
    assert tap["attn-score"][0].shape == (batch, spec.num_heads, n, n)
    assert tap["mlp-1"][0].shape == (batch, n, spec.hidden_dim)


def test_taps_carry_gradients_under_tape(tiny_model, tiny_batch):
    x, y = tiny_batch
    taps: list[dict] = []
    with Tape() as tape:
        result = forward(tiny_model, Tensor(np.asarray(x, dtype=np.float64)),
                         block_taps=taps)
        tape.backward(cross_entropy(result.logits, y))
        for kind in BLOCK_KINDS:
            for t in taps[0][kind]:
                grad = tape.grad(t)
                assert grad is not None and grad.shape == t.shape
