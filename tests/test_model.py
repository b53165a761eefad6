"""Toy transformer: construction, sites, forward semantics, quant hooks."""

from __future__ import annotations

import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from bbcq.calibration import CalibConfig, calibrate
from bbcq.data import generate_dataset
from bbcq.errors import ContractError, DimensionError, ParameterError
from bbcq.model import (BLOCK_KINDS, MatmulSite, ModelSpec, block_backward,
                        block_forward, block_prefix, enumerate_sites, forward,
                        forward_from, freeze_operands, init_model,
                        parameter_shapes)
from bbcq import model as model_module
from bbcq.quantizers import (DynamicSoftmax, QuantParams, fake_quant_array,
                             fake_quant_softmax_dynamic, softmax_site_params)
from bbcq.tensor import matmul

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
    with pytest.raises(ParameterError, match="mlp_ratio must be positive"):
        ModelSpec(num_blocks=1, embed_dim=16, num_heads=2, patch_count=4,
                  num_classes=4, mlp_ratio=0.0)
    with pytest.raises(ParameterError, match="init_seed"):
        ModelSpec(num_blocks=1, embed_dim=16, num_heads=2, patch_count=4,
                  num_classes=4, init_seed=-1)


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
    spec = tiny_model.spec
    assert forward(tiny_model, x).shape == (len(x), spec.num_classes)
    block_input = _block_input(tiny_model, x)
    assert block_input.shape == x.shape
    assert block_forward(tiny_model, 0, block_input).shape == x.shape


def test_forward_input_validation(tiny_model):
    with pytest.raises(DimensionError):
        forward(tiny_model, np.zeros((2, 3, 16)))  # wrong patch count
    with pytest.raises(DimensionError):
        forward(tiny_model, np.zeros((2, 4)))


def test_forward_matches_straight_line_oracle():
    """Dual route: the forward, and its blocks run one by one, equal a
    plain numpy reimplementation."""
    spec = ModelSpec(num_blocks=2, embed_dim=16, num_heads=2, patch_count=5,
                     num_classes=3, init_seed=3)
    model = init_model(spec)
    x, _ = generate_dataset(4, 5, 16, 3, seed=9)
    logits, block_outputs, embed_out = oracle_forward(model, x)
    np.testing.assert_array_equal(forward(model, x), logits)
    current = _block_input(model, x)
    np.testing.assert_array_equal(current, embed_out)
    for b, want in enumerate(block_outputs):
        current = block_forward(model, b, current)
        np.testing.assert_array_equal(current, want)


def test_forward_composes_from_block_forward(tiny_model, tiny_batch):
    """Running embed + blocks + pool + head by hand equals forward(), bitwise."""
    x, _ = tiny_batch
    current = matmul(x, tiny_model.embed_w)
    for b in range(tiny_model.spec.num_blocks):
        current = block_forward(tiny_model, b, current)
    logits = matmul(current.mean(axis=1), tiny_model.head_w)
    np.testing.assert_array_equal(logits, forward(tiny_model, x))


def test_forward_from_tail(tiny_model, tiny_batch):
    x, _ = tiny_batch
    block_output = block_forward(tiny_model, 0, _block_input(tiny_model, x))
    tail = forward_from(tiny_model, 0, block_output)
    np.testing.assert_array_equal(tail, forward(tiny_model, x))


def test_batch_permutation_permutes_logits(tiny_model, tiny_batch):
    x, _ = tiny_batch
    perm = np.array([3, 0, 5, 1, 4, 2])
    logits = forward(tiny_model, x)
    permuted = forward(tiny_model, x[perm])
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
    plain = forward(tiny_model, x)
    quantless = forward(tiny_model, x, quant={})
    np.testing.assert_array_equal(plain, quantless)


def test_quantized_forward_changes_logits(tiny_model, tiny_batch):
    x, _ = tiny_batch
    coarse = QuantParams(bits=2, scale=0.05, zero_point=2, scheme="uniform")
    quant = {MatmulSite("mlp-1", "B", 0): coarse}
    plain = forward(tiny_model, x)
    quantized = forward(tiny_model, x, quant=quant)
    assert not np.array_equal(plain, quantized)


def test_quant_unknown_site_rejected(tiny_model, tiny_batch):
    x, _ = tiny_batch
    quant = {MatmulSite("mlp-1", "A", 3):
             QuantParams(bits=8, scale=0.01, zero_point=0, scheme="uniform")}
    with pytest.raises(ContractError):
        forward(tiny_model, x, quant=quant)


def _block_outputs(calls, block: int) -> dict[str, list[np.ndarray]]:
    """The hook's matmul outputs of one block, keyed by kind."""
    outs: dict[str, list[np.ndarray]] = {}
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


def test_block_backward_gives_every_tap_a_gradient(tiny_model, tiny_batch, rng):
    """``block_backward`` returns the block-input gradient and one gradient
    per hook ``out``, by kind and in hook order, each of its tap's shape;
    it reads the block as the hooked forward runs it, so the taps match."""
    x = _block_input(tiny_model, tiny_batch[0])
    calls = []
    block_forward(tiny_model, 0, x, hook=lambda *call: calls.append(call))
    tap = _block_outputs(calls, 0)
    grad_in, grads = block_backward(tiny_model, 0, x, rng.normal(size=x.shape))
    assert grad_in.shape == x.shape
    assert sorted(grads) == sorted(BLOCK_KINDS)
    for kind in BLOCK_KINDS:
        assert [g.shape for g in grads[kind]] == [t.shape for t in tap[kind]]


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
        assert not np.array_equal(out, a @ b)
    softmax_rows = next(c[2] for c in calls if c[0] == "attn-apply")
    np.testing.assert_allclose(softmax_rows.sum(axis=-1), 1.0, atol=1e-9)


def _block_input(model, x):
    """The embed output of ``x``: the first block's input."""
    return matmul(x, model.embed_w)


def test_block_forward_stop_ends_after_that_matmul(tiny_model, tiny_batch):
    """With ``stop`` the forward returns right after that matmul's hook
    calls, which equal the first calls of a full block forward, and its
    outputs are the ``out``s those calls saw."""
    x = _block_input(tiny_model, tiny_batch[0])
    full = []
    block_forward(tiny_model, 0, x, hook=lambda *call: full.append(call))
    for kind in BLOCK_KINDS:
        calls = []
        outs = block_forward(tiny_model, 0, x, stop=kind,
                             hook=lambda *call: calls.append(call))
        hooked = [call[4] for call in calls if call[0] == kind]
        assert len(outs) == (3 if kind == "qkv-projection" else 1)
        assert all(out is seen for out, seen in zip(outs, hooked, strict=True))
        assert calls[-1][0] == kind
        assert len(calls) == max(i for i, c in enumerate(full) if c[0] == kind) + 1
        for got, want in zip(calls, full):
            assert got[:2] == want[:2]
            np.testing.assert_array_equal(got[4], want[4])


@pytest.mark.parametrize("dynamic_softmax", [False, True])
def test_block_prefix_resumes_bit_for_bit(tiny_model, tiny_batch,
                                          dynamic_softmax):
    """A forward resumed from ``block_prefix`` at any matmul equals the full
    block forward under a state that differs from the prefix's at that
    matmul."""
    x = _block_input(tiny_model, tiny_batch[0])
    state = {site: QuantParams(bits=3, scale=0.07, zero_point=3, scheme="uniform")
             for site in enumerate_sites(tiny_model.spec) if site.block == 0}
    state[MatmulSite("attn-apply", "A", 0)] = (
        DynamicSoftmax("mpq", 4) if dynamic_softmax
        else softmax_site_params("mpq", 4, 1.0))
    for site in state:
        if site.is_softmax_output:
            continue
        prefix = block_prefix(tiny_model, 0, x, site.kind, state)
        assert prefix.kind == site.kind
        trial = {**state, site: QuantParams(bits=3, scale=0.11, zero_point=1,
                                            scheme="uniform")}
        resumed = block_forward(tiny_model, 0, prefix, trial)
        full = block_forward(tiny_model, 0, x, trial)
        np.testing.assert_array_equal(resumed, full, site.site_id)


@pytest.mark.parametrize("kind", [None, *BLOCK_KINDS])
def test_freeze_operands_quantizes_what_a_forward_holds_fixed(tiny_spec,
                                                             tiny_batch, kind):
    """From a carry at ``kind`` (or a block input), the copies hold the
    carry's two operands and every later weight of that block
    fake-quantized; nothing else changes, ``rest`` drops just those sites,
    and resuming from the copies under ``rest`` gives the same bits."""
    model = init_model(replace(tiny_spec, num_blocks=3))
    x = tiny_batch[0]
    params = QuantParams(bits=3, scale=0.07, zero_point=3, scheme="uniform")
    quant = {site: params for site in enumerate_sites(model.spec)}
    carry = None if kind is None else block_prefix(model, 1, x, kind, quant)
    frozen, frozen_carry, rest = freeze_operands(model, 1, carry, quant)

    later = BLOCK_KINDS[0 if kind is None else BLOCK_KINDS.index(kind) + 1:]
    held = {s for s in (MatmulSite(k, "B", 1) for k in later) if s.is_weight_operand}
    assert len(frozen.blocks) == 3
    assert frozen.blocks[0] is model.blocks[0] and frozen.blocks[2] is model.blocks[2]
    for name, value in vars(frozen.blocks[1]).items():
        original = getattr(model.blocks[1], name)
        if any(name in model_module._WEIGHT_FIELDS[s.kind] for s in held):
            np.testing.assert_array_equal(value, fake_quant_array(original, params))
        else:
            assert value is original, name
    if carry is not None:
        held |= {MatmulSite(kind, "A", 1), MatmulSite(kind, "B", 1)}
        np.testing.assert_array_equal(frozen_carry.a,
                                      fake_quant_array(carry.a, params))
        for got, b in zip(frozen_carry.b, carry.b, strict=True):
            np.testing.assert_array_equal(got, fake_quant_array(b, params))
        assert frozen_carry.residual is carry.residual and frozen_carry.vh is carry.vh
    assert rest == {site: p for site, p in quant.items() if site not in held}
    resumed = block_forward(frozen, 1, x if carry is None else frozen_carry, rest)
    np.testing.assert_array_equal(resumed, block_forward(model, 1, x, quant))


def test_dynamic_softmax_entry_anchors_the_softmax_rows(tiny_model, tiny_batch,
                                                       monkeypatch):
    """A ``DynamicSoftmax`` entry runs the per-row kernel on exactly the
    post-softmax operand, once per forward."""
    x, _ = tiny_batch
    seen = []

    def spy(s, scheme, bits):
        seen.append((s, scheme, bits))
        return fake_quant_softmax_dynamic(s, scheme, bits)

    monkeypatch.setattr(model_module, "fake_quant_softmax_dynamic", spy)
    calls = []
    forward(tiny_model, x,
            quant={MatmulSite("attn-apply", "A", 0): DynamicSoftmax("twin", 3)},
            hook=lambda *call: calls.append(call))
    rows = [a for kind, _, a, _, _ in calls if kind == "attn-apply"]
    assert [entry[1:] for entry in seen] == [("twin", 3)]
    np.testing.assert_array_equal(seen[0][0], rows[0])


@pytest.mark.parametrize("site", [MatmulSite("mlp-1", "A", 0),
                                  MatmulSite("attn-apply", "B", 0),
                                  MatmulSite("embed", "B")],
                         ids=lambda site: site.site_id)
def test_dynamic_softmax_entry_only_at_post_softmax_sites(tiny_model,
                                                          tiny_batch, site):
    x, _ = tiny_batch
    quant = {site: DynamicSoftmax("mpq", 4)}
    with pytest.raises(ContractError, match=site.site_id):
        forward(tiny_model, x, quant=quant)
    block_input = _block_input(tiny_model, x)
    with pytest.raises(ContractError, match=site.site_id):
        block_forward(tiny_model, 0, block_input, quant)
    with pytest.raises(ContractError, match=site.site_id):
        block_prefix(tiny_model, 0, block_input, "mlp-2", quant)


def test_hook_and_stop_are_keyword_only(tiny_model, tiny_batch):
    """A positional call in the old ``(quant, dynamic_softmax, hook, stop)``
    order fails at the call site."""
    x, _ = tiny_batch
    block_input = _block_input(tiny_model, x)

    def hook(*call):
        pass

    with pytest.raises(TypeError):
        forward(tiny_model, x, None, hook)
    with pytest.raises(TypeError):
        block_forward(tiny_model, 0, block_input, None, hook)
    with pytest.raises(TypeError):
        block_forward(tiny_model, 0, block_input, None, False, hook, "mlp-1")
    with pytest.raises(TypeError):
        block_prefix(tiny_model, 0, block_input, "mlp-1", None, True)


# ---------------------------------------------------------------------------
# the one input check of every model entry


def _quant_entries(model, x, quant) -> dict:
    """One call of each model entry that takes a quant state, on block 0:
    ``forward`` on the raw batch ``x``, the staged calls on its block input."""
    block_input = _block_input(model, x)
    return {
        "forward": lambda: forward(model, x, quant),
        "block_forward": lambda: block_forward(model, 0, block_input, quant),
        "block_prefix": lambda: block_prefix(model, 0, block_input, "mlp-1", quant),
        "freeze_operands": lambda: freeze_operands(model, 0, None, quant),
    }


@pytest.mark.parametrize("site_id", ["b1.mlp-1.A", "b5.mlp-1.A", "embed.A"])
def test_every_entry_rejects_a_site_the_model_lacks(tiny_model, tiny_batch,
                                                    site_id):
    """A site of a block past the 1-block model, or an edge activation,
    which is never quantized, is a ContractError naming the site at every
    entry."""
    params = QuantParams(bits=8, scale=0.01, zero_point=0, scheme="uniform")
    quant = {MatmulSite.parse(site_id): params}
    for call in _quant_entries(tiny_model, tiny_batch[0], quant).values():
        with pytest.raises(ContractError, match=site_id):
            call()


def test_block_prefix_cannot_pause_before_its_carry(tiny_model, tiny_batch):
    """Pausing a carry at an earlier matmul is a ContractError, not a run
    to the end of the block; pausing it where it is returns it."""
    x = _block_input(tiny_model, tiny_batch[0])
    carry = block_prefix(tiny_model, 0, x, "mlp-1")
    with pytest.raises(ContractError, match="resumes at mlp-1"):
        block_prefix(tiny_model, 0, carry, "qkv-projection")
    assert block_prefix(tiny_model, 0, carry, "mlp-1") is carry
    assert block_prefix(tiny_model, 0, carry, "mlp-2").kind == "mlp-2"


@pytest.mark.parametrize("block", [1, 5, -1])
def test_forward_from_rejects_a_block_outside_the_model(tiny_model, tiny_batch,
                                                        block):
    """On a 1-block model only block 0 has an output to start from."""
    x = _block_input(tiny_model, tiny_batch[0])
    with pytest.raises(ParameterError, match=f"block index {block}"):
        forward_from(tiny_model, block, x)


def test_block_forward_cannot_stop_before_its_carry(tiny_model, tiny_batch):
    x = _block_input(tiny_model, tiny_batch[0])
    carry = block_prefix(tiny_model, 0, x, "mlp-1")
    with pytest.raises(ContractError):
        block_forward(tiny_model, 0, carry, stop="attn-score")
    [out] = block_forward(tiny_model, 0, carry, stop="mlp-1")
    assert out.shape == (x.shape[0], x.shape[1], tiny_model.spec.hidden_dim)


@pytest.mark.parametrize("block,kind", [(0, "bogus"), (0, "embed"),
                                        (1, "mlp-1"), (-1, "mlp-1")],
                         ids=["unknown-kind", "edge-kind", "past-the-model",
                              "negative-block"])
def test_staged_calls_reject_unknown_kinds_and_blocks(tiny_model, tiny_batch,
                                                      block, kind):
    """A kind outside the block's six matmuls, or a block index outside the
    model, is a ParameterError, not a raw error or a silent full forward."""
    x = _block_input(tiny_model, tiny_batch[0])
    with pytest.raises(ParameterError):
        block_prefix(tiny_model, block, x, kind)
    with pytest.raises(ParameterError):
        block_forward(tiny_model, block, x, stop=kind)


@pytest.mark.parametrize("shape", [(6, 16), (6, 5, 16)],
                         ids=["two-dims", "patches"])
def test_staged_calls_reject_a_misshapen_block_input(tiny_model, shape):
    """A block input, or the block output ``forward_from`` starts from,
    that is not (batch, patches, embed_dim) is a DimensionError, not a raw
    unpacking error or a silent forward."""
    x = np.zeros(shape)
    with pytest.raises(DimensionError):
        block_prefix(tiny_model, 0, x, "mlp-1")
    with pytest.raises(DimensionError):
        block_forward(tiny_model, 0, x)
    with pytest.raises(DimensionError):
        forward_from(tiny_model, 0, x)


@pytest.mark.parametrize("entry", ["forward", "forward_from", "block_forward",
                                   "block_prefix", "block_backward"])
def test_every_entry_takes_nested_lists(tiny_model, tiny_batch, entry):
    """Nested lists are an array like any other: each entry given its
    arrays as lists returns what it returns for the arrays, bit for bit."""
    x = tiny_batch[0]
    h = _block_input(tiny_model, x)
    args, call = {
        "forward": ((x,), lambda x: forward(tiny_model, x)),
        "forward_from": ((h,), lambda h: forward_from(tiny_model, 0, h)),
        "block_forward": ((h,), lambda h: block_forward(tiny_model, 0, h)),
        "block_prefix": ((h,), lambda h: block_prefix(tiny_model, 0, h, "mlp-1").a),
        "block_backward": ((h, -h),
                           lambda h, g: block_backward(tiny_model, 0, h, g)[0]),
    }[entry]
    want = call(*args)
    got = call(*(a.tolist() for a in args))
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _twin_quantized(dynamic):
    """A 1-block dim-32 model, 512 samples and a W4A4 twin-softmax state."""
    spec = ModelSpec(num_blocks=1, embed_dim=32, num_heads=2, patch_count=16,
                     num_classes=4, init_seed=3)
    model = init_model(spec)
    cx, cy = generate_dataset(16, 16, 32, 4, seed=1)
    x, _ = generate_dataset(512, 16, 32, 4, seed=2)
    result = calibrate(model, cx, cy, CalibConfig(
        w_bits=4, a_bits=4, num_candidates=4, rounds=1, calib_batch=16,
        softmax_quantizer="twin", dynamic_softmax=dynamic))
    return model, x, result.quant_state()


def _heap_peak(run) -> int:
    """Heap peak of a second ``run()`` above what was live before it."""
    run()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
def test_quantized_forward_peak_memory_is_bounded(dynamic):
    """A quantized forward keeps few activation-sized arrays alive at once.

    H is one MLP hidden activation. Stage outputs are freed once consumed
    and fake-quant, GeLU, softmax and layernorm each allocate one array, so
    the peak is about 2.8 H; keeping every temporary (one array per numpy
    expression, stage outputs held to the end of the next stage) peaks at
    about 7.3 H.
    """
    model, x, state = _twin_quantized(dynamic)
    hidden_bytes = x.shape[0] * model.spec.patch_count * model.spec.hidden_dim * 8
    peak = _heap_peak(lambda: forward(model, x, quant=state))
    assert peak < 3.5 * hidden_bytes, f"peak {peak / hidden_bytes:.2f} H"


@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
def test_quantized_block_forward_frees_its_entry_carry(dynamic):
    """The first layernorm output dies once qkv-projection has read it.

    E is one embed-sized array. A quantized block forward from a block
    input peaks at about 10.0 E; one that holds the entry carry (the block
    input and its layernorm) until the block returns peaks at about 11.0 E.
    """
    model, x, state = _twin_quantized(dynamic)
    block_input = x @ model.embed_w
    peak = _heap_peak(lambda: block_forward(model, 0, block_input, state))
    assert peak < 10.5 * x.nbytes, f"peak {peak / x.nbytes:.2f} E"


def _one_slice(monkeypatch):
    """Run every hook-free block forward as one slice, as before slicing."""
    monkeypatch.setattr(model_module, "_slice_rows", lambda spec: sys.maxsize)


@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
def test_quantized_forward_peak_memory_is_bounded_in_one_slice(dynamic,
                                                               monkeypatch):
    """``test_quantized_forward_peak_memory_is_bounded`` with the 512 samples
    in one slice: eight slices of 64 peak near 0.8 H, far below any bound a
    regression inside a block would cross."""
    _one_slice(monkeypatch)
    model, x, state = _twin_quantized(dynamic)
    hidden_bytes = x.shape[0] * model.spec.patch_count * model.spec.hidden_dim * 8
    peak = _heap_peak(lambda: forward(model, x, quant=state))
    assert peak < 3.5 * hidden_bytes, f"peak {peak / hidden_bytes:.2f} H"


@pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
def test_quantized_block_forward_frees_its_entry_carry_in_one_slice(dynamic,
                                                                    monkeypatch):
    """``test_quantized_block_forward_frees_its_entry_carry`` with the 512
    samples in one slice (about 10.0 E; eight slices peak near 2.3 E)."""
    _one_slice(monkeypatch)
    model, x, state = _twin_quantized(dynamic)
    block_input = x @ model.embed_w
    peak = _heap_peak(lambda: block_forward(model, 0, block_input, state))
    assert peak < 10.5 * x.nbytes, f"peak {peak / x.nbytes:.2f} E"


def test_quantized_forward_peak_grows_by_embed_arrays_not_slices():
    """A hook-free quantized forward of 8 slices holds the embedding and one
    block output of the whole batch (16 E, E one slice's embed-sized array)
    plus one slice's working set (about 10 E), against about 11 E for one
    slice: a ratio of 2.3. Running the batch as one slice makes it 7.8."""
    model, x, state = _twin_quantized(dynamic=True)
    rows = model_module._slice_rows(model.spec)
    assert x.shape[0] == 8 * rows
    one = _heap_peak(lambda: forward(model, x[:rows], quant=state))
    eight = _heap_peak(lambda: forward(model, x, quant=state))
    assert eight < 2.75 * one, f"ratio {eight / one:.2f}"


def test_quantized_forward_runs_its_blocks_in_one_activation_array():
    """Every block of a hook-free forward writes its output over its input,
    the embed output, so 8 slices hold one embed-sized array of the whole
    batch (8 E) plus one slice's working set: a ratio of about 1.6 to one
    slice. A fresh output array per block, with the input held while it is
    written, makes it 2.3."""
    model, x, state = _twin_quantized(dynamic=True)
    rows = model_module._slice_rows(model.spec)
    one = _heap_peak(lambda: forward(model, x[:rows], quant=state))
    eight = _heap_peak(lambda: forward(model, x, quant=state))
    assert eight < 1.9 * one, f"ratio {eight / one:.2f}"
