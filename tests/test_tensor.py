"""Array ops: forward values, input errors, the erf loader and the
backward steps' bits; and the reference tape in ``_oracles`` that the FP
pass's gradients are checked against: its gradients vs finite
differences, with weights as constants or as tensors, accumulated over
reuse, and absent for an unused tensor."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import zlib
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erf

from bbcq import tensor as tensor_module
from bbcq.errors import (ContractError, DimensionError, LabelIndexError,
                         ParameterError)
from bbcq.tensor import (LAYERNORM_EPS, add, cross_entropy, gelu, gelu_slope,
                         layernorm, layernorm_backward, matmul, softmax,
                         softmax_backward)

import _oracles as ref


def check_gradients(build, shapes, seed, points=10, h=1e-6):
    """Reference-tape gradients vs central differences at random coordinates."""
    rng = np.random.default_rng(seed)
    arrays = [rng.normal(size=shape) for shape in shapes]
    with ref.Tape() as tape:
        tensors = [ref.Tensor(a.copy()) for a in arrays]
        loss = build(*tensors)
        tape.backward(loss)
        grads = [tape.grad(t) for t in tensors]
    for which, (arr, grad) in enumerate(zip(arrays, grads)):
        assert grad is not None, f"input {which} received no gradient"
        assert grad.shape == arr.shape
        flat = rng.choice(arr.size, size=min(points, arr.size), replace=False)
        for f_idx in flat:
            idx = np.unravel_index(f_idx, arr.shape)

            def loss_at(value):
                probe = [a.copy() for a in arrays]
                probe[which][idx] = value
                return build(*[ref.Tensor(p) for p in probe]).item()

            fd = (loss_at(arr[idx] + h) - loss_at(arr[idx] - h)) / (2.0 * h)
            assert np.isclose(grad.data[idx], fd, rtol=1e-4, atol=1e-7), (
                f"input {which} coord {idx}: analytic {grad.data[idx]} vs fd {fd}")


# ---------------------------------------------------------------------------
# forward values


def test_matmul_matches_numpy(rng):
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 5))
    np.testing.assert_array_equal(matmul(a, b), a @ b)


def test_matmul_batched(rng):
    a = rng.normal(size=(2, 3, 4, 5))
    b = rng.normal(size=(2, 3, 5, 6))
    out = matmul(a, b)
    assert out.shape == (2, 3, 4, 6)
    np.testing.assert_array_equal(out, np.matmul(a, b))


@pytest.mark.parametrize("shapes", [((3,), (4, 5)), ((3, 4), (3,))])
def test_matmul_rejects_vectors(shapes, rng):
    a, b = (rng.normal(size=s) for s in shapes)
    with pytest.raises(DimensionError):
        matmul(a, b)


def test_matmul_inner_mismatch_names_shapes(rng):
    with pytest.raises(DimensionError, match=r"\(3, 4\).*\(5, 6\)"):
        matmul(rng.normal(size=(3, 4)), rng.normal(size=(5, 6)))


def test_softmax_rows_sum_to_one(rng):
    out = softmax(rng.normal(size=(4, 7)) * 30.0)
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
    assert (out > 0).all()


def test_softmax_invariant_to_shift(rng):
    x = rng.normal(size=(2, 5))
    np.testing.assert_allclose(softmax(x),
                               softmax(x + 1000.0), atol=1e-15)


def test_softmax_rejects_a_0d_input():
    with pytest.raises(DimensionError, match="0-d"):
        softmax(1.5)


def test_gelu_matches_erf_form(rng):
    x = rng.normal(size=(5, 3)) * 3.0
    expected = x * 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    np.testing.assert_allclose(gelu(x), expected, atol=1e-15)


def test_layernorm_normalizes_last_axis(rng):
    x = rng.normal(size=(3, 4, 8)) * 5.0 + 2.0
    out = layernorm(x, np.ones(8), np.zeros(8))
    np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-12)
    # variance of the normalized output is var/(var+eps), slightly below 1
    assert (out.var(axis=-1) <= 1.0 + 1e-12).all()


def test_layernorm_eps_is_pinned():
    assert LAYERNORM_EPS == 1e-5


def test_layernorm_affine_shape_error(rng):
    x = rng.normal(size=(2, 8))
    with pytest.raises(DimensionError):
        layernorm(x, np.ones(4), np.zeros(4))


def test_cross_entropy_matches_manual(rng):
    logits = rng.normal(size=(6, 5)) * 4.0
    labels = np.array([0, 1, 2, 3, 4, 0])
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    expected = -log_probs[np.arange(6), labels].mean()
    got = cross_entropy(logits, labels).item()
    assert np.isclose(got, expected, rtol=1e-14)


def test_cross_entropy_extreme_logits_stay_finite():
    logits = np.array([[1e4, -1e4, 0.0], [-1e4, 1e4, 0.0]])
    loss = cross_entropy(logits, np.array([0, 1])).item()
    assert np.isfinite(loss) and loss >= 0.0


def test_cross_entropy_label_out_of_range(rng):
    logits = rng.normal(size=(2, 3))
    with pytest.raises(LabelIndexError):
        cross_entropy(logits, np.array([0, 3]))
    with pytest.raises(LabelIndexError):
        cross_entropy(logits, np.array([-1, 0]))


def test_cross_entropy_rejects_float_labels(rng):
    with pytest.raises(ContractError):
        cross_entropy(rng.normal(size=(2, 3)), np.array([0.0, 1.0]))


def test_cross_entropy_label_shape_mismatch(rng):
    with pytest.raises(DimensionError, match=r"\(3,\) does not match batch 2$"):
        cross_entropy(rng.normal(size=(2, 3)), np.array([0, 1, 2]))


def test_cross_entropy_rejects_an_empty_batch():
    """An empty batch has no mean: a ParameterError, not a NaN loss."""
    with pytest.raises(ParameterError, match="at least one sample"):
        cross_entropy(np.zeros((0, 3)), np.zeros(0, dtype=np.int64))


def test_concat_and_reshape_roundtrip(rng):
    """The reference tape's reshape, forward only."""
    a, b = rng.normal(size=(2, 3)), rng.normal(size=(4, 3))
    joined = np.concatenate([a, b])
    np.testing.assert_array_equal(ref.reshape(joined, (3, 6)).data,
                                  joined.reshape(3, 6))




# ---------------------------------------------------------------------------
# gradients vs finite differences (10 random coordinates per input)


GRAD_CASES = [
    ("matmul", lambda a, b: ref.tensor_sum(ref.mul(ref.matmul(a, b), 0.7)),
     [(3, 4), (4, 5)]),
    ("matmul_broadcast", lambda a, b: ref.tensor_sum(ref.matmul(a, b)),
     [(2, 3, 4), (4, 5)]),
    ("add_broadcast", lambda a, b: ref.tensor_sum(ref.mul(ref.add(a, b), ref.add(a, b))),
     [(3, 4), (4,)]),
    ("mul_broadcast", lambda a, b: ref.tensor_sum(ref.mul(a, b)), [(2, 3, 4), (3, 4)]),
    ("transpose", lambda a: ref.tensor_sum(ref.mul(ref.transpose(a, (1, 0, 2)), 2.0)),
     [(2, 3, 4)]),
    ("reshape", lambda a: ref.tensor_sum(ref.mul(ref.reshape(a, (6, 2)),
                                         ref.reshape(a, (6, 2)))), [(3, 4)]),
    ("sum_axis", lambda a: ref.tensor_sum(ref.mul(ref.tensor_sum(a, axis=1, keepdims=True),
                                          3.0)), [(3, 4)]),
    ("mean", lambda a: ref.tensor_sum(ref.mul(ref.tensor_mean(a, axis=0), a.mean())),
     [(4, 3)]),
    ("mean_tuple_axis", lambda a: ref.tensor_sum(ref.mul(ref.tensor_mean(a, axis=(0, 1)), a)),
     [(2, 3, 4)]),
    ("mean_tuple_axis_keepdims",
     lambda a: ref.tensor_sum(ref.mul(ref.tensor_mean(a, axis=(0, 2), keepdims=True), a)),
     [(2, 3, 4)]),
    ("softmax", lambda a: ref.tensor_sum(ref.mul(ref.softmax(a, axis=-1), a)), [(3, 5)]),
    ("gelu", lambda a: ref.tensor_sum(ref.mul(ref.gelu(a), 1.3)), [(4, 4)]),
    ("add_scalar", lambda a: ref.tensor_sum(ref.mul(ref.add(a, 2.5), a)), [(3, 4)]),
]


@pytest.mark.parametrize("name,build,shapes", GRAD_CASES,
                         ids=[c[0] for c in GRAD_CASES])
def test_gradients_match_finite_differences(name, build, shapes):
    check_gradients(build, shapes, seed=zlib.crc32(name.encode()))


def test_layernorm_gradients():
    def build(x, g, b):
        return ref.tensor_sum(ref.mul(ref.layernorm(x, g, b), x))

    check_gradients(build, [(3, 8), (8,), (8,)], seed=42)


def test_cross_entropy_gradients():
    labels = np.array([0, 2, 1, 2])

    def build(logits):
        return ref.cross_entropy(logits, labels)

    check_gradients(build, [(4, 3)], seed=11)


def test_composite_chain_gradients():
    """A miniature MLP-with-attention-flavored chain, differentiated end to end."""
    labels = np.array([1, 0])

    def build(x, w1, w2, g, b):
        h = ref.layernorm(ref.matmul(x, w1), g, b)
        probs = ref.softmax(h, axis=-1)
        out = ref.matmul(ref.gelu(probs), w2)
        return ref.cross_entropy(ref.tensor_mean(out, axis=1), labels)

    check_gradients(build, [(2, 3, 4), (4, 6), (6, 5), (6,), (6,)], seed=3)


# ---------------------------------------------------------------------------
# the reference tape's constants, accumulation and unused tensors


def _bits(t):
    return None if t is None else t.data.view(np.uint64)


def _assert_same_bits(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        np.testing.assert_array_equal(got, want)


#: Steps of ``_constant_program``: (op, activation index, other operand, swap).
#: A negative ``other`` picks a weight-like operand, shaped by ``-other % 3``
#: for mul/add; otherwise the other operand is a tensor of the pool.
_CONSTANT_STEPS = st.lists(st.tuples(
    st.sampled_from(["matmul", "mul", "add", "layernorm", "gelu", "softmax"]),
    st.integers(0, 63), st.integers(-6, 63), st.booleans()),
    min_size=1, max_size=6)


def _constant_program(program, seed, wrap):
    """Replay ``program`` from one (2, 4, 4) input on a tape of its own.
    Every weight-like operand (matmul, mul and add weights, layernorm's
    gamma and beta) is an array, or with ``wrap`` a Tensor of that array;
    the arrays are the same either way. Returns the tape and the pool of
    tensors made, the input first."""
    rng = np.random.default_rng(seed)
    pool = [ref.Tensor(rng.normal(size=(2, 4, 4)))]

    def weight(*shape, mean=0.0):
        values = mean + 0.5 * rng.normal(size=shape)
        return ref.Tensor(values) if wrap else values

    with ref.Tape() as tape:
        for op, i, other, swap in program:
            h = pool[i % len(pool)]
            if op == "gelu":
                pool.append(ref.gelu(h))
            elif op == "softmax":
                pool.append(ref.softmax(h, axis=-1))
            elif op == "layernorm":
                pool.append(ref.layernorm(h, weight(4, mean=1.0), weight(4)))
            else:
                shape = (4, 4) if op == "matmul" else ((), (4,), (4, 4))[-other % 3]
                b = weight(*shape) if other < 0 else pool[other % len(pool)]
                a, b = (b, h) if swap else (h, b)
                pool.append({"matmul": ref.matmul, "mul": ref.mul, "add": ref.add}[op](a, b))
        loss = ref.tensor_sum(ref.mul(pool[-1], weight(2, 4, 4)))
    tape.backward(loss)
    return tape, pool


@settings(max_examples=80, deadline=None)
@given(_CONSTANT_STEPS, st.integers(0, 2**32 - 1))
def test_constants_leave_every_tensor_gradient_bit_for_bit(program, seed):
    """Weight-like operands passed as arrays, constants to the tape, give
    every Tensor of the program the value and gradient it has when they are
    passed as Tensors, bit for bit."""
    constant_tape, constant_pool = _constant_program(program, seed, wrap=False)
    tensor_tape, tensor_pool = _constant_program(program, seed, wrap=True)
    for got, want in zip(constant_pool, tensor_pool, strict=True):
        _assert_same_bits(_bits(got), _bits(want))
        _assert_same_bits(_bits(constant_tape.grad(got)),
                          _bits(tensor_tape.grad(want)))


def test_unused_tensor_has_no_gradient(rng):
    with ref.Tape() as tape:
        used = ref.Tensor(rng.normal(size=(2, 2)))
        unused = ref.Tensor(rng.normal(size=(2, 2)))
        tape.backward(ref.tensor_sum(ref.mul(used, used)))
        assert tape.grad(unused) is None
        assert tape.grad(used) is not None


def test_gradient_accumulates_over_reuse(rng):
    x = rng.normal(size=(3,))
    with ref.Tape() as tape:
        t = ref.Tensor(x.reshape(1, 3))
        y = ref.tensor_sum(ref.add(ref.mul(t, 2.0), ref.mul(t, 3.0)))
        tape.backward(y)
        np.testing.assert_allclose(tape.grad(t).data, np.full((1, 3), 5.0))


def test_gradient_accumulates_over_reused_scalar(rng):
    """Contributions to a 0-d node add up, though numpy hands them over as
    immutable scalars rather than arrays."""
    x = rng.normal(size=(3,))
    with ref.Tape() as tape:
        t = ref.Tensor(x)
        total = ref.tensor_sum(t)
        tape.backward(ref.mul(total, total))
        np.testing.assert_allclose(tape.grad(t).data, np.full(3, 2 * x.sum()))


#: Every forward op once, the library's where it has one and the reference
#: tape's otherwise: name -> (op, input shapes).
OP_CASES = {
    "matmul": (matmul, [(3, 4), (4, 5)]),
    "add": (add, [(3, 4), (4,)]),
    "mul": (ref.mul, [(2, 3), (2, 3)]),
    "transpose": (lambda a: ref.transpose(a, (1, 0)), [(2, 3)]),
    "reshape": (lambda a: ref.reshape(a, (6,)), [(2, 3)]),
    "tensor_sum": (lambda a: ref.tensor_sum(a, axis=0), [(2, 3)]),
    "tensor_mean": (lambda a: ref.tensor_mean(a, axis=1), [(2, 3)]),
    "softmax": (softmax, [(2, 3)]),
    "layernorm": (layernorm, [(3, 8), (8,), (8,)]),
    "gelu": (gelu, [(2, 3)]),
    "cross_entropy": (lambda a: cross_entropy(a, np.array([0, 2])), [(2, 3)]),
}


@pytest.mark.parametrize("op,shapes", OP_CASES.values(),
                         ids=[f"{name}-untaped" for name in OP_CASES])
def test_op_leaves_its_inputs_untouched(op, shapes, rng):
    """Ops write in place only into arrays they allocated themselves, run
    untaped: on plain arrays, with no reference tape recording."""
    arrays = [rng.normal(size=shape) for shape in shapes]
    before = [a.copy() for a in arrays]
    op(*arrays)
    for got, want in zip(arrays, before):
        np.testing.assert_array_equal(got, want)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def _reference_gelu(x, g):
    """GeLU value and input gradient as single numpy expressions."""
    phi = 0.5 * (1.0 + erf(x * _INV_SQRT2))
    density = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return x * phi, (g * (phi + x * density),)


def _gelu_backward(x, g):
    """The gradient at GeLU's input ``x`` from the gradient ``g`` at its
    output, as ``model.block_backward`` forms it: ``g`` times the slope."""
    slope = gelu_slope(x)
    np.multiply(g, slope, out=slope)
    return slope


def _assert_gelu_bits(x, g):
    """``gelu``'s value and ``_gelu_backward``'s gradient for output
    gradient ``g`` equal ``_reference_gelu``, which runs erf on the signed
    input, bit for bit; comparing as uint64 tells -0.0 from +0.0."""
    want_value, (want_grad,) = _reference_gelu(x, g)
    np.testing.assert_array_equal(gelu(x).view(np.uint64),
                                  want_value.view(np.uint64))
    np.testing.assert_array_equal(_gelu_backward(x, g).view(np.uint64),
                                  want_grad.view(np.uint64))


def test_gelu_bits_on_edge_inputs():
    """Signed zeros and the smallest subnormals; x = +-sqrt(2) and 3 ulps
    each side, where |x / sqrt(2)| crosses erf's switch to erfc at 1;
    |x| >= 9, where erf is exactly +-1; and +-1e300, where x * x
    overflows in the gradient."""
    root2 = np.sqrt(2.0)
    edges = np.concatenate([[0.0, 5e-324],
                            root2 + np.arange(-3, 4) * np.spacing(root2),
                            [9.0, 9.5, 27.0, 1e5]])
    x = np.concatenate([edges, -edges])
    _assert_gelu_bits(x, np.linspace(-2.0, 2.0, x.size))
    with np.errstate(over="ignore"):
        _assert_gelu_bits(np.array([1e300, -1e300]), np.array([0.75, 1.25]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.floats(allow_nan=False, allow_infinity=False,
                                    allow_subnormal=True),
                          st.floats(0.5, 2.0)),
                min_size=1, max_size=32))
def test_gelu_bits_match_signed_erf_form(pairs):
    """Any finite float64, subnormals included. A positive ``g`` keeps the
    loss's sum of overflowed terms at +inf instead of inf - inf."""
    x, g = (np.array(column) for column in zip(*pairs))
    with np.errstate(over="ignore"):
        _assert_gelu_bits(x, g)


def _old_gelu_backward(x, g):
    """The input gradient as the one expression the library used before it
    computed it in place, with the library's own ``_phi``."""
    density = np.exp(-0.5 * x * x) * _INV_SQRT_2PI
    return g * (tensor_module._phi(x) + x * density)


#: Both zeros, the smallest and largest subnormals, and magnitudes where
#: x * x overflows or erf is exactly +-1.
_GELU_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.225e-308,
                               -2.225e-308, 9.5, -9.5, 1e160, -1e160, 1.7e308,
                               -1.7e308])
_GELU_FLOATS = _GELU_EDGES | st.floats(allow_nan=False, allow_infinity=False,
                                       allow_subnormal=True)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_GELU_FLOATS, _GELU_FLOATS), min_size=1, max_size=32))
def test_gelu_backward_bits_match_the_old_expression(pairs):
    """The in-place slope, times ``g``, keeps every operation and operand
    order of ``g * (phi(x) + x * density)``: compared as uint64 the two
    agree for any finite x and any incoming gradient g, negative and zero
    included."""
    x, g = (np.array(column) for column in zip(*pairs))
    with np.errstate(all="ignore"):
        got = _gelu_backward(x, g)
        want = _old_gelu_backward(x, g)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def _run_fresh(script, *args):
    """``script`` in a new interpreter, where nothing has imported scipy yet;
    returns its standard output."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)], capture_output=True,
        text=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


_COMMANDS_IN_ONE_PROCESS = """
import json, sys
import numpy as np
from bbcq import cli, tensor
work = sys.argv[1]

def scipy_modules():
    return sorted(name for name in sys.modules
                  if name == "scipy" or name.startswith("scipy."))

loaded = {"import": scipy_modules()}
for argv in (["gen", "--blocks", "1", "--embed-dim", "16", "--heads", "2",
              "--patches", "4", "--classes", "4", "--calib-size", "8",
              "--eval-size", "8", "--out", work + "/data"],
             ["inspect", work + "/data/model.bbcv"],
             ["compare-softmax", "--synthetic", "powerlaw", "--rows", "16",
              "--out", work + "/cmp"]):
    assert cli.main(argv) == 0, argv
    loaded[argv[0]] = scipy_modules()
np.save(work + "/gelu.npy", tensor.gelu(np.load(work + "/x.npy")))
loaded["gelu"] = "scipy.special" in sys.modules
loaded["erf_is_a_ufunc"] = isinstance(tensor.erf, np.ufunc)
for argv in (["calibrate", "--model", work + "/data/model.bbcv", "--calib",
              work + "/data/calib.bbcv", "--candidates", "4", "--rounds", "1",
              "--out", work + "/calib"],
             ["eval", "--model", work + "/data/model.bbcv", "--eval",
              work + "/data/eval.bbcv", "--result",
              work + "/calib/calib_result.json", "--out", work + "/eval"]):
    assert cli.main(argv) == 0, argv
    loaded[argv[0]] = "scipy.special" in sys.modules
import scipy.special
loaded["same_erf"] = tensor.erf is scipy.special.erf
print(json.dumps(loaded))
"""


def test_only_the_first_gelu_imports_scipy(tmp_path, rng):
    """``import bbcq``, ``gen``, ``inspect`` and synthetic
    ``compare-softmax`` load no scipy module. The first GeLU loads erf's
    extension module alone, not scipy.special, and gives the signed-erf
    bits; ``calibrate`` and ``eval`` after it never load scipy.special
    either. A later ``import scipy.special`` names the same erf object, so
    the bits cannot depend on which of the two was loaded first."""
    x = rng.normal(size=(3, 4, 8)) * 3.0
    np.save(tmp_path / "x.npy", x)
    out = _run_fresh(_COMMANDS_IN_ONE_PROCESS, tmp_path)
    loaded = json.loads(out.splitlines()[-1])
    assert loaded == {"import": [], "gen": [], "inspect": [],
                      "compare-softmax": [], "gelu": False,
                      "erf_is_a_ufunc": True, "calibrate": False,
                      "eval": False, "same_erf": True}
    want = _reference_gelu(x, x)[0]
    np.testing.assert_array_equal(np.load(tmp_path / "gelu.npy").view(np.uint64),
                                  want.view(np.uint64))


@pytest.mark.parametrize("patch", [
    ("_ERF_MODULE", "scipy.special._no_such_module"),
    ("_erf_extension", SimpleNamespace),
    ("_erf_extension", lambda: SimpleNamespace(erf=math.erf)),
], ids=["module-not-found", "module-without-erf", "erf-not-a-ufunc"])
def test_first_gelu_falls_back_to_scipy_special(monkeypatch, patch, rng):
    """Where the installed scipy has no erf extension module, or one without
    a ufunc named erf (older releases keep erf in another module), the
    first GeLU takes ``scipy.special.erf`` and gives the same bits."""
    monkeypatch.setattr(tensor_module, "erf", None)
    monkeypatch.setattr(tensor_module, *patch)
    x, g = rng.normal(size=(3, 4, 8)) * 3.0, rng.normal(size=(3, 4, 8))
    _assert_gelu_bits(x, g)
    assert tensor_module.erf is erf


_GELU_IN_TWO_THREADS = """
import sys, threading
import numpy as np
from bbcq.tensor import gelu, gelu_slope
assert "scipy.special" not in sys.modules
work = sys.argv[1]
x, g = np.load(work + "/x.npy"), np.load(work + "/g.npy")
start = threading.Barrier(2)
results = {}

def run(name):
    start.wait()
    results[name + "_value"] = gelu(x)
    results[name + "_grad"] = g * gelu_slope(x)

threads = [threading.Thread(target=run, args=(name,)) for name in "ab"]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join()
np.savez(work + "/out.npz", **results)
"""


def test_two_threads_race_to_the_first_gelu(tmp_path, rng):
    """Two threads released together into their first GeLU, before
    scipy.special is loaded, each get the signed-erf value and gradient,
    bit for bit."""
    x, g = rng.normal(size=(16, 4, 64)) * 3.0, rng.normal(size=(16, 4, 64))
    np.save(tmp_path / "x.npy", x)
    np.save(tmp_path / "g.npy", g)
    _run_fresh(_GELU_IN_TWO_THREADS, tmp_path)
    want_value, (want_grad,) = _reference_gelu(x, g)
    with np.load(tmp_path / "out.npz") as got:
        assert sorted(got.files) == ["a_grad", "a_value", "b_grad", "b_value"]
        for name in "ab":
            np.testing.assert_array_equal(got[name + "_value"].view(np.uint64),
                                          want_value.view(np.uint64))
            np.testing.assert_array_equal(got[name + "_grad"].view(np.uint64),
                                          want_grad.view(np.uint64))


_ERF_LOAD_UNDER_CONTENTION = """
import sys, threading, time
import numpy as np
from bbcq import tensor
loads = []
extension = tensor._erf_extension

def slow_extension():
    loads.append(threading.get_ident())
    time.sleep(0.05)  # every other thread reaches the check meanwhile
    return extension()

tensor._erf_extension = slow_extension
x = np.linspace(-4.0, 4.0, 257)
start = threading.Barrier(6)
results = [None] * 6

def run(i):
    start.wait()
    results[i] = tensor.gelu(x)

sys.setswitchinterval(1e-6)
try:
    threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
finally:
    sys.setswitchinterval(0.005)
assert not any(thread.is_alive() for thread in threads)
assert len(loads) == 1, loads
assert all(r is not None and r.tobytes() == results[0].tobytes()
           for r in results)
print("ok")
"""


def test_many_threads_load_erf_once():
    """Six threads, more than the cores, released together into their first
    GeLU with a slowed loader and a short switch interval: erf's module is
    loaded once, and every thread gets the same bits."""
    assert _run_fresh(_ERF_LOAD_UNDER_CONTENTION).splitlines()[-1] == "ok"


def _reference_softmax(x, g):
    exps = np.exp(x - x.max(axis=-1, keepdims=True))
    out = exps / exps.sum(axis=-1, keepdims=True)
    return out, (out * (g - (g * out).sum(axis=-1, keepdims=True)),)


def _reference_layernorm(x, gamma, beta, g):
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat = centered * inv_std
    dxhat = g * gamma
    dx = inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
    return xhat * gamma + beta, (dx, (g * xhat).sum(axis=(0, 1)),
                                 g.sum(axis=(0, 1)))


@pytest.mark.parametrize("op,backward,reference,shapes", [
    (gelu, _gelu_backward, _reference_gelu, [(3, 4, 8)]),
    (softmax, lambda x, g: softmax_backward(softmax(x), g), _reference_softmax,
     [(3, 4, 8)]),
    (layernorm, lambda x, gamma, _, g: layernorm_backward(x, gamma, g),
     _reference_layernorm, [(3, 4, 8), (8,), (8,)]),
], ids=["gelu", "softmax", "layernorm"])
def test_in_place_op_equals_its_expression(op, backward, reference, shapes, rng):
    """Values, and the input gradient for an output gradient ``weight``,
    equal the plain expressions bit for bit; the backward writes into no
    array it was given."""
    arrays = [rng.normal(size=shape) * 3.0 for shape in shapes]
    weight = rng.normal(size=shapes[0])
    before = [a.copy() for a in (*arrays, weight)]
    want_value, want_grads = reference(*arrays, weight)
    np.testing.assert_array_equal(op(*arrays), want_value)
    np.testing.assert_array_equal(backward(*arrays, weight), want_grads[0])
    for got, want in zip((*arrays, weight), before):
        np.testing.assert_array_equal(got, want)




def test_backward_is_deterministic(rng):
    x = rng.normal(size=(4, 5))
    w = rng.normal(size=(5, 3))
    labels = np.array([0, 1, 2, 0])
    grads = []
    for _ in range(2):
        with ref.Tape() as tape:
            xt = ref.Tensor(x.copy())
            loss = ref.cross_entropy(ref.matmul(ref.gelu(xt), ref.Tensor(w.copy())), labels)
            tape.backward(loss)
            grads.append(tape.grad(xt).data.copy())
    np.testing.assert_array_equal(grads[0], grads[1])
