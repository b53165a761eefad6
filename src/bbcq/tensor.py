"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything runs in double precision: candidate metrics during scale search
can differ by tiny margins, and argmin tie behavior must be reproducible.
Recording is explicit — operations append tape nodes only inside a
``with Tape() as tape:`` block; calibration's candidate re-forwards run with
no tape and therefore allocate no graph.
"""

from __future__ import annotations

from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np
from scipy.special import erf

from .errors import ContractError, DimensionError, LabelIndexError, NonFiniteError

LAYERNORM_EPS = 1e-5

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# The active tape of the current context (thread), if any. A Tape is
# single-writer; nesting two recording scopes has no defined gradient
# semantics, so it is rejected. Tapes in other threads are invisible here.
_TAPE: "ContextVar[Tape | None]" = ContextVar("bbcq_tape", default=None)


def _asarray(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class Tensor:
    """Immutable-by-convention dense array of 64-bit floats.

    ``data`` is the backing numpy array (row-major semantics); ``shape`` and
    ``ndim`` mirror it. A tensor created while a tape is recording carries the
    id of its tape node so gradients can be looked up after ``backward``.
    """

    __slots__ = ("data", "_node")

    def __init__(self, values, _node: int | None = None):
        self.data = _asarray(values)
        self._node = _node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"

    # -- operator sugar -------------------------------------------------
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)

    def transpose(self, axes: Sequence[int]) -> "Tensor":
        return transpose(self, axes)

    def reshape(self, shape: Sequence[int]) -> "Tensor":
        return reshape(self, shape)

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_sum(self, axis, keepdims)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis, keepdims)


class _Node:
    __slots__ = ("op", "parents", "backward")

    def __init__(self, op: str, parents: tuple[int, ...], backward):
        self.op = op
        self.parents = parents
        self.backward = backward


class Tape:
    """Ordered record of forward operations plus per-node gradient buffers.

    Nodes are appended in execution order, so parents always precede their
    consumers and the backward sweep is a single reversed pass. Gradient
    accumulation adds contributions in that fixed reverse-node,
    left-to-right-parent order.
    """

    def __init__(self):
        self._nodes: list[_Node] = []
        self._values: list[np.ndarray] = []
        self._grads: dict[int, np.ndarray] = {}

    def __enter__(self) -> "Tape":
        if _TAPE.get() is not None:
            raise ContractError("a tape is already recording; tapes do not nest")
        _TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE.set(None)

    def __len__(self) -> int:
        return len(self._nodes)

    # -- recording -------------------------------------------------------
    def _leaf(self, tensor: Tensor) -> int:
        """Register ``tensor`` as a leaf node (no backward rule)."""
        if tensor._node is not None:
            return tensor._node
        node_id = len(self._nodes)
        self._nodes.append(_Node("leaf", (), None))
        self._values.append(tensor.data)
        tensor._node = node_id
        return node_id

    def _record(self, op: str, parents: Sequence[Tensor], out: np.ndarray,
                backward: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
        parent_ids = tuple(self._leaf(p) for p in parents)
        node_id = len(self._nodes)
        self._nodes.append(_Node(op, parent_ids, backward))
        self._values.append(out)
        return Tensor(out, _node=node_id)

    # -- reverse sweep ----------------------------------------------------
    def backward(self, loss: Tensor) -> None:
        """Fill gradient buffers for every node that influences ``loss``."""
        if loss._node is None or loss._node >= len(self._nodes):
            raise ContractError("loss was not recorded on this tape")
        if loss.data.shape != ():
            raise ContractError(
                f"backward needs a scalar loss, got shape {loss.data.shape}")
        self._grads = {loss._node: np.ones((), dtype=np.float64)}
        for node_id in range(len(self._nodes) - 1, -1, -1):
            node = self._nodes[node_id]
            grad = self._grads.get(node_id)
            if grad is None or node.backward is None:
                continue
            contributions = node.backward(grad)
            for parent_id, contrib in zip(node.parents, contributions):
                if contrib is None:
                    continue
                expected = self._values[parent_id].shape
                if contrib.shape != expected:
                    raise ContractError(
                        f"gradient shape {contrib.shape} does not match forward "
                        f"value shape {expected} for node {parent_id}")
                buffer = self._grads.get(parent_id)
                if buffer is None:
                    self._grads[parent_id] = contrib.copy()
                else:
                    buffer += contrib

    def grad(self, tensor: Tensor) -> Tensor | None:
        """Gradient of the last backward()'s loss w.r.t. ``tensor``."""
        if tensor._node is None:
            return None
        grad = self._grads.get(tensor._node)
        return None if grad is None else Tensor(grad)


def _recording() -> "Tape | None":
    return _TAPE.get()


def recording_active() -> bool:
    """True while a Tape is recording operations in this context."""
    return _TAPE.get() is not None


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` unchanged; NonFiniteError if it holds NaN or infinity."""
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{what} holds NaN or infinite values")
    return values


# ---------------------------------------------------------------------------
# broadcasting helpers


def _reduce_to_shape(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy batching semantics over leading axes."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    out = np.matmul(a.data, b.data)
    tape = _recording()
    if tape is None:
        return Tensor(out)

    a_data, b_data = a.data, b.data

    def backward(g: np.ndarray):
        ga = _reduce_to_shape(np.matmul(g, np.swapaxes(b_data, -1, -2)), a_data.shape)
        gb = _reduce_to_shape(np.matmul(np.swapaxes(a_data, -1, -2), g), b_data.shape)
        return ga, gb

    return tape._record("matmul", (a, b), out, backward)


def add(a: Tensor, b) -> Tensor:
    """Elementwise sum; the second operand may be a plain scalar."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        out = a.data + float(b)
        tape = _recording()
        if tape is None:
            return Tensor(out)
        return tape._record("add", (a,), out, lambda g: (g,))
    b = _as_tensor(b)
    out = a.data + b.data
    tape = _recording()
    if tape is None:
        return Tensor(out)
    a_shape, b_shape = a.shape, b.shape

    def backward(g: np.ndarray):
        return _reduce_to_shape(g, a_shape), _reduce_to_shape(g, b_shape)

    return tape._record("add", (a, b), out, backward)


def mul(a: Tensor, b) -> Tensor:
    """Elementwise product; the second operand may be a plain scalar."""
    a = _as_tensor(a)
    if isinstance(b, (int, float)):
        scalar = float(b)
        out = a.data * scalar
        tape = _recording()
        if tape is None:
            return Tensor(out)
        return tape._record("mul", (a,), out, lambda g: (g * scalar,))
    b = _as_tensor(b)
    out = a.data * b.data
    tape = _recording()
    if tape is None:
        return Tensor(out)
    a_data, b_data = a.data, b.data

    def backward(g: np.ndarray):
        return (_reduce_to_shape(g * b_data, a_data.shape),
                _reduce_to_shape(g * a_data, b_data.shape))

    return tape._record("mul", (a, b), out, backward)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    axes = tuple(axes)
    out = np.transpose(x.data, axes)
    tape = _recording()
    if tape is None:
        return Tensor(out)
    inverse = tuple(np.argsort(axes))
    return tape._record("transpose", (x,), out,
                        lambda g: (np.transpose(g, inverse),))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x = _as_tensor(x)
    out = np.reshape(x.data, tuple(shape))
    tape = _recording()
    if tape is None:
        return Tensor(out)
    original = x.shape
    return tape._record("reshape", (x,), out,
                        lambda g: (np.reshape(g, original),))


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = x.data.sum(axis=axis, keepdims=keepdims)
    tape = _recording()
    if tape is None:
        return Tensor(out)
    shape = x.shape

    def backward(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded, shape).copy(),)

    return tape._record("sum", (x,), out, backward)


def tensor_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x = _as_tensor(x)
    out = x.data.mean(axis=axis, keepdims=keepdims)
    tape = _recording()
    if tape is None:
        return Tensor(out)
    shape = x.shape
    count = x.size if axis is None else shape[axis]

    def backward(g: np.ndarray):
        if axis is None:
            return (np.broadcast_to(g / count, shape).copy(),)
        expanded = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(expanded / count, shape).copy(),)

    return tape._record("mean", (x,), out, backward)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis`` (max-subtraction, temperature 1)."""
    x = _as_tensor(x)
    if not -x.ndim <= axis < x.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {x.shape}")
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exps = np.exp(shifted)
    out = exps / exps.sum(axis=axis, keepdims=True)
    tape = _recording()
    if tape is None:
        return Tensor(out)

    def backward(g: np.ndarray):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return tape._record("softmax", (x,), out, backward)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor,
              eps: float = LAYERNORM_EPS) -> Tensor:
    """Normalize over the last axis, then apply the affine pair."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise DimensionError(
            f"layernorm affine shapes {gamma.shape}/{beta.shape} do not match "
            f"feature dim of {x.shape}")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    out = xhat * gamma.data + beta.data
    tape = _recording()
    if tape is None:
        return Tensor(out)
    gamma_data = gamma.data
    reduce_axes = tuple(range(x.ndim - 1))

    def backward(g: np.ndarray):
        dxhat = g * gamma_data
        dx = inv_std * (dxhat
                        - dxhat.mean(axis=-1, keepdims=True)
                        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))
        dgamma = (g * xhat).sum(axis=reduce_axes)
        dbeta = g.sum(axis=reduce_axes)
        return dx, dgamma, dbeta

    return tape._record("layernorm", (x, gamma, beta), out, backward)


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GeLU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = _as_tensor(x)
    phi = 0.5 * (1.0 + erf(x.data * _INV_SQRT2))
    out = x.data * phi
    tape = _recording()
    if tape is None:
        return Tensor(out)
    x_data = x.data

    def backward(g: np.ndarray):
        density = np.exp(-0.5 * x_data * x_data) * _INV_SQRT_2PI
        return (g * (phi + x_data * density),)

    return tape._record("gelu", (x,), out, backward)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the labelled class, via logsumexp.

    Computed in log space so extreme logits stay finite. Labels are integer
    class indices and receive no gradient.
    """
    logits = _as_tensor(logits)
    if logits.ndim != 2:
        raise DimensionError(f"cross_entropy expects B x C logits, got {logits.shape}")
    labels = np.asarray(labels)
    if labels.shape != (logits.shape[0],):
        raise DimensionError(
            f"labels shape {labels.shape} does not match batch {logits.shape[0]}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError("labels must be integer class indices")
    num_classes = logits.shape[1]
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= num_classes:
        raise LabelIndexError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]")
    z = logits.data
    batch = z.shape[0]
    z_max = z.max(axis=1, keepdims=True)
    shifted = z - z_max
    exps = np.exp(shifted)
    sums = exps.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(sums)
    nll = -log_probs[np.arange(batch), labels]
    out = np.asarray(nll.mean())
    tape = _recording()
    if tape is None:
        return Tensor(out)
    probs = exps / sums

    def backward(g: np.ndarray):
        grad = probs.copy()
        grad[np.arange(batch), labels] -= 1.0
        return (grad * (g / batch),)

    return tape._record("cross_entropy", (logits,), out, backward)
