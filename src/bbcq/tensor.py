"""Dense float64 tensors with tape-based reverse-mode differentiation.

Everything runs in double precision: candidate metrics during scale search
can differ by tiny margins, and argmin tie behavior must be reproducible.
Recording is explicit — operations append tape nodes only inside a
``with Tape() as tape:`` block; calibration's candidate re-forwards run with
no tape and therefore allocate no graph.

Operations are plain functions over ``Tensor``s, arrays or numbers; a number
is a 0-d array that broadcasts. Each operation ends in ``_result``, passing
each operand with its own gradient function. Only a ``Tensor`` carries a
gradient: an array or a number is a constant, which gets no tape node, and
``_result`` alone drops a constant's gradient function unrun, together with
what it read. So ``matmul(h, w)`` with an array ``w`` does not keep ``h``.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import threading
import weakref
from contextvars import ContextVar
from typing import Callable, Sequence

import numpy as np

from .errors import (ContractError, DimensionError, LabelIndexError,
                     NonFiniteError, ParameterError)

LAYERNORM_EPS = 1e-5

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# scipy's erf ufunc, loaded by the first _phi under _ERF_LOCK: only GeLU
# calls it, so a command that runs no GeLU loads no scipy extension.
erf = None
_ERF_LOCK = threading.Lock()
#: The extension module that defines erf (scipy 1.17). Loaded alone, with
#: ``scipy`` itself, it costs a process about 2 MB and 10 ms, where
#: ``import scipy.special`` runs 66 scipy modules, about 25 MB and 0.2 s.
_ERF_MODULE = "scipy.special._special_ufuncs"

# The active tape of the current context (thread), if any. A Tape is
# single-writer; nesting two recording scopes has no defined gradient
# semantics, so it is rejected. Tapes in other threads are invisible here.
_TAPE: "ContextVar[Tape | None]" = ContextVar("bbcq_tape", default=None)

#: Output gradient -> one operand's gradient contribution.
Gradient = Callable[[np.ndarray], np.ndarray]


def _asarray(values) -> np.ndarray:
    return np.asarray(values, dtype=np.float64)


class Tensor:
    """Immutable-by-convention dense array of 64-bit floats.

    ``data`` is the backing numpy array (row-major semantics); ``shape`` and
    ``ndim`` mirror it. A tensor keeps no tape state: each tape maps the
    tensors it recorded to their nodes, so a tensor of another tape is a
    leaf there, and threads may tape through one shared tensor at once.
    """

    __slots__ = ("data", "__weakref__")

    def __init__(self, values):
        self.data = _asarray(values)

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

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        return tensor_mean(self, axis, keepdims)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


class Tape:
    """Ordered record of forward operations plus per-node gradient buffers.

    A node is a ``(parent_ids, gradients, shape, tensor_ref)`` tuple with
    one gradient function per parent, and parents are Tensor operands only;
    a leaf is ``((), None)``. The tape keeps no forward value, only its
    shape and a weak reference to its Tensor. Each gradient function holds
    only the arrays it reads, an operand's shape rather than the operand,
    so an operand that only a constant's dropped gradient would read dies
    with its last other reference. Nodes are appended in execution order,
    so parents always precede their consumers and the backward sweep is a
    single reversed pass. Gradient accumulation adds contributions in that
    fixed reverse-node, left-to-right-parent order.
    The tape keeps each Tensor's node id and gradient in weak maps of its
    own, which other tapes never touch; it records once and cannot be
    entered again.
    """

    def __init__(self):
        self._nodes: list[tuple | None] = []
        self._ids = weakref.WeakKeyDictionary()  # Tensor -> its node id
        self._grads = weakref.WeakKeyDictionary()  # Tensor -> its gradient
        self._swept = False

    def __enter__(self) -> "Tape":
        if _TAPE.get() is not None:
            raise ContractError("a tape is already recording; tapes do not nest")
        if self._nodes:
            raise ContractError("this tape has already recorded; "
                                "record again on a new tape")
        _TAPE.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _TAPE.set(None)

    def __len__(self) -> int:
        return len(self._nodes)

    def _append(self, parent_ids: tuple[int, ...],
                backward: tuple[Gradient, ...] | None, tensor: Tensor) -> int:
        """Record ``tensor`` as a new node, with ``backward`` holding one
        gradient function per parent, and return its id."""
        node_id = self._ids[tensor] = len(self._nodes)
        self._nodes.append((parent_ids, backward, tensor.data.shape,
                            weakref.ref(tensor)))
        return node_id

    def _leaf(self, tensor: Tensor) -> int:
        """The node of ``tensor``, registered as a leaf if it has none here."""
        node_id = self._ids.get(tensor)
        return self._append((), None, tensor) if node_id is None else node_id

    # -- reverse sweep ----------------------------------------------------
    def backward(self, loss: Tensor) -> None:
        """Fill gradient buffers for every node that influences ``loss``.

        Each node is dropped once the sweep has passed it: its gradient
        functions, with the arrays they hold, and its gradient once
        propagated unless its Tensor is still reachable. A second sweep is
        rejected.
        """
        if self._swept:
            raise ContractError("this tape has already run backward; "
                                "record the forward again on a new tape")
        loss_id = self._ids.get(loss)
        if loss_id is None:
            raise ContractError("loss was not recorded on this tape")
        if loss.data.shape != ():
            raise ContractError(
                f"backward needs a scalar loss, got shape {loss.data.shape}")
        self._swept = True
        grads = {loss_id: np.ones((), dtype=np.float64)}
        for node_id in range(len(self._nodes) - 1, -1, -1):
            parent_ids, gradients, _, tensor_ref = self._nodes[node_id]
            self._nodes[node_id] = None
            grad = grads.pop(node_id, None)
            if grad is None:
                continue
            tensor = tensor_ref()
            if tensor is not None:
                # Every consumer comes later on the tape, so it is final.
                self._grads[tensor] = grad
            if gradients is None:
                continue
            for parent_id, gradient in zip(parent_ids, gradients):
                contrib = gradient(grad)
                expected = self._nodes[parent_id][2]
                if contrib.shape != expected:
                    raise ContractError(
                        f"gradient shape {contrib.shape} does not match forward "
                        f"value shape {expected} for node {parent_id}")
                buffer = grads.get(parent_id)
                if buffer is None:
                    # An array even for a 0-d contribution (a numpy scalar),
                    # so that a later contribution adds in place.
                    grads[parent_id] = np.array(contrib, order="C")
                else:
                    buffer += contrib
                # Freed before the next gradient function runs.
                del contrib

    def grad(self, tensor: Tensor) -> Tensor | None:
        """Gradient of the swept loss w.r.t. ``tensor``."""
        grad = self._grads.get(tensor)
        return None if grad is None else Tensor(grad)


def recording_active() -> bool:
    """True while a Tape is recording operations in this context."""
    return _TAPE.get() is not None


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` unchanged; NonFiniteError if it holds NaN or infinity."""
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{what} holds NaN or infinite values")
    return values


def _result(out: np.ndarray, *operands: tuple[object, Gradient]) -> Tensor:
    """``out`` as a Tensor; while a tape records, also its node.

    Each operand comes as a ``(value, gradient)`` pair. This is the only
    operation code that reads the active tape, and the one place of the
    constant rule: the node keeps the leaf id and gradient function of each
    Tensor operand only, so a constant's function is dropped unrun with
    whatever it read. The output of constants alone is a leaf; with no
    tape every function is dropped and no graph is kept.
    """
    result = Tensor(out)
    tape = _TAPE.get()
    if tape is not None:
        kept = [(tape._leaf(value), gradient) for value, gradient in operands
                if isinstance(value, Tensor)]
        ids, gradients = zip(*kept) if kept else ((), None)
        tape._append(ids, gradients, result)
    return result


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


def array_of(value) -> np.ndarray:
    """The array of a Tensor, else ``value`` as a float64 array (not
    ``value.data``: that of an ndarray is a memoryview)."""
    return value.data if isinstance(value, Tensor) else _asarray(value)


# ---------------------------------------------------------------------------
# operations


def matmul(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor:
    """Matrix product with numpy batching semantics over leading axes."""
    a_data, b_data = array_of(a), array_of(b)
    a_shape, b_shape = a_data.shape, b_data.shape
    if len(a_shape) < 2 or len(b_shape) < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {a_shape} and {b_shape}")
    if a_shape[-1] != b_shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a_shape} x {b_shape}")
    # Each gradient captures only the other operand's array and a shape, so
    # a constant's dropped gradient is the only holder of the other operand.
    return _result(np.matmul(a_data, b_data),
                   (a, lambda g: _reduce_to_shape(
                       np.matmul(g, np.swapaxes(b_data, -1, -2)), a_shape)),
                   (b, lambda g: _reduce_to_shape(
                       np.matmul(np.swapaxes(a_data, -1, -2), g), b_shape)))


def add(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    a_data, b_data = array_of(a), array_of(b)
    a_shape, b_shape = a_data.shape, b_data.shape
    return _result(a_data + b_data, (a, lambda g: _reduce_to_shape(g, a_shape)),
                   (b, lambda g: _reduce_to_shape(g, b_shape)))


def mul(a: Tensor | np.ndarray, b: Tensor | np.ndarray) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a_data, b_data = array_of(a), array_of(b)
    a_shape, b_shape = a_data.shape, b_data.shape
    return _result(a_data * b_data,
                   (a, lambda g: _reduce_to_shape(g * b_data, a_shape)),
                   (b, lambda g: _reduce_to_shape(g * a_data, b_shape)))


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    return _result(np.transpose(array_of(x), axes),
                   (x, lambda g: np.transpose(g, np.argsort(axes))))


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    x_data = array_of(x)
    x_shape = x_data.shape
    return _result(np.reshape(x_data, tuple(shape)),
                   (x, lambda g: np.reshape(g, x_shape)))


def _spread(g: np.ndarray, shape: tuple[int, ...], axis,
            keepdims: bool) -> np.ndarray:
    """A reduction's output gradient broadcast back over its input shape."""
    expanded = g if axis is None or keepdims else np.expand_dims(g, axis)
    return np.broadcast_to(expanded, shape).copy()


def tensor_sum(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x_data = array_of(x)
    x_shape = x_data.shape
    return _result(x_data.sum(axis=axis, keepdims=keepdims),
                   (x, lambda g: _spread(g, x_shape, axis, keepdims)))


def tensor_mean(x: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    x_data = array_of(x)
    x_shape = x_data.shape

    def gradient(g: np.ndarray):
        axes = range(len(x_shape)) if axis is None else np.atleast_1d(axis)
        count = math.prod(x_shape[i] for i in axes)
        return _spread(g / count, x_shape, axis, keepdims)

    return _result(x_data.mean(axis=axis, keepdims=keepdims), (x, gradient))


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis`` (max-subtraction, temperature 1)."""
    x_data = array_of(x)
    if not -x_data.ndim <= axis < x_data.ndim:
        raise DimensionError(f"softmax axis {axis} invalid for shape {x_data.shape}")
    out = x_data - x_data.max(axis=axis, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=axis, keepdims=True)

    def gradient(g: np.ndarray):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return out * (g - inner)

    return _result(out, (x, gradient))


def layernorm(x: Tensor, gamma: Tensor | np.ndarray, beta: Tensor | np.ndarray,
              eps: float = LAYERNORM_EPS) -> Tensor:
    """Normalize over the last axis, then apply the affine pair."""
    x_data, gamma_data, beta_data = array_of(x), array_of(gamma), array_of(beta)
    if gamma_data.shape != x_data.shape[-1:] or beta_data.shape != x_data.shape[-1:]:
        raise DimensionError(
            f"layernorm affine shapes {gamma_data.shape}/{beta_data.shape} do "
            f"not match feature dim of {x_data.shape}")
    mu = x_data.mean(axis=-1, keepdims=True)
    xhat = x_data - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat *= inv_std
    reduce_axes = tuple(range(x_data.ndim - 1))

    def x_gradient(g: np.ndarray):
        dxhat = g * gamma_data
        return inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                          - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))

    out = xhat * gamma_data
    out += beta_data
    return _result(out, (x, x_gradient),
                   (gamma, lambda g: (g * xhat).sum(axis=reduce_axes)),
                   (beta, lambda g: g.sum(axis=reduce_axes)))


def _erf_extension():
    """The module ``_ERF_MODULE`` loaded from scipy.special's directory
    without running ``scipy/special/__init__.py`` (``find_spec`` imports
    ``scipy`` alone), or None where the installed scipy has no such module."""
    package = importlib.util.find_spec("scipy.special")
    finder = importlib.machinery.FileFinder(
        package.submodule_search_locations[0],
        (importlib.machinery.ExtensionFileLoader,
         importlib.machinery.EXTENSION_SUFFIXES))
    spec = finder.find_spec(_ERF_MODULE)
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_erf() -> None:
    """Set ``erf``, once, to the ufunc ``scipy.special.erf`` names: the
    extension's own ``erf`` if it has one, which is that same object, and
    otherwise (older scipy keeps erf in another module) scipy.special's."""
    global erf
    with _ERF_LOCK:
        if erf is not None:
            return
        found = getattr(_erf_extension(), "erf", None)
        if not isinstance(found, np.ufunc):
            from scipy.special import erf as found
        erf = found


def _phi(x: np.ndarray) -> np.ndarray:
    """0.5 * (1 + erf(x / sqrt(2))) as one new array. erf runs on |x| and
    gets the sign back, skipping scipy's branch on u < 0 that half of GeLU's
    inputs take: the same bits, as erf is odd and rounding sign-symmetric."""
    if erf is None:
        _load_erf()
    out = np.asarray(np.abs(x))
    out *= _INV_SQRT2
    erf(out, out=out)
    np.copysign(out, x, out=out)
    out += 1.0
    out *= 0.5
    return out


def gelu(x: Tensor) -> Tensor:
    """Exact-erf GeLU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x_data = array_of(x)

    def gradient(g: np.ndarray):
        # g * (phi(x) + x * density(x)), step by step in two arrays: every
        # operation and operand order is the expression's, so are the bits.
        # phi is recomputed here so that the forward keeps a single array.
        slope = np.asarray(-0.5 * x_data)
        slope *= x_data
        np.exp(slope, out=slope)
        slope *= _INV_SQRT_2PI
        np.multiply(x_data, slope, out=slope)
        out = _phi(x_data)
        out += slope
        np.multiply(g, out, out=out)
        return out

    out = _phi(x_data)
    out *= x_data
    return _result(out, (x, gradient))


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the labelled class, via logsumexp.

    Computed in log space so extreme logits stay finite. Labels are integer
    class indices and receive no gradient. An empty batch has no mean and
    raises ParameterError.
    """
    z = array_of(logits)
    if z.ndim != 2:
        raise DimensionError(f"cross_entropy expects B x C logits, got {z.shape}")
    labels = np.asarray(labels)
    if labels.shape != (z.shape[0],):
        raise DimensionError(
            f"labels shape {labels.shape} does not match batch {z.shape[0]}")
    if not labels.size:
        raise ParameterError("cross_entropy needs at least one sample")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ContractError("labels must be integer class indices")
    num_classes = z.shape[1]
    if labels.min() < 0 or labels.max() >= num_classes:
        raise LabelIndexError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]")
    batch = z.shape[0]
    shifted = z - z.max(axis=1, keepdims=True)
    exps = np.exp(shifted)
    sums = exps.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(sums)
    nll = -log_probs[np.arange(batch), labels]

    def gradient(g: np.ndarray):
        grad = exps / sums
        grad[np.arange(batch), labels] -= 1.0
        return grad * (g / batch)

    return _result(np.asarray(nll.mean()), (logits, gradient))
