"""Dense float64 array operations: the model's forward ops and the
backward steps of the ones the FP pass differentiates through.

Everything runs in double precision: candidate metrics during scale search
can differ by tiny margins, and argmin tie behavior must be reproducible.
Every operation is a plain function from float64 arrays (or numbers, which
broadcast as 0-d arrays) to a new float64 array; none writes into its
inputs. ``softmax`` and ``layernorm`` act on the last axis only, as the
model runs them. ``softmax_backward`` and ``layernorm_backward`` turn the
gradient at an op's output into the gradient at its input, and ``gelu_slope``
is what it multiplies through GeLU, each with reverse mode's operations and
operand order, so ``model.block_backward`` gets a tape's bits.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import threading

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
#: The extension module that defines erf (scipy 1.17). Loaded alone, with no
#: scipy package, it costs a process about 1.1 MiB and 1 ms, where
#: ``import scipy.special`` runs 66 scipy modules, about 25 MB and 0.2 s.
_ERF_MODULE = "scipy.special._special_ufuncs"


def array_of(value) -> np.ndarray:
    """``value`` as a float64 array (the array itself if it is one)."""
    return np.asarray(value, dtype=np.float64)


def require_finite(values: np.ndarray, what: str) -> np.ndarray:
    """``values`` unchanged; NonFiniteError if it holds NaN or infinity."""
    if not np.isfinite(values).all():
        raise NonFiniteError(f"{what} holds NaN or infinite values")
    return values


def matmul(a, b) -> np.ndarray:
    """Matrix product with numpy batching semantics over leading axes."""
    a, b = array_of(a), array_of(b)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(
            f"matmul needs >=2-d operands, got {a.shape} and {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(
            f"matmul inner dimensions disagree: {a.shape} x {b.shape}")
    return np.matmul(a, b)


def add(a, b) -> np.ndarray:
    """Elementwise sum with numpy broadcasting."""
    return array_of(a) + array_of(b)


def softmax(x) -> np.ndarray:
    """Stable softmax over the last axis (max-subtraction, temperature 1)."""
    x = array_of(x)
    if not x.ndim:
        raise DimensionError("softmax needs at least one axis, got a 0-d input")
    out = x - x.max(axis=-1, keepdims=True)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)
    return out


def softmax_backward(out: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The gradient at a last-axis softmax's input, from its output ``out``
    and the gradient ``g`` at that output."""
    inner = (g * out).sum(axis=-1, keepdims=True)
    return out * (g - inner)


def _normalize(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(xhat, inv_std)``: ``x`` centred and scaled over its last axis,
    and the scale, one per row."""
    mu = x.mean(axis=-1, keepdims=True)
    xhat = x - mu
    var = (xhat * xhat).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + LAYERNORM_EPS)
    xhat *= inv_std
    return xhat, inv_std


def layernorm(x, gamma, beta) -> np.ndarray:
    """Normalize the last axis at ``LAYERNORM_EPS``, then scale and shift."""
    x, gamma, beta = array_of(x), array_of(gamma), array_of(beta)
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise DimensionError(
            f"layernorm affine shapes {gamma.shape}/{beta.shape} do "
            f"not match feature dim of {x.shape}")
    out, _ = _normalize(x)
    out *= gamma
    out += beta
    return out


def layernorm_backward(x: np.ndarray, gamma: np.ndarray,
                       g: np.ndarray) -> np.ndarray:
    """The gradient at a layernorm's input ``x``, from the
    gradient ``g`` at its output. ``xhat`` and ``inv_std`` come from the
    forward's own ``_normalize``, so they are the forward's bits."""
    xhat, inv_std = _normalize(x)
    dxhat = g * gamma
    return inv_std * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                      - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True))


def _erf_extension():
    """The module ``_ERF_MODULE`` loaded from scipy's ``special`` directory
    without running any scipy ``__init__.py`` (``find_spec("scipy")``
    imports nothing), or None where the installed scipy has no such module."""
    package = importlib.util.find_spec("scipy")
    finder = importlib.machinery.FileFinder(
        os.path.join(package.submodule_search_locations[0], "special"),
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


def gelu(x) -> np.ndarray:
    """Exact-erf GeLU: 0.5 * x * (1 + erf(x / sqrt(2)))."""
    x = array_of(x)
    out = _phi(x)
    out *= x
    return out


def gelu_slope(x: np.ndarray) -> np.ndarray:
    """GeLU's derivative at ``x``: phi(x) + x * density(x), step by step in
    two arrays. Every operation and operand order is the expression's, so
    the gradient ``g`` at GeLU's output times it has the bits of
    g * (phi(x) + x * density(x))."""
    slope = np.asarray(-0.5 * x)
    slope *= x
    np.exp(slope, out=slope)
    slope *= _INV_SQRT_2PI
    np.multiply(x, slope, out=slope)
    out = _phi(x)
    out += slope
    return out


def cross_entropy(logits, labels) -> np.ndarray:
    """Mean negative log-softmax of the labelled class, via logsumexp, as a
    0-d array.

    Computed in log space so extreme logits stay finite. Labels are integer
    class indices. An empty batch has no mean and raises ParameterError.
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
    shifted = z - z.max(axis=1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    nll = -log_probs[np.arange(z.shape[0]), labels]
    return np.asarray(nll.mean())
