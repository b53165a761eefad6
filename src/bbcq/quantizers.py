"""Quantizer zoo: asymmetric uniform plus three post-softmax schemes.

All quantizers are fake-quant (quantize -> dequantize in float64) with the
integer codes exposed. Rounding is half-away-from-zero everywhere. The
max-anchored schemes (``mpq``, ``log2``, ``twin``) keep the calibrated
maximum exactly representable: their kernels work on the normalized ratio
``s / calibrated_max`` so the top of the range survives the float round trip
bit-for-bit.

Each scheme is one ``SCHEME_TABLE`` entry: its encode and decode kernels plus
the anchor rule that turns an observed range into the fields they read. The
table is the only way into a kernel. Static sites and dynamic (per-row)
softmax run the same kernels; only the anchor's inputs differ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import (ContractError, DegenerateScaleError, DimensionError,
                     ParameterError)
from .records import check_field_types
from .tensor import array_of

EPSILON = 1e-12


def round_half_away(x: np.ndarray | float) -> np.ndarray:
    """Round to nearest integer, ties away from zero."""
    x = np.asarray(x, dtype=np.float64)
    return np.copysign(np.floor(np.abs(x) + 0.5), x)


@dataclass(frozen=True)
class QuantParams:
    """One quantizer's configuration.

    ``scale``/``zero_point`` fully describe the uniform scheme, whose
    ``calibrated_max`` and ``threshold`` are None. A max-anchored scheme is
    ``bits`` and ``calibrated_max`` alone: its other fields must be what
    ``SCHEME_TABLE[scheme].anchor(bits, calibrated_max, None)`` derives.
    """

    bits: int
    scale: float
    zero_point: int
    scheme: str
    calibrated_max: float | None = None
    threshold: float | None = None

    def __post_init__(self):
        check_field_types(self, "quant params")
        _check_bits_and_scheme(self.bits, self.scheme)
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise DegenerateScaleError(
                f"scale must be finite and positive, got {self.scale}")
        levels = (1 << self.bits) - 1
        if not 0 <= self.zero_point <= levels:
            raise ParameterError(
                f"zero_point must be an integer in [0, {levels}], got {self.zero_point}")
        if self.scheme != "uniform" and \
                not EPSILON < (self.calibrated_max or 0.0) < math.inf:
            raise DegenerateScaleError(
                f"{self.scheme} needs a finite calibrated_max > {EPSILON}, "
                f"got {self.calibrated_max}")
        stored = (self.scale, self.zero_point, self.calibrated_max, self.threshold)
        a = (Anchor(self.bits, self.scale, self.zero_point) if self.scheme == "uniform"
             else SCHEME_TABLE[self.scheme].anchor(self.bits, self.calibrated_max, None))
        if stored != a[1:]:
            raise ParameterError(f"{self.scheme} (scale, zero_point, calibrated_max, "
                                 f"threshold) {stored} must be {a[1:]}")

    @property
    def num_codes(self) -> int:
        return 1 << self.bits


@dataclass(frozen=True)
class DynamicSoftmax:
    """Quant state entry of a post-softmax site whose every row is anchored
    to its own range at run time (``fake_quant_softmax_dynamic``)."""

    scheme: str
    bits: int

    def __post_init__(self):
        check_field_types(self, "dynamic softmax")
        _check_bits_and_scheme(self.bits, self.scheme)


def _check_bits_and_scheme(bits: int, scheme: str) -> Scheme:
    if not 2 <= bits <= 8:
        raise ParameterError(f"bits must be an integer in [2, 8], got {bits}")
    return _scheme(scheme)


@dataclass
class CodeTensor:
    """Integer codes plus the params that produced them.

    ``codes`` is flat (row-major) and unsigned; ``shape`` restores the layout.
    """

    shape: tuple[int, ...]
    codes: np.ndarray
    params: QuantParams

    def __post_init__(self):
        self.shape = tuple(self.shape)
        self.codes = np.asarray(self.codes, dtype=np.uint8).ravel()
        expected = int(np.prod(self.shape, dtype=np.int64))
        if self.codes.size != expected:
            raise DimensionError(
                f"codes length {self.codes.size} does not match shape {self.shape}")
        if self.codes.size and int(self.codes.max()) >= self.params.num_codes:
            raise ContractError(
                f"code {int(self.codes.max())} out of range for {self.params.bits} bits")

    @property
    def size(self) -> int:
        return self.codes.size


# ---------------------------------------------------------------------------
# kernels: ``(values, p)`` in, array out. ``p`` is a ``QuantParams`` or an
# ``Anchor``, whose fields broadcast, so the dynamic softmax path can pass
# per-row anchors.


def _affine_encode(x: np.ndarray, p) -> np.ndarray:
    top = (1 << p.bits) - 1
    return np.clip(round_half_away(x / p.scale) + p.zero_point, 0, top)


def _affine_decode(codes: np.ndarray, p) -> np.ndarray:
    return (np.asarray(codes, dtype=np.float64) - p.zero_point) * p.scale


def _affine_fake_quant(x: np.ndarray, p) -> np.ndarray:
    """The uniform encode-decode in one array: the rounded ``x / scale`` is
    clipped to ``[-z, top - z]``, and ``+ 0.0`` makes a rounded ``-0.0`` the
    ``+0.0`` that ``code - z`` gives."""
    t = np.asarray(x / p.scale, dtype=np.float64)
    np.abs(t, out=t)
    t += 0.5
    np.floor(t, out=t)
    np.copysign(t, x, out=t)
    np.clip(t, -p.zero_point, (1 << p.bits) - 1 - p.zero_point, out=t)
    t += 0.0
    t *= p.scale
    return t


def _mpq_encode(s: np.ndarray, p) -> np.ndarray:
    levels = (1 << p.bits) - 1
    return np.clip(round_half_away((s / p.calibrated_max) * levels), 0, levels)


def _mpq_decode(codes: np.ndarray, p) -> np.ndarray:
    levels = (1 << p.bits) - 1
    return (np.asarray(codes, dtype=np.float64) / levels) * p.calibrated_max


def _log_encode(s: np.ndarray, p) -> np.ndarray:
    top = (1 << p.bits) - 1
    with np.errstate(divide="ignore", invalid="ignore"):
        exact = -np.log2(s / p.calibrated_max)
    codes = np.clip(round_half_away(exact), 0, top)
    return np.where(s <= 0.0, float(top), codes)


def _log_decode(codes: np.ndarray, p) -> np.ndarray:
    return p.calibrated_max * np.exp2(-np.asarray(codes, dtype=np.float64))


def _twin_encode(s: np.ndarray, p) -> np.ndarray:
    half = 1 << (p.bits - 1)
    span = half - 1
    delta1 = p.threshold / span
    delta2 = (p.calibrated_max - p.threshold) / span
    low = np.clip(round_half_away(s / delta1), 0, span)
    high = half + np.clip(round_half_away((s - p.threshold) / delta2), 0, span)
    return np.where(s < p.threshold, low, high)


def _twin_decode(codes: np.ndarray, p) -> np.ndarray:
    half = 1 << (p.bits - 1)
    span = half - 1
    codes = np.asarray(codes, dtype=np.float64)
    frac_low = codes / span
    frac_high = (codes - half) / span
    low = frac_low * p.threshold
    high = p.threshold * (1.0 - frac_high) + p.calibrated_max * frac_high
    return np.where(codes < half, low, high)


# ---------------------------------------------------------------------------
# the scheme table


class Anchor(NamedTuple):
    """The fields a scheme's kernels read, named as in ``QuantParams``.

    Fields are Python numbers for a static site, or per-row arrays (shape
    ``(..., 1)``) when dynamic softmax anchors every row to its own range.
    """

    bits: int
    scale: Any
    zero_point: Any
    calibrated_max: Any = None
    threshold: Any = None


def uniform_grid(lo, step, bits: int) -> tuple[Any, Any]:
    """(scale, zero point) of the uniform grid that starts at ``lo``.

    The scale is ``step`` floored at EPSILON; the zero point puts ``lo`` on
    the grid, clamped to the codes. Broadcasts over array ``lo`` and ``step``.
    """
    scale = np.maximum(step, EPSILON)
    return scale, np.clip(round_half_away(-lo / scale), 0, (1 << bits) - 1)


def _uniform_anchor(bits: int, hi, lo) -> Anchor:
    """Min-max affine: step (hi-lo)/(2^bits - 1) from lo. A zero-width range
    [v, v] takes step |v|, so v is a code (1 if v > 0, 0 below zero point
    1 if v < 0) and fake-quantizes to itself."""
    step = np.where(hi > lo, (hi - lo) / ((1 << bits) - 1), np.abs(lo))
    return Anchor(bits, *uniform_grid(lo, step, bits))


def _mpq_anchor(bits: int, hi, lo) -> Anchor:
    """Max-anchored: the top code is hi itself, step hi/(2^bits - 1)."""
    return Anchor(bits, hi / ((1 << bits) - 1), 0, calibrated_max=hi)


def _log_anchor(bits: int, hi, lo) -> Anchor:
    """Power-of-two levels below hi: code m reconstructs hi * 2^-m."""
    return Anchor(bits, hi, 0, calibrated_max=hi)


def _twin_anchor(bits: int, hi, lo) -> Anchor:
    """Two uniform segments split at T = hi / 2^(bits-1).

    Codes [0, 2^(bits-1)-1] cover [0, T) with step T/(2^(bits-1)-1); codes
    [2^(bits-1), 2^bits-1] map [T, hi]. ``scale`` is the upper step.
    """
    threshold = hi / (1 << (bits - 1))
    span = (1 << (bits - 1)) - 1
    return Anchor(bits, (hi - threshold) / span, 0, calibrated_max=hi,
                  threshold=threshold)


class Scheme(NamedTuple):
    """One quantizer: its kernels and the rule that anchors them to a range.

    ``encode(x, p)`` returns float codes and ``decode(codes, p)`` the values
    they stand for; ``p`` is a ``QuantParams`` or an ``Anchor``.
    ``anchor(bits, hi, lo)`` builds the ``Anchor`` for the range [lo, hi];
    ``reads_lo`` says whether it reads ``lo``. ``fused(x, p)``, if set, is
    ``decode(encode(x, p), p)`` computed in one array.
    """

    encode: Callable[[np.ndarray, Any], np.ndarray]
    decode: Callable[[np.ndarray, Any], np.ndarray]
    anchor: Callable[[int, Any, Any], Anchor]
    reads_lo: bool = False
    fused: Callable[[np.ndarray, Any], np.ndarray] | None = None

    def fake_quant(self, x: np.ndarray, p) -> np.ndarray:
        return self.fused(x, p) if self.fused else self.decode(self.encode(x, p), p)


SCHEME_TABLE: dict[str, Scheme] = {
    "uniform": Scheme(_affine_encode, _affine_decode, _uniform_anchor,
                      reads_lo=True, fused=_affine_fake_quant),
    "mpq": Scheme(_mpq_encode, _mpq_decode, _mpq_anchor),
    "log2": Scheme(_log_encode, _log_decode, _log_anchor),
    "twin": Scheme(_twin_encode, _twin_decode, _twin_anchor),
}

SCHEMES = tuple(SCHEME_TABLE)


def _scheme(name: str) -> Scheme:
    try:
        return SCHEME_TABLE[name]
    except (KeyError, TypeError):
        raise ParameterError(
            f"unknown scheme {name!r}; expected one of {SCHEMES}") from None


# ---------------------------------------------------------------------------
# public quantizer API


def quantize(x, params: QuantParams) -> CodeTensor:
    """Integer codes of ``x`` under ``params``."""
    arr = array_of(x)
    codes = SCHEME_TABLE[params.scheme].encode(arr, params)
    return CodeTensor(arr.shape, codes, params)


def dequantize(ct: CodeTensor) -> np.ndarray:
    values = SCHEME_TABLE[ct.params.scheme].decode(ct.codes, ct.params)
    return values.reshape(ct.shape)


def fake_quant_array(x: np.ndarray, params: QuantParams) -> np.ndarray:
    """Quantize-then-dequantize without materializing a CodeTensor."""
    return SCHEME_TABLE[params.scheme].fake_quant(x, params)


def fake_quant_softmax_dynamic(s: np.ndarray, scheme: str, bits: int) -> np.ndarray:
    """Fake-quant softmax output with per-row (last axis) live statistics.

    The static path with each row anchored to its own max, and its min if
    the scheme's anchor reads it. Softmax rows sum to 1, so the row max is
    at least 1/row_len and the scales never degenerate. ``bits`` and
    ``scheme`` are checked as ``DynamicSoftmax`` checks them.
    """
    entry = _check_bits_and_scheme(bits, scheme)
    lo = s.min(axis=-1, keepdims=True) if entry.reads_lo else None
    rows = entry.anchor(bits, s.max(axis=-1, keepdims=True), lo)
    return entry.fake_quant(s, rows)


def softmax_site_params(scheme: str, bits: int, calibrated_max: float,
                        observed_min: float = 0.0) -> QuantParams:
    """Params anchored to the range [observed_min, calibrated_max].

    Used for the sites calibrated from FP-pass ranges alone: post-softmax
    sites, embed and head (uniform min-max), and constant operands (uniform
    over [v, v]). Only the uniform scheme reads ``observed_min``.
    """
    a = _check_bits_and_scheme(bits, scheme).anchor(bits, calibrated_max,
                                                    observed_min)
    return QuantParams(bits=bits, scale=float(a.scale),
                       zero_point=int(a.zero_point), scheme=scheme,
                       calibrated_max=a.calibrated_max, threshold=a.threshold)
