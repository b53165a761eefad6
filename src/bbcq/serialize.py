"""Binary container for models and datasets.

Layout (all integers little-endian):

    bytes 0..5    magic ``BBCVIT``
    bytes 6..7    version ``01`` (ASCII digits)
    bytes 8..15   u64 length of the JSON manifest
    manifest      UTF-8 canonical JSON (sorted keys, no whitespace)
    payload       raw tensor bytes, concatenated in manifest order

The manifest records ``kind`` (``model`` or ``dataset``), a ``spec`` object,
and a ``tensors`` list of ``{name, shape, dtype, offset}`` descriptors with
offsets relative to the payload start. Float tensors must be finite: the
writer and the reader refuse NaN and infinity in tensors and manifest
alike. Each corruption mode maps to its own error type so callers can tell
a truncated file from a mismatched manifest.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import make_dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import (BBCQError, LengthError, MagicError, ManifestError,
                     NonFiniteError, ParameterError, VersionError)
from .model import BLOCK_PARAMS, Model, ModelSpec, parameter_shapes
from .records import record_fields, strict_json
from .tensor import require_finite

MAGIC = b"BBCVIT"
VERSION = b"01"
_HEADER = struct.Struct("<6s2sQ")

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}
#: The most dimensions, and bytes over the nonzero dimensions, numpy holds.
_MAX_DIMS, _MAX_BYTES = 64, np.iinfo(np.intp).max
#: The largest label a dataset container's int64 holds.
_INT64_MAX = np.iinfo(np.int64).max


def is_container(blob: bytes) -> bool:
    """Whether ``blob`` is read as a container rather than as JSON: it
    starts with ``MAGIC`` or is a proper prefix of it, a container cut short
    (the empty file too), which the container reader rejects as bad magic."""
    return blob.startswith(MAGIC) or MAGIC.startswith(blob)


def _canonical_json(obj) -> bytes:
    return strict_json(obj, "the manifest", sort_keys=True,
                       separators=(",", ":")).encode("utf-8")


def _pack(kind: str, spec: Mapping, tensors: list[tuple[str, np.ndarray]]) -> bytes:
    descriptors, chunks, offset = [], [], 0
    for name, arr in tensors:
        if arr.dtype.kind == "f":
            dtype = "<f8"
            require_finite(arr, f"tensor {name!r}")
        elif arr.dtype.kind in "iu":
            dtype = "<i8"
        else:
            raise ParameterError(f"tensor {name!r} has unsupported dtype {arr.dtype}")
        raw = np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes()
        descriptors.append({"name": name, "shape": list(arr.shape),
                            "dtype": dtype, "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    manifest = _canonical_json({"kind": kind, "spec": dict(spec),
                                "tensors": descriptors})
    header = _HEADER.pack(MAGIC, VERSION, len(manifest))
    return header + manifest + b"".join(chunks)


#: The JSON type of every manifest field and tensor descriptor field.
_Manifest = make_dataclass("_Manifest", [
    ("kind", "str"), ("spec", "dict"), ("tensors", "list[dict]")])
_Descriptor = make_dataclass("_Descriptor", [
    ("name", "str"), ("shape", "list[int]"), ("dtype", "str"), ("offset", "int")])


def _finite(text: str) -> float:
    """A manifest number, as ``json.loads`` hands it over; the reader is as
    strict as the writer, so NaN and infinity raise NonFiniteError."""
    value = float(text)
    if not math.isfinite(value):
        raise NonFiniteError("the manifest holds NaN or infinite values")
    return value


def _read_manifest(blob: bytes) -> tuple[_Manifest, list[_Descriptor], memoryview]:
    """The checked manifest of a container, its tensor descriptors and a
    view of the payload after it (slicing a view copies no bytes)."""
    if blob[:6] != MAGIC:
        raise MagicError("not a BBCVIT container (bad magic)")
    if len(blob) < _HEADER.size:
        raise LengthError(f"header needs {_HEADER.size} bytes, got {len(blob)}")
    version = blob[6:8]
    if version != VERSION:
        raise VersionError(f"unsupported container version {version!r}")
    (_, _, manifest_len) = _HEADER.unpack_from(blob)
    body = memoryview(blob)[_HEADER.size:]
    if manifest_len > len(body):
        raise LengthError(
            f"manifest length {manifest_len} exceeds remaining {len(body)} bytes")
    try:
        manifest = json.loads(str(body[:manifest_len], "utf-8"),
                              parse_float=_finite, parse_constant=_finite)
    except ValueError as exc:  # bad UTF-8 or JSON, or an int past 4300 digits
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    try:
        manifest = record_fields(_Manifest, manifest, "manifest")
        descriptors = [record_fields(_Descriptor, desc, f"tensor descriptor {i}")
                       for i, desc in enumerate(manifest.tensors)]
    except ParameterError as exc:
        raise ManifestError(str(exc)) from None
    return manifest, descriptors, body[manifest_len:]


def container_kind(blob: bytes) -> str:
    """The manifest ``kind`` of a container (``model`` or ``dataset``)."""
    return _read_manifest(blob)[0].kind


def _unpack(blob: bytes, expect_kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    """The manifest ``spec`` and the tensors by name, in manifest order."""
    manifest, descriptors, payload = _read_manifest(blob)
    if manifest.kind != expect_kind:
        raise ManifestError(
            f"expected a {expect_kind} container, found {manifest.kind!r}")
    tensors: dict[str, np.ndarray] = {}
    expected_end = 0
    for desc in descriptors:
        name, shape, offset = desc.name, desc.shape, desc.offset
        if desc.dtype not in _DTYPES:
            raise ManifestError(f"tensor {name!r} has unknown dtype {desc.dtype!r}")
        if name in tensors:
            raise ManifestError(f"duplicate tensor name {name!r}")
        if min(shape, default=0) < 0:
            raise ManifestError(f"tensor {name!r} has a negative dimension {shape}")
        np_dtype = _DTYPES[desc.dtype]
        nbytes = math.prod(shape) * np_dtype.itemsize
        if offset != expected_end:
            raise ManifestError(
                f"tensor {name!r} offset {offset} is not contiguous "
                f"(expected {expected_end})")
        expected_end = offset + nbytes
        if expected_end > len(payload):
            raise LengthError(
                f"payload truncated: tensor {name!r} needs bytes up to "
                f"{expected_end}, have {len(payload)}")
        # The payload holds it, but numpy may not: too many dimensions, or
        # an empty tensor whose other dimensions are too large.
        if len(shape) > _MAX_DIMS or \
                math.prod(filter(None, shape)) * np_dtype.itemsize > _MAX_BYTES:
            raise ManifestError(f"numpy cannot hold tensor {name!r} of shape {shape}")
        tensor = np.frombuffer(
            payload[offset:offset + nbytes], dtype=np_dtype).reshape(shape).copy()
        if tensor.dtype.kind == "f":
            require_finite(tensor, f"tensor {name!r}")
        tensors[name] = tensor
    if expected_end != len(payload):
        raise LengthError(
            f"payload has {len(payload) - expected_end} trailing bytes")
    return manifest.spec, tensors


def serialize_model(model: Model) -> bytes:
    """The container of ``model``; ParameterError, before anything is packed,
    if its blocks or parameter shapes are not what its spec gives, as the
    reader would reject that container."""
    spec = model.spec
    if len(model.blocks) != spec.num_blocks:
        raise ParameterError(f"the model has {len(model.blocks)} blocks, "
                             f"its spec {spec.num_blocks}")
    params = model.parameters()
    if [(name, np.shape(arr)) for name, arr in params] != parameter_shapes(spec):
        raise ParameterError("model parameter shapes do not match the model spec")
    return _pack("model", spec.to_json(), params)


def deserialize_model(blob: bytes) -> Model:
    payload_spec, tensors = _unpack(blob, "model")
    spec = ModelSpec.from_json(payload_spec)
    # Count first, so that a forged num_blocks lists no huge layout.
    if len(tensors) != 2 + len(BLOCK_PARAMS) * spec.num_blocks or \
            parameter_shapes(spec) != [(n, t.shape) for n, t in tensors.items()]:
        raise ManifestError("tensor list does not match the model spec")
    return Model.from_parameters(spec, tensors)


def _check_dataset(inputs: np.ndarray, labels: np.ndarray,
                   error: type[BBCQError]) -> None:
    """A dataset's one rule, for its writer (ParameterError) and its reader
    (ManifestError) alike: 3-d inputs and 1-d labels, one per sample, each
    label an integer class index that int64 holds, so writing changes none."""
    if inputs.ndim != 3:
        raise error(f"dataset inputs must be 3-d, got shape {inputs.shape}")
    if labels.ndim != 1 or labels.shape[0] != inputs.shape[0]:
        raise error(
            f"labels shape {labels.shape} does not match {inputs.shape[0]} samples")
    if not np.issubdtype(labels.dtype, np.integer):
        raise error(f"labels must be integer class indices, got dtype {labels.dtype}")
    if labels.size and (labels.min() < 0 or labels.max() > _INT64_MAX):
        raise error(f"labels must lie in [0, 2**63), got range "
                    f"[{labels.min()}, {labels.max()}]")


def serialize_dataset(inputs: np.ndarray, labels: np.ndarray,
                      meta: Mapping | None = None) -> bytes:
    _check_dataset(inputs, labels, ParameterError)
    spec = dict(meta or {})
    return _pack("dataset", spec, [("inputs", inputs),
                                   ("labels", labels.astype(np.int64))])


def deserialize_dataset(blob: bytes) -> tuple[np.ndarray, np.ndarray, dict]:
    meta, tensors = _unpack(blob, "dataset")
    if list(tensors) != ["inputs", "labels"]:
        raise ManifestError(f"dataset container has tensors {list(tensors)!r}")
    _check_dataset(tensors["inputs"], tensors["labels"], ManifestError)
    return tensors["inputs"], tensors["labels"], meta


def save_model(model: Model, path) -> None:
    # Serialized first, so a rejected model leaves an existing file intact.
    Path(path).write_bytes(serialize_model(model))


def load_model(path) -> Model:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())


def save_dataset(inputs: np.ndarray, labels: np.ndarray, path,
                 meta: Mapping | None = None) -> None:
    Path(path).write_bytes(serialize_dataset(inputs, labels, meta))


def load_dataset(path) -> tuple[np.ndarray, np.ndarray, dict]:
    with open(path, "rb") as fh:
        return deserialize_dataset(fh.read())
