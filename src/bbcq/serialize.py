"""Binary container for models and datasets.

Layout (all integers little-endian):

    bytes 0..5    magic ``BBCVIT``
    bytes 6..7    version ``01`` (ASCII digits)
    bytes 8..15   u64 length of the JSON manifest
    manifest      UTF-8 canonical JSON (sorted keys, no whitespace)
    payload       raw tensor bytes, concatenated in manifest order

The manifest records ``kind`` (``model`` or ``dataset``), a ``spec`` object,
and a ``tensors`` list of ``{name, shape, dtype, offset}`` descriptors with
offsets relative to the payload start. Float tensors must be finite. Each
corruption mode maps to its own error type so callers can tell a truncated
file from a mismatched manifest.
"""

from __future__ import annotations

import json
import struct
from typing import Mapping

import numpy as np

from .errors import (LengthError, MagicError, ManifestError, ParameterError,
                     VersionError)
from .model import Model, ModelSpec, parameter_shapes
from .tensor import require_finite

MAGIC = b"BBCVIT"
VERSION = b"01"
_HEADER = struct.Struct("<6s2sQ")

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _pack(kind: str, spec: Mapping, tensors: list[tuple[str, np.ndarray]]) -> bytes:
    descriptors = []
    chunks = []
    offset = 0
    for name, arr in tensors:
        if arr.dtype.kind == "f":
            dtype = "<f8"
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


def _unpack(blob: bytes, expect_kind: str) -> tuple[dict, dict[str, np.ndarray]]:
    if len(blob) < _HEADER.size or blob[:6] != MAGIC:
        raise MagicError("not a BBCVIT container (bad magic)")
    version = blob[6:8]
    if version != VERSION:
        raise VersionError(f"unsupported container version {version!r}")
    (_, _, manifest_len) = _HEADER.unpack_from(blob)
    body = blob[_HEADER.size:]
    if manifest_len > len(body):
        raise LengthError(
            f"manifest length {manifest_len} exceeds remaining {len(body)} bytes")
    try:
        manifest = json.loads(body[:manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    for key in ("kind", "spec", "tensors"):
        if key not in manifest:
            raise ManifestError(f"manifest is missing {key!r}")
    if manifest["kind"] != expect_kind:
        raise ManifestError(
            f"expected a {expect_kind} container, found {manifest['kind']!r}")

    payload = body[manifest_len:]
    tensors: dict[str, np.ndarray] = {}
    expected_end = 0
    for desc in manifest["tensors"]:
        try:
            name, shape = desc["name"], tuple(int(s) for s in desc["shape"])
            dtype, offset = desc["dtype"], int(desc["offset"])
        except (KeyError, TypeError, ValueError):
            raise ManifestError(f"malformed tensor descriptor: {desc!r}") from None
        if dtype not in _DTYPES:
            raise ManifestError(f"tensor {name!r} has unknown dtype {dtype!r}")
        if name in tensors:
            raise ManifestError(f"duplicate tensor name {name!r}")
        np_dtype = _DTYPES[dtype]
        nbytes = int(np.prod(shape, dtype=np.int64)) * np_dtype.itemsize
        if offset != expected_end:
            raise ManifestError(
                f"tensor {name!r} offset {offset} is not contiguous "
                f"(expected {expected_end})")
        expected_end = offset + nbytes
        if expected_end > len(payload):
            raise LengthError(
                f"payload truncated: tensor {name!r} needs bytes up to "
                f"{expected_end}, have {len(payload)}")
        tensor = np.frombuffer(
            payload[offset:offset + nbytes], dtype=np_dtype).reshape(shape).copy()
        if tensor.dtype.kind == "f":
            require_finite(tensor, f"tensor {name!r}")
        tensors[name] = tensor
    if expected_end != len(payload):
        raise LengthError(
            f"payload has {len(payload) - expected_end} trailing bytes")
    return manifest, tensors


def serialize_model(model: Model) -> bytes:
    return _pack("model", model.spec.to_json(), model.parameters())


def deserialize_model(blob: bytes) -> Model:
    manifest, tensors = _unpack(blob, "model")
    spec = ModelSpec.from_json(manifest["spec"])
    expected = parameter_shapes(spec)
    if [(n, list(s)) for n, s in expected] != \
            [(d["name"], d["shape"]) for d in manifest["tensors"]]:
        raise ManifestError("tensor list does not match the model spec")
    params = {name: tensors[name] for name, _ in expected}
    from .model import BlockParams  # local import avoids a cycle at module load
    blocks = []
    for i in range(spec.num_blocks):
        blocks.append(BlockParams(
            ln1_gamma=params[f"block{i}.ln1.gamma"],
            ln1_beta=params[f"block{i}.ln1.beta"],
            w_q=params[f"block{i}.attn.w_q"],
            w_k=params[f"block{i}.attn.w_k"],
            w_v=params[f"block{i}.attn.w_v"],
            w_o=params[f"block{i}.attn.w_o"],
            ln2_gamma=params[f"block{i}.ln2.gamma"],
            ln2_beta=params[f"block{i}.ln2.beta"],
            w1=params[f"block{i}.mlp.w1"],
            b1=params[f"block{i}.mlp.b1"],
            w2=params[f"block{i}.mlp.w2"],
            b2=params[f"block{i}.mlp.b2"],
        ))
    return Model(spec=spec, embed_w=params["embed.weight"], blocks=blocks,
                 head_w=params["head.weight"])


def serialize_dataset(inputs: np.ndarray, labels: np.ndarray,
                      meta: Mapping | None = None) -> bytes:
    if inputs.ndim != 3:
        raise ParameterError(f"dataset inputs must be 3-d, got shape {inputs.shape}")
    if labels.ndim != 1 or labels.shape[0] != inputs.shape[0]:
        raise ParameterError(
            f"labels shape {labels.shape} does not match {inputs.shape[0]} samples")
    spec = dict(meta or {})
    return _pack("dataset", spec, [("inputs", inputs),
                                   ("labels", labels.astype(np.int64))])


def deserialize_dataset(blob: bytes) -> tuple[np.ndarray, np.ndarray, dict]:
    manifest, tensors = _unpack(blob, "dataset")
    names = [d["name"] for d in manifest["tensors"]]
    if names != ["inputs", "labels"]:
        raise ManifestError(f"dataset container has tensors {names!r}")
    return tensors["inputs"], tensors["labels"], dict(manifest["spec"])


def save_model(model: Model, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_model(model))


def load_model(path) -> Model:
    with open(path, "rb") as fh:
        return deserialize_model(fh.read())


def save_dataset(inputs: np.ndarray, labels: np.ndarray, path,
                 meta: Mapping | None = None) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize_dataset(inputs, labels, meta))


def load_dataset(path) -> tuple[np.ndarray, np.ndarray, dict]:
    with open(path, "rb") as fh:
        return deserialize_dataset(fh.read())
