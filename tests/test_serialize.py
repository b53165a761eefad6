"""Binary container: round trips, header layout, one error per corruption."""

from __future__ import annotations

import hashlib
import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bbcq.data import generate_dataset
from bbcq.errors import (BBCQError, LengthError, MagicError, ManifestError,
                         NonFiniteError, ParameterError, VersionError)
from bbcq.model import ModelSpec, init_model
from bbcq.serialize import (MAGIC, deserialize_dataset, deserialize_model,
                            is_container, load_dataset, load_model,
                            save_dataset, save_model, serialize_dataset,
                            serialize_model)

_HEADER = struct.Struct("<6s2sQ")


def _spec():
    return ModelSpec(num_blocks=2, embed_dim=16, num_heads=2, patch_count=4,
                     num_classes=3, init_seed=11)


def _split(blob):
    """(magic, version, manifest-dict, manifest-bytes, payload).)"""
    magic, version, manifest_len = _HEADER.unpack_from(blob)
    manifest_bytes = blob[_HEADER.size:_HEADER.size + manifest_len]
    payload = blob[_HEADER.size + manifest_len:]
    return magic, version, json.loads(manifest_bytes), manifest_bytes, payload


def _reassemble(manifest: dict, payload: bytes) -> bytes:
    raw = json.dumps(manifest, sort_keys=True,
                     separators=(",", ":")).encode("utf-8")
    return _HEADER.pack(b"BBCVIT", b"01", len(raw)) + raw + payload


# ---------------------------------------------------------------------------
# round trips


def test_model_round_trip_bitwise():
    model = init_model(_spec())
    clone = deserialize_model(serialize_model(model))
    assert clone.spec == model.spec
    for (name_a, arr_a), (name_b, arr_b) in zip(model.parameters(),
                                                clone.parameters()):
        assert name_a == name_b
        assert arr_a.dtype == arr_b.dtype == np.float64
        np.testing.assert_array_equal(arr_a, arr_b)


def test_dataset_round_trip():
    inputs, labels = generate_dataset(5, 4, 16, 3, seed=2)
    meta = {"split": "calib", "seed": 2, "num_classes": 3}
    x, y, got_meta = deserialize_dataset(serialize_dataset(inputs, labels, meta))
    np.testing.assert_array_equal(x, inputs)
    np.testing.assert_array_equal(y, labels)
    assert y.dtype == np.int64
    assert got_meta == meta


def test_serialize_is_deterministic():
    model = init_model(_spec())
    assert serialize_model(model) == serialize_model(model)


@pytest.mark.parametrize("spec, digest", [
    (ModelSpec(num_blocks=1, embed_dim=16, num_heads=2, patch_count=4,
               num_classes=4),
     "837c23d006364672d5f219a9c397bdaa1b04938ca3ef435d1b5da5ae7d42c58a"),
    (ModelSpec(num_blocks=2, embed_dim=32, num_heads=4, patch_count=8,
               num_classes=10, mlp_ratio=2.5),
     "69b963ad5b9592bb1bff1e96ca6a3f4b3ecec1887cfd2a19aa9f30098bf6fedb"),
], ids=["1x16", "2x32-r2.5"])
def test_model_bytes_are_pinned(spec, digest):
    """Parameter names, order, shapes and init draws of ``init_model``."""
    assert hashlib.sha256(serialize_model(init_model(spec))).hexdigest() == digest


def test_file_save_load(tmp_path):
    model = init_model(_spec())
    save_model(model, tmp_path / "m.bbcv")
    loaded = load_model(tmp_path / "m.bbcv")
    np.testing.assert_array_equal(loaded.head_w, model.head_w)
    inputs, labels = generate_dataset(3, 4, 16, 3, seed=0)
    save_dataset(inputs, labels, tmp_path / "d.bbcv", meta={"split": "calib"})
    x, y, meta = load_dataset(tmp_path / "d.bbcv")
    np.testing.assert_array_equal(x, inputs)
    assert meta["split"] == "calib"


# ---------------------------------------------------------------------------
# header layout


def test_header_layout():
    blob = serialize_model(init_model(_spec()))
    assert blob[:6] == b"BBCVIT"
    assert blob[6:8] == b"01"
    magic, version, manifest, raw, payload = _split(blob)
    assert manifest["kind"] == "model"
    assert manifest["spec"]["embed_dim"] == 16
    # descriptors are contiguous and account for the whole payload
    total = 0
    for desc in manifest["tensors"]:
        assert desc["offset"] == total
        size = int(np.prod(desc["shape"])) if desc["shape"] else 1
        total += size * 8
    assert total == len(payload)


def test_payload_is_little_endian_float64():
    model = init_model(_spec())
    blob = serialize_model(model)
    _, _, manifest, _, payload = _split(blob)
    first = manifest["tensors"][0]
    assert first["name"] == "embed.weight"
    assert first["dtype"] == "<f8"
    nbytes = int(np.prod(first["shape"])) * 8
    decoded = np.frombuffer(payload[:nbytes], dtype="<f8").reshape(
        first["shape"])
    np.testing.assert_array_equal(decoded, model.embed_w)


# ---------------------------------------------------------------------------
# corruption: each failure mode gets its own error type


@pytest.fixture
def model_blob():
    return serialize_model(init_model(_spec()))


def test_bad_magic(model_blob):
    with pytest.raises(MagicError):
        deserialize_model(b"NOTBBC" + model_blob[6:])
    with pytest.raises(MagicError):
        deserialize_model(b"")
    with pytest.raises(MagicError):
        deserialize_model(model_blob[:4])


@pytest.mark.parametrize("n", range(len(MAGIC)))
def test_a_blob_cut_inside_the_magic_is_a_container(model_blob, n):
    """Empty or cut inside the magic, a blob still counts as a container,
    which the reader rejects as bad magic rather than reading it as JSON."""
    assert is_container(model_blob[:n])
    with pytest.raises(MagicError):
        deserialize_model(model_blob[:n])


@pytest.mark.parametrize("blob", [b"{}", b"BBCVI!", b"XBBCVIT", b" BBCVIT"])
def test_a_blob_off_the_magic_is_no_container(blob):
    assert not is_container(blob)


@pytest.mark.parametrize("n", [6, 7, 8, 10, 15])
def test_header_cut_after_the_magic_is_a_length_error(model_blob, n):
    """A header cut short after its magic is a truncated container, not a
    foreign file: the magic is checked first, then the header's length."""
    with pytest.raises(LengthError, match=f"header needs 16 bytes, got {n}"):
        deserialize_model(model_blob[:n])


def test_a_whole_header_is_read_past():
    """Sixteen bytes are a whole header: a container that is only a header
    fails on its manifest, not on its header's length."""
    with pytest.raises(LengthError, match="manifest length 1 exceeds remaining 0"):
        deserialize_model(_HEADER.pack(b"BBCVIT", b"01", 1))
    with pytest.raises(ManifestError, match="not valid JSON"):
        deserialize_model(_HEADER.pack(b"BBCVIT", b"01", 0))


def test_bad_version(model_blob):
    with pytest.raises(VersionError):
        deserialize_model(model_blob[:6] + b"99" + model_blob[8:])


def test_truncated_payload(model_blob):
    with pytest.raises(LengthError):
        deserialize_model(model_blob[:-8])


def test_trailing_bytes(model_blob):
    with pytest.raises(LengthError, match="payload has 8 trailing bytes"):
        deserialize_model(model_blob + b"\x00" * 8)


def test_manifest_longer_than_body(model_blob):
    huge = _HEADER.pack(b"BBCVIT", b"01", 1 << 40)
    with pytest.raises(LengthError):
        deserialize_model(huge + model_blob[_HEADER.size:])
    # A whole header and nothing after it.
    with pytest.raises(LengthError):
        deserialize_model(_HEADER.pack(b"BBCVIT", b"01", 1))


def test_garbage_manifest(model_blob):
    magic, version, manifest, raw, payload = _split(model_blob)
    mangled = _HEADER.pack(b"BBCVIT", b"01", len(raw)) + b"x" * len(raw) + payload
    with pytest.raises(ManifestError):
        deserialize_model(mangled)


def test_manifest_int_past_the_digit_limit(model_blob):
    """json.loads raises a plain ValueError for an int of over 4300 digits."""
    _, _, _, raw, payload = _split(model_blob)
    raw = raw.replace(b'"offset":0', b'"offset":' + b"1" * 5000, 1)
    with pytest.raises(ManifestError, match="not valid JSON"):
        deserialize_model(_HEADER.pack(b"BBCVIT", b"01", len(raw)) + raw
                          + payload)


def test_kind_mismatch():
    inputs, labels = generate_dataset(3, 4, 16, 3, seed=0)
    blob = serialize_dataset(inputs, labels)
    with pytest.raises(ManifestError):
        deserialize_model(blob)
    with pytest.raises(ManifestError):
        deserialize_dataset(serialize_model(init_model(_spec())))


def test_renamed_tensor_rejected(model_blob):
    _, _, manifest, _, payload = _split(model_blob)
    manifest["tensors"][0]["name"] = "embed.sabotage"
    with pytest.raises(ManifestError):
        deserialize_model(_reassemble(manifest, payload))


def test_non_contiguous_offset(model_blob):
    _, _, manifest, _, payload = _split(model_blob)
    manifest["tensors"][1]["offset"] += 8
    with pytest.raises(ManifestError, match="contiguous"):
        deserialize_model(_reassemble(manifest, payload))


def test_unknown_dtype(model_blob):
    _, _, manifest, _, payload = _split(model_blob)
    manifest["tensors"][0]["dtype"] = "<f4"
    with pytest.raises(ManifestError, match="dtype"):
        deserialize_model(_reassemble(manifest, payload))


def test_malformed_descriptor(model_blob):
    _, _, manifest, _, payload = _split(model_blob)
    del manifest["tensors"][0]["shape"]
    with pytest.raises(ManifestError, match="descriptor"):
        deserialize_model(_reassemble(manifest, payload))


def test_duplicate_tensor_name(model_blob):
    _, _, manifest, _, payload = _split(model_blob)
    # make the first two descriptors identical twins at the same offsets
    manifest["tensors"][1] = dict(manifest["tensors"][0])
    with pytest.raises(ManifestError, match="duplicate"):
        deserialize_model(_reassemble(manifest, payload))


@pytest.mark.parametrize("shape, error", [
    ([0, 2**61], "numpy cannot hold"),
    ([16, 16] + [1] * 62, "does not match the model spec"),
    ([16, 16] + [1] * 63, "numpy cannot hold")],
    ids=["empty-past-the-byte-limit", "64-dims", "65-dims"])
def test_shape_numpy_cannot_hold(model_blob, shape, error):
    """numpy holds at most 64 dimensions, and an empty tensor only while
    its nonzero dimensions fit in its byte limit; past either, a shape is a
    ManifestError rather than numpy's ValueError."""
    _, _, manifest, _, payload = _split(model_blob)
    assert manifest["tensors"][0]["shape"] == [16, 16]
    manifest["tensors"][0]["shape"] = shape
    with pytest.raises(ManifestError, match=error):
        deserialize_model(_reassemble(manifest, payload))


def test_missing_manifest_key(model_blob):
    _, _, manifest, _, payload = _split(model_blob)
    del manifest["spec"]
    with pytest.raises(ManifestError, match="spec"):
        deserialize_model(_reassemble(manifest, payload))


#: Any JSON value; ints reach past 2**63 and past the float range both
#: ways, and lists of ints stand in for shapes with negative, zero or huge
#: dimensions.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2**1100, 2**1100) | st.floats()
    | st.text(max_size=6) | st.lists(st.integers(-2**70, 2**70), max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)

#: The manifest fields, the model spec fields and two descriptors' fields.
FIELD_PATHS = ([(key,) for key in ("kind", "spec", "tensors")]
               + [("spec", f) for f in ModelSpec.__dataclass_fields__]
               + [("tensors", i, key) for i in (0, 1)
                  for key in ("name", "shape", "dtype", "offset")])


@given(st.booleans(), st.sampled_from(FIELD_PATHS), JSON_VALUES)
@settings(max_examples=300, deadline=None)
def test_loaders_raise_only_library_errors_on_any_field(is_model, path,
                                                        value):
    """A container with one field replaced by any JSON value either loads
    or raises a BBCQError, never a raw Python exception."""
    if is_model:
        blob, load = serialize_model(init_model(_spec())), deserialize_model
    else:
        inputs, labels = generate_dataset(3, 4, 16, 3, seed=0)
        blob, load = serialize_dataset(inputs, labels), deserialize_dataset
    _, _, manifest, _, payload = _split(blob)
    parent = manifest
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        load(_reassemble(manifest, payload))
    except BBCQError:
        pass


def test_non_finite_weight_rejected():
    """The loader's check, on a container edited after it was written."""
    _, _, manifest, _, payload = _split(serialize_model(init_model(_spec())))
    (desc,) = [d for d in manifest["tensors"] if d["name"] == "block1.attn.w_o"]
    at = desc["offset"] + (2 * desc["shape"][1] + 3) * 8
    payload = payload[:at] + struct.pack("<d", np.inf) + payload[at + 8:]
    with pytest.raises(NonFiniteError, match="block1.attn.w_o"):
        deserialize_model(_reassemble(manifest, payload))


def test_writers_reject_what_the_loader_rejects(tmp_path):
    model = init_model(_spec())
    model.blocks[1].w_o[2, 3] = np.inf
    with pytest.raises(NonFiniteError, match="tensor 'block1.attn.w_o' holds"):
        save_model(model, tmp_path / "m.bbcv")
    inputs = np.zeros((2, 3, 4))
    inputs[1, 2, 3] = np.nan
    with pytest.raises(NonFiniteError, match="tensor 'inputs' holds"):
        save_dataset(inputs, np.zeros(2, dtype=np.int64), tmp_path / "d.bbcv")
    assert not (tmp_path / "m.bbcv").exists()
    assert not (tmp_path / "d.bbcv").exists()


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_dataset_meta_must_be_finite(value):
    """The manifest is strict JSON: no ``NaN`` or ``Infinity`` token."""
    with pytest.raises(NonFiniteError, match="the manifest"):
        serialize_dataset(np.zeros((2, 3, 4)), np.zeros(2, dtype=np.int64),
                          meta={"seed": value})


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e999"])
def test_loader_rejects_non_finite_manifest_numbers(tmp_path, token):
    """The reader is as strict as the writer: a hand-edited manifest number
    that is NaN or infinite is a NonFiniteError, not a loaded value."""
    inputs, labels = generate_dataset(2, 4, 16, 3, seed=0)
    _, _, manifest, _, payload = _split(serialize_dataset(inputs, labels))
    raw = json.dumps({**manifest, "spec": {"seed": 0}}, sort_keys=True,
                     separators=(",", ":")).replace('"seed":0', f'"seed":{token}')
    path = tmp_path / "d.bbcv"
    path.write_bytes(_HEADER.pack(b"BBCVIT", b"01", len(raw)) + raw.encode()
                     + payload)
    with pytest.raises(NonFiniteError,
                       match="the manifest holds NaN or infinite values"):
        load_dataset(path)


@pytest.mark.parametrize("inputs", [np.zeros((2, 3)), np.full((2, 3, 4), np.nan)],
                         ids=["2-d", "nan"])
def test_a_rejected_save_leaves_the_file_as_it_was(tmp_path, inputs):
    path = tmp_path / "d.bbcv"
    save_dataset(np.ones((1, 2, 2)), np.zeros(1, dtype=np.int64), path)
    before = path.read_bytes()
    with pytest.raises(ParameterError if inputs.ndim == 2 else NonFiniteError):
        save_dataset(inputs, np.zeros(2, dtype=np.int64), path)
    assert path.read_bytes() == before


# ---------------------------------------------------------------------------
# dataset validation


def test_dataset_rejects_bad_shapes():
    with pytest.raises(ParameterError):
        serialize_dataset(np.zeros((4, 16)), np.zeros(4, dtype=np.int64))
    with pytest.raises(ParameterError, match=r"\(3,\) does not match 4 samples"):
        serialize_dataset(np.zeros((4, 2, 16)), np.zeros(3, dtype=np.int64))


@pytest.mark.parametrize("inputs_shape, labels_shape, error", [
    ((2, 12), (2,), "dataset inputs must be 3-d, got shape (2, 12)"),
    ((2, 3, 4), (1, 2), "labels shape (1, 2) does not match 2 samples"),
    ((1, 6, 4), (2,), "labels shape (2,) does not match 1 samples")],
    ids=["2-d-inputs", "2-d-labels", "two-labels-one-sample"])
def test_dataset_reader_holds_the_writers_shape_rule(inputs_shape, labels_shape,
                                                     error):
    """A shape the writer refuses (ParameterError) is one the reader refuses
    too (ManifestError), with the same words: 3-d inputs, 1-d labels, one
    label per sample."""
    inputs = np.zeros(24).reshape(inputs_shape)
    labels = np.zeros(2, dtype=np.int64).reshape(labels_shape)
    with pytest.raises(ParameterError, match=re.escape(error)):
        serialize_dataset(inputs, labels)
    _, _, manifest, _, payload = _split(
        serialize_dataset(np.zeros((2, 3, 4)), np.zeros(2, dtype=np.int64)))
    manifest["tensors"][0]["shape"] = list(inputs_shape)
    manifest["tensors"][1]["shape"] = list(labels_shape)
    with pytest.raises(ManifestError, match=re.escape(error)):
        deserialize_dataset(_reassemble(manifest, payload))


@pytest.mark.parametrize("labels, error", [
    (np.array([0.5, 1.7]), "labels must be integer class indices, got dtype float64"),
    (np.array([-1, 2]), "labels must lie in [0, 2**63), got range [-1, 2]"),
    (np.array([1, 2**64 - 1], dtype=np.uint64),
     f"labels must lie in [0, 2**63), got range [1, {2**64 - 1}]")],
    ids=["float", "negative", "past-int64"])
def test_dataset_writer_refuses_labels_it_would_change(labels, error):
    """Float labels would be truncated and uint64 ones past int64 would wrap
    on the way to the container's int64; a negative label indexes no class.
    Each is a ParameterError, not a container that reads back different
    labels."""
    with pytest.raises(ParameterError, match=re.escape(error)):
        serialize_dataset(np.zeros((2, 3, 4)), labels)


@pytest.mark.parametrize("dtype, labels, error", [
    ("<f8", np.array([0.5, 1.7]), "labels must be integer class indices"),
    ("<i8", np.array([-1, 2]), "labels must lie in [0, 2**63), got range [-1, 2]")],
    ids=["float", "negative"])
def test_dataset_reader_holds_the_writers_label_rule(dtype, labels, error):
    """A container whose labels the writer would refuse, float or negative,
    is a ManifestError for the reader."""
    _, _, manifest, _, payload = _split(
        serialize_dataset(np.zeros((2, 3, 4)), np.zeros(2, dtype=np.int64)))
    manifest["tensors"][1]["dtype"] = dtype
    payload = payload[:manifest["tensors"][1]["offset"]] + \
        labels.astype(dtype).tobytes()
    with pytest.raises(ManifestError, match=re.escape(error)):
        deserialize_dataset(_reassemble(manifest, payload))


def _wrong_head(model):
    model.head_w = np.zeros((8, 5))


@pytest.mark.parametrize("edit, error", [
    (_wrong_head, "model parameter shapes do not match the model spec"),
    (lambda model: model.blocks.pop(), "the model has 1 blocks, its spec 2")],
    ids=["head-8x5-on-3-classes", "fewer-blocks-than-spec"])
def test_model_writer_holds_the_readers_layout(tmp_path, edit, error):
    """A model whose blocks or parameter shapes are not its spec's is a
    ParameterError before anything is packed, where the reader would reject
    the container (or the parameter list would raise IndexError), so an
    existing file stays as it was."""
    path = tmp_path / "m.bbcv"
    save_model(init_model(_spec()), path)
    before = path.read_bytes()
    model = init_model(_spec())
    edit(model)
    with pytest.raises(ParameterError, match=re.escape(error)):
        save_model(model, path)
    assert path.read_bytes() == before


def test_dataset_labels_cast_to_int64():
    inputs = np.zeros((2, 3, 4))
    labels = np.array([0, 1], dtype=np.int32)
    _, y, _ = deserialize_dataset(serialize_dataset(inputs, labels))
    assert y.dtype == np.int64
