"""The record rule: which JSON value each dataclass field admits, checked
where a record is built or read from JSON; and the JSON rule: how every
JSON artifact is written and read."""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Mapping

from .errors import FormatError, NonFiniteError, ParameterError


#: JSON value types each field annotation admits; bool is never a number.
_JSON_TYPES = {"int": (int,), "float": (int, float), "bool": (bool,),
               "str": (str,), "dict": (dict,)}


def json_value(value, annotation: str, what: str):
    """``value`` checked against a field annotation such as ``"int"``,
    ``"float | None"`` or ``"list[list[float]]"``.

    Types must match exactly: an int field takes no bool or fraction, a
    float field no string, a bool field only true/false. An int is widened
    for a float field if a float can hold it. Anything else raises
    ParameterError.
    """
    base, _, optional = annotation.partition(" | ")
    if value is None and optional == "None":
        return None
    if base.startswith("list["):
        if not isinstance(value, list):
            raise ParameterError(f"{what} must be a list, got {value!r}")
        return [json_value(v, base[5:-1], f"{what}[{i}]")
                for i, v in enumerate(value)]
    if isinstance(value, bool) != (base == "bool") or \
            not isinstance(value, _JSON_TYPES[base]):
        raise ParameterError(f"{what} must be {annotation}, got {value!r}")
    if base == "float" and isinstance(value, int):
        try:
            return float(value)
        except OverflowError:
            raise ParameterError(f"{what} must be {annotation}, got an int "
                                 "past the float range") from None
    return value


def record_fields(cls, payload, what: str):
    """An instance of dataclass ``cls`` read from a JSON object.

    Every field of ``cls`` must be present with its annotated type (see
    ``json_value``); other keys are ignored. Raises ParameterError.
    """
    if not isinstance(payload, Mapping):
        raise ParameterError(
            f"{what} must be a JSON object, got {type(payload).__name__}")
    values = {}
    for f in fields(cls):
        if f.name not in payload:
            raise ParameterError(f"{what} is missing field {f.name!r}")
        values[f.name] = json_value(payload[f.name], f.type,
                                    f"{what} field {f.name!r}")
    return cls(**values)


def strict_json(obj, what: str, **layout) -> str:
    """The text of a JSON artifact: ``obj`` with sorted keys, a two-space
    indent and a final newline, or ``json.dumps(obj, **layout)`` when a
    layout is given (the container manifest's). Only JSON is written: a
    NaN or infinite float in ``obj`` raises NonFiniteError naming ``what``.
    """
    try:
        if layout:
            return json.dumps(obj, allow_nan=False, **layout)
        return json.dumps(obj, allow_nan=False, sort_keys=True, indent=2) + "\n"
    except ValueError:
        raise NonFiniteError(f"{what} holds NaN or infinite values") from None


def read_json(blob: bytes, path):
    """The JSON value in ``blob``, the UTF-8 bytes of the file at ``path``;
    FormatError naming ``path`` if they are not valid JSON."""
    try:
        return json.loads(blob.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or an int past 4300 digits
        raise FormatError(f"{path}: not valid JSON: {exc}") from None


def check_field_types(record, what: str) -> None:
    """Raise ParameterError unless every field of dataclass ``record`` has
    the type ``record_fields`` would accept for it."""
    for f in fields(record):
        json_value(getattr(record, f.name), f.type, f"{what} field {f.name!r}")
