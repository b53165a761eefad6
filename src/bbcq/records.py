"""The record rule: which JSON value each dataclass field admits, checked
where a record is built or read from JSON."""

from __future__ import annotations

import json
from dataclasses import fields
from typing import Mapping

from .errors import NonFiniteError, ParameterError


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


def strict_json(obj, what: str, **kwargs) -> str:
    """``json.dumps(obj, **kwargs)``, which writes only JSON: a NaN or
    infinite float in ``obj`` raises NonFiniteError naming ``what``."""
    try:
        return json.dumps(obj, allow_nan=False, **kwargs)
    except ValueError:
        raise NonFiniteError(f"{what} holds NaN or infinite values") from None


def check_field_types(record, what: str) -> None:
    """Raise ParameterError unless every field of dataclass ``record`` has
    the type ``record_fields`` would accept for it."""
    for f in fields(record):
        json_value(getattr(record, f.name), f.type, f"{what} field {f.name!r}")
