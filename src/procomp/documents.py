"""The reader shared by every JSON config document: the file, then each field."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import ConfigError

_REQUIRED = object()
_EXPECTED = {str: "a string", int: "an integer", float: "a finite number", list: "a list",
             dict: "an object"}


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    number = float(text)
    if math.isinf(number):
        raise ValueError(f"number {text} overflows a float")
    return number


def _float_sized_int(text: str) -> int:
    _finite_float(text)  # an integer beyond the float range overflows where it is used as one
    return int(text)


def read_document(path: str | Path, build):
    """``build`` of the JSON object in a UTF-8 file, with or without a
    byte-order mark. Raises ConfigError naming the file when the text is not
    strict JSON (NaN, Infinity and numbers that overflow to infinity are
    refused), or when ``build`` raises one."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            document = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float,
                                 parse_int=_float_sized_int)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"malformed JSON document: {exc}", path=str(path)) from exc
    try:
        return build(document)
    except ConfigError as exc:
        raise ConfigError(str(exc), path=str(path)) from None


def read_field(document, key: str, kind, path: str = "", default=_REQUIRED):
    """``document[key]``, in the object at ``path``, as ``kind``: str, int (not
    a bool), float (a finite int or float, as a float), list, dict or an enum
    class. A missing field is ``default``, and an error if there is none; a
    null one is None where the default is. Raises ConfigError at its path."""
    if not isinstance(document, dict):
        raise ConfigError(f"expected an object, got {type(document).__name__}", path=path)
    if key not in document:
        if default is _REQUIRED:
            raise ConfigError(f"missing field {key!r}", path=path)
        return default
    value = document[key]
    if value is None and default is None:
        return None
    if kind is float:
        try:
            number = float(value) if type(value) in (int, float) else math.nan
        except OverflowError:  # an int beyond the float range
            number = math.nan
        if math.isfinite(number):
            return number
    elif kind in _EXPECTED:
        if isinstance(value, kind) and type(value) is not bool:
            return value
    else:
        try:
            return kind(value)
        except ValueError:
            allowed = ", ".join(e.value for e in kind)
            raise ConfigError(f"unknown value {value!r}, expected one of: {allowed}",
                              path=f"{path}.{key}" if path else key) from None
    raise ConfigError(f"expected {_EXPECTED[kind]}, got {value!r}",
                      path=f"{path}.{key}" if path else key)
