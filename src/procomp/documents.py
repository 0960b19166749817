"""The reader shared by every JSON config document."""

from __future__ import annotations

import json
import math
from pathlib import Path

from .errors import ConfigError


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


def read_json_object(path: str | Path) -> dict:
    """The JSON object in a file. Raises ConfigError naming the file when the
    text is not strict JSON (NaN, Infinity and numbers that overflow to
    infinity are refused) or not an object."""
    with open(path, encoding="utf-8") as fh:
        try:
            document = json.load(fh, parse_constant=_reject_constant, parse_float=_finite_float,
                                 parse_int=_float_sized_int)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"malformed JSON document: {exc}", path=str(path)) from exc
    if not isinstance(document, dict):
        raise ConfigError(f"top-level value must be a JSON object, got {type(document).__name__}",
                          path=str(path))
    return document
