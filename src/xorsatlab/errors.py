"""Exception types shared across the package, and `from_json`, its one JSON reader."""

import dataclasses
import functools
import re
import reprlib
import types
import typing


class XorsatLabError(Exception):
    """Base class for domain errors raised by xorsatlab."""


class RejectionBudgetError(XorsatLabError):
    """Rejection sampler exhausted its retry budget."""


class BudgetExceededError(XorsatLabError):
    """An exact/brute-force routine was asked to exceed its size guard."""


class InstanceFormatError(XorsatLabError, ValueError):
    """An instance file or JSON object is truncated, malformed or invalid."""


class CertificateFormatError(XorsatLabError, ValueError):
    """A certificate file or JSON object is malformed or mistyped."""


def from_json(cls, d, error: type[Exception], what: str):
    """Dataclass `cls` from JSON object `d`: every field without a default, no other key, each value its type."""
    if not isinstance(d, dict):
        raise error(f"{what} JSON must be an object, not {type(d).__name__}")
    hints, required = _fields(cls)
    unknown = sorted(set(d) - set(hints))
    if unknown:
        raise error(f"unknown {what} keys: {', '.join(unknown)}")
    missing = [repr(name) for name in required if name not in d]
    if missing:
        raise error(f"{what} JSON has no {', '.join(missing)}")
    return cls(**{name: json_value(hints[name], v, error, f"{what} field {name!r}") for name, v in d.items()})


@functools.cache
def _fields(cls) -> tuple[dict, list[str]]:  # the annotations, and the fields without a default
    required = [f.name for f in dataclasses.fields(cls) if f.default is f.default_factory is dataclasses.MISSING]
    return typing.get_type_hints(cls), required


def json_value(tp, v, error: type[Exception], where: str):
    """`v` read as annotation `tp`: int (not bool), float (int allowed), bool, str,
    dict, list[X], a fixed-length tuple[X, Y], X | None or a dataclass; raises `error` on a misfit."""
    try:
        return _read(tp, v, error)
    except _Misfit:
        name = tp.__name__ if isinstance(tp, type) else re.sub(r"\w+\.", "", str(tp))
        raise error(f"{where} must be {name}, got {reprlib.repr(v)}") from None


class _Misfit(Exception):
    """A value somewhere inside the one `json_value` reads does not fit its type."""


@functools.cache
def _shape(tp) -> tuple:
    return typing.get_origin(tp), typing.get_args(tp), dataclasses.is_dataclass(tp)


def _read(tp, v, error):
    if type(v) is tp:  # the common case, and the one that keeps reading large instances fast
        return v
    origin, args, is_dataclass = _shape(tp)
    if origin is types.UnionType:  # X | None
        return None if v is None else _read(args[0], v, error)
    if origin is list and isinstance(v, list):
        return [_read(args[0], x, error) for x in v]
    if origin is tuple and isinstance(v, list) and len(v) == len(args):
        return tuple(_read(a, x, error) for a, x in zip(args, v))
    if is_dataclass and isinstance(v, dict):
        return from_json(tp, v, error, tp.__name__)
    scalar = (int, float) if tp is float else tp  # a float field takes an int
    if origin is None and isinstance(v, scalar) and (tp is bool or not isinstance(v, bool)):  # bool is no int here
        return v
    raise _Misfit
