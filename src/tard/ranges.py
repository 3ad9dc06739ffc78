"""The one input boundary. ``check_record`` walks a parsed config file,
checkpoint or dataset line against a schema; every rejection reads
``<source>: '<dotted key>' <reason>``, and a value it echoes is cut short.

``rule`` declares a field's range in its metadata, and ``check`` tests values
against those rules: a ``__post_init__`` checks every field, and a file loader
one key at a time, so the key named and the reason given come from the same
entry. Rules that relate two fields stay in the ``__post_init__``.
"""

from __future__ import annotations

import functools
import reprlib
import sys
import types
import typing
from dataclasses import MISSING, dataclass, field, is_dataclass, replace

import numpy as np


def rule(default=MISSING, *, ge=None, gt=None, le=None, real=False, each=False, choices=None):
    """A dataclass field with ``default`` whose value is one of ``choices``,
    or a number with ``v >= ge`` (or ``v > gt``) and ``v <= le``. A ``real``
    value must also be finite; an ``each`` value is a sequence (or None) whose
    entries obey the rule."""
    spec = {"ge": ge, "gt": gt, "le": le, "real": real, "each": each, "choices": choices}
    return field(default=default, metadata={"rule": spec})


def _check_value(name: str, value, ge, gt, le, real, each, choices) -> None:
    if choices is not None:
        if value not in choices:
            raise ValueError(f"{name} must be one of {choices}, got {reprlib.repr(value)}")
        return
    for v in (value or ()) if each else (value,):
        # Compared, never converted: an int may lie beyond the float range.
        ok = not real or abs(v) <= sys.float_info.max
        if real and ge is not None and le is not None:
            if not (ok and ge <= v <= le):
                raise ValueError(f"{name} must lie in [{ge}, {le}]")
            continue
        need = ["finite"] if real else []
        if ge is not None:
            ok, need = ok and v >= ge, [*need, f">= {ge}"]
        if gt is not None:
            ok, need = ok and v > gt, [*need, f"> {gt}"]
        if not ok:
            raise ValueError(f"{name} must be {' and '.join(need)}")
        if le is not None and v > le:
            raise ValueError(f"{name} must be <= {le}")


def check(cls: type, values: dict) -> None:
    """Raise a ValueError naming the first key of ``values`` whose value
    breaks the rule of its field in dataclass ``cls``. Fields without a rule,
    the nested sections of a config, pass."""
    for name, value in values.items():
        spec = cls.__dataclass_fields__[name].metadata.get("rule")
        if spec is not None:
            _check_value(name, value, **spec)


def check_file_values(source: str, prefix: str, cls: type, values: dict, base=None):
    """A ``cls`` from a file's ``values``, over ``base``'s fields if given. A
    value outside its field's range names its dotted key; a rule that
    relates two fields names the section."""
    for key, value in values.items():
        try:
            check(cls, {key: value})
        except ValueError as exc:
            raise ValueError(f"{source}: {prefix + key!r} is out of range: {exc}") from None
    try:
        return cls(**values) if base is None else replace(base, **values)
    except ValueError as exc:
        raise ValueError(f"{source}: {prefix.rstrip('.')!r} is out of range: {exc}") from None


@dataclass(frozen=True)
class Numbers:
    """Schema leaf: a JSON array of finite numbers nested ``ndim`` (1 or 2)
    deep, its rows as long as the first, given back as a float64 array."""

    ndim: int


@functools.cache
def _fits(hint):
    """A test, made once per hint, of whether a parsed JSON value has that
    type: JSON arrays fill tuples (of the hint's length, if it gives one),
    ints fill floats, and booleans are not numbers."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        arms = [_fits(a) for a in args]
        return lambda v: any(fits(v) for fits in arms)
    if origin is tuple:
        each, size = _fits(args[0]), None if args[-1] is ... else len(args)
        return lambda v: type(v) is list and size in (None, len(v)) and all(map(each, v))
    allowed = (int, float) if hint is float else (hint,)
    return lambda v: type(v) in allowed


def _numbers(source: str, key: str, value, ndim: int) -> np.ndarray:
    """A ``Numbers(ndim)`` leaf as a float64 array, checked in one numpy pass;
    only a value it rejects is walked entry by entry, to name the first bad one."""
    try:
        array = np.asarray(value)
        ok = array.dtype.kind in "iuf" and array.ndim == ndim
    except ValueError:  # ragged rows
        ok = False
    # A JSON boolean reads as 0 or 1: the entries' types matter only if one appears.
    if ok and ((array == 0) | (array == 1)).any():
        ok = not any(type(v) is bool for row in (value if ndim > 1 else [value]) for v in row)
    if not ok:
        hint = tuple[float, ...] if ndim == 1 else tuple[tuple[float, ...], ...]
        check_record(source, key, value, hint)
        try:  # numbers only: left are integers beyond int64, and ragged rows
            array = np.array(value, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            array = np.array(np.inf)
        except ValueError:
            shape = (len(value), len(value[0]))
            raise ValueError(f"{source}: {key!r} does not fit shape {shape}") from None
    if not np.isfinite(array).all():
        raise ValueError(f"{source}: {key!r} has non-finite values")
    return array.astype(np.float64, copy=False)


def check_record(source: str, key: str, value, schema, partial: bool = False):
    """``value`` checked against ``schema``, each ``Numbers`` leaf replaced
    in place by its array. An object needs every key (any, with ``partial``)
    and allows no other; a dataclass stands for its fields' hints. A list,
    also under an optional hint, names its first wrong entry."""
    if isinstance(schema, Numbers):
        return _numbers(source, key, value, schema.ndim)
    if is_dataclass(schema):
        schema = typing.get_type_hints(schema)
    if isinstance(schema, dict):
        if type(value) is not dict:
            named = f"{key!r} is not" if key else "not"
            raise ValueError(f"{source}: {named} a JSON object")
        prefix = f"{key}." if key else ""
        unknown = [k for k in value if k not in schema]
        if unknown:
            raise ValueError(f"{source}: unknown key {prefix + unknown[0]!r}")
        for k, hint in schema.items():
            if k in value:
                value[k] = check_record(source, prefix + k, value[k], hint, partial)
            elif not partial:
                raise ValueError(f"{source}: {prefix + k!r} is missing")
        return value
    if not _fits(schema)(value):
        union = typing.get_origin(schema) in (typing.Union, types.UnionType)
        for arm in typing.get_args(schema) if union else (schema,):
            if typing.get_origin(arm) is tuple and type(value) is list:
                for i, item in enumerate(value):
                    check_record(source, f"{key}.{i}", item, typing.get_args(arm)[0])
        raise ValueError(f"{source}: {key!r} has the wrong type: {reprlib.repr(value)}")
    return value
