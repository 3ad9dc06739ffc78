"""Allowed values of config fields, each declared once on its dataclass field.

``rule`` makes a field whose metadata holds its range, and ``check`` tests
values against those rules: a ``__post_init__`` checks every field, and a file
loader one key at a time, so the key named and the reason given come from the
same entry. Rules that relate two fields stay in the ``__post_init__``.
"""

from __future__ import annotations

import sys
from dataclasses import MISSING, field


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
            raise ValueError(f"{name} must be one of {choices}, got {value!r}")
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
