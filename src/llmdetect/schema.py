"""One declared kind and bound per setting, and the one checker that reads them.

Settings reach the program from INI files, from bundles and from callers.
Each field declares once what it may hold, as a ``Rule``: an integer (an
int, not a bool), a finite number (an int or a float, not a bool, inside
the float range), a boolean, a string, a list, an object, or one of a few
names; a number may also be bounded, closed or open at the low end.
``Rule.check`` refuses a value outside its rule with one error that names
the field.  A finite number is kept as given, never coerced, so a bundle
saves to the bytes it was loaded from.

Config dataclasses declare each field with ``declared(default, rule)`` and
check them all with ``check_fields``; ``build`` makes one from a mapping,
refusing a non-object or an unknown or missing key by name, as
``object_with`` does for every JSON document the program reads.
"""

from __future__ import annotations

import math
import numbers
import reprlib
import sys
from dataclasses import field, fields
from typing import NamedTuple

import numpy as np

_FLOAT_MAX = sys.float_info.max
# The class a value of each kind is an instance of.
_CLASSES = {int: numbers.Integral, float: numbers.Real, bool: bool, str: str,
            list: list, dict: dict}
_WANTED = {int: "an integer", float: "a finite number", bool: "true or false",
           str: "a string", list: "a list", dict: "an object"}


class Rule(NamedTuple):
    """``kind`` is int, float (a finite number), bool, str, list, dict (a
    JSON object), or a tuple of the names the field may hold.  A number
    lies in [low, high], or in (low, high] if ``low_open``; an unset bound
    is no bound, and a high bound comes with a low one.  ``null`` admits
    None too.  A plain rule, unbounded and not of floats, admits any value
    of exactly its kind's type."""

    kind: type | tuple[str, ...]
    low: float | None = None
    high: float | None = None
    low_open: bool = False
    null: bool = False

    def admits(self, value) -> bool:
        if type(value) is self.kind and self.low is None and \
                self.kind is not float:
            return True
        if value is None:
            return self.null
        if isinstance(self.kind, tuple):
            return isinstance(value, str) and value in self.kind
        return isinstance(value, bool) == (self.kind is bool) and \
            isinstance(value, _CLASSES[self.kind]) and self._in_bounds(value)

    def _in_bounds(self, value) -> bool:
        # a finite number is no NaN or infinity, and an int one fits a float
        if self.kind is float and not (
                -_FLOAT_MAX <= value <= _FLOAT_MAX
                if isinstance(value, numbers.Integral) else math.isfinite(value)):
            return False
        if self.low is not None and (value <= self.low if self.low_open
                                     else value < self.low):
            return False
        return self.high is None or value <= self.high

    def check(self, name: str, value, error) -> None:
        """Raise error, naming the field, unless the rule admits value."""
        if not self.admits(value):
            wanted = self._wanted(value) + (" or null" if self.null else "")
            # reprlib cuts a long value short, so the line stays readable
            raise error(f"{name} must be {wanted}, got {reprlib.repr(value)}")

    def check_each(self, name: str, values, error) -> None:
        """Check that values is a list whose every item the rule admits.

        A plain rule checks a list in C by the set of its items' types, a
        number rule a list of plain ints and floats by its sum, least and
        greatest items; any other list, or one that fails, is checked item
        by item, so an error names the first bad item."""
        if not isinstance(values, list):
            raise error(f"{name} must be a list, got {type(values).__name__}")
        types = set(map(type, values))
        if types <= {self.kind} and self.low is None and self.kind is not float:
            return
        if values and self.kind in (int, float) and types <= {int, self.kind}:
            try:
                # a finite sum rules out NaN and infinities
                if (self.kind is int or self._in_bounds(sum(values))) and \
                        self._in_bounds(min(values)) and \
                        self._in_bounds(max(values)):
                    return
            except OverflowError:  # an int beyond the float range
                pass
        for i, value in enumerate(values):
            self.check(f"{name}[{i}]", value, error)

    def _wanted(self, value) -> str:
        if isinstance(self.kind, tuple):
            return " or ".join([", ".join(self.kind[:-1]), self.kind[-1]])
        if self.kind is int and Rule(int).admits(value):
            return self._bounds()
        bounds = self._bounds() if self.kind is float else ""
        return " ".join(filter(None, (_WANTED[self.kind], bounds)))

    def _bounds(self) -> str:
        if self.low is None:
            return ""
        if self.high == self.low:
            return f"equal to {self.low}"
        if self.high is not None:
            return f"in {'(' if self.low_open else '['}{self.low}, {self.high}]"
        return f"{'>' if self.low_open else '>='} {self.low}"


def declared(default, rule: Rule):
    """A dataclass field with its default and the rule its values keep."""
    return field(default=default, metadata={"rule": rule})


def check_fields(config, error) -> None:
    """Check every field of a dataclass against its declared rule."""
    for f in fields(config):
        f.metadata["rule"].check(f.name, getattr(config, f.name), error)


def object_with(data, keys, where: str, error, optional=()) -> dict:
    """data, once checked to be an object of the keys and optional ones; a
    refusal names the first unknown key and the first missing one."""
    if not isinstance(data, dict):
        raise error(f"{where}: expected an object, got {type(data).__name__}")
    unknown = [key for key in data if key not in keys and key not in optional]
    missing = [key for key in keys if key not in data]
    if unknown or missing:
        faults = [f"unknown key {reprlib.repr(key)}" for key in unknown[:1]]
        faults += [f"missing key {key!r}" for key in missing[:1]]
        raise error(f"{where}: {'; '.join(faults)}")
    return data


def binary_labels(labels, error) -> np.ndarray:
    """labels as int64, each checked to equal 0 or 1 (0.7 is refused, not
    truncated); labels that are not all numbers are compared as given."""
    y = np.asarray(labels)
    if y.dtype.kind not in "biuf":
        y = np.array(labels, dtype=object)
    if y.ndim != 1:
        raise error(f"labels must be a flat sequence, got {y.ndim} dimensions")
    bad = (y != 0) & (y != 1)
    if bad.any():
        shown = reprlib.repr(y.tolist()[bad.argmax()])
        raise error(f"label {shown} is not 0 or 1")
    return (y == 1).astype(np.int64)


def build(cls, data, where: str, error):
    """A cls dataclass from an object holding exactly its fields."""
    keys = [f.name for f in fields(cls)]
    return cls(**object_with(data, keys, where, error))
