"""Sweep configuration for the command-line driver."""
from __future__ import annotations

import json
import math
import os
from decimal import Decimal
from types import SimpleNamespace

from .errors import InvalidInputError
from .protocols import ProtocolSpec, registry_lookup

SCHEMA = "topowalk/v1"
MAX_POINTS = 2 ** 22  # sweep values x the points one value costs that one run may request
_EXPECTED = {str: "a string", bool: "true or false", int: "an integer", float: "a finite number"}

# The config keys, the only place they are declared: key -> (kind, default,
# help).  A kind is a type, a tuple of the allowed values, a nested key table,
# or [kind] for an object of angle symbol -> kind.  The default ... marks a
# required key; a key whose default is None also takes null.  A top-level key
# with a help text is the --key flag of the sweep commands.  --sweep and
# --link give the values of SWEEP_KEYS and LINK_KEYS in table order.
SWEEP_KEYS = {"symbol": (str, ..., None), "start": (float, ..., None),
              "stop": (float, ..., None), "count": (int, ..., None)}
LINK_KEYS = {"on": (str, ..., None), "scale": (float, ..., None),
             "offset": (float, ..., None)}
KEYS = {
    "schema": ((SCHEMA,), SCHEMA, None),
    "protocol": (str, ..., "registry id, e.g. 1d-phs"),
    "steps": (int, 1, "step number T"),
    "angles": ([float], {}, None),
    "linked": ([LINK_KEYS], {}, None),
    "sweep": (SWEEP_KEYS, ..., None),
    "grid": (int, 64, "momentum grid size per axis"),
    "out": (str, None, "output path (default stdout)"),
    "workers": (int, 1, "worker processes (default 1)"),
    "step_independent": (bool, False, "evaluate the step-independent-coin walk (T=1);"
                                      " needs an angle sweep"),
}


class SweepConfig(SimpleNamespace):
    """The keys of KEYS as attributes, as `config_from_dict` sets them: the
    sweep table's flattened into sweep_<key>, and each linked angle the
    (on, scale, offset) namespace of LINK_KEYS."""

    def validate(self) -> "SweepConfig":
        spec = registry_lookup(self.protocol)  # raises for unknown ids
        if spec.bands != 2:
            raise InvalidInputError(
                f"sweeps need a two-band protocol; {self.protocol!r} has four bands")
        if self.sweep_count < 2:
            raise InvalidInputError("sweep sample count must be >= 2")
        if self.grid < 8:
            raise InvalidInputError("momentum grid size must be >= 8")
        if self.sweep_symbol != "T":
            if self.sweep_symbol not in spec.symbols:
                raise InvalidInputError(
                    f"{self.protocol!r} has no angle {self.sweep_symbol!r};"
                    f" it uses {sorted(spec.symbols)}")
            if self.sweep_symbol in self.angles:
                raise InvalidInputError(
                    f"swept angle {self.sweep_symbol!r} must not also be fixed")
        else:
            for edge in (self.sweep_start, self.sweep_stop):
                if abs(edge - round(edge)) > 1e-12 or round(edge) < 1:
                    raise InvalidInputError("a step-number sweep needs integer bounds >= 1")
                spec.with_params(T=round(edge))  # refuses a step number beyond 64 bits
                if edge >= 2 ** 53:  # a float holds each integer below 2**53 exactly
                    raise InvalidInputError("a step-number sweep needs bounds below"
                                            " 2**53 = 9007199254740992")
            # rounded to integers, a fractional step would repeat step numbers
            step = (self.sweep_stop - self.sweep_start) / (self.sweep_count - 1)
            if abs(step - round(step)) > 1e-12 or round(step) == 0:
                raise InvalidInputError(
                    f"a step-number sweep needs a nonzero integer step; (stop - start)/(count - 1)"
                    f" = {step:g}")
        for sym in self.angles:
            if sym not in spec.symbols:
                raise InvalidInputError(f"{self.protocol!r} has no angle {sym!r}")
        for sym, link in self.linked.items():
            if sym not in spec.symbols:
                raise InvalidInputError(f"{self.protocol!r} has no linked angle {sym!r}")
            if sym == self.sweep_symbol:
                raise InvalidInputError(f"linked angle {sym!r} must not be the swept angle")
            if sym in self.angles:
                raise InvalidInputError(f"linked angle {sym!r} must not also be fixed")
            if link.on != self.sweep_symbol:
                raise InvalidInputError(
                    f"linked angle {sym!r} must follow the swept symbol {self.sweep_symbol!r}")
        if not math.isfinite(self.sweep_stop - self.sweep_start):
            raise InvalidInputError("sweep stop - start must be finite")
        # each T * theta finite at both ends, so between them: no coin overflows
        T = max(self.sweep_start, self.sweep_stop) if self.sweep_symbol == "T" else self.steps
        for edge in (self.sweep_start, self.sweep_stop):
            for sym, theta in {**spec.angles, **self.walk_params(edge)[0]}.items():
                if not math.isfinite(T * theta):
                    raise InvalidInputError(f"rotation angle {sym!r} = {theta!r} at step number"
                                            f" {int(T)} gives a non-finite T * {sym}")
        if self.step_independent and (self.steps != 1 or self.sweep_symbol == "T"):
            raise InvalidInputError("step-independent evaluation requires steps == 1"
                                    " and a sweep over an angle, not T")
        if self.sweep_symbol == "T" and self.steps != 1:
            raise InvalidInputError(
                f"steps {self.steps} conflicts with the sweep over T, which sets the step number")
        if self.workers < 1:
            raise InvalidInputError("workers must be >= 1")
        cpus = os.cpu_count() or 1
        if self.workers > cpus:
            raise InvalidInputError(
                f"workers {self.workers} exceeds the {cpus} CPUs of this machine")
        return self

    def sweep_values(self):
        """The sweep's values: ints for a sweep over T, computed in integers,
        floats for an angle."""
        n = self.sweep_count
        if self.sweep_symbol == "T":
            start = round(self.sweep_start)
            step = (round(self.sweep_stop) - start) // (n - 1)
            return [start + i * step for i in range(n)]
        step = (self.sweep_stop - self.sweep_start) / (n - 1)
        return [self.sweep_start + i * step for i in range(n)]

    def walk_params(self, value):
        """(angles, T) of the walk at sweep value `value`: the fixed angles,
        the swept angle or step number, and each linked angle scale * value +
        offset (the step-independent-coin walk has steps == 1, which
        `validate` enforces).  `value` may be an array; the swept angle, the
        linked angles and a swept T then have its shape.  This is how every
        sweep command binds a chunk's walks: an array of its values gives the
        angles and T that the plan, or `topology`'s stack of walks
        (`protocols.stacked_params`), takes, and the plan's compile checks
        each value's step number and finite T * theta."""
        angles = dict(self.angles)
        if self.sweep_symbol == "T":
            T = value
        else:
            T = self.steps
            angles[self.sweep_symbol] = value
        for sym, link in self.linked.items():
            angles[sym] = link.scale * value + link.offset
        return angles, T

    def spec_at(self, value) -> ProtocolSpec:
        """The walk at the sweep value `value`, bound by `registry_lookup`."""
        angles, T = self.walk_params(value)
        return registry_lookup(self.protocol, T=T, angles=angles)


def _object(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidInputError(f"{path or 'config document'} must be a JSON object, got {value!r}")
    return value


def _fields(obj, table: dict, path: str) -> SimpleNamespace:
    """The keys of the JSON object `obj` read by `table`; an unknown, missing
    or ill-typed key is a usage error that names it by its path."""
    prefix = path + "." if path else ""
    for key in _object(obj, path):
        if key not in table:
            raise InvalidInputError(f"{prefix}{key} is not a config key;"
                                    f" expected one of {', '.join(sorted(table))}")
    values = {}
    for key, (kind, default, _) in table.items():
        value = obj.get(key, default)
        if value is Ellipsis:
            raise InvalidInputError(f"{prefix}{key} missing from config")
        values[key] = None if value is None and default is None else _convert(kind, value,
                                                                                prefix + key)
    return SimpleNamespace(**values)


def _convert(kind, value, path: str):
    """`value` as `kind` (see KEYS), named by its `path` in a usage error.  A
    number may be text, as a flag gives it; booleans are not numbers, numbers
    must be finite, and an integer may be the JSON number 3.0 or the text
    "3.0" but not 2.7.  Integer text is read exactly, as a Decimal, not
    through float; float() of it first refuses one beyond any float."""
    if isinstance(kind, dict):
        return _fields(value, kind, path)
    if isinstance(kind, list):
        return {sym: _convert(kind[0], v, f"{path}.{sym}")
                for sym, v in _object(value, path).items()}
    if kind in (int, float):
        try:
            exact = Decimal(value) if kind is int and isinstance(value, str) else value
            if not isinstance(value, bool) and math.isfinite(float(exact)):
                number = kind(exact)
                if not (isinstance(exact, (float, Decimal)) and number != exact):
                    return number
        except (TypeError, ValueError, ArithmeticError):
            pass
    elif value in kind if isinstance(kind, tuple) else isinstance(value, kind):
        return value
    expected = _EXPECTED.get(kind) or " or ".join(map(repr, kind))
    raise InvalidInputError(f"{path} must be {expected}, got {value!r}")


def config_from_dict(doc: dict) -> SweepConfig:
    """The sweep config of the JSON object `doc`, read by KEYS."""
    fields = {}
    for key, value in vars(_fields(doc, KEYS, "")).items():
        if isinstance(value, SimpleNamespace):  # a nested table: sweep.start -> sweep_start
            fields.update((f"{key}_{sub}", v) for sub, v in vars(value).items())
        else:
            fields[key] = value
    return SweepConfig(**fields)


def read_document(path: str) -> dict:
    """The JSON object in the file `path`; an unreadable file is a usage error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as err:
        # ValueError covers undecodable bytes and invalid JSON
        raise InvalidInputError(f"config {path!r} is not a readable JSON file: {err}") from None
    return _object(doc, "")
