"""Sweep configuration for the command-line driver."""
from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Dict, Optional

from .errors import InvalidInputError
from .protocols import ProtocolSpec, registry_lookup

SCHEMA = "topowalk/v1"
MAX_POINTS = 2 ** 22  # sweep values x grid points per value that one run may request
TOP_KEYS = ("schema", "protocol", "steps", "angles", "linked", "sweep", "grid", "phi",
            "out", "workers", "step_independent")
SWEEP_KEYS = ("symbol", "start", "stop", "count")
LINK_KEYS = ("on", "scale", "offset")


@dataclass
class LinkedAngle:
    on: str
    scale: float
    offset: float


@dataclass
class SweepConfig:
    protocol: str
    sweep_symbol: str  # angle symbol or "T"
    sweep_start: float
    sweep_stop: float
    sweep_count: int
    steps: int = 1
    angles: Dict[str, float] = field(default_factory=dict)
    linked: Dict[str, LinkedAngle] = field(default_factory=dict)
    grid: int = 64
    phi: Optional[float] = None
    out: Optional[str] = None
    workers: int = 1
    step_independent: bool = False

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
            if sym in self.angles:
                raise InvalidInputError(f"linked angle {sym!r} must not also be fixed")
            if link.on != self.sweep_symbol:
                raise InvalidInputError(
                    f"linked angle {sym!r} must follow the swept symbol {self.sweep_symbol!r}")
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
        points = self.sweep_count * self.grid ** spec.dimension
        if points > MAX_POINTS:
            raise InvalidInputError(
                f"sweep count x grid^{spec.dimension} = {points} momentum points exceeds"
                f" the budget of {MAX_POINTS}")
        return self

    def sweep_values(self):
        n = self.sweep_count
        step = (self.sweep_stop - self.sweep_start) / (n - 1)
        vals = [self.sweep_start + i * step for i in range(n)]
        if self.sweep_symbol == "T":
            return [int(round(v)) for v in vals]
        return vals

    def walk_params(self, value):
        """(angles, T) of the walk at sweep value `value`: the fixed angles,
        the swept angle or step number, each linked angle scale * value +
        offset, and T = 1 for the step-independent-coin walk.  `value` may be
        an array; the swept angle, the linked angles and a swept T then have
        its shape and broadcast as `compile_plan` broadcasts them."""
        angles = dict(self.angles)
        if self.sweep_symbol == "T":
            T = value
        else:
            T = self.steps
            angles[self.sweep_symbol] = value
        for sym, link in self.linked.items():
            angles[sym] = link.scale * value + link.offset
        return angles, (1 if self.step_independent else T)

    def spec_at(self, value) -> ProtocolSpec:
        angles, T = self.walk_params(int(value) if self.sweep_symbol == "T" else float(value))
        return registry_lookup(self.protocol, T=T, angles=angles, phi=self.phi)


def section(doc: dict, key: str) -> dict:
    """The JSON object under `key` (empty if absent); anything else is a usage error."""
    value = doc.get(key) or {}
    if not isinstance(value, dict):
        raise InvalidInputError(f"{key} must be a JSON object, got {value!r}")
    return value


def _known(obj: dict, keys, where: str = ""):
    """Reject any key of `obj` outside `keys`, naming it with its path."""
    for key in obj:
        if key not in keys:
            raise InvalidInputError(f"{where}{key} is not a config key;"
                                    f" expected one of {', '.join(sorted(keys))}")


def _convert(kind, value, key: str):
    """`value` as `kind`; booleans and, for int, non-integral numbers are rejected
    (an integral float such as the --sweep count 3.0 is accepted)."""
    try:
        if isinstance(value, bool) or (
                kind is int and isinstance(value, float) and not value.is_integer()):
            raise ValueError(value)
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError(
            f"{key} must be {'an integer' if kind is int else 'a number'}, got {value!r}") from None


def config_from_dict(doc: dict) -> SweepConfig:
    if not isinstance(doc, dict):
        raise InvalidInputError("config document must be a JSON object")
    schema = doc.get("schema", SCHEMA)
    if schema != SCHEMA:
        raise InvalidInputError(f"unsupported config schema {schema!r} (expected {SCHEMA!r})")
    _known(doc, TOP_KEYS)
    sweep = section(doc, "sweep")
    _known(sweep, SWEEP_KEYS, "sweep.")
    for key in SWEEP_KEYS:
        if key not in sweep:
            raise InvalidInputError(f"sweep.{key} missing from config")
    linked = {}
    for sym, entry in section(doc, "linked").items():
        if not isinstance(entry, dict):
            raise InvalidInputError(f"linked.{sym} must be a JSON object, got {entry!r}")
        _known(entry, LINK_KEYS, f"linked.{sym}.")
        for key in LINK_KEYS:
            if key not in entry:
                raise InvalidInputError(f"linked.{sym}.{key} missing from config")
        linked[sym] = LinkedAngle(on=entry["on"],
                                  scale=_convert(float, entry["scale"], f"linked.{sym}.scale"),
                                  offset=_convert(float, entry["offset"], f"linked.{sym}.offset"))
    out = doc.get("out")
    if out is not None and not isinstance(out, str):
        raise InvalidInputError(f"out must be a string or null, got {out!r}")
    step_independent = doc.get("step_independent", False)
    if not isinstance(step_independent, bool):
        raise InvalidInputError(
            f"step_independent must be true or false, got {step_independent!r}")
    cfg = SweepConfig(
        protocol=doc.get("protocol", ""),
        sweep_symbol=str(sweep["symbol"]),
        sweep_start=_convert(float, sweep["start"], "sweep.start"),
        sweep_stop=_convert(float, sweep["stop"], "sweep.stop"),
        sweep_count=_convert(int, sweep["count"], "sweep.count"),
        steps=_convert(int, doc.get("steps", 1), "steps"),
        angles={k: _convert(float, v, f"angles.{k}") for k, v in section(doc, "angles").items()},
        linked=linked,
        grid=_convert(int, doc.get("grid", 64), "grid"),
        phi=_convert(float, doc["phi"], "phi") if "phi" in doc else None,
        out=out,
        workers=_convert(int, doc.get("workers", 1), "workers"),
        step_independent=step_independent,
    )
    return cfg


def load_config(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as err:
            raise InvalidInputError(f"config {path!r} is not valid JSON: {err}") from None
    return config_from_dict(doc)
