"""Config schema: one frozen dataclass per JSON section, the typed loader
that builds them from parsed JSON, --set overrides, and validation.

`config_from_dict` rejects unknown keys and mistyped values at every
level, then validates.  The kinds, targets and solvers a config may name,
the kappa each driver accepts and each driver's own checks come from the
`DRIVERS` table of the experiments module.
"""
from __future__ import annotations

import json
import math
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from typing import Literal, get_args, get_origin, get_type_hints

import numpy as np

from .errors import ConfigError
from .experiments import DRIVERS, KINDS, NAMED, SELECTORS
from .fields import ComplexField
from .grids import PeriodicGrid
from .potentials import InitialPhaseSpec, PotentialSpec
from .problem import SUPPORTED_KAPPA, SemiclassicalProblem, gaussian_field

GRID_LENGTH = 32.0     # the box [-16, 16) that stands in for the line

# one frozen dataclass per JSON section; a Literal field takes only the
# values it lists


def _refuse_unread(section, label: str, selector: str, reads: dict) -> None:
    """Refuse a field of `section`, the config section `label`, that is off
    its default but not read under the value of its `selector` field, so
    that setting it cannot look like it changed the run.  `reads` maps a
    value to the fields it reads; a value it does not list reads them all."""
    choice = getattr(section, selector)
    if choice not in reads:
        return
    default = type(section)()
    for f in fields(section):
        if (f.name not in (selector, *reads[choice])
                and getattr(section, f.name) != getattr(default, f.name)):
            raise ConfigError(f'{label}.{f.name} is not read under {label}.{selector} '
                              f'"{choice}"; leave it out')


@dataclass(frozen=True)
class FieldSpecConfig:
    """Selector for one profile of initial data."""
    shape: Literal["gaussian", "constant", "zero"] = "gaussian"
    amplitude: float = 1.0
    width: float = 1.0
    center: float = 0.0
    imaginary: bool = False
    chirp: float = 0.0

    def validate(self, label: str) -> None:
        if self.shape == "gaussian" and self.width <= 0:
            raise ConfigError(f"{label}.width must be positive")
        # an unenveloped quadratic phase is not periodic on the box
        if self.chirp != 0.0 and self.shape != "gaussian":
            raise ConfigError(f"{label}.chirp needs a gaussian envelope")
        _refuse_unread(self, label, "shape", {"constant": ("amplitude", "imaginary"),
                                              "zero": ()})

    def build(self, grid: PeriodicGrid, role: str) -> ComplexField:
        if self.shape == "zero":
            return ComplexField.zeros(grid, role=role)
        if self.shape == "constant":
            vals = np.full(grid.size, complex(self.amplitude))
        else:
            vals = gaussian_field(grid, width=self.width, amplitude=self.amplitude,
                                  center=self.center, role=role).values.astype(complex)
            if self.chirp != 0.0:
                arg = (grid.nodes - self.center) ** 2
                vals = vals * np.exp(1j * self.chirp * arg)
        if self.imaginary:
            vals = 1j * vals
        return ComplexField(grid, vals, role=role)


@dataclass(frozen=True)
class GridConfig:
    size: int = 1024

    def build(self, size: int | None = None) -> PeriodicGrid:
        return PeriodicGrid(GRID_LENGTH, size or self.size)


@dataclass(frozen=True)
class DataConfig:
    a0: FieldSpecConfig = field(default_factory=FieldSpecConfig)
    a1: FieldSpecConfig | None = None     # first-order data correction
    b0: FieldSpecConfig | None = None     # instability perturbation


@dataclass(frozen=True)
class PotentialConfig:
    kind: Literal["zero", "cosine"] = "zero"
    amplitude: float = 0.0
    cycles: int = 1

    def build(self, length: float) -> PotentialSpec:
        if self.kind == "zero":
            return PotentialSpec.zero()
        return PotentialSpec.cosine(self.amplitude, length, self.cycles)


@dataclass(frozen=True)
class PhaseConfig:
    kind: Literal["zero", "quadratic"] = "zero"
    curvature: float = 0.0

    def build(self) -> InitialPhaseSpec:
        if self.kind == "zero":
            return InitialPhaseSpec.zero()
        return InitialPhaseSpec.quadratic(self.curvature)


@dataclass(frozen=True)
class TimeConfig:
    final: float = 0.2


@dataclass(frozen=True)
class InstabilityConfig:
    alpha: float = 0.5


@dataclass(frozen=True)
class OutputConfig:
    dump_fields: bool = False


@dataclass(frozen=True)
class ExperimentConfig:
    kind: Literal[KINDS]
    eps: tuple[float, ...]
    kappa: float = 0.0
    grid: GridConfig = field(default_factory=GridConfig)
    data: DataConfig = field(default_factory=DataConfig)
    potential: PotentialConfig = field(default_factory=PotentialConfig)
    phase: PhaseConfig = field(default_factory=PhaseConfig)
    time: TimeConfig = field(default_factory=TimeConfig)
    instability: InstabilityConfig = field(default_factory=InstabilityConfig)
    target: Literal[NAMED["target"]] | None = None
    solver: Literal[NAMED["solver"]] | None = None
    output: OutputConfig = field(default_factory=OutputConfig)

    @property
    def driver(self) -> str | None:
        """Its key in DRIVERS: the solver of a single run, the target of a
        convergence run, the kind of any other run."""
        key = SELECTORS.get(self.kind)
        return getattr(self, key) if key else self.kind

    def validate(self) -> None:
        eps = self.eps
        if not eps:
            raise ConfigError("eps list is empty")
        if any(e <= 0 or e > 1 for e in eps):
            raise ConfigError("eps values must lie in (0, 1]")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ConfigError("eps list must be strictly decreasing")
        if self.kappa not in SUPPORTED_KAPPA:
            raise ConfigError("kappa must be 0, 1 or 2")
        size = self.grid.size
        if size < 8 or size & (size - 1):
            raise ConfigError(f"grid size must be a power of two >= 8, got {size}")
        for label in ("a0", "a1", "b0"):
            spec = getattr(self.data, label)
            if spec is not None:
                spec.validate(f"data.{label}")
        _refuse_unread(self.potential, "potential", "kind", {"zero": ()})
        _refuse_unread(self.phase, "phase", "kind", {"zero": ()})
        if self.time.final <= 0:
            raise ConfigError("t_final must be positive")
        key = SELECTORS.get(self.kind)
        if key and getattr(self, key) is None:
            raise ConfigError(f"{self.kind} runs need a {key}, one of {NAMED[key]}")
        spec = DRIVERS[self.driver]
        if spec.kappas is not None and self.kappa not in spec.kappas:
            allowed = " or ".join(f"kappa={k!r}" for k in spec.kappas)
            raise ConfigError(f"{key} {self.driver} requires {allowed}" if key
                              else f"{self.kind} runs require {allowed}")
        if self.kind == "single" and len(eps) != 1:
            raise ConfigError(f"{self.kind} runs take one eps, got {len(eps)}")
        if spec.flat and (self.potential.kind != "zero" or self.phase.kind != "zero"):
            raise ConfigError(f"{self.kind} runs require V=0 and zero initial phase")
        for check in spec.checks:
            check(self)

    def problem(self, eps: float, size: int | None = None) -> SemiclassicalProblem:
        """The problem at `eps`, on the configured grid or on `size` nodes."""
        grid = self.grid.build(size)
        a0 = self.data.a0.build(grid, role="initial-amplitude")
        a1 = None
        if self.data.a1 is not None:
            a1 = self.data.a1.build(grid, role="amplitude-correction-1")
        return SemiclassicalProblem(eps=eps, kappa=self.kappa, a0=a0, a1=a1,
                                    potential=self.potential.build(grid.length),
                                    phase=self.phase.build())



_TYPE_NAMES = {float: "a number", int: "an integer", bool: "a boolean"}


def _load(tp, value, path: str):
    """Build a value of the annotated type `tp` from parsed JSON; `path`
    names it in errors.  A dataclass comes from an object whose keys are
    its fields, a tuple from a list, a Literal from one of its values, and
    `X | None` also from null.  An integer may stand for a float, and a
    float must be finite; every other mismatch is a ConfigError."""
    if type(None) in get_args(tp):
        if value is None:
            return None
        (tp,) = (a for a in get_args(tp) if a is not type(None))
    if get_origin(tp) is Literal:
        if value not in get_args(tp):
            raise ConfigError(f"{path} must be one of {get_args(tp)}, got {value!r}")
        return value
    if is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config'} must be an object")
        hints = get_type_hints(tp)
        unknown = set(value) - set(hints)
        if unknown:
            raise ConfigError(f"unknown keys in {path or 'config'}: {sorted(unknown)}")
        missing = [f.name for f in fields(tp) if f.name not in value
                   and f.default is MISSING and f.default_factory is MISSING]
        if missing:
            raise ConfigError(f"config is missing {missing[0]!r}")
        return tp(**{key: _load(hints[key], item, f"{path}.{key}" if path else key)
                     for key, item in value.items()})
    if get_origin(tp) is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{path} must be a list")
        return tuple(_load(get_args(tp)[0], item, f"{path}[{i}]")
                     for i, item in enumerate(value))
    if tp is float and type(value) is int:
        return float(value)
    if type(value) is not tp:
        raise ConfigError(f"{path} must be {_TYPE_NAMES[tp]}, got {value!r}")
    if tp is float and not math.isfinite(value):   # json reads NaN, Infinity
        raise ConfigError(f"{path} must be a finite number, got {value}")
    return value


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Load the nested JSON schema and validate it; unknown keys and
    mistyped values are rejected at every level, so a typo cannot silently
    disable a knob."""
    config = _load(ExperimentConfig, raw, "")
    config.validate()
    return config


def apply_overrides(raw: dict, overrides: list[str]) -> dict:
    """Apply CLI --set key.path=value pairs onto the raw config dict.

    Values parse as JSON when possible and fall back to plain strings, so
    --set time.final=0.3 and --set target=critical both work.
    """
    out = {k: v for k, v in raw.items()}
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not of the form key=value")
        path, text = item.split("=", 1)
        try:
            value = json.loads(text)
        except json.JSONDecodeError:
            value = text
        keys = path.split(".")
        node = out
        for k in keys[:-1]:
            nxt = node.get(k)
            if not isinstance(nxt, dict):
                nxt = {}
            node[k] = dict(nxt)
            node = node[k]
        node[keys[-1]] = value
    return out


# every key at its default; kind and eps have none, and every driver reads
# them.  Plan.build compares a config with it to find a key set that its
# driver does not read.
DEFAULTS = ExperimentConfig(kind=None, eps=())
