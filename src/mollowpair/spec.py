"""Sweep specifications and the figure-preset catalog, without numpy.

A ``SweepSpec`` names the swept parameter and its ``GridSpec``, the fixed
parameters, the observables and the output options; ``as_dict`` and
``from_dict`` turn it into the spec document that output headers, presets and
``parse_json`` share.  The preset catalog (``data/presets.json``) maps each
preset name to a description and such a document.  Nothing here imports numpy
at module level (only ``GridSpec.values`` does), so the command line can list
presets and reject a bad spec before the numerical modules are loaded.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import TYPE_CHECKING

from .errors import SweepSpecError
from .params import CONFIG_KEYS, SystemParams

if TYPE_CHECKING:
    import numpy as np

OBSERVABLES = ("populations", "g2", "spectrum", "decomposition", "eigenvalues")


def _check_keys(kind, doc, names=None) -> None:
    """Raise SweepSpecError unless doc is a dict keyed by exactly names, or kind's fields."""
    names = names or [f.name for f in dataclasses.fields(kind)]
    if not isinstance(doc, dict) or doc.keys() != set(names):
        got = ", ".join(doc) if isinstance(doc, dict) else type(doc).__name__
        raise SweepSpecError(f"a {kind.__name__} document has the keys "
                             f"{', '.join(names)}; got {got}")


def _check_type(name: str, value, kind, noun: str) -> None:
    """Raise SweepSpecError naming the field unless value is a kind; a bool is only a bool."""
    if not isinstance(value, kind) or isinstance(value, bool) != (kind is bool):
        raise SweepSpecError(f"{name} must be {noun}, got {value!r}")


@dataclass(frozen=True)
class GridSpec:
    """One-dimensional sweep grid: endpoints, count and spacing."""

    min: float
    max: float
    count: int
    scale: str = "linear"

    def __post_init__(self):
        for bound in ("min", "max"):
            _check_type(f"grid {bound}", getattr(self, bound), (int, float), "a number")
            if not math.isfinite(getattr(self, bound)):
                raise SweepSpecError(f"grid {bound} must be finite, got {getattr(self, bound)}")
        _check_type("grid count", self.count, int, "an int")
        if self.count < 2:
            raise SweepSpecError(f"grid count must be >= 2, got {self.count}")
        if self.scale not in ("linear", "log"):
            raise SweepSpecError(f"grid scale must be 'linear' or 'log', got {self.scale!r}")
        if self.scale == "log" and self.min <= 0.0:
            raise SweepSpecError(f"log grids require min > 0, got {self.min}")
        if not (self.max > self.min):
            raise SweepSpecError(f"grid needs max > min, got [{self.min}, {self.max}]")
        if self.scale == "linear" and not math.isfinite(self.max - self.min):
            # linspace steps by (max - min) / (count - 1), so an infinite span makes nan and inf
            raise SweepSpecError(f"linear grid span max - min is not finite, "
                                 f"got [{self.min}, {self.max}]")

    def values(self) -> np.ndarray:
        import numpy as np

        if self.scale == "log":
            return np.geomspace(self.min, self.max, self.count)
        return np.linspace(self.min, self.max, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """What to sweep, what to hold fixed, and what to record."""

    param: str
    grid: GridSpec
    fixed: dict[str, float] = field(default_factory=dict)
    observables: tuple[str, ...] = ("populations",)
    fastpath: bool = True
    spectrum_points: int = 2001

    def __post_init__(self):
        # The containers are checked before they are copied: a string would
        # split into characters, a non-dict or a mixed-type key would not sort.
        if not isinstance(self.fixed, dict) or not all(isinstance(k, str) for k in self.fixed):
            raise SweepSpecError(f"fixed must be a dict with string keys, got {self.fixed!r}")
        if (not isinstance(self.observables, (list, tuple))
                or not all(isinstance(obs, str) for obs in self.observables)):
            raise SweepSpecError(f"observables must be a list of strings, "
                                 f"got {self.observables!r}")
        object.__setattr__(self, "fixed", dict(sorted(self.fixed.items())))
        object.__setattr__(self, "observables", tuple(self.observables))
        if self.param not in CONFIG_KEYS:
            raise SweepSpecError(
                f"unknown sweep parameter {self.param!r} (valid: {', '.join(CONFIG_KEYS)})"
            )
        if self.param in self.fixed:
            raise SweepSpecError(f"swept parameter {self.param!r} also appears in fixed parameters")
        for key, value in self.fixed.items():
            if key not in CONFIG_KEYS:
                raise SweepSpecError(f"unknown fixed parameter {key!r}")
            _check_type(f"fixed {key}", value, (int, float), "a number")
        for k, obs in enumerate(self.observables):
            if obs not in OBSERVABLES:
                raise SweepSpecError(
                    f"unknown observable {obs!r} (valid: {', '.join(OBSERVABLES)})"
                )
            if obs in self.observables[:k]:
                raise SweepSpecError(f"observable {obs!r} given twice")
        _check_type("fastpath", self.fastpath, bool, "a bool")
        _check_type("spectrum_points", self.spectrum_points, int, "an int")
        if self.spectrum_points < 9:
            raise SweepSpecError("spectrum_points must be >= 9")

    def point(self, value: float) -> SystemParams:
        return SystemParams(**{**self.fixed, self.param: float(value)})

    def as_dict(self) -> dict:
        """The spec document: every field by name, the grid nested (from_dict's inverse)."""
        return {**vars(self), "grid": dict(vars(self.grid)), "fixed": dict(self.fixed),
                "observables": list(self.observables)}

    @classmethod
    def from_dict(cls, doc: dict) -> SweepSpec:
        """The spec that as_dict wrote doc from; the keys must be exactly the fields."""
        _check_keys(cls, doc)
        _check_keys(GridSpec, doc["grid"])
        return cls(**{**doc, "grid": GridSpec(**doc["grid"])})


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

@functools.cache
def _load_preset_file() -> dict:
    """The preset catalog, read once and shared: callers must not change it."""
    return json.loads(resources.files("mollowpair").joinpath("data/presets.json").read_text())


def preset_names() -> tuple[str, ...]:
    return tuple(sorted(_load_preset_file()["presets"]))


def _preset_entry(name: str) -> dict:
    entry = _load_preset_file()["presets"].get(name)
    if entry is None:
        raise SweepSpecError(f"unknown preset {name!r} (valid: {', '.join(preset_names())})")
    return entry


def preset_description(name: str) -> str:
    return _preset_entry(name)["description"]


def load_preset(name: str) -> SweepSpec:
    """Build the SweepSpec of a named figure-reproduction preset."""
    return SweepSpec.from_dict(_preset_entry(name)["spec"])
