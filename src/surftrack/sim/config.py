"""Run configuration for the grid simulation."""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields

from ..surface.genome import GenomeLayout
from ..surface.sites import validate_slot_count


class ConfigError(ValueError):
    """A run configuration that cannot be executed as requested."""


# Accepted Python types per declared field type, which this module's
# postponed annotations give as a string; bool, an int subclass, fits
# only a bool field.
_KINDS = {"bool": (bool,), "int": (int,), "float": (int, float), "str": (str,)}


def check_types(cls: type, data: dict, prefix: str = "") -> None:
    """Raise ConfigError unless every ``cls`` field present in ``data``
    holds a value of its declared type; ``prefix`` qualifies the key."""
    for f in fields(cls):
        kinds = _KINDS.get(f.type)
        if kinds is None or f.name not in data:
            continue
        value = data[f.name]
        if not isinstance(value, kinds) or (isinstance(value, bool) and f.type != "bool"):
            raise ConfigError(f"{prefix}{f.name} must be {f.type}, got {value!r}")


@dataclass(frozen=True)
class Treatment:
    """Fitness mutation regime applied after selection each generation.

    * neutral: fitness untouched (the only mode tagged layouts allow).
    * purifying: with probability ``deleterious_p`` per offspring,
      subtract a half-normal magnitude from fitness.
    * adaptive: purifying, plus with probability ``beneficial_p`` add a
      half-normal magnitude.
    """

    mode: str = "neutral"
    deleterious_p: float = 1.0 / 3.0
    deleterious_sigma: float = 1.0
    beneficial_p: float = 0.003
    beneficial_sigma: float = 1.0

    def validate(self) -> None:
        if self.mode not in ("neutral", "purifying", "adaptive"):
            raise ConfigError(f"unknown treatment mode {self.mode!r}")
        for name in ("deleterious_p", "beneficial_p"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} must be a probability, got {p}")
        for name in ("deleterious_sigma", "beneficial_sigma"):
            sigma = getattr(self, name)
            if not (math.isfinite(sigma) and sigma >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {sigma}")


@dataclass(frozen=True)
class GridConfig:
    """Geometry, genome format, and scheduling knobs for one run."""

    width: int
    height: int
    generations: int
    population: int = 32
    layout: str = "tagged"
    policy: str = "tilted"
    slot_count: int = 64
    differentia_bits: int = 1
    tournament_size: int = 5
    torus: bool = False
    loss_rate: float = 0.0
    seed: int = 0
    track_perfect: bool = False
    sample_per_pe: int = 1
    treatment: Treatment = field(default_factory=Treatment)

    RECEIVE_CAPACITY = 4  # migrants accumulated before a stage fires
    # The engine ranks candidates by tie keys that carry the candidate's
    # column in 11 spare bits, so a tournament holds at most 2**11 - 1.
    MAX_TOURNAMENT = 2047

    @property
    def n_pes(self) -> int:
        return self.width * self.height

    def genome_layout(self) -> GenomeLayout:
        return GenomeLayout(self.layout, self.slot_count, self.differentia_bits)

    def validate(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ConfigError(f"grid must be at least 1x1, got {self.width}x{self.height}")
        if self.population < 1:
            raise ConfigError("population per PE must be positive")
        if self.generations < 0:
            raise ConfigError("generations must be non-negative")
        if not 1 <= self.tournament_size <= self.MAX_TOURNAMENT:
            raise ConfigError(
                f"tournament size must be 1..{self.MAX_TOURNAMENT}, got {self.tournament_size}"
            )
        if not 0.0 <= self.loss_rate < 1.0:
            raise ConfigError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.sample_per_pe < 1:
            raise ConfigError("sample_per_pe must be positive")
        try:
            validate_slot_count(self.policy, self.slot_count)
            layout = self.genome_layout()
        except ValueError as err:
            raise ConfigError(str(err)) from None
        self.treatment.validate()
        if self.layout == "tagged" and self.treatment.mode != "neutral":
            raise ConfigError(
                "tagged layout carries no fitness field; "
                f"treatment {self.treatment.mode!r} needs layout='fitness'"
            )
        capacity = layout.counter_capacity
        if self.generations >= capacity:
            raise ConfigError(
                f"{self.generations} generations would overflow the "
                f"{self.layout} layout's deposit counter (capacity {capacity})"
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["treatment"] = asdict(self.treatment)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> GridConfig:
        payload = dict(data)
        treatment = payload.pop("treatment", None)
        if treatment is not None:
            if not isinstance(treatment, dict):
                raise ConfigError("treatment must be a mapping")
            unknown = set(treatment) - {f.name for f in fields(Treatment)}
            if unknown:
                raise ConfigError(f"unknown treatment keys: {sorted(unknown)}")
            check_types(Treatment, treatment, "treatment.")
            payload["treatment"] = Treatment(**treatment)
        unknown = set(payload) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        check_types(cls, payload)
        try:
            return cls(**payload)
        except TypeError as err:
            raise ConfigError(str(err)) from None
