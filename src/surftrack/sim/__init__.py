"""Distributed-style evolution simulation on a grid of processing elements."""

from .config import ConfigError, GridConfig, Treatment
from .engine import DeterministicGrid, SampledGenome
from .tracker import LineageTracker

__all__ = [
    "ConfigError",
    "DeterministicGrid",
    "GridConfig",
    "LineageTracker",
    "SampledGenome",
    "Treatment",
]
