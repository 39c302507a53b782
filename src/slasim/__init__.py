"""Simulator and policies for online resource sharing with SLAs.

A single divisible resource (normalized to 1 per step) is shared by N
users over T discrete steps.  The decision maker sees only which users
have backlogged work (binary busy/idle feedback), never load or queue
magnitudes, and must split the resource so that each user's service
tracks at least their contracted share (SLA) while wasting as little
capacity as possible.
"""

from slasim.core import (
    InvariantViolation,
    LemmaViolation,
    LoadExhausted,
    PolicyParams,
    SimulationTrace,
    SlaVector,
    run,
    run_batch,
)
from slasim.projection import project_truncated_simplex

__all__ = [
    "InvariantViolation",
    "LemmaViolation",
    "LoadExhausted",
    "PolicyParams",
    "SimulationTrace",
    "SlaVector",
    "run",
    "run_batch",
    "project_truncated_simplex",
]

__version__ = "0.1.0"
