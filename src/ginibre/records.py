"""Result records shared by the samplers, pipelines and CLI."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

import numpy as np

METHODS = ("matrix", "projected_disk", "conditioned")


@dataclass
class RejectionDiagnostics:
    """Counters for the rejection sampler; one instance per run."""

    proposals: int = 0
    acceptances: int = 0

    def record_step(self, proposals: int) -> None:
        self.proposals += proposals
        self.acceptances += 1

    @property
    def acceptance_rate(self) -> float:
        return self.acceptances / self.proposals if self.proposals else float("nan")


@dataclass
class SampleSet:
    """One realization of a point process.

    points is a 1-D complex array; method is one of METHODS; params holds
    the generating parameters (N and/or R, target radius, epsilon); seed
    is the 64-bit stream seed that reproduces the draw.
    """

    points: np.ndarray
    method: str
    params: dict
    seed: int
    diagnostics: Optional[RejectionDiagnostics] = None
    notes: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        self.points = np.asarray(self.points, dtype=complex).ravel()

    def __len__(self) -> int:
        return len(self.points)

    def radii(self) -> np.ndarray:
        return np.abs(self.points)

    def to_dict(self) -> dict[str, Any]:
        out = {
            "method": self.method,
            "params": self.params,
            "seed": int(self.seed),
            "points": [[z.real, z.imag] for z in self.points],
        }
        if self.diagnostics is not None and self.diagnostics.proposals:
            out["diagnostics"] = {
                "proposals": self.diagnostics.proposals,
                "acceptances": self.diagnostics.acceptances,
                "acceptance_rate": self.diagnostics.acceptance_rate,
            }
        return out
