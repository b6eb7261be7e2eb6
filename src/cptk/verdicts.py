"""Bound-annotated verdicts shared across the decision procedures.

Every search over an infinite object space ends in one of three ways:
certified with a witness, refuted with a witness, or unknown up to the
bounds that were actually exhausted.  No procedure in this package claims
more than its bounds support, and every verdict records those bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

CERTIFIED = "certified"
REFUTED = "refuted"
UNKNOWN = "unknown"


def validate_horizon(horizon: int) -> None:
    """A window needs at least one word: lex(0..horizon) with horizon at
    least 0.  Anything less would label a verdict with an empty window."""
    if horizon < 0:
        raise ValueError(f"horizon must be at least 0, got {horizon}")


@dataclass(frozen=True)
class Verdict:
    """Outcome of a yes/no question about languages.

    ``exact`` is True when the answer was proven by automata rather than
    observed on a finite window.
    """

    status: str
    exact: bool = False
    witness: str | None = None
    horizon: int | None = None
    detail: dict = field(default_factory=dict)

    @property
    def is_certified(self) -> bool:
        return self.status == CERTIFIED

    @property
    def is_refuted(self) -> bool:
        return self.status == REFUTED

    @property
    def is_unknown(self) -> bool:
        return self.status == UNKNOWN

    def to_json(self) -> dict:
        out: dict[str, Any] = {"status": self.status, "exact": self.exact}
        if self.witness is not None:
            out["witness"] = self.witness
        if self.horizon is not None:
            out["horizon"] = self.horizon
        if self.detail:
            out["detail"] = self.detail
        return out


FINITE = "finite"
INFINITE = "infinite"


@dataclass(frozen=True)
class FinitenessVerdict:
    """Finite with an exact count, infinite with a pumping witness, or
    unknown up to a scan horizon (then ``count`` is the members seen)."""

    kind: str
    exact: bool
    count: int | None = None
    horizon: int | None = None
    witness: dict | None = None

    @property
    def is_finite(self) -> bool:
        return self.kind == FINITE

    @property
    def is_infinite(self) -> bool:
        return self.kind == INFINITE

    @property
    def is_unknown(self) -> bool:
        return self.kind == UNKNOWN

    def to_json(self) -> dict:
        out: dict[str, Any] = {"kind": self.kind, "exact": self.exact}
        if self.count is not None:
            out["count"] = self.count
        if self.horizon is not None:
            out["horizon"] = self.horizon
        if self.witness is not None:
            out["witness"] = self.witness
        return out
