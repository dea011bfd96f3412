"""Outcome record shared by every identity/verification check."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any


@dataclass(frozen=True)
class IdentityReport:
    """Result of one verification.

    ``mode`` is one of exact-symbolic (canonical-form equality),
    randomized-exact (exact rational evaluation at random points) or numeric
    (floating point, e.g. residues at solved Bethe roots).  ``max_deviation``
    is an exact Fraction in the first two modes and a float in numeric mode.
    """

    name: str
    mode: str
    samples: int
    max_deviation: Fraction | float
    passed: bool
    details: dict[str, Any] = field(default_factory=dict)
    seed: int | None = None

    def to_json(self) -> dict:
        dev = self.max_deviation
        return {
            "schema": 1,
            "name": self.name,
            "mode": self.mode,
            "samples": self.samples,
            "max_deviation": str(dev) if isinstance(dev, Fraction) else float(dev),
            "passed": self.passed,
            "details": self.details,
            "seed": self.seed,
        }


def exact_report(name: str, passed: bool, samples: int = 1,
                 details: dict | None = None,
                 seed: int | None = None) -> IdentityReport:
    """An exact-symbolic report: its deviation is 0 whether it passed or not."""
    return IdentityReport(name=name, mode="exact-symbolic", samples=samples,
                          max_deviation=Fraction(0), passed=passed,
                          details=details or {}, seed=seed)


def merge_reports(name: str, reports: list[IdentityReport]) -> IdentityReport:
    """Collapse sub-checks, at least one, into one report; fails if any
    sub-check fails."""
    worst = max((r.max_deviation for r in reports), key=abs)
    mode = "numeric" if any(r.mode == "numeric" for r in reports) else (
        "randomized-exact" if any(r.mode == "randomized-exact" for r in reports)
        else "exact-symbolic")
    return IdentityReport(
        name=name, mode=mode,
        samples=sum(r.samples for r in reports),
        max_deviation=worst,
        passed=all(r.passed for r in reports),
        details={"checks": [r.to_json() for r in reports]},
        seed=reports[0].seed)
