"""Residual bookkeeping and the run-report data model.

Check functions return a :class:`ResidualReport`, a flat list of labeled
residual magnitudes.  Exact-backend residuals that vanish identically
are recorded with ``exact_zero=True`` and no numeric value; everything
else carries a float magnitude to compare against a tolerance.

The CLI aggregates reports into :class:`Report`, whose JSON form is
stable: key order and field names are part of the interface, and two
runs with the same configuration produce byte-identical output except
for ``wall_ms``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from .matrices import Matrix
from .scalars import EXACT


@dataclass(frozen=True)
class ResidualEntry:
    label: str
    equation: str
    backend: str
    residual: Optional[float]  # None only for exact zeros
    exact_zero: bool

    def within(self, tol: float) -> bool:
        if self.exact_zero:
            return True
        return self.residual is not None and self.residual <= tol


@dataclass(frozen=True)
class ResidualReport:
    entries: tuple

    def __iter__(self):
        return iter(self.entries)

    def max_residual(self) -> float:
        return max((e.residual or 0.0 for e in self.entries), default=0.0)

    def all_exact_zero(self) -> bool:
        return all(e.exact_zero for e in self.entries)

    def all_within(self, tol: float) -> bool:
        return all(e.within(tol) for e in self.entries)

    def merged(self, other: "ResidualReport") -> "ResidualReport":
        return ResidualReport(self.entries + other.entries)


def entry_from_matrix(label: str, equation: str, m: Matrix) -> ResidualEntry:
    """Record a residual matrix (value should be zero)."""
    if m.backend == EXACT and m.is_zero:
        return ResidualEntry(label, equation, m.backend, None, True)
    return ResidualEntry(label, equation, m.backend, m.max_abs(), False)


def entry_from_value(label: str, equation: str, backend: str, value: float) -> ResidualEntry:
    """Record an already-measured residual magnitude."""
    if backend == EXACT and value == 0:
        return ResidualEntry(label, equation, backend, None, True)
    return ResidualEntry(label, equation, backend, float(value), False)


# -- CLI-level records -------------------------------------------------------


@dataclass
class CheckRecord:
    """One line of a verification run."""

    check_id: str
    equation: str
    backend: str
    residual: Optional[float]
    exact_zero: bool
    ok: bool

    def to_json_dict(self) -> dict:
        return {
            "id": self.check_id,
            "paper_eq": self.equation,
            "backend": self.backend,
            "residual": self.residual,
            "exact_zero": self.exact_zero,
            "pass": self.ok,
        }


@dataclass
class Report:
    config: dict
    checks: list = field(default_factory=list)
    wall_ms: float = 0.0

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    @property
    def all_ok(self) -> bool:
        return self.failed == 0

    def to_json_dict(self) -> dict:
        return {
            "config": dict(self.config),
            "checks": [c.to_json_dict() for c in self.checks],
            "summary": {"passed": self.passed, "failed": self.failed},
            "wall_ms": self.wall_ms,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def format_human(report: Report) -> str:
    """Fixed-width text rendering of a report."""
    lines = []
    cfg = report.config
    lines.append(
        "run: " + " ".join(f"{k}={_fmt_cfg(v)}" for k, v in cfg.items())
    )
    for c in report.checks:
        status = "PASS" if c.ok else "FAIL"
        if c.exact_zero:
            res = "exact-zero"
        elif c.residual is None:
            res = "raised-as-expected"
        else:
            res = f"{c.residual:.3e}"
        lines.append(
            f"[{status}] {c.check_id:<44} eq={c.equation:<16} "
            f"{c.backend:<6} residual={res}"
        )
    lines.append(
        f"summary: passed={report.passed} failed={report.failed} "
        f"wall_ms={report.wall_ms:.1f}"
    )
    return "\n".join(lines) + "\n"


def _fmt_cfg(v) -> str:
    if isinstance(v, (list, tuple)):
        return ",".join(str(x) for x in v)
    return str(v)
