"""Residual bookkeeping and the run-report data model.

A residual function states its claims as relations, ``(label,
equation, value)`` triples, and every residual becomes a
:class:`ResidualEntry` through one constructor, :func:`residual_entry`;
:func:`residual_report` measures a sequence of relations into a
:class:`ResidualReport`, a flat list in report order.  Exact-backend
residuals that vanish identically are recorded with ``exact_zero=True``
and no numeric value; everything else carries its :func:`magnitude`,
the largest as scanned by ``kernels.max_abs``, which propagates NaN.
A caller that needs only that float, like the fuzz driver, reads
``magnitude`` and builds no entry.

A check judges its entry by its kind and bound:

* ``EXACT_ZERO`` passes only when the residual vanishes identically; an
  ordinary check on the exact backend is of this kind;
* ``WITHIN`` passes when the residual is at most the bound, a tolerance;
  an ordinary check on the float backend is of this kind;
* ``CONTROL`` is a negative control: it passes when the residual exceeds
  the bound, its floor;
* ``RAISES`` is a negative control with no residual: it passes when the
  expected exception was raised, and its bound is that outcome.

A NaN residual compares false with every bound, so it fails every kind
that has a residual; the JSON report writes it as ``NaN``.

The CLI aggregates the judged checks into :class:`Report`, whose JSON
form is stable: key order and field names are part of the interface,
and two runs with the same configuration produce byte-identical output
except for ``wall_ms``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import kernels
from .scalars import EXACT

EXACT_ZERO = "exact-zero"
WITHIN = "within"
CONTROL = "control"
RAISES = "raises"


@dataclass(frozen=True)
class ResidualEntry:
    label: str
    equation: str
    backend: str
    residual: Optional[float]  # None for exact zeros and raise checks
    exact_zero: bool

    def passes(self, kind: str, bound=0.0) -> bool:
        """The verdict of a check of ``kind`` against ``bound`` (see the module docstring)."""
        if kind == EXACT_ZERO:
            return self.exact_zero
        if kind == RAISES:
            return bound is True
        if self.residual is None:
            return False
        if kind == WITHIN:
            return self.residual <= bound
        if kind == CONTROL:
            return self.residual > bound
        raise ValueError(f"unknown check kind {kind!r}")

    def within(self, tol: float) -> bool:
        """The verdict of an ordinary check: exact zero if exact, else at most ``tol``."""
        return self.passes(EXACT_ZERO if self.backend == EXACT else WITHIN, tol)


def residual_entry(label: str, equation: str, backend: str, value) -> ResidualEntry:
    """Measure a residual on ``backend``.

    ``value`` is a Matrix or a PlaneWaveField, a sequence of scalars (one
    per plane-wave term), one scalar, or None for a check that has no
    residual.  On the exact backend a residual that vanishes identically
    is an exact zero; otherwise the entry holds its ``magnitude``.
    """
    if value is None:
        return ResidualEntry(label, equation, backend, None, False)
    if backend == EXACT and (value.is_zero if hasattr(value, "max_abs")
                             else not any(_scalars(value))):
        return ResidualEntry(label, equation, backend, None, True)
    return ResidualEntry(label, equation, backend, magnitude(value), False)


def magnitude(value) -> float:
    """The largest magnitude in a residual value, NaN if any is NaN: the float an entry records."""
    if isinstance(value, (list, tuple)):  # the values of relations stated on terms
        return float(kernels.max_abs(value))
    if hasattr(value, "max_abs"):  # a Matrix or a PlaneWaveField
        return float(value.max_abs())
    return float(kernels.max_abs((value,)))


def _scalars(value):
    return value if isinstance(value, (list, tuple)) else (value,)


def residual_report(backend: str, relations) -> ResidualReport:
    """Measure ``(label, equation, value)`` relations on ``backend``, in order."""
    return ResidualReport(tuple(residual_entry(label, equation, backend, value)
                                for label, equation, value in relations))


@dataclass(frozen=True)
class ResidualReport:
    entries: tuple

    def __iter__(self):
        return iter(self.entries)

    def max_residual(self) -> float:
        return kernels.max_abs(e.residual or 0.0 for e in self.entries)

    def all_exact_zero(self) -> bool:
        return all(e.exact_zero for e in self.entries)

    def all_within(self, tol: float) -> bool:
        return all(e.within(tol) for e in self.entries)

    def worst(self) -> ResidualEntry:
        """The first entry with the largest residual: one check over all of them.

        A NaN residual is the largest, so the first NaN entry wins.
        """
        top = self.max_residual()
        return next(e for e in self.entries
                    if (e.residual or 0.0) == top or e.residual != e.residual)


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
            res = "raised-as-expected" if c.ok else "did-not-raise"
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
