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

Both judges of the package live here, so one module decides and words
every verdict.  :func:`judged` turns an entry into a report record with
its verdict; :func:`demand` holds a library precondition or a basis
validation to the ordinary rule (an exact residual vanishes identically,
a float one sits within the bound) and raises an error naming the first
relation that breaks it.  No other module reads ``exact_zero`` or
calls ``within``.

The CLI aggregates the judged checks into :class:`Report`, whose JSON
form is stable: key order and field names are part of the interface,
and two runs with the same configuration produce byte-identical output
except for ``wall_ms``.  ``Report.to_json`` writes it in the layout of
``json.dumps(..., indent=2)``, byte for byte, with one format per check
record and the encoder's own C string escaper, since ``json.dumps`` runs
its pure-Python encoder whenever it indents.  It imports ``json`` when
it is called, not with this module, so building a basis imports no
``json``.
"""

from __future__ import annotations

from . import kernels
from .scalars import EXACT
from .values import Record, Value, store

EXACT_ZERO = "exact-zero"
WITHIN = "within"
CONTROL = "control"
RAISES = "raises"


class ResidualEntry(Value):
    __slots__ = _fields = ("label", "equation", "backend", "residual", "exact_zero")

    def __init__(self, label: str, equation: str, backend: str, residual: float | None,
                 exact_zero: bool):
        store(self, "label", label)
        store(self, "equation", equation)
        store(self, "backend", backend)
        store(self, "residual", residual)  # None for exact zeros and raise checks
        store(self, "exact_zero", exact_zero)

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


class ResidualReport(Value):
    __slots__ = _fields = ("entries",)

    def __init__(self, entries: tuple):
        store(self, "entries", entries)

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


class CheckRecord(Record):
    """One line of a verification run."""

    __slots__ = _fields = ("check_id", "equation", "backend", "residual", "exact_zero", "ok")

    def __init__(self, check_id: str, equation: str, backend: str, residual: float | None,
                 exact_zero: bool, ok: bool):
        self.check_id = check_id
        self.equation = equation
        self.backend = backend
        self.residual = residual
        self.exact_zero = exact_zero
        self.ok = ok


def judged(check_id: str, entry: ResidualEntry, bound=0.0, kind=None) -> CheckRecord:
    """The record of ``entry`` as check ``check_id``, judged by its kind against ``bound``.

    Without a kind the check is an ordinary one: exact zero on the
    exact backend, within ``bound`` on the float backend.
    """
    ok = entry.passes(kind, bound) if kind else entry.within(bound)
    return CheckRecord(check_id, entry.equation, entry.backend, entry.residual,
                       entry.exact_zero, ok)


def demand(entries, error, where: str, tol: float = 0.0) -> None:
    """Raise ``error`` for the first of ``entries`` that fails ``within(tol)``.

    The message names the entry's label, its residual (``nan`` for a
    NaN), its backend, the bound it broke and ``where``.
    """
    for e in entries:
        if not e.within(tol):
            bound = "is not zero" if e.backend == EXACT else f"exceeds {tol}"
            raise error(f"{e.label} residual {e.residual:.3e} {bound} ({e.backend}, {where})")


class Report(Record):
    __slots__ = _fields = ("config", "checks", "wall_ms")

    def __init__(self, config: dict, checks: list | None = None, wall_ms: float = 0.0):
        self.config = config
        self.checks = [] if checks is None else checks
        self.wall_ms = wall_ms

    @property
    def passed(self) -> int:
        return sum(1 for c in self.checks if c.ok)

    @property
    def failed(self) -> int:
        return sum(1 for c in self.checks if not c.ok)

    def to_json(self) -> str:
        """The report's JSON form, as ``json.dumps(..., indent=2)`` lays it out, and a newline.

        The keys, in order: ``config``; ``checks``, each record's ``id``,
        ``paper_eq``, ``backend``, ``residual``, ``exact_zero`` and
        ``pass``; ``summary``, ``passed`` and ``failed``; ``wall_ms``.
        ``json.dumps`` runs its pure-Python encoder whenever it indents;
        this writes the same bytes with one f-string per check record.
        ``json`` is imported here, once per call, so that building a basis
        does not import it.
        """
        from json.encoder import encode_basestring_ascii as esc

        j, at = _json, " " * 6  # a record's values are nested three deep
        records = [f'\n    {{\n      "id": {j(c.check_id, at, esc)},\n'
                   f'      "paper_eq": {j(c.equation, at, esc)},\n'
                   f'      "backend": {j(c.backend, at, esc)},\n'
                   f'      "residual": {j(c.residual, at, esc)},\n'
                   f'      "exact_zero": {j(c.exact_zero, at, esc)},\n'
                   f'      "pass": {j(c.ok, at, esc)}\n    }}'
                   for c in self.checks]
        checks = "[" + ",".join(records) + "\n  ]" if records else "[]"
        summary = {"passed": self.passed, "failed": self.failed}
        return ("{\n"
                f'  "config": {j(dict(self.config), "  ", esc)},\n'
                f'  "checks": {checks},\n'
                f'  "summary": {j(summary, "  ", esc)},\n'
                f'  "wall_ms": {j(self.wall_ms, "  ", esc)}\n'
                "}\n")


_INF = float("inf")


def _json(value, indent: str, escape) -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it when nested at ``indent``.

    Scalars are spelled as ``json`` spells them: strings escaped to ASCII
    by ``escape`` (``json.encoder.encode_basestring_ascii``),
    ``float.__repr__`` or ``NaN`` / ``Infinity`` / ``-Infinity``,
    ``int.__repr__``, ``true`` / ``false`` / ``null``.  Lists, tuples and
    dicts with string keys are laid out one item per line; empty ones are
    ``[]`` and ``{}``.
    """
    if isinstance(value, str):
        return escape(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == _INF:
            return "Infinity"
        return "-Infinity" if value == -_INF else float.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        items = [inner + _json(v, inner, escape) for v in value]
        brackets = "[]"
    elif isinstance(value, dict):
        items = [f"{inner}{escape(k)}: {_json(v, inner, escape)}"
                 for k, v in value.items()]
        brackets = "{}"
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not items:
        return brackets
    return f"{brackets[0]}\n" + ",\n".join(items) + f"\n{indent}{brackets[1]}"


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
