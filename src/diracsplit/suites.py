"""Deterministic verification suites: structural checks plus fuzz campaigns.

Each suite emits flat check records.  Exact-backend records pass only
when the residual is identically zero; float records compare against the
run tolerance.  Families whose bounds are pinned two decades tighter
(massless algebra, metric preservation, generator commutators, frame
drift) use tol/100 so the default 1e-10 run enforces 1e-12 on them.

Fuzz trials derive per-trial sub-seeds from (seed, family tag, index),
so records are independent of execution order and two runs with the
same config produce identical reports.

Negative controls are expected-fail checks: they pass when a residual
is LARGE or when the right error is raised, keeping the suite honest
about its own discriminating power.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass
from fractions import Fraction
from random import Random

from .errors import NotASolution, SplitRequiresMass, WeylRequiresMassless
from .fields import (
    FourMomentum,
    PlaneWaveField,
    PlaneWaveTerm,
    charge_conjugate,
    dirac_matrix,
    dirac_residual,
    field_of,
    u_spinor,
    weyl_spinor,
)
from .gamma import METRIC_SIGNS, REP_NAMES, build_rep, intertwiner_pair
from .lorentz import (
    LorentzParams,
    covariance_check,
    pconditions_residual,
    pi_commutation_check,
    reduced_dirac_residual,
    special_frame,
    spinor_transform,
    transform_field,
    vector_transform,
)
from .matrices import Matrix, commutator
from .projectors import build_projectors, v_swap_check
from .reports import CheckRecord, Report, ResidualEntry
from .scalars import EXACT, FLOAT, GaussianRational, scalar_abs
from .subsolutions import (
    constituent_residuals,
    identity_residuals,
    majorana_build,
    majorana_residuals,
    recombination_residuals,
    split,
    transported_constituent_residuals,
    weyl_residuals,
)

DEFAULT_SEED = 0xD14AC0DE
SUITE_NAMES = ("clifford", "projectors", "split", "weyl", "majorana", "covariance")
REP_CHOICES = ("spinor", "standard", "majorana", "all")
BACKEND_CHOICES = ("exact", "float", "both")

_STRICT_FACTOR = 1e-2  # families pinned two decades below the run tolerance
_CONTROL_FLOOR = 0.1  # expected-fail controls must exceed this
_OFFSHELL_FLOOR = 1e-3
_COV_TRIAL_CAP = 200

_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RunConfig:
    suite: str = "all"
    rep: str = "spinor"
    backend: str = "both"
    tol: float = 1e-10
    trials: int = 1000
    seed: int = DEFAULT_SEED
    mass_range: tuple = (0.1, 10.0)
    momentum_range: tuple = (0.0, 10.0)

    def validate(self) -> None:
        if self.suite != "all" and self.suite not in SUITE_NAMES:
            raise ValueError(f"unknown suite {self.suite!r}")
        if self.rep not in REP_CHOICES:
            raise ValueError(f"unknown rep {self.rep!r}")
        if self.backend not in BACKEND_CHOICES:
            raise ValueError(f"unknown backend {self.backend!r}")
        # an infinite tolerance would pass every float check vacuously
        if not (_is_real(self.tol) and math.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be a finite positive number")
        if not _is_int(self.trials) or self.trials < 1:
            raise ValueError("trials must be an integer of at least 1")
        if not _is_int(self.seed) or not (0 <= self.seed <= _MASK64):
            raise ValueError("seed must be an integer that fits in 64 bits")
        for key in ("mass_range", "momentum_range"):
            rng = getattr(self, key)
            if not all(_is_real(x) and math.isfinite(x) for x in rng):
                raise ValueError(f"{key} entries must be finite numbers")
        lo, hi = self.mass_range
        if not (0 < lo <= hi):
            raise ValueError("mass_range must satisfy 0 < lo <= hi")
        lo, hi = self.momentum_range
        if not (0 <= lo <= hi):
            raise ValueError("momentum_range must satisfy 0 <= lo <= hi")

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "rep": self.rep,
            "backend": self.backend,
            "tol": self.tol,
            "trials": self.trials,
            "seed": self.seed,
            "mass_range": list(self.mass_range),
            "momentum_range": list(self.momentum_range),
        }

    @property
    def strict_tol(self) -> float:
        return self.tol * _STRICT_FACTOR

    @property
    def run_exact(self) -> bool:
        return self.backend in ("exact", "both")

    @property
    def run_float(self) -> bool:
        return self.backend in ("float", "both")


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _is_real(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _selected_reps(config: RunConfig) -> tuple:
    if config.rep == "all":
        return tuple(build_rep(n) for n in REP_NAMES)
    return (build_rep(config.rep),)


_ALL_REPS = tuple(build_rep(n) for n in REP_NAMES)


# -- record collection ----------------------------------------------------------


class _Collector:
    def __init__(self):
        self.records = []

    def add_entry(self, check_id: str, entry: ResidualEntry, tol: float) -> None:
        self.records.append(
            CheckRecord(
                check_id=check_id,
                equation=entry.equation,
                backend=entry.backend,
                residual=entry.residual,
                exact_zero=entry.exact_zero,
                ok=entry.within(tol),
            )
        )

    def add_exact(self, check_id: str, equation: str, resid: Matrix) -> None:
        zero = resid.is_zero
        self.records.append(
            CheckRecord(
                check_id=check_id,
                equation=equation,
                backend=EXACT,
                residual=None if zero else resid.max_abs(),
                exact_zero=zero,
                ok=zero,
            )
        )

    def add_exact_value(self, check_id: str, equation: str, residual) -> None:
        """Exact-backend scalar residual; passes only when identically zero."""
        mag = scalar_abs(residual)
        zero = mag == 0.0
        self.records.append(
            CheckRecord(
                check_id=check_id,
                equation=equation,
                backend=EXACT,
                residual=None if zero else mag,
                exact_zero=zero,
                ok=zero,
            )
        )

    def add_float(self, check_id: str, equation: str, residual: float, tol: float) -> None:
        self.records.append(
            CheckRecord(
                check_id=check_id,
                equation=equation,
                backend=FLOAT,
                residual=float(residual),
                exact_zero=False,
                ok=residual <= tol,
            )
        )

    def add_control(self, check_id: str, equation: str, backend: str,
                    residual: float, floor: float) -> None:
        """Expected-fail check: passes when the residual is LARGE."""
        self.records.append(
            CheckRecord(
                check_id=check_id,
                equation=equation,
                backend=backend,
                residual=float(residual),
                exact_zero=False,
                ok=residual > floor,
            )
        )

    def add_raise(self, check_id: str, equation: str, backend: str,
                  fn, exc_type) -> None:
        """Expected-fail check: passes when fn raises exc_type."""
        try:
            fn()
            ok = False
        except exc_type:
            ok = True
        self.records.append(
            CheckRecord(
                check_id=check_id,
                equation=equation,
                backend=backend,
                residual=None,
                exact_zero=False,
                ok=ok,
            )
        )


class _MaxAgg:
    """Max-aggregates residuals per label across fuzz trials."""

    def __init__(self):
        self.worst = {}

    def add(self, label: str, equation: str, value: float) -> None:
        prev = self.worst.get(label)
        if prev is None or value > prev[1]:
            self.worst[label] = (equation, value)

    def add_entries(self, entries) -> None:
        for e in entries:
            self.add(e.label, e.equation, e.residual or 0.0)

    def emit(self, out: _Collector, prefix: str, tol_for) -> None:
        for label, (equation, value) in self.worst.items():
            out.add_float(f"{prefix}.{label}", equation, value, tol_for(label))


# -- seeded sampling -------------------------------------------------------------


def _sub_seed(seed: int, tag: str, trial: int) -> int:
    base = zlib.crc32(tag.encode("ascii"))
    return (seed ^ (base * _MIX1) ^ ((trial + 1) * _MIX2)) & _MASK64


def _rng(config: RunConfig, tag: str, trial: int) -> Random:
    return Random(_sub_seed(config.seed, tag, trial))


def _sample_direction(rng: Random) -> tuple:
    while True:
        v = (rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0))
        n = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]) ** 0.5
        if n > 1e-9:
            return (v[0] / n, v[1] / n, v[2] / n)


def _sample_massive(rng: Random, config: RunConfig) -> FourMomentum:
    m = rng.uniform(*config.mass_range)
    mag = rng.uniform(*config.momentum_range)
    d = _sample_direction(rng)
    return FourMomentum.on_shell(m, (mag * d[0], mag * d[1], mag * d[2]))


def _sample_massless(rng: Random, config: RunConfig) -> FourMomentum:
    lo, hi = config.momentum_range
    while True:
        mag = rng.uniform(lo, hi)
        if mag > 1e-6:
            break
    d = _sample_direction(rng)
    sp = (mag * d[0], mag * d[1], mag * d[2])
    p0 = (sp[0] * sp[0] + sp[1] * sp[1] + sp[2] * sp[2]) ** 0.5
    return FourMomentum((p0,) + sp, 0.0, FLOAT)


# -- exact witness data ----------------------------------------------------------

_WITNESS_P = (3, 2, 2, 0)
_WITNESS_MASS = 1
_WEYL_WITNESS_K = (3, 2, 2, 1)

_GR = GaussianRational
_WITNESS_U = {
    1: (_GR(2), _GR(1, 1), _GR(2), _GR(-1, -1)),
    2: (_GR(1, -1), _GR(2), _GR(-1, 1), _GR(2)),
}
_WITNESS_XI1 = {1: (_GR(6), _GR(4, 4)), 2: (_GR(-3, 3), _GR(-4))}
_WITNESS_XI2 = {1: (_GR(-4), _GR(-3, -3)), 2: (_GR(4, -4), _GR(6))}


def _tuple_residual(got: tuple, want: tuple):
    return max(
        (scalar_abs(a - b) for a, b in zip(got, want)),
        default=0.0,
    )


def _component_block(p: FourMomentum) -> Matrix:
    """The componentwise form of gamma.p in the spinor basis.

    Rows are the four coefficient lines of the component system; the
    gamma-matrix contraction must reproduce this matrix entry by entry.
    """
    q0, q1, q2, q3 = p.p
    zero = _GR(0)
    qp = _GR(q1, q2)
    qm = _GR(q1, -q2)
    rows = (
        (zero, zero, _GR(q0 + q3), qm),
        (zero, zero, qp, _GR(q0 - q3)),
        (_GR(q0 - q3), -qm, zero, zero),
        (-qp, _GR(q0 + q3), zero, zero),
    )
    return Matrix.exact(rows)


# -- clifford suite ---------------------------------------------------------------


def _structural_backend(config: RunConfig) -> str:
    """Structural algebra runs exact whenever the exact backend is enabled."""
    return FLOAT if (config.run_float and not config.run_exact) else EXACT


def _run_clifford(config: RunConfig, out: _Collector) -> None:
    backend = _structural_backend(config)
    for rep in _ALL_REPS:
        view = rep.on(backend)
        gams, g5 = view.gammas, view.gamma5
        ident = Matrix.identity(4, backend)

        def emit(check_id, equation, resid):
            if backend == EXACT:
                out.add_exact(check_id, equation, resid)
            else:
                out.add_float(check_id, equation, resid.max_abs(), config.strict_tol)

        for mu in range(4):
            for nu in range(mu, 4):
                anti = gams[mu] @ gams[nu] + gams[nu] @ gams[mu]
                if mu == nu:
                    anti = anti - ident.scale(2 * METRIC_SIGNS[mu])
                emit(f"clifford.{rep.name}.anticommute.{mu}{nu}", "Dirac1", anti)
        product = gams[0] @ gams[1] @ gams[2] @ gams[3]
        i_unit = _GR(0, 1) if backend == EXACT else 1j
        emit(
            f"clifford.{rep.name}.gamma5.definition", "DiracNeutrino",
            g5 + product.scale(i_unit),
        )
        emit(f"clifford.{rep.name}.gamma5.square", "DiracNeutrino", g5 @ g5 - ident)
        for mu in range(4):
            emit(
                f"clifford.{rep.name}.gamma5.anticommute.{mu}", "DiracNeutrino",
                g5 @ gams[mu] + gams[mu] @ g5,
            )

    if config.run_exact:
        for rep_a in _ALL_REPS:
            for rep_b in _ALL_REPS:
                if rep_a.name == rep_b.name:
                    continue
                w, norm2 = intertwiner_pair(rep_a, rep_b)
                wd = w.adjoint()
                worst = (wd @ w - Matrix.identity(4).scale(norm2)).max_abs()
                for g_from, g_to in zip(
                    rep_a.gammas + (rep_a.gamma5,), rep_b.gammas + (rep_b.gamma5,)
                ):
                    resid = w @ g_from @ wd - g_to.scale(norm2)
                    worst = max(worst, resid.max_abs())
                out.add_exact_value(
                    f"clifford.intertwiner.{rep_a.name}-to-{rep_b.name}", "Dirac1",
                    worst,
                )


# -- projectors suite -------------------------------------------------------------


_SPINOR_DIAGS = {
    1: (1, 1, 1, 0),
    2: (1, 1, 0, 1),
    3: (1, 0, 1, 1),
    4: (0, 1, 1, 1),
}


def _run_projectors(config: RunConfig, out: _Collector) -> None:
    backend = _structural_backend(config)
    use_float = backend == FLOAT
    for rep in _ALL_REPS:
        view = rep.on(backend)
        ident = Matrix.identity(4, backend)
        q_plus, q_minus, pmats, v, g5 = view.q_plus, view.q_minus, view.p, view.v, view.gamma5

        def emit(check_id, equation, resid):
            if use_float:
                out.add_float(check_id, equation, resid.max_abs(), config.strict_tol)
            else:
                out.add_exact(check_id, equation, resid)

        emit(f"projectors.{rep.name}.q.sum", "DiracNeutrino", q_plus + q_minus - ident)
        emit(f"projectors.{rep.name}.q.idempotent-plus", "DiracNeutrino",
             q_plus @ q_plus - q_plus)
        emit(f"projectors.{rep.name}.q.idempotent-minus", "DiracNeutrino",
             q_minus @ q_minus - q_minus)
        emit(f"projectors.{rep.name}.q.orthogonal", "DiracNeutrino", q_plus @ q_minus)

        acc = None
        for k in range(1, 5):
            pk = pmats[k - 1]
            emit(f"projectors.{rep.name}.p{k}.idempotent", f"P{k}", pk @ pk - pk)
            trace_resid = pk.trace() - (3.0 if use_float else Fraction(3))
            if use_float:
                out.add_float(
                    f"projectors.{rep.name}.p{k}.trace", f"P{k}",
                    abs(trace_resid), config.strict_tol,
                )
            else:
                out.add_exact_value(f"projectors.{rep.name}.p{k}.trace", f"P{k}", trace_resid)
            emit(f"projectors.{rep.name}.p{k}.gamma5-commute", "PRO", commutator(pk, g5))
            acc = pk if acc is None else acc + pk
        emit(f"projectors.{rep.name}.sum", "PRO", acc - ident.scale(3))
        for i in range(1, 5):
            for j in range(i + 1, 5):
                emit(
                    f"projectors.{rep.name}.commute.p{i}p{j}", "PRO",
                    commutator(pmats[i - 1], pmats[j - 1]),
                )
        for k in range(1, 5):
            eps = ident - pmats[k - 1]
            resid = eps @ eps - eps
            resid2 = eps @ pmats[k - 1]
            worst = resid if resid.max_abs() >= resid2.max_abs() else resid2
            emit(f"projectors.{rep.name}.complement.p{k}", "PRO", worst)

        if not use_float:
            for e in v_swap_check(build_projectors(rep)):
                out.add_entry(f"projectors.{rep.name}.{e.label}", e, config.tol)
        else:
            vinv = v.adjoint()
            out.add_float(f"projectors.{rep.name}.v-swap.p1-to-p2", "V",
                          (v @ pmats[0] @ vinv - pmats[1]).max_abs(), config.strict_tol)
            out.add_float(f"projectors.{rep.name}.v-swap.p2-to-p1", "V",
                          (v @ pmats[1] @ vinv - pmats[0]).max_abs(), config.strict_tol)

    if config.run_exact:
        sp = build_rep("spinor")
        ps = build_projectors(sp)
        for k in range(1, 5):
            want = Matrix.diag(_SPINOR_DIAGS[k])
            out.add_exact(f"projectors.spinor.p{k}.diagonal", f"P{k}", ps.p[k - 1] - want)
        out.add_exact(
            "projectors.spinor.qminus.diagonal", "DiracNeutrino",
            ps.q_minus - Matrix.diag((1, 1, 0, 0)),
        )
        for rep_a in _ALL_REPS:
            for rep_b in _ALL_REPS:
                if rep_a.name == rep_b.name:
                    continue
                w, norm2 = intertwiner_pair(rep_a, rep_b)
                pa = build_projectors(rep_a)
                pb = build_projectors(rep_b)
                worst = None
                for k in range(4):
                    resid = w @ pa.p[k] @ w.adjoint() - pb.p[k].scale(norm2)
                    if worst is None or resid.max_abs() > worst.max_abs():
                        worst = resid
                out.add_exact(
                    f"projectors.transport.{rep_a.name}-to-{rep_b.name}", "PRO", worst
                )

    # negative control: the identity matrix does not swap P1 and P2
    sp = build_rep("spinor")
    ps = build_projectors(sp)
    swap_resid = (ps.p[0] - ps.p[1]).max_abs()
    out.add_control(
        "projectors.control.identity-for-v", "V", EXACT, swap_resid, _CONTROL_FLOOR
    )


# -- split suite ------------------------------------------------------------------


def _split_reports(sr):
    return (
        recombination_residuals(sr)
        .merged(identity_residuals(sr))
        .merged(constituent_residuals(sr))
    )


def _run_split(config: RunConfig, out: _Collector) -> None:
    sp = build_rep("spinor")
    others = tuple(r for r in _ALL_REPS if r.name != "spinor")

    if config.run_exact:
        for tag, comps in (("witness", _WITNESS_P), ("tilted", (3, 0, 2, 2))):
            q = FourMomentum.exact(comps, 1)
            out.add_exact(
                f"split.dirac2-block.{tag}", "Dirac2",
                dirac_matrix(sp, q, 1) - _component_block(q),
            )
        p = FourMomentum.exact(_WITNESS_P, _WITNESS_MASS)
        for s in (1, 2):
            u = u_spinor(p, sp, s)
            out.add_exact_value(
                f"split.witness.s{s}.u-amplitude", "Dirac1",
                _tuple_residual(u.amplitude, _WITNESS_U[s]),
            )
            psi = field_of(u, sp)
            sr = split(psi, Fraction(_WITNESS_MASS))
            out.add_exact_value(
                f"split.witness.s{s}.xi1-values", "DEF1",
                _tuple_residual(sr.xi1_pair.terms[0].amplitude, _WITNESS_XI1[s]),
            )
            out.add_exact_value(
                f"split.witness.s{s}.xi2-values", "DEF1",
                _tuple_residual(sr.xi2_pair.terms[0].amplitude, _WITNESS_XI2[s]),
            )
            for e in _split_reports(sr):
                out.add_entry(f"split.witness.s{s}.{e.label}", e, config.tol)
            for rep_to in others:
                for e in transported_constituent_residuals(sr, rep_to):
                    out.add_entry(f"split.witness.s{s}.{e.label}", e, config.tol)

    if config.run_float:
        agg = _MaxAgg()
        for trial in range(config.trials):
            rng = _rng(config, "split", trial)
            p = _sample_massive(rng, config)
            amps = []
            for s in (1, 2):
                u = u_spinor(p, sp, s)
                amps.append(u.amplitude)
                psi = field_of(u, sp)
                agg.add("input-dirac-residual", "Dirac1",
                        dirac_residual(psi, p.mass).max_abs())
                norm_defect = abs(
                    sum(abs(a) ** 2 for a in u.amplitude) - 2.0 * p.p[0]
                )
                agg.add("u-normalization", "Dirac1", norm_defect)
                sr = split(psi, p.mass, require_solution=False)
                agg.add_entries(_split_reports(sr))
            dot = sum(a.conjugate() * b for a, b in zip(amps[0], amps[1]))
            agg.add("u-orthogonality", "Dirac1", abs(dot))
        agg.emit(out, "split.fuzz", lambda label: config.tol)

        p_on = FourMomentum.on_shell(1.0, (2.0, 2.0, 0.0))
        amp = u_spinor(p_on, sp, 1).amplitude
        p_off = FourMomentum((p_on.p[0] + 0.5,) + p_on.p[1:], 1.0, FLOAT)
        f_off = field_of(PlaneWaveTerm(amp, p_off, 1), sp)
        out.add_control(
            "split.control.offshell-dirac", "Dirac1", FLOAT,
            dirac_residual(f_off, 1.0).max_abs(), _OFFSHELL_FLOOR,
        )
        out.add_raise(
            "split.control.offshell-rejected", "Dirac1", FLOAT,
            lambda: split(f_off, 1.0), NotASolution,
        )
        k = FourMomentum.floats((1.0, 0.0, 0.0, 1.0), 0)
        wf = field_of(weyl_spinor(k, sp, "left"), sp)
        out.add_raise(
            "split.control.massless-rejected", "DEF1", FLOAT,
            lambda: split(wf, 0.0), SplitRequiresMass,
        )


# -- weyl suite -------------------------------------------------------------------


def _run_weyl(config: RunConfig, out: _Collector) -> None:
    for rep in _selected_reps(config):
        if config.run_exact:
            view = rep.on(EXACT)
            k = FourMomentum.exact(_WEYL_WITNESS_K, 0)
            for ch in ("left", "right"):
                f = field_of(weyl_spinor(k, rep, ch), rep)
                for e in weyl_residuals(f):
                    short = e.label.replace("weyl.", "", 1)
                    out.add_entry(
                        f"weyl.witness.{rep.name}.{ch}.{short}", e, config.strict_tol
                    )
                proj = view.q_plus if ch == "left" else view.q_minus
                image_diff = f.apply(proj) - f
                out.add_exact_value(
                    f"weyl.witness.{rep.name}.{ch}.chiral-image", "DiracNeutrino",
                    Fraction(0) if image_diff.is_zero else image_diff.max_abs(),
                )
        if config.run_float:
            view = rep.on(FLOAT)
            agg = _MaxAgg()
            for trial in range(config.trials):
                rng = _rng(config, f"weyl.{rep.name}", trial)
                p = _sample_massless(rng, config)
                for ch in ("left", "right"):
                    f = field_of(weyl_spinor(p, rep, ch), rep)
                    for e in weyl_residuals(f):
                        short = e.label.replace("weyl.", "", 1)
                        agg.add(f"{ch}.{short}", e.equation, e.residual or 0.0)
                    proj = view.q_plus if ch == "left" else view.q_minus
                    agg.add(
                        f"{ch}.chiral-image", "DiracNeutrino",
                        (f.apply(proj) - f).max_abs(),
                    )
            agg.emit(out, f"weyl.fuzz.{rep.name}", lambda label: config.strict_tol)

    sp = build_rep("spinor")
    pm = FourMomentum.floats((3.0, 2.0, 2.0, 0.0), 1)
    massive = field_of(u_spinor(pm, sp, 1), sp)
    out.add_raise(
        "weyl.control.massive-rejected", "Weyl1", FLOAT,
        lambda: weyl_residuals(massive), WeylRequiresMassless,
    )
    forced = weyl_residuals(massive, check_mass=False)
    out.add_control(
        "weyl.control.massive-residual", "Weyl1", FLOAT,
        forced.max_residual(), _CONTROL_FLOOR,
    )


# -- majorana suite ---------------------------------------------------------------


def _run_majorana(config: RunConfig, out: _Collector) -> None:
    for rep in _selected_reps(config):
        if config.run_exact:
            p = FourMomentum.exact(_WITNESS_P, _WITNESS_MASS)
            for s in (1, 2):
                maj = majorana_build(field_of(u_spinor(p, rep, s), rep))
                if rep.name == "spinor":
                    for e in majorana_residuals(maj, Fraction(_WITNESS_MASS)):
                        short = e.label.replace("majorana.", "", 1)
                        out.add_entry(
                            f"majorana.witness.s{s}.{short}", e, config.tol
                        )
                else:
                    selfconj = maj - charge_conjugate(maj)
                    out.add_exact_value(
                        f"majorana.witness.{rep.name}.s{s}.selfconj", "MAJORANA",
                        Fraction(0) if selfconj.is_zero else selfconj.max_abs(),
                    )
                    dr = dirac_residual(maj, Fraction(_WITNESS_MASS))
                    out.add_exact_value(
                        f"majorana.witness.{rep.name}.s{s}.dirac", "Dirac1",
                        Fraction(0) if dr.is_zero else dr.max_abs(),
                    )
        if config.run_float:
            # the spinor basis has the component checks; other bases get
            # the basis-independent ones, as their exact witnesses do
            spinor = rep.name == "spinor"
            agg = _MaxAgg()
            for trial in range(config.trials):
                rng = _rng(config, "majorana" if spinor else f"majorana.{rep.name}", trial)
                p = _sample_massive(rng, config)
                for s in (1, 2):
                    maj = majorana_build(field_of(u_spinor(p, rep, s), rep))
                    if spinor:
                        for e in majorana_residuals(maj, p.mass, tol=config.tol):
                            short = e.label.replace("majorana.", "", 1)
                            agg.add(short, e.equation, e.residual or 0.0)
                    else:
                        agg.add("selfconj", "MAJORANA",
                                (maj - charge_conjugate(maj)).max_abs())
                        agg.add("dirac", "Dirac1", dirac_residual(maj, p.mass).max_abs())
            # self-conjugacy must cancel term-by-term, not merely within tol
            agg.emit(
                out, "majorana.fuzz" if spinor else f"majorana.fuzz.{rep.name}",
                lambda label: 0.0 if label == "selfconj" else config.tol,
            )


# -- covariance suite -------------------------------------------------------------

_OMEGA_GRID = (0.5, -0.5, 1.0, -1.0, 3.0, -3.0)
_PLANES = (("boost", (0, 3)), ("rotation", (1, 2)))


def _grid_params() -> tuple:
    return tuple(
        LorentzParams(kind, plane, w) for kind, plane in _PLANES for w in _OMEGA_GRID
    )


def _run_covariance(config: RunConfig, out: _Collector) -> None:
    sp = build_rep("spinor")
    for rep in _selected_reps(config):
        if config.run_exact:
            for e in pi_commutation_check(rep, omegas=()):
                out.add_entry(f"covariance.{rep.name}.{e.label}", e, config.strict_tol)
            for idx, (a, b, mv) in enumerate(((3, 2, 1), (5, -7, 2))):
                op = (
                    rep.gammas[0].scale(a)
                    - rep.gammas[1].scale(b)
                    - Matrix.identity(4).scale(mv)
                )
                v = rep.on(EXACT).v
                out.add_exact(
                    f"covariance.{rep.name}.v-reduced-op.{idx}", "V",
                    v @ op @ v.adjoint() - op,
                )
            # the premise of the closed-form spinor transform, plane by plane
            sigmas = rep.on(EXACT).sigmas
            for mu in range(4):
                for nu in range(mu + 1, 4):
                    sig = sigmas[mu][nu]
                    out.add_exact(
                        f"covariance.{rep.name}.sigma-square.{mu}{nu}", "S",
                        sig @ sig
                        - Matrix.identity(4).scale(METRIC_SIGNS[mu] * METRIC_SIGNS[nu]),
                    )

        if not config.run_float:
            continue

        for kind, plane in _PLANES:
            for w in _OMEGA_GRID:
                params = LorentzParams(kind, plane, w)
                prefix = f"covariance.{rep.name}.{kind}{plane[0]}{plane[1]}.w{w:g}"
                for e in covariance_check(params, rep):
                    tol = config.strict_tol if e.label == "vector.metric" else config.tol
                    out.add_entry(f"{prefix}.{e.label}", e, tol)
        for e in pi_commutation_check(rep, omegas=(0.5, 1.3, 3.0)):
            if e.backend == FLOAT:
                out.add_entry(f"covariance.{rep.name}.{e.label}", e, config.strict_tol)

        grid = _grid_params()
        n_trials = min(config.trials, _COV_TRIAL_CAP)
        agg = _MaxAgg()
        p_float = rep.on(FLOAT).p
        for trial in range(n_trials):
            rng = _rng(config, f"covariance.{rep.name}", trial)
            p = _sample_massive(rng, config)
            s_label = 1 + trial % 2
            psi_sp = field_of(u_spinor(p, sp, s_label), sp)
            sr = split(psi_sp, p.mass, require_solution=False)
            if rep.name == "spinor":
                psi, psi1, psi2 = sr.psi, sr.psi1, sr.psi2
            else:
                u = sp.on(FLOAT).intertwiner(rep).u
                psi, psi1, psi2 = (
                    PlaneWaveField(f.apply(u).terms, rep=rep, ncomp=4, backend=FLOAT)
                    for f in (sr.psi, sr.psi1, sr.psi2)
                )
            params = grid[trial % len(grid)]
            psi_t = transform_field(psi, params)
            agg.add("transformed-solution", "Dirac1",
                    dirac_residual(psi_t, p.mass).max_abs())
            s_mat = spinor_transform(params, rep)
            s_inv = spinor_transform(params.inverse(), rep)
            for k, psi_k in ((1, psi1), (2, psi2)):
                p_prime = s_mat @ p_float[k - 1] @ s_inv
                moved = transform_field(psi_k, params)
                agg.add(
                    f"transformed-constituent{k}", "DP2b",
                    dirac_residual(moved.apply(p_prime), p.mass).max_abs(),
                )
        agg.emit(out, f"covariance.{rep.name}.fuzz", lambda label: config.tol)

    if config.run_float:
        _special_frame_checks(config, out)
        for rep in _selected_reps(config):
            params = LorentzParams("boost", (0, 3), 1.0)
            s_flip = spinor_transform(params.inverse(), rep)
            s_flip_inv = spinor_transform(params, rep)
            bad = pconditions_residual(rep, s_flip, s_flip_inv, vector_transform(params))
            out.add_control(
                f"covariance.{rep.name}.control.sign-flip", "Pconditions", FLOAT,
                bad.max_residual(), _CONTROL_FLOOR,
            )
            s01 = spinor_transform(LorentzParams("boost", (0, 1), 1.0), rep)
            p1f = rep.on(FLOAT).p[0]
            out.add_control(
                f"covariance.{rep.name}.control.boost01-noncommute", "S", FLOAT,
                commutator(s01, p1f).max_abs(), _CONTROL_FLOOR,
            )


def _special_frame_checks(config: RunConfig, out: _Collector) -> None:
    sp = build_rep("spinor")
    view = sp.on(FLOAT)
    p1f, p2f = view.p[:2]

    p_w = FourMomentum.floats(_WITNESS_P, _WITNESS_MASS)
    rot, boost = special_frame(p_w)
    moved = vector_transform(boost).apply(vector_transform(rot).apply(p_w))
    target1 = 8.0 ** 0.5
    witness_resid = max(
        abs(moved.p[0] - 3.0), abs(moved.p[1] - target1),
        abs(moved.p[2]), abs(moved.p[3]),
    )
    out.add_float(
        "covariance.special-frame.witness", "P1a", witness_resid, config.strict_tol
    )

    agg = _MaxAgg()
    n_trials = min(config.trials, _COV_TRIAL_CAP)
    for trial in range(n_trials):
        rng = _rng(config, "special-frame", trial)
        p = _sample_massive(rng, config)
        s_label = 1 + trial % 2
        psi = field_of(u_spinor(p, sp, s_label), sp)
        sr = split(psi, p.mass, require_solution=False)
        rot, boost = special_frame(p)
        moved1 = transform_field(transform_field(sr.psi1, rot), boost)
        moved2 = transform_field(transform_field(sr.psi2, rot), boost)
        q = moved1.terms[0].momentum
        agg.add("transverse-zeroed", "P1a", max(abs(q.p[2]), abs(q.p[3])))
        inv_mass = (
            q.p[0] * q.p[0] - q.p[1] * q.p[1] - q.p[2] * q.p[2] - q.p[3] * q.p[3]
        ) ** 0.5
        agg.add("mass-drift", "Pconditions", abs(inv_mass - p.mass))
        proj1 = moved1.apply(p1f)
        agg.add("P1a", "P1a", reduced_dirac_residual(proj1, p.mass).max_abs())
        agg.add(
            "P2a", "P2a",
            reduced_dirac_residual(moved2.apply(p2f), p.mass).max_abs(),
        )
        image = proj1.apply(view.v)
        v_resid = max(
            reduced_dirac_residual(image, p.mass).max_abs(),
            (image.apply(p2f) - image).max_abs(),
        )
        agg.add("v-maps-P1a-to-P2a", "V", v_resid)

    def tol_for(label):
        if label in ("transverse-zeroed", "mass-drift"):
            return config.strict_tol
        return config.tol

    agg.emit(out, "covariance.special-frame.fuzz", tol_for)


# -- driver ----------------------------------------------------------------------

_SUITE_RUNNERS = {
    "clifford": _run_clifford,
    "projectors": _run_projectors,
    "split": _run_split,
    "weyl": _run_weyl,
    "majorana": _run_majorana,
    "covariance": _run_covariance,
}


def run(config: RunConfig) -> Report:
    """Execute the selected suites and assemble the report."""
    config.validate()
    start = time.perf_counter()
    out = _Collector()
    names = SUITE_NAMES if config.suite == "all" else (config.suite,)
    for name in names:
        _SUITE_RUNNERS[name](config, out)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return Report(config=config.to_dict(), checks=out.records, wall_ms=wall_ms)
