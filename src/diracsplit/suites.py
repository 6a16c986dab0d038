"""Deterministic verification suites: structural checks plus fuzz campaigns.

Each suite turns residual entries (``reports.residual_entry``) into flat
check records through one ``_Collector.add``, where the check's kind
decides the verdict (see ``reports``).  Exact-backend records pass only
when the residual is identically zero; float records compare against the
run tolerance.  Families whose bounds are pinned two decades tighter
(massless algebra, metric preservation, generator commutators, frame
drift, and the float runs of the structural suites) use tol/100 so the
default 1e-10 run enforces 1e-12 on them.

The structural suites (``clifford``, ``projectors``) hold no algebra of
their own: they record the residual functions of ``gamma``, which on the
exact backend hand back the residuals the views already verified.

Fuzz trials derive per-trial sub-seeds from (seed, family tag, index),
so records are independent of execution order and two runs with the
same config produce identical reports.

Negative controls are expected-fail checks: they pass when a residual
is LARGE (kind ``CONTROL``) or when the right error is raised (kind
``RAISES``), keeping the suite honest about its own discriminating power.
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
from .gamma import (
    METRIC_SIGNS,
    REP_NAMES,
    build_rep,
    clifford_residual,
    gamma5_residuals,
    projector_residuals,
    spinor_diagonal_residuals,
    swap_residuals,
    transport_residuals,
)
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
from .reports import CONTROL, RAISES, CheckRecord, Report, ResidualEntry, residual_entry
from .scalars import EXACT, FLOAT, GaussianRational
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
        if not (_is_finite(self.tol) and self.tol > 0):
            raise ValueError("tol must be a finite positive number")
        if not _is_int(self.trials) or self.trials < 1:
            raise ValueError("trials must be an integer of at least 1")
        if not _is_int(self.seed) or not (0 <= self.seed <= _MASK64):
            raise ValueError("seed must be an integer that fits in 64 bits")
        for key in ("mass_range", "momentum_range"):
            rng = getattr(self, key)
            if not all(_is_finite(x) for x in rng):
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


def _is_finite(x) -> bool:
    """A real number, not a bool, that is finite as a float (so no int beyond ~1.8e308)."""
    if not isinstance(x, (int, float)) or isinstance(x, bool):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def _selected_reps(config: RunConfig) -> tuple:
    if config.rep == "all":
        return tuple(build_rep(n) for n in REP_NAMES)
    return (build_rep(config.rep),)


_ALL_REPS = tuple(build_rep(n) for n in REP_NAMES)


# -- record collection ----------------------------------------------------------


class _Collector:
    def __init__(self):
        self.records = []

    def add(self, check_id: str, entry: ResidualEntry, bound=0.0, kind=None) -> None:
        """Record ``entry`` as check ``check_id``, judged by its kind against ``bound``.

        Without a kind the check is an ordinary one: exact zero on the
        exact backend, within ``bound`` on the float backend.
        """
        ok = entry.passes(kind, bound) if kind else entry.within(bound)
        self.records.append(CheckRecord(check_id, entry.equation, entry.backend,
                                        entry.residual, entry.exact_zero, ok))


def _raises(fn, exc_type) -> bool:
    """Whether ``fn()`` raises ``exc_type``: the bound of a RAISES check."""
    try:
        fn()
    except exc_type:
        return True
    return False


class _MaxAgg:
    """Max-aggregates residuals per label across fuzz trials."""

    def __init__(self):
        self.worst = {}

    def add(self, label: str, equation: str, value: float) -> None:
        prev = self.worst.get(label)
        if prev is None or value > prev[1]:
            self.worst[label] = (equation, value)

    def emit(self, out: _Collector, prefix: str, tol_for) -> None:
        for label, (equation, value) in self.worst.items():
            out.add(f"{prefix}.{label}", residual_entry(label, equation, FLOAT, value),
                    tol_for(label))


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


_REP_PAIRS = tuple((a, b) for a in _ALL_REPS for b in _ALL_REPS if a is not b)


def _run_clifford(config: RunConfig, out: _Collector) -> None:
    backend = _structural_backend(config)
    for rep in _ALL_REPS:
        view = rep.on(backend)
        for e in clifford_residual(view).merged(gamma5_residuals(view)):
            out.add(f"clifford.{rep.name}.{e.label}", e, config.strict_tol)

    if config.run_exact:
        for rep_a, rep_b in _REP_PAIRS:
            residuals = rep_a.on(EXACT).intertwiner(rep_b).residuals
            out.add(f"clifford.intertwiner.{rep_a.name}-to-{rep_b.name}",
                    residuals.worst("intertwiner", "Dirac1"))


# -- projectors suite -------------------------------------------------------------

#: V relations the float structural run leaves to the exact one
_EXACT_ONLY_V = ("v-swap.commute-gamma0", "v-swap.commute-gamma1", "v-swap.unitary")


def _run_projectors(config: RunConfig, out: _Collector) -> None:
    backend = _structural_backend(config)
    for rep in _ALL_REPS:
        for e in projector_residuals(rep.on(backend)):
            if backend == EXACT or e.label not in _EXACT_ONLY_V:
                out.add(f"projectors.{rep.name}.{e.label}", e, config.strict_tol)

    if config.run_exact:
        for e in spinor_diagonal_residuals():
            out.add(f"projectors.spinor.{e.label}", e)
        for rep_a, rep_b in _REP_PAIRS:
            out.add(f"projectors.transport.{rep_a.name}-to-{rep_b.name}",
                    transport_residuals(rep_a, rep_b).worst("transport", "PRO"))

    # negative control: the identity matrix does not swap P1 and P2
    spinor = build_rep("spinor").on(EXACT)
    control = swap_residuals(spinor, Matrix.identity(4)).worst("identity-for-v", "V")
    out.add("projectors.control.identity-for-v", control, _CONTROL_FLOOR, CONTROL)


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
            block = dirac_matrix(sp, q, 1) - _component_block(q)
            out.add(f"split.dirac2-block.{tag}",
                    residual_entry("dirac2-block", "Dirac2", EXACT, block))
        p = FourMomentum.exact(_WITNESS_P, _WITNESS_MASS)
        for s in (1, 2):
            u = u_spinor(p, sp, s)
            sr = split(field_of(u, sp), Fraction(_WITNESS_MASS))
            witnesses = (
                ("u-amplitude", "Dirac1", u.amplitude, _WITNESS_U[s]),
                ("xi1-values", "DEF1", sr.xi1_pair.terms[0].amplitude, _WITNESS_XI1[s]),
                ("xi2-values", "DEF1", sr.xi2_pair.terms[0].amplitude, _WITNESS_XI2[s]),
            )
            for label, eq, got, want in witnesses:
                diff = [a - b for a, b in zip(got, want)]
                out.add(f"split.witness.s{s}.{label}", residual_entry(label, eq, EXACT, diff))
            entries = _split_reports(sr).entries
            for rep_to in others:
                entries += transported_constituent_residuals(sr, rep_to).entries
            for e in entries:
                out.add(f"split.witness.s{s}.{e.label}", e)

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
                for e in _split_reports(sr):
                    agg.add(e.label, e.equation, e.residual)
            dot = sum(a.conjugate() * b for a, b in zip(amps[0], amps[1]))
            agg.add("u-orthogonality", "Dirac1", abs(dot))
        agg.emit(out, "split.fuzz", lambda label: config.tol)

        p_on = FourMomentum.on_shell(1.0, (2.0, 2.0, 0.0))
        amp = u_spinor(p_on, sp, 1).amplitude
        p_off = FourMomentum((p_on.p[0] + 0.5,) + p_on.p[1:], 1.0, FLOAT)
        f_off = field_of(PlaneWaveTerm(amp, p_off, 1), sp)
        out.add("split.control.offshell-dirac",
                residual_entry("offshell-dirac", "Dirac1", FLOAT, dirac_residual(f_off, 1.0)),
                _OFFSHELL_FLOOR, CONTROL)
        out.add("split.control.offshell-rejected",
                residual_entry("offshell-rejected", "Dirac1", FLOAT, None),
                _raises(lambda: split(f_off, 1.0), NotASolution), RAISES)
        k = FourMomentum.floats((1.0, 0.0, 0.0, 1.0), 0)
        wf = field_of(weyl_spinor(k, sp, "left"), sp)
        out.add("split.control.massless-rejected",
                residual_entry("massless-rejected", "DEF1", FLOAT, None),
                _raises(lambda: split(wf, 0.0), SplitRequiresMass), RAISES)


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
                    out.add(f"weyl.witness.{rep.name}.{ch}.{short}", e)
                proj = view.q_plus if ch == "left" else view.q_minus
                moved = f.apply(proj) - f
                out.add(f"weyl.witness.{rep.name}.{ch}.chiral-image",
                        residual_entry("chiral-image", "DiracNeutrino", EXACT, moved))
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
    out.add("weyl.control.massive-rejected",
            residual_entry("massive-rejected", "Weyl1", FLOAT, None),
            _raises(lambda: weyl_residuals(massive), WeylRequiresMassless), RAISES)
    forced = weyl_residuals(massive, check_mass=False)
    out.add("weyl.control.massive-residual", forced.worst("massive-residual", "Weyl1"),
            _CONTROL_FLOOR, CONTROL)


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
                        out.add(f"majorana.witness.s{s}.{short}", e)
                else:
                    for label, eq, resid in (
                        ("selfconj", "MAJORANA", maj - charge_conjugate(maj)),
                        ("dirac", "Dirac1", dirac_residual(maj, Fraction(_WITNESS_MASS))),
                    ):
                        out.add(f"majorana.witness.{rep.name}.s{s}.{label}",
                                residual_entry(label, eq, EXACT, resid))
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
                out.add(f"covariance.{rep.name}.{e.label}", e)
            for idx, (a, b, mv) in enumerate(((3, 2, 1), (5, -7, 2))):
                op = (
                    rep.gammas[0].scale(a)
                    - rep.gammas[1].scale(b)
                    - Matrix.identity(4).scale(mv)
                )
                v = rep.on(EXACT).v
                out.add(f"covariance.{rep.name}.v-reduced-op.{idx}",
                        residual_entry("v-reduced-op", "V", EXACT, v @ op @ v.adjoint() - op))
            # the premise of the closed-form spinor transform, plane by plane
            sigmas = rep.on(EXACT).sigmas
            for mu in range(4):
                for nu in range(mu + 1, 4):
                    sig = sigmas[mu][nu]
                    square = sig @ sig - Matrix.identity(4).scale(
                        METRIC_SIGNS[mu] * METRIC_SIGNS[nu])
                    out.add(f"covariance.{rep.name}.sigma-square.{mu}{nu}",
                            residual_entry("sigma-square", "S", EXACT, square))

        if not config.run_float:
            continue

        for kind, plane in _PLANES:
            for w in _OMEGA_GRID:
                params = LorentzParams(kind, plane, w)
                prefix = f"covariance.{rep.name}.{kind}{plane[0]}{plane[1]}.w{w:g}"
                for e in covariance_check(params, rep):
                    tol = config.strict_tol if e.label == "vector.metric" else config.tol
                    out.add(f"{prefix}.{e.label}", e, tol)
        for e in pi_commutation_check(rep, omegas=(0.5, 1.3, 3.0)):
            if e.backend == FLOAT:
                out.add(f"covariance.{rep.name}.{e.label}", e, config.strict_tol)

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
            out.add(f"covariance.{rep.name}.control.sign-flip",
                    bad.worst("sign-flip", "Pconditions"), _CONTROL_FLOOR, CONTROL)
            s01 = spinor_transform(LorentzParams("boost", (0, 1), 1.0), rep)
            p1f = rep.on(FLOAT).p[0]
            noncommute = residual_entry("boost01-noncommute", "S", FLOAT, commutator(s01, p1f))
            out.add(f"covariance.{rep.name}.control.boost01-noncommute", noncommute,
                    _CONTROL_FLOOR, CONTROL)


def _special_frame_checks(config: RunConfig, out: _Collector) -> None:
    sp = build_rep("spinor")
    view = sp.on(FLOAT)
    p1f, p2f = view.p[:2]

    p_w = FourMomentum.floats(_WITNESS_P, _WITNESS_MASS)
    rot, boost = special_frame(p_w)
    moved = vector_transform(boost).apply(vector_transform(rot).apply(p_w))
    offsets = (moved.p[0] - 3.0, moved.p[1] - 8.0 ** 0.5, moved.p[2], moved.p[3])
    out.add("covariance.special-frame.witness",
            residual_entry("witness", "P1a", FLOAT, offsets), config.strict_tol)

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
