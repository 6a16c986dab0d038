"""Deterministic verification suites: structural checks plus fuzz campaigns.

A run is one list in report order: each suite appends record tuples
``(check_id, entry[, bound[, kind]])`` of residual entries
(``reports.residual_entry``) and fuzz campaigns (``_Campaign``), and
``_measure_campaigns`` turns the list into flat check records.  One
function, ``_judged``, meets each entry with its bound and kind, and the
kind decides the verdict (see ``reports``; a NaN residual fails every
kind).  Exact-backend records pass only when the residual is identically
zero; float records compare against the run tolerance.  Families whose
bounds are pinned two decades tighter (massless algebra, metric
preservation, generator commutators, frame drift, and the float runs of
the structural suites) use tol/100 so the default 1e-10 run enforces
1e-12 on them.

Every record that depends on the basis and the backend alone, not on
the seed, trials, tolerance or ranges, is built and kept by this
module, in a ``functools.cache`` builder that returns finished
``(check_id, entry[, bound, kind])`` records and measures them on its
first call; a runner reads them and attaches the run's bound where the
record has none.  A warm run therefore measures none of them again,
and ``_judged`` still builds each run's records and verdicts.  The
structural suites state their relations on the matrices of each
representation's view (``gamma.RepView``), which holds matrices and
validations only: ``_clifford_records`` and ``_projector_records`` are
kept per backend, the exact block of ``covariance`` per basis
(``_covariance_records``).  On the exact backend the residuals a
validation checked, the projector family's and the intertwiners', are
recorded as the very entries it measured.

A claim is stated once, on one plane-wave term, as ``(label, equation,
value)`` relations (see ``subsolutions``), and checked from that one
statement exactly on a witness and in floats over seeded fuzz: the
split's through ``_split_relations`` (``split_term``, then
``split_relations``), the others' through ``_weyl_relations`` and
``_majorana_relations``, each on the backend of the momentum it is
given.  A witness measures its terms' relations, concatenated
(``subsolutions.termwise``), into entries with
``reports.residual_report``.  Those entries depend on the basis alone,
so ``_<suite>_witness`` keeps them per basis: a warm exact run does no
exact arithmetic.  The split witness calls no ``split``, so a wrong
statement fails its records and raises nothing.  The Weyl and Majorana
suites share one loop (``_per_basis``): per selected basis, its exact
witness, then its float campaign.  The float controls of ``split`` and
``weyl`` (one builder, ``_controls``, keyed by suite), each basis's
Lorentz certificates (``_lorentz_certificates``) and the special frame
of the witness momentum (``_special_frame_witness``) are kept the same
way.  Only the pinned bases, which live as long as the process, reach
these builders.  A fuzz trial passes its sampled modes' amplitudes
straight in and builds no field and no entry, and a covariance trial
transforms each term once: its amplitude through S and its momentum
through a.  No record moves a field between bases: each basis splits
its own exact u_s at the witness momentum, a covariance trial splits
its u in that trial's basis, and the Weyl records state each basis's
own chiral solutions.  The split fuzz alone stays in the spinor basis,
whatever the run's ``rep``.  Every campaign is measured by one driver,
``_measure_campaigns``, once the suites have listed all their other
records; it then walks the list once, so each campaign's records take
its place and the report's order is the list's.  An error inside a
campaign is therefore raised after every structural entry of the run has
been measured.  The driver reads ``reports.magnitude`` of each value,
the float an entry would record, and keeps each label's largest, NaN if
any trial gave NaN.  Trials derive per-trial sub-seeds from (seed,
family tag, index), so records are independent of execution order and
two runs with the same config produce identical reports.

That independence lets a run's campaigns share the machine's cores
(``_shared``), with one fork per run.  Each campaign's trials are cut
into contiguous chunks, one per worker; the parent computes the first
chunk of every campaign, and a child forked for each other worker
computes its chunk of every campaign, in run order, on a core other
than the parent's, and sends the per-label worst back down a pipe.  The
parent folds each campaign's chunks in chunk order with the rule that
folds the trials (``_keep_worst``): the maximum, NaN first, does not
depend on how the trials were grouped, so the report is the serial one
to the last bit.  On any failure the parent kills its children and runs
every campaign serially, so an error is raised as a serial run raises
it.  Forking happens only where ``os.fork`` exists, the process runs one
thread, and each worker gets at least ``_FORK_FLOOR`` trials summed over
the run's campaigns (the default run, and the 220 trials of ``--rep all
--trials 20``; no run of fewer than 200 trials).  This cuts wall time,
not CPU time.

Negative controls are expected-fail checks: they pass when a residual
is LARGE (kind ``CONTROL``) or when the right error is raised (kind
``RAISES``), keeping the suite honest about its own discriminating power.
"""

from __future__ import annotations

import marshal
import math
import os
import signal
import threading
import time
import zlib
from functools import cache
from random import Random

from . import kernels
from .errors import NotASolution, SplitRequiresMass, WeylRequiresMassless
from .fields import (
    FourMomentum,
    PlaneWaveTerm,
    _sub,
    dirac_matrix,
    dirac_residual,
    field_of,
    u_spinor,
    weyl_spinor,
)
from .gamma import INDEX_PAIRS, METRIC_SIGNS, REP_NAMES, _family_residuals, build_rep
from .lorentz import (
    COVARIANCE_GRID,
    float_certificates,
    special_frame,
    spinor_transform,
    transformed_projectors,
    vector_transform,
)
from .matrices import Matrix, commutator
from .reports import (
    CONTROL,
    RAISES,
    CheckRecord,
    Report,
    ResidualEntry,
    magnitude,
    residual_entry,
    residual_report,
)
from .scalars import EXACT, FLOAT, SCALAR_TYPE, GaussianRational
from .subsolutions import (
    majorana_relations,
    split,
    split_relations,
    split_term,
    termwise,
    weyl_relations,
    weyl_residuals,
)
from .values import Value, store

DEFAULT_SEED = 0xD14AC0DE
SUITE_NAMES = ("clifford", "projectors", "split", "weyl", "majorana", "covariance")
REP_CHOICES = ("spinor", "standard", "majorana", "all")
BACKEND_CHOICES = ("exact", "float", "both")

_STRICT_FACTOR = 1e-2  # families pinned two decades below the run tolerance
_CONTROL_FLOOR = 0.1  # expected-fail controls must exceed this
_OFFSHELL_FLOOR = 1e-3
_MASSLESS_FLOOR = 1e-6  # the Weyl fuzz draws |p| above this
_COV_TRIAL_CAP = 200
#: the fewest trials, summed over a run's campaigns, that each worker of a
#: forked run takes: on a 2-core machine a two-way fork of a 100-trial split
#: campaign broke even and of a 200-trial one saved 40% of its wall time
_FORK_FLOOR = 100

_MIX1 = 0x9E3779B97F4A7C15
_MIX2 = 0xBF58476D1CE4E5B9
_MASK64 = (1 << 64) - 1


class RunConfig(Value):
    """One run's settings; ``_fields`` names them in declaration order."""

    __slots__ = _fields = ("suite", "rep", "backend", "tol", "trials", "seed", "mass_range",
                           "momentum_range")

    def __init__(self, suite: str = "all", rep: str = "spinor", backend: str = "both",
                 tol: float = 1e-10, trials: int = 1000, seed: int = DEFAULT_SEED,
                 mass_range: tuple = (0.1, 10.0), momentum_range: tuple = (0.0, 10.0)):
        store(self, "suite", suite)
        store(self, "rep", rep)
        store(self, "backend", backend)
        store(self, "tol", tol)
        store(self, "trials", trials)
        store(self, "seed", seed)
        store(self, "mass_range", mass_range)
        store(self, "momentum_range", momentum_range)

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
            if not (isinstance(rng, (list, tuple)) and len(rng) == 2):
                raise ValueError(f"{key} must be a pair (lo, hi)")
            if not all(_is_finite(x) for x in rng):
                raise ValueError(f"{key} entries must be finite numbers")
        lo, hi = self.mass_range
        if not (0 < lo <= hi):
            raise ValueError("mass_range must satisfy 0 < lo <= hi")
        lo, hi = self.momentum_range
        if not (0 <= lo <= hi):
            raise ValueError("momentum_range must satisfy 0 <= lo <= hi")
        if self.suite in ("all", "weyl") and self.run_float and hi <= _MASSLESS_FLOOR:
            raise ValueError(f"the Weyl float fuzz draws |p| above {_MASSLESS_FLOOR:g}, "
                             "so momentum_range must reach above it")

    def to_dict(self) -> dict:
        """Every field in declaration order, the ranges as lists."""
        items = ((name, getattr(self, name)) for name in self._fields)
        return {k: list(v) if isinstance(v, (list, tuple)) else v for k, v in items}

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
_SPINOR = build_rep("spinor")


# -- record judging ---------------------------------------------------------------


def _judged(check_id: str, entry: ResidualEntry, bound=0.0, kind=None) -> CheckRecord:
    """The record of ``entry`` as check ``check_id``, judged by its kind against ``bound``.

    Without a kind the check is an ordinary one: exact zero on the
    exact backend, within ``bound`` on the float backend.
    """
    ok = entry.passes(kind, bound) if kind else entry.within(bound)
    return CheckRecord(check_id, entry.equation, entry.backend, entry.residual,
                       entry.exact_zero, ok)


def _raises(fn, exc_type) -> bool:
    """Whether ``fn()`` raises ``exc_type``: the bound of a RAISES check."""
    try:
        fn()
    except exc_type:
        return True
    return False


# -- seeded fuzz -----------------------------------------------------------------


class _Campaign:
    """A fuzz campaign: per label, the largest value ``measure`` gives over seeded trials.

    ``measure(rng, trial)`` yields ``(label, equation, value)`` relations,
    ``value`` anything ``residual_entry`` measures; trial ``i`` draws from
    the sub-seed of (``seed``, ``tag``, i).  Only ``reports.magnitude`` is
    read of each value, so no entry is built per trial.  Each label
    becomes one float check ``<prefix>.<label>`` judged within
    ``tol_for(label)`` and tagged with the label's first equation, in
    order of first appearance.  As in ``kernels.max_abs``, a NaN from any
    trial makes the record NaN, and it fails.  A runner appends the
    campaign to the run's list; it runs later, with every other campaign
    of the run (``_measure_campaigns``), and its records take its place
    in the list.  A plain class, with no generated methods: no class of
    the package is built with ``dataclasses``, whose import and per-class
    code generation a fresh interpreter would pay for (see ``values``).
    """

    def __init__(self, prefix, tag, trials, seed, measure, tol_for):
        self.prefix, self.tag, self.trials, self.seed = prefix, tag, trials, seed
        self.measure, self.tol_for = measure, tol_for

    def worst_of(self, k: int = 0, n: int = 1) -> dict:
        """The worst per label of chunk ``k`` of ``n``: trials ``trials*k//n`` up to ``trials*(k+1)//n``."""
        worst = {}
        for trial in range(self.trials * k // n, self.trials * (k + 1) // n):
            rng = Random(_sub_seed(self.seed, self.tag, trial))
            _keep_worst(worst, ((label, equation, magnitude(value)) for label, equation, value
                                in self.measure(rng, trial)))
        return worst


def _measure_campaigns(out: list) -> list:
    """The run's records: each tuple of ``out`` judged, each campaign's records in its place.

    ``out`` holds ``(check_id, entry[, bound[, kind]])`` tuples and
    ``_Campaign``s in report order.  Every campaign is measured first,
    together (``_shared``).
    """
    worsts = iter(_shared([item for item in out if type(item) is _Campaign]))
    records = []
    for item in out:
        if type(item) is not _Campaign:
            records.append(_judged(*item))
            continue
        for label, (equation, value) in next(worsts).items():
            records.append(_judged(f"{item.prefix}.{label}",
                                   residual_entry(label, equation, FLOAT, value),
                                   item.tol_for(label)))
    return records


def _keep_worst(worst: dict, relations) -> dict:
    """Fold ``(label, equation, magnitude)`` triples into ``worst``: label -> [equation, worst].

    A label keeps its first equation.  A value replaces the one held when
    it is larger or NaN, unless a NaN is held already.  So a label ends
    with its first NaN, or else its first largest value, whatever the
    grouping of the triples: folding the worst of consecutive chunks in
    chunk order (``_merged``) gives, to the bit, what folding every
    triple in order does.
    """
    for label, equation, value in relations:
        prev = worst.get(label)
        if prev is None:
            worst[label] = [equation, value]
        elif not value <= prev[1] and prev[1] == prev[1]:  # larger or NaN, unless NaN held
            prev[1] = value
    return worst


def _merged(parts) -> dict:
    """The worst of consecutive chunks of trials, folded in chunk order into the worst of all."""
    worst = {}
    for part in parts:
        _keep_worst(worst, ((label, equation, value) for label, (equation, value) in part.items()))
    return worst


def _workers(trials: int) -> int:
    """How many processes share a run's campaigns of ``trials`` in all: one, unless forking is safe and pays.

    At most one per usable core, each with at least ``_FORK_FLOOR``
    trials summed over the campaigns.  A fork copies only the calling
    thread, so a lock that another thread holds would stay held in the
    child: with a second thread alive, or without ``os.fork``, the
    campaigns stay serial.
    """
    most = trials // _FORK_FLOOR
    if most < 2 or not hasattr(os, "fork") or _thread_count() != 1:
        return 1
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cores = os.cpu_count() or 1
    return max(1, min(cores, most))


def _thread_count() -> int:
    """The threads of this process: the kernel's count where ``/proc`` lists them, else Python's.

    Native threads (a numerical library's pool, say) count too.
    """
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


def _shared(campaigns) -> list:
    """Each campaign's worst over all its trials, in order, the campaigns sharing one fork.

    With ``n = _workers(total trials)`` above one, ``n - 1`` children are
    forked at once (``_fork``).  Worker k, the parent being worker 0,
    computes chunk k of every campaign in run order (``_chunk_worst``),
    and each campaign's chunks are folded in chunk order (``_merged``).
    On any failure (a fork that fails, after which none is tried, a
    child that fails, an ``Exception`` in the parent's part) every child
    is killed and reaped, and the parent makes one serial pass over the
    campaigns, so an error is raised exactly as a serial run raises it.
    A ``KeyboardInterrupt`` propagates at once.  However this returns or
    raises, no child is left.
    """
    n = _workers(sum(c.trials for c in campaigns))
    if n > 1:
        spare = _spare_cores()
        children = []  # [pid, read end of its pipe] per worker but the parent, pid None once reaped
        try:
            for k in range(1, n):
                child = _fork(campaigns, k, n, spare[k % len(spare)] if spare else None)
                if child is None:
                    break  # no process to spare: fork no more, make the serial pass below
                children.append(child)
            else:
                parts = [_chunk_worst(campaigns, 0, n)] + [_collect(c) for c in children]
                if None not in parts:
                    return [_merged(chunks) for chunks in zip(*parts)]
        except Exception:
            pass  # the serial pass below raises the error a serial run raises
        finally:
            for pid, pipe in children:
                pipe.close()
                if pid is not None:
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
    return [c.worst_of() for c in campaigns]


def _chunk_worst(campaigns, k: int, n: int) -> list:
    """Worker ``k`` of ``n``'s part: chunk ``k`` of each campaign, in run order."""
    return [c.worst_of(k, n) for c in campaigns]


def _spare_cores() -> list:
    """The usable cores but the one this process last ran on; empty where that is unknown.

    A host whose scheduler does not move tasks between cores (a Linux
    cpuset with ``sched_load_balance`` off) keeps a forked child on its
    parent's core, where the two take turns, so each child moves itself
    to one of these.
    """
    try:
        with open("/proc/self/stat", encoding="ascii") as f:
            here = int(f.read().rpartition(")")[2].split()[36])  # field 39, the last core
        return sorted(os.sched_getaffinity(0) - {here})
    except (OSError, AttributeError, ValueError, IndexError):
        return []


def _fork(campaigns, k: int, n: int, core):
    """Fork worker ``k`` of ``n``: a child that sends ``_chunk_worst`` down a pipe with ``marshal``.

    The child runs on ``core`` unless it is None.  Returns ``[pid, read
    end]``, or None when no process can be forked.  The child leaves
    with ``os._exit`` on every path, status 0 only once its result is
    written, so it never runs the parent's code after the fork, its exit
    handlers or its buffered output.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # no process to spare: the parent runs the campaigns serially
        pid = None
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            if core is not None:
                os.sched_setaffinity(0, (core,))
            with open(write_fd, "wb") as pipe:
                pipe.write(marshal.dumps(_chunk_worst(campaigns, k, n)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    if pid is None:
        os.close(read_fd)
        return None
    return [pid, open(read_fd, "rb")]


def _collect(child: list):
    """The chunk worsts a child sent, or None if it failed; the child is reaped either way."""
    pid, pipe = child
    data = pipe.read()
    pipe.close()
    _, status = os.waitpid(pid, 0)
    child[0] = None
    return marshal.loads(data) if status == 0 else None


def _sub_seed(seed: int, tag: str, trial: int) -> int:
    base = zlib.crc32(tag.encode("ascii"))
    return (seed ^ (base * _MIX1) ^ ((trial + 1) * _MIX2)) & _MASK64


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
    """A null momentum with |p| drawn from the momentum range, never below ``_MASSLESS_FLOOR``.

    A draw at or below the floor is redrawn once from the part of the
    range above it (``RunConfig.validate`` demands that part), so even a
    range that barely reaches past the floor needs at most two draws.
    """
    lo, hi = config.momentum_range
    mag = rng.uniform(lo, hi)
    if mag <= _MASSLESS_FLOOR:
        mag = rng.uniform(_MASSLESS_FLOOR, hi)
    d = _sample_direction(rng)
    return FourMomentum.on_shell(0.0, (mag * d[0], mag * d[1], mag * d[2]))


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


@cache
def _clifford_records(backend: str) -> tuple:
    """The clifford suite's records on ``backend``, measured on first call and kept.

    Per basis, ``anticommute.<mu><nu>`` (equation Dirac1) is {gamma^mu,
    gamma^nu} - 2 g^{mu nu} Id for the pairs of ``gamma.INDEX_PAIRS``,
    each zero exactly for a valid representation; then the gamma5
    relations (equation DiracNeutrino): ``gamma5.definition`` is gamma5 +
    i g0 g1 g2 g3, ``gamma5.square`` is gamma5^2 - Id and
    ``gamma5.anticommute.<mu>`` is {gamma5, gamma^mu}.  On the exact
    backend each ordered pair of bases adds its intertwiner's record: the
    worst of the residuals its validation found zero.
    """
    ident = Matrix.identity(4, backend)
    out = []
    for rep in _ALL_REPS:
        view = rep.on(backend)
        gams, g5 = view.gammas, view.gamma5
        relations = []
        for mu, nu in INDEX_PAIRS:
            anti = gams[mu] @ gams[nu] + gams[nu] @ gams[mu]
            if mu == nu:
                anti = anti - ident.scale(2 * METRIC_SIGNS[mu])
            relations.append((f"anticommute.{mu}{nu}", "Dirac1", anti))
        g0, g1, g2, g3 = gams
        relations += [
            ("gamma5.definition", "DiracNeutrino",
             g5 + (g0 @ g1 @ g2 @ g3).scale(SCALAR_TYPE[backend](0, 1))),
            ("gamma5.square", "DiracNeutrino", g5 @ g5 - ident),
        ]
        relations += [(f"gamma5.anticommute.{mu}", "DiracNeutrino", g5 @ g + g @ g5)
                      for mu, g in enumerate(gams)]
        out += [(f"clifford.{rep.name}.{e.label}", e) for e in residual_report(backend, relations)]
    if backend == EXACT:
        out += [(f"clifford.intertwiner.{a.name}-to-{b.name}",
                 a.on(EXACT).intertwiner(b).residuals.worst()) for a, b in _REP_PAIRS]
    return tuple(out)


def _run_clifford(config: RunConfig, out: list) -> None:
    out += [(check_id, e, config.strict_tol)
            for check_id, e in _clifford_records(_structural_backend(config))]


# -- projectors suite -------------------------------------------------------------

def _swap_relations(view, v: Matrix) -> list:
    """V P1 V^-1 - P2 and V P2 V^-1 - P1 for a unitary ``v``: zero for the view's own V."""
    p1, p2 = view.p[:2]
    vinv = v.adjoint()
    return [("v-swap.p1-to-p2", "V", v @ p1 @ vinv - p2),
            ("v-swap.p2-to-p1", "V", v @ p2 @ vinv - p1)]


@cache
def _projector_records(backend: str) -> tuple:
    """The projectors suite's records on ``backend``, measured on first call and kept.

    For each basis, the relations of its projector family, in report
    order:

    * those of ``gamma._family_residuals``: on the exact backend the
      entries its validation measured (``RepView.projectors[4]``), on the
      float one measured afresh;
    * [P_k, gamma5], the complement 1 - P_k (idempotent and orthogonal to
      P_k: the larger residual), and V P1 V^-1 - P2, V P2 V^-1 - P1;
    * on the exact backend only, [V, gamma0], [V, gamma1] and V's
      unitarity.

    The exact backend then adds P1..P4 and Q- minus their pinned
    spinor-basis diagonals, and for each ordered pair of bases the worst
    of W P_k Wdag - norm2 P'_k (``transport.p<k>``, equation PRO), the
    family carried by the pinned intertwiner.  Last comes the negative
    control, a ``(check_id, entry, bound, kind)`` record: the swap
    relations of the spinor basis with the identity for V, far from zero.
    """
    out = []
    for rep in _ALL_REPS:
        view = rep.on(backend)
        q_plus, q_minus, ps, v, family = view.projectors
        if backend != EXACT:
            family = _family_residuals(q_plus, q_minus, ps, v)
        checked = {e.label: e for e in family}
        commutes = residual_report(backend, (
            (f"p{k}.gamma5-commute", "PRO", commutator(p, view.gamma5))
            for k, p in enumerate(ps, start=1)))
        relations = [(f"complement.p{k}", "PRO", (eps @ eps - eps).entries + (eps @ p).entries)
                     for k, (p, eps) in enumerate(zip(ps, view.complements), start=1)]
        relations += _swap_relations(view, v)
        if backend == EXACT:
            relations += [("v-swap.commute-gamma0", "V", commutator(v, view.gammas[0])),
                          ("v-swap.commute-gamma1", "V", commutator(v, view.gammas[1]))]

        entries = [checked[label] for label in
                   ("q.sum", "q.idempotent-plus", "q.idempotent-minus", "q.orthogonal")]
        for k, commute in enumerate(commutes, start=1):
            entries += [checked[f"p{k}.idempotent"], checked[f"p{k}.trace"], commute]
        entries += [e for e in family if e.label == "sum" or e.label.startswith("commute.")]
        entries += residual_report(backend, relations).entries
        if backend == EXACT:
            entries.append(checked["v-swap.unitary"])
        out += [(f"projectors.{rep.name}.{e.label}", e) for e in entries]

    spinor = _SPINOR.on(backend)
    if backend == EXACT:
        diagonals = ((1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1))
        relations = [(f"p{k}.diagonal", f"P{k}", p - Matrix.diag(d))
                     for k, (p, d) in enumerate(zip(spinor.p, diagonals), start=1)]
        relations.append(("qminus.diagonal", "DiracNeutrino",
                          spinor.q_minus - Matrix.diag((1, 1, 0, 0))))
        out += [(f"projectors.spinor.{e.label}", e) for e in residual_report(EXACT, relations)]
        for rep_a, rep_b in _REP_PAIRS:
            link = rep_a.on(EXACT).intertwiner(rep_b)
            wd = link.w.adjoint()
            pairs = zip(rep_a.on(EXACT).p, rep_b.on(EXACT).p)
            transport = residual_report(EXACT, (
                (f"transport.p{k}", "PRO", link.w @ a @ wd - b.scale(link.norm2))
                for k, (a, b) in enumerate(pairs, start=1)))
            out.append((f"projectors.transport.{rep_a.name}-to-{rep_b.name}", transport.worst()))

    control = residual_report(backend, _swap_relations(spinor, Matrix.identity(4, backend)))
    out.append(("projectors.control.identity-for-v", control.worst(), _CONTROL_FLOOR, CONTROL))
    return tuple(out)


def _run_projectors(config: RunConfig, out: list) -> None:
    *records, control = _projector_records(_structural_backend(config))
    out += [(check_id, e, config.strict_tol) for check_id, e in records]
    out.append(control)


# -- split suite ------------------------------------------------------------------


def _basis_part(rep) -> str:
    """The basis part of split and Majorana check ids and sub-seed tags; none for the spinor."""
    return "" if rep is _SPINOR else f".{rep.name}"


def _split_relations(rep, p: FourMomentum, amp: tuple) -> tuple:
    """The constituents of the term ``amp`` at (p, +1) in ``rep``, and the split's relations there.

    ``split_term`` gives the constituents once, on p's backend, and
    ``split_relations`` states the term's recombination, identity and
    constituent families on them, concatenated: the one statement of the
    split that its exact witness and its float fuzz both check.
    """
    view = rep.on(p.backend)
    constituents = split_term(view, amp, p, 1, p.mass)
    families = split_relations(view, amp, constituents, p, 1, p.mass)
    return constituents, [r for family in families for r in family]


@cache
def _split_witness(rep) -> tuple:
    """The split suite's exact records of ``rep``, measured on first call and kept.

    Each spin's exact u_s at the witness momentum is split in ``rep``
    itself by ``_split_relations``, and every relation it gives that
    basis is recorded.  The spinor basis adds its component records:
    gamma.p against the componentwise block, and, ahead of each spin's
    split relations, u_s and the xi pairs of its constituents against
    their pinned values.
    """
    out = []
    if rep is _SPINOR:
        for tag, comps in (("witness", _WITNESS_P), ("tilted", (3, 0, 2, 2))):
            q = FourMomentum.exact(comps, 1)
            block = dirac_matrix(rep, q, 1) - _component_block(q)
            out.append((f"split.dirac2-block.{tag}",
                        residual_entry("dirac2-block", "Dirac2", EXACT, block)))
    p = FourMomentum.exact(_WITNESS_P, _WITNESS_MASS)
    for s in (1, 2):
        u = u_spinor(p, rep, s).amplitude
        (psi1, psi2), relations = _split_relations(rep, p, u)
        if rep is _SPINOR:
            relations = [
                ("u-amplitude", "Dirac1", _sub(u, _WITNESS_U[s], EXACT)),
                ("xi1-values", "DEF1", _sub(psi1[:2], _WITNESS_XI1[s], EXACT)),
                ("xi2-values", "DEF1", _sub(psi2[:2], _WITNESS_XI2[s], EXACT)),
            ] + relations
        out += [(f"split.witness{_basis_part(rep)}.s{s}.{e.label}", e)
                for e in residual_report(EXACT, relations)]
    return tuple(out)


def _run_split(config: RunConfig, out: list) -> None:
    if config.run_exact:
        for rep in _ALL_REPS:
            out += _split_witness(rep)

    if config.run_float:
        def trial_residuals(rng, _):
            p = _sample_massive(rng, config)
            amps = []
            for s in (1, 2):
                amp = u_spinor(p, _SPINOR, s).amplitude
                amps.append(amp)
                yield ("input-dirac-residual", "Dirac1",
                       dirac_matrix(_SPINOR, p, 1, p.mass).apply(amp))
                norm = kernels.ordered_sum(abs(a) ** 2 for a in amp)
                yield "u-normalization", "Dirac1", abs(norm - 2.0 * p.p[0])
                yield from _split_relations(_SPINOR, p, amp)[1]
            yield "u-orthogonality", "Dirac1", abs(kernels.ordered_sum(
                (a.conjugate() * b for a, b in zip(*amps)), 0j))

        out.append(_Campaign("split.fuzz", "split", config.trials, config.seed,
                             trial_residuals, lambda label: config.tol))
        out += _controls()["split"]


@cache
def _controls() -> dict:
    """The float controls of the split and Weyl suites, keyed by suite, measured once and kept.

    Each is a ``(check_id, entry, bound, kind)`` record on the spinor
    basis.  Both suites' controls start from the float u_1 at the
    witness momentum: the split's move it off the shell, and the Weyl
    suite's hold this massive solution to the massless relations.  The
    split also refuses a massless Weyl field.
    """
    term = u_spinor(FourMomentum.floats(_WITNESS_P, _WITNESS_MASS), _SPINOR, 1)
    amp, p = term.amplitude, term.momentum
    p_off = FourMomentum((p.p[0] + 0.5,) + p.p[1:], 1.0, FLOAT)
    f_off = field_of(PlaneWaveTerm(amp, p_off, 1), _SPINOR)
    k = FourMomentum.floats((1.0, 0.0, 0.0, 1.0), 0)
    wf = field_of(weyl_spinor(k, _SPINOR, "left"), _SPINOR)
    massive = field_of(term, _SPINOR)
    forced = weyl_relations(_SPINOR.on(FLOAT), amp, p, 1)
    return {"split": (
        ("split.control.offshell-dirac",
         residual_entry("offshell-dirac", "Dirac1", FLOAT, dirac_residual(f_off, 1.0)),
         _OFFSHELL_FLOOR, CONTROL),
        ("split.control.offshell-rejected",
         residual_entry("offshell-rejected", "Dirac1", FLOAT, None),
         _raises(lambda: split(f_off, 1.0), NotASolution), RAISES),
        ("split.control.massless-rejected",
         residual_entry("massless-rejected", "DEF1", FLOAT, None),
         _raises(lambda: split(wf, 0.0), SplitRequiresMass), RAISES),
    ), "weyl": (
        ("weyl.control.massive-rejected",
         residual_entry("massive-rejected", "Weyl1", FLOAT, None),
         _raises(lambda: weyl_residuals(massive), WeylRequiresMassless), RAISES),
        ("weyl.control.massive-residual",
         residual_entry("massive-residual", "Weyl1", FLOAT, [magnitude(v) for _, _, v in forced]),
         _CONTROL_FLOOR, CONTROL),
    )}


# -- weyl and majorana suites -----------------------------------------------------


def _per_basis(config: RunConfig, out: list, witness, fuzz) -> None:
    """Per selected basis, its kept exact records ``witness(rep)``, then its campaign ``fuzz(rep)``."""
    for rep in _selected_reps(config):
        if config.run_exact:
            out += witness(rep)
        if config.run_float:
            out.append(fuzz(rep))


def _weyl_relations(rep, p: FourMomentum):
    """The Weyl relations and the chiral image on p's backend, labelled ``<chirality>.<label>``."""
    view = rep.on(p.backend)
    for ch, proj in (("left", view.q_plus), ("right", view.q_minus)):
        amp = weyl_spinor(p, rep, ch).amplitude
        for label, equation, value in weyl_relations(view, amp, p, 1):
            yield f"{ch}.{label}", equation, value
        yield f"{ch}.chiral-image", "DiracNeutrino", _sub(proj.apply(amp), amp, p.backend)


@cache
def _weyl_witness(rep) -> tuple:
    """The Weyl suite's exact records of ``rep`` on its null witness, measured once and kept."""
    witness = FourMomentum.exact(_WEYL_WITNESS_K, 0)
    return tuple((f"weyl.witness.{rep.name}.{e.label}", e)
                 for e in residual_report(EXACT, _weyl_relations(rep, witness)))


def _run_weyl(config: RunConfig, out: list) -> None:
    _per_basis(config, out, _weyl_witness, lambda rep: _Campaign(
        f"weyl.fuzz.{rep.name}", f"weyl.{rep.name}", config.trials, config.seed,
        lambda rng, _: _weyl_relations(rep, _sample_massless(rng, config)),
        lambda label: config.strict_tol))
    if config.run_float:
        out += _controls()["weyl"]


def _majorana_relations(rep, p: FourMomentum, s: int):
    """The relations on p's backend of the Majorana field u_s + C u_s, term by term.

    Its terms are u_s at (p, +1) and C u_s = M conj(u_s) at (p, -1),
    each the other's partner; ``subsolutions.majorana_relations`` decides
    which relations each basis has.
    """
    view = rep.on(p.backend)
    u = u_spinor(p, rep, s).amplitude
    cu = view.conjugation.apply(tuple(a.conjugate() for a in u))
    for amp, sign, partner in ((u, 1, cu), (cu, -1, u)):
        yield from majorana_relations(view, amp, partner, p, sign, p.mass)


@cache
def _majorana_witness(rep) -> tuple:
    """The Majorana suite's exact records of ``rep`` on the witness, measured once and kept."""
    p = FourMomentum.exact(_WITNESS_P, _WITNESS_MASS)
    return tuple((f"majorana.witness{_basis_part(rep)}.s{s}.{e.label}", e) for s in (1, 2)
                 for e in residual_report(EXACT, termwise([_majorana_relations(rep, p, s)])))


def _run_majorana(config: RunConfig, out: list) -> None:
    def fuzz(rep):
        def trial_residuals(rng, _):
            p = _sample_massive(rng, config)
            for s in (1, 2):
                yield from _majorana_relations(rep, p, s)

        name = _basis_part(rep)
        # self-conjugacy must cancel term-by-term, not merely within tol
        return _Campaign(f"majorana.fuzz{name}", f"majorana{name}", config.trials, config.seed,
                         trial_residuals, lambda label: 0.0 if label == "selfconj" else config.tol)

    _per_basis(config, out, _majorana_witness, fuzz)


# -- covariance suite -------------------------------------------------------------

def _sampled_split(rng: Random, config: RunConfig, trial: int, rep):
    """A seeded massive momentum p, and the amplitudes (u, Psi_(1), Psi_(2)) of u's split in rep.

    u is ``rep``'s u_s(p) at frequency sign +1, the spin alternating by
    trial.
    """
    p = _sample_massive(rng, config)
    u = u_spinor(p, rep, 1 + trial % 2).amplitude
    return p, (u,) + split_term(rep.on(FLOAT), u, p, 1, p.mass)


@cache
def _covariance_records(rep) -> tuple:
    """The exact covariance records of ``rep``, in report order, measured on first call and kept.

    ``commute.sigma<mu><nu>.P<i>`` (equation S) is [sigma_03, P_i] and
    [sigma_12, P_i] for i = 1, 2: the (0,3) boost and (1,2) rotation act
    inside each subsolution class.  ``v-reduced-op.<n>`` (equation V) is
    V op V^-1 - op for op = a gamma0 - b gamma1 - m, ``dirac_matrix`` at
    (a, b, 0, 0), at two pinned (a, b, m): V keeps the reduced Dirac
    operator of the special frame.
    ``sigma-square.<mu><nu>`` (equation S) is sigma_{mu nu}^2 - g_{mu mu}
    g_{nu nu} Id, the premise of ``lorentz.spinor_transform``.
    """
    view = rep.on(EXACT)
    sigmas, ps, v = view.sigmas, view.p, view.v
    ident = Matrix.identity(4)
    relations = [(f"commute.sigma{mu}{nu}.P{i}", "S", commutator(sigmas[mu][nu], ps[i - 1]))
                 for mu, nu in ((0, 3), (1, 2)) for i in (1, 2)]
    vd = v.adjoint()
    for n, (a, b, m) in enumerate(((3, 2, 1), (5, -7, 2))):
        op = dirac_matrix(rep, FourMomentum.exact((a, b, 0, 0), m), 1, m)
        relations.append((f"v-reduced-op.{n}", "V", v @ op @ vd - op))
    for mu, nu in INDEX_PAIRS:
        if mu < nu:
            sig = sigmas[mu][nu]
            square = sig @ sig - ident.scale(METRIC_SIGNS[mu] * METRIC_SIGNS[nu])
            relations.append((f"sigma-square.{mu}{nu}", "S", square))
    return tuple((f"covariance.{rep.name}.{e.label}", e) for e in residual_report(EXACT, relations))


def _run_covariance(config: RunConfig, out: list) -> None:
    for rep in _selected_reps(config):
        if config.run_exact:
            out += _covariance_records(rep)

        if not config.run_float:
            continue

        grid, commutators, _ = _lorentz_certificates(rep)
        for e in grid:
            tol = config.strict_tol if e.label.endswith(".vector.metric") else config.tol
            out.append((f"covariance.{rep.name}.{e.label}", e, tol))
        for e in commutators:
            out.append((f"covariance.{rep.name}.{e.label}", e, config.strict_tol))

        def trial_residuals(rng, trial, rep=rep):  # ``rep`` bound now: the campaign runs later
            p, amps = _sampled_split(rng, config, trial, rep)
            # a transformed term is its amplitude through S at its momentum through a
            params = COVARIANCE_GRID[trial % len(COVARIANCE_GRID)]
            s_mat = spinor_transform(params, rep)
            dirac = dirac_matrix(rep, vector_transform(params).apply(p), 1, p.mass)
            yield "transformed-solution", "Dirac1", dirac.apply(s_mat.apply(amps[0]))
            for k, p_prime in zip((1, 2), transformed_projectors(params, rep)):
                yield (f"transformed-constituent{k}", "DP2b",
                       dirac.apply(p_prime.apply(s_mat.apply(amps[k]))))

        out.append(_Campaign(f"covariance.{rep.name}.fuzz", f"covariance.{rep.name}",
                             min(config.trials, _COV_TRIAL_CAP), config.seed, trial_residuals,
                             lambda label: config.tol))

    if config.run_float:
        _special_frame_checks(config, out)
        for rep in _selected_reps(config):
            for e in _lorentz_certificates(rep)[2]:
                out.append((f"covariance.{rep.name}.control.{e.label}", e, _CONTROL_FLOOR,
                            CONTROL))


@cache
def _lorentz_certificates(rep) -> tuple:
    """``lorentz.float_certificates`` of a pinned basis, measured on first call and kept."""
    return float_certificates(rep)


@cache
def _special_frame_witness() -> ResidualEntry:
    """The witness momentum's offsets from (3, 8^(1/2), 0, 0) in its special frame, kept."""
    p_w = FourMomentum.floats(_WITNESS_P, _WITNESS_MASS)
    rot, boost = special_frame(p_w)
    moved = vector_transform(boost).apply(vector_transform(rot).apply(p_w))
    offsets = (moved.p[0] - 3.0, moved.p[1] - 8.0 ** 0.5, moved.p[2], moved.p[3])
    return residual_entry("witness", "P1a", FLOAT, offsets)


def _special_frame_checks(config: RunConfig, out: list) -> None:
    view = _SPINOR.on(FLOAT)
    p1f, p2f = view.p[:2]
    out.append(("covariance.special-frame.witness", _special_frame_witness(),
                config.strict_tol))

    def trial_residuals(rng, trial):
        p, (_, psi1, psi2) = _sampled_split(rng, config, trial, _SPINOR)
        rot, boost = special_frame(p)
        # the rotation, then the boost: each constituent amplitude through S, p through a
        s_rot, s_boost = spinor_transform(rot, _SPINOR), spinor_transform(boost, _SPINOR)
        moved1 = s_boost.apply(s_rot.apply(psi1))
        moved2 = s_boost.apply(s_rot.apply(psi2))
        p_moved = vector_transform(boost).apply(vector_transform(rot).apply(p))
        q0, q1, q2, q3 = p_moved.p
        yield "transverse-zeroed", "P1a", abs(q2)
        yield "transverse-zeroed", "P1a", abs(q3)
        inv_mass = (q0 * q0 - q1 * q1 - q2 * q2 - q3 * q3) ** 0.5
        yield "mass-drift", "Pconditions", abs(inv_mass - p.mass)
        # the frame's reduced operator gamma^0 q0 - gamma^1 q1 - m drops q2 and q3, which
        # "transverse-zeroed" bounds
        reduced = dirac_matrix(_SPINOR, FourMomentum((q0, q1, 0.0, 0.0), p.mass, FLOAT), 1, p.mass)
        proj1 = p1f.apply(moved1)
        yield "P1a", "P1a", reduced.apply(proj1)
        yield "P2a", "P2a", reduced.apply(p2f.apply(moved2))
        image = view.v.apply(proj1)
        yield "v-maps-P1a-to-P2a", "V", reduced.apply(image)
        yield "v-maps-P1a-to-P2a", "V", _sub(p2f.apply(image), image, FLOAT)

    strict = ("transverse-zeroed", "mass-drift")
    out.append(_Campaign("covariance.special-frame.fuzz", "special-frame",
                         min(config.trials, _COV_TRIAL_CAP), config.seed, trial_residuals,
                         lambda label: config.strict_tol if label in strict else config.tol))


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
    out = []
    names = SUITE_NAMES if config.suite == "all" else (config.suite,)
    for name in names:
        _SUITE_RUNNERS[name](config, out)
    checks = _measure_campaigns(out)
    wall_ms = (time.perf_counter() - start) * 1000.0
    return Report(config=config.to_dict(), checks=checks, wall_ms=wall_ms)
