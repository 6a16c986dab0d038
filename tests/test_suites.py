"""Suite runner behavior: determinism, seeding, gating, controls."""

import hashlib
import json
import math
import os
import struct
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit import (
    FourMomentum,
    Matrix,
    PlaneWaveField,
    PlaneWaveTerm,
    Report,
    ResidualEntry,
    RunConfig,
    run,
)
from diracsplit import suites
from diracsplit.errors import NotASolution
from diracsplit.gamma import build_rep
from diracsplit.reports import CONTROL, EXACT_ZERO, RAISES, WITHIN, residual_entry
from diracsplit.scalars import FLOAT
from diracsplit.suites import (
    BACKEND_CHOICES,
    DEFAULT_SEED,
    REP_CHOICES,
    SUITE_NAMES,
    _CONTROL_FLOOR,
    _Collector,
    _fuzz,
    _keep_worst,
    _merged,
    _sub_seed,
)

NAN = float("nan")


@pytest.fixture(scope="module")
def small_report():
    cfg = RunConfig(trials=6)
    return cfg, run(cfg)


# -- configuration -----------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"suite": "spectral"},
        {"rep": "weyl"},
        {"backend": "symbolic"},
        {"tol": 0.0},
        {"tol": -1e-10},
        {"trials": 0},
        {"seed": -1},
        {"seed": 1 << 64},
        {"mass_range": (0.0, 1.0)},
        {"mass_range": (2.0, 1.0)},
        {"momentum_range": (-1.0, 1.0)},
        {"momentum_range": (5.0, 1.0)},
        {"tol": float("inf")},
        {"tol": float("nan")},
        {"trials": True},
        {"trials": 1.5},
        {"seed": True},
        {"seed": 7.0},
        {"mass_range": (0.1, float("inf"))},
        {"momentum_range": ("a", 1.0)},
        {"tol": 10**400},
        {"mass_range": (0.1, 10**400)},
        {"momentum_range": (0.0, 10**400)},
    ],
)
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs).validate()


@pytest.mark.parametrize("key", ["mass_range", "momentum_range"])
@pytest.mark.parametrize("value", [5, None, (1, 2, 3), (1,), "ab"],
                         ids=["int", "none", "three", "one", "string"])
def test_a_malformed_range_is_a_value_error_naming_its_key(key, value):
    with pytest.raises(ValueError, match=f"^{key} must be a pair"):
        run(RunConfig(**{key: value}))


def test_config_defaults_are_valid():
    RunConfig().validate()


@pytest.mark.parametrize("momentum_range", [(0.0, 0.0), (0.0, 1e-7), (0.0, 1e-6)])
def test_weyl_float_fuzz_needs_momenta_above_its_floor(momentum_range):
    """The Weyl fuzz draws |p| above 1e-6; other selections accept any valid range."""
    for suite in ("all", "weyl"):
        for backend in ("float", "both"):
            with pytest.raises(ValueError, match="Weyl float fuzz"):
                RunConfig(suite=suite, backend=backend, momentum_range=momentum_range).validate()
    RunConfig(suite="weyl", backend="exact", momentum_range=momentum_range).validate()
    RunConfig(suite="split", momentum_range=momentum_range).validate()
    RunConfig(momentum_range=(0.0, 1.0000001e-6)).validate()


def test_strict_tol_factor():
    assert RunConfig(tol=1e-8).strict_tol == pytest.approx(1e-10)


def test_config_round_trips_to_dict():
    cfg = RunConfig(suite="weyl", trials=3, seed=7)
    d = cfg.to_dict()
    assert d["suite"] == "weyl" and d["trials"] == 3 and d["seed"] == 7
    assert d["mass_range"] == [0.1, 10.0]


# -- sub-seeding --------------------------------------------------------------


def test_sub_seed_depends_on_all_inputs():
    base = _sub_seed(DEFAULT_SEED, "split", 0)
    assert base != _sub_seed(DEFAULT_SEED, "split", 1)
    assert base != _sub_seed(DEFAULT_SEED, "weyl", 0)
    assert base != _sub_seed(DEFAULT_SEED + 1, "split", 0)
    assert 0 <= base < (1 << 64)


# -- full-run behavior ----------------------------------------------------------


def test_default_run_passes(small_report):
    cfg, report = small_report
    assert isinstance(report, Report)
    assert report.failed == 0
    assert report.passed == len(report.checks) > 0
    assert report.wall_ms > 0


def test_check_ids_unique(small_report):
    _, report = small_report
    ids = [c.check_id for c in report.checks]
    assert len(ids) == len(set(ids))


def test_all_suites_contribute(small_report):
    _, report = small_report
    prefixes = {c.check_id.split(".")[0] for c in report.checks}
    assert prefixes == set(SUITE_NAMES)


def test_controls_present_and_passing(small_report):
    _, report = small_report
    controls = [c for c in report.checks if ".control." in c.check_id]
    ids = {c.check_id for c in controls}
    assert {
        "split.control.offshell-dirac",
        "split.control.massless-rejected",
        "covariance.spinor.control.sign-flip",
        "projectors.control.identity-for-v",
        "covariance.spinor.control.boost01-noncommute",
    } <= ids
    assert all(c.ok for c in controls)


def test_exact_records_have_null_residual(small_report):
    _, report = small_report
    for c in report.checks:
        if c.exact_zero:
            assert c.residual is None
            assert c.backend == "exact"


def test_json_schema_keys(small_report):
    _, report = small_report
    d = report.to_json_dict()
    assert list(d.keys()) == ["config", "checks", "summary", "wall_ms"]
    assert d["summary"] == {"passed": report.passed, "failed": report.failed}
    for c in d["checks"][:5]:
        assert list(c.keys()) == [
            "id", "paper_eq", "backend", "residual", "exact_zero", "pass",
        ]


def test_determinism_modulo_wall_ms():
    cfg = RunConfig(trials=3)
    d1 = run(cfg).to_json_dict()
    d2 = run(cfg).to_json_dict()
    d1.pop("wall_ms")
    d2.pop("wall_ms")
    assert d1 == d2


def test_seed_changes_fuzz_residuals():
    r1 = run(RunConfig(trials=3, seed=1))
    r2 = run(RunConfig(trials=3, seed=2))
    ids1 = [c.check_id for c in r1.checks]
    ids2 = [c.check_id for c in r2.checks]
    assert ids1 == ids2
    res1 = {c.check_id: c.residual for c in r1.checks if ".fuzz." in c.check_id}
    res2 = {c.check_id: c.residual for c in r2.checks if ".fuzz." in c.check_id}
    assert res1 != res2


def test_single_suite_selection():
    report = run(RunConfig(suite="weyl", trials=2))
    assert report.checks
    assert all(c.check_id.startswith("weyl.") for c in report.checks)


def test_exact_only_backend_skips_fuzz():
    report = run(RunConfig(suite="split", backend="exact", trials=2))
    assert report.failed == 0
    assert all(".fuzz." not in c.check_id for c in report.checks)
    assert all(
        c.backend == "exact" for c in report.checks if ".control." not in c.check_id
    )


def test_float_only_backend_has_no_exact_zeros():
    report = run(RunConfig(suite="clifford", backend="float", trials=2))
    assert report.failed == 0
    assert report.checks
    assert all(not c.exact_zero for c in report.checks)


def test_rep_all_covers_every_basis():
    report = run(RunConfig(suite="weyl", rep="all", trials=2))
    for name in ("spinor", "standard", "majorana"):
        assert any(f".{name}." in c.check_id for c in report.checks)


def test_invalid_config_rejected_by_run():
    with pytest.raises(ValueError):
        run(RunConfig(trials=0))


@pytest.mark.parametrize("backend", BACKEND_CHOICES)
@pytest.mark.parametrize("rep", REP_CHOICES)
@pytest.mark.parametrize("suite", SUITE_NAMES)
def test_every_selection_runs_checks(suite, rep, backend):
    """No suite x rep x backend selection passes vacuously with zero checks."""
    report = run(RunConfig(suite=suite, rep=rep, backend=backend, trials=1))
    assert report.failed == 0
    assert report.checks


# -- verdicts by check kind ---------------------------------------------------


def _verdict(entry, bound=0.0, kind=None):
    out = _Collector()
    out.add("x", entry, bound, kind)
    (record,) = out.records
    return record.ok


def test_exact_record_passes_only_when_exactly_zero():
    tiny = ResidualEntry("l", "E", "exact", 1e-12, False)
    assert not tiny.within(1e-10)
    assert not _verdict(tiny, 1e-10)
    assert _verdict(ResidualEntry("l", "E", "exact", None, True), 1e-10)


def test_verdicts_follow_the_check_kind():
    small = ResidualEntry("l", "E", "float", 1e-12, False)
    large = ResidualEntry("l", "E", "float", 0.5, False)
    none = ResidualEntry("l", "E", "float", None, False)
    assert _verdict(small, 1e-10) and not _verdict(large, 1e-10)
    assert _verdict(small, 1e-10, WITHIN) and not _verdict(small, 1e-13, WITHIN)
    assert not _verdict(small, 0.0, EXACT_ZERO)
    assert _verdict(large, 0.1, CONTROL) and not _verdict(small, 0.1, CONTROL)
    assert _verdict(none, True, RAISES) and not _verdict(none, False, RAISES)
    with pytest.raises(ValueError):
        _verdict(small, 0.0, "approximately")


# -- NaN residuals ---------------------------------------------------------------


def _nan_field():
    term = PlaneWaveTerm((NAN, 0, 0, 0), FourMomentum.floats((1.0, 0.0, 0.0, 0.0), 1.0), 1)
    return PlaneWaveField((term,), rep=build_rep("spinor"), backend=FLOAT)


@pytest.mark.parametrize(
    "make_value",
    [_nan_field, lambda: Matrix(2, FLOAT, (complex(NAN), 0j, 0j, 0j)), lambda: [1e-12, NAN]],
    ids=["field", "matrix", "list"],
)
def test_nan_residual_fails_every_kind(make_value):
    entry = residual_entry("l", "E", FLOAT, make_value())
    assert math.isnan(entry.residual)
    assert not _verdict(entry, 1e-10, WITHIN)
    assert not _verdict(entry, _CONTROL_FLOOR, CONTROL)


@pytest.mark.parametrize("nan_trial", [0, 1, 2])
def test_fuzz_driver_keeps_a_nan_from_any_trial(nan_trial):
    def measure(rng, trial):
        yield "r", "E", NAN if trial == nan_trial else 1e-12

    out = _Collector()
    _fuzz(RunConfig(), out, "t", "tag", 3, measure, lambda label: 1e-10)
    (record,) = out.records
    assert record.check_id == "t.r"
    assert math.isnan(record.residual) and not record.ok


def test_fuzz_driver_records_each_labels_largest_value():
    def measure(rng, trial):
        yield "a", "E1", 1e-12 * (trial + 1)
        yield "b", "E2", 1e-11 if trial == 1 else 0.0

    out = _Collector()
    _fuzz(RunConfig(), out, "t", "tag", 3, measure, lambda label: 2e-12)
    assert [(r.check_id, r.equation, r.residual, r.ok) for r in out.records] == [
        ("t.a", "E1", 3e-12, False),
        ("t.b", "E2", 1e-11, False),
    ]


# -- record skeleton -------------------------------------------------------------

#: sha256 of the (id, paper_eq, backend, exact_zero, pass) tuples of
#: run(RunConfig(rep="all", trials=2, backend=b)), in report order
_SKELETON_DIGESTS = {
    "exact": (318, "1aaaa97f71e5bf52819557a0865acfad3531db26247156575a08abb3deb290db"),
    "float": (619, "cd93ec4ea2fb391b78c0e470024ad037eef0ba6cad2d6c1403b9c2183a2e653b"),
    "both": (799, "77b09bd508006426bb666e2c22fc90a701085cc4fd0a347f05bcf021522b6159"),
}


#: sha256 of the full records (id, paper_eq, backend, repr of the residual,
#: exact_zero, pass) of the same runs: any change that moves a float residual,
#: even at roundoff, has to update this digest on purpose
_RECORD_DIGESTS = {
    "exact": (318, "e7960a30f67342d723ea34cf7aafa83f30a4457e015b5ddbe2e0bee43e320e40"),
    "float": (619, "f4f38f15bd00a92f4b01ce2ebee86090fdae35055e3bcdcf860189fce6ea64a8"),
    "both": (799, "e4e47d28f8c4d8482a55bd3f8f46ac31cd4828cf32cb7612fb850cc9d57d4022"),
}


@pytest.mark.parametrize("suite", ("clifford", "projectors"))
@pytest.mark.parametrize("backend", ("exact", "float"))
def test_warm_structural_run_makes_no_matrix_products(suite, backend, monkeypatch):
    """Every structural relation is measured once per view; a second run only reads them."""
    config = RunConfig(suite=suite, rep="all", backend=backend)
    first = run(config)
    products = []
    matmul = Matrix.__matmul__

    def counted(a, b):
        products.append((a, b))
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    second = run(config)
    assert products == []
    assert second.to_json_dict()["checks"] == first.to_json_dict()["checks"]


@pytest.mark.parametrize("backend", BACKEND_CHOICES)
def test_record_skeleton_is_pinned(backend):
    """Ids, order, equations, backends and verdicts of every suite on every basis."""
    report = run(RunConfig(rep="all", trials=2, backend=backend))
    skeleton = [(c.check_id, c.equation, c.backend, c.exact_zero, c.ok) for c in report.checks]
    digest = hashlib.sha256(json.dumps(skeleton).encode()).hexdigest()
    assert (len(skeleton), digest) == _SKELETON_DIGESTS[backend]


@pytest.mark.parametrize("backend", BACKEND_CHOICES)
def test_records_are_pinned(backend):
    """Every record of every suite on every basis, residuals included, to the last digit."""
    report = run(RunConfig(rep="all", trials=2, backend=backend))
    records = [(c.check_id, c.equation, c.backend, repr(c.residual), c.exact_zero, c.ok)
               for c in report.checks]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert (len(records), digest) == _RECORD_DIGESTS[backend]


def test_warm_covariance_run_reads_its_certificates(monkeypatch):
    """The float covariance certificates depend on the basis alone: measured once per view.

    Every other product of a float covariance run is kept too, so a warm
    run multiplies no matrix; one basis's certificates measured afresh do.
    """
    from diracsplit.matrices import Matrix

    config = RunConfig(suite="covariance", rep="all", backend="float", trials=2)
    first = run(config)
    calls = []
    matmul = Matrix.__matmul__

    def counted(a, b):
        calls.append(a)
        return matmul(a, b)

    monkeypatch.setattr(Matrix, "__matmul__", counted)
    second = run(config)
    assert calls == []
    assert second.to_json_dict()["checks"] == first.to_json_dict()["checks"]
    vars(build_rep("majorana").on(FLOAT)).pop("lorentz_certificates")
    assert run(config).to_json_dict()["checks"] == first.to_json_dict()["checks"]
    assert calls


# -- the float fuzz builds each operator once and no record per trial --------------


def _counted_everywhere(monkeypatch, module, name):
    """Wrap ``module.<name>`` in every diracsplit module that binds it; return the call list."""
    import sys

    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        if modname.startswith("diracsplit") and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, counted)
    return calls


@pytest.mark.parametrize("suite", ("split", "weyl", "majorana", "covariance"))
def test_float_fuzz_builds_no_entry_per_trial(suite, monkeypatch):
    """The fuzz reads magnitudes: a run's residual_entry calls do not grow with its trials."""
    from diracsplit import reports

    run(RunConfig(suite=suite, rep="all", backend="float", trials=1))  # fills the views
    calls = _counted_everywhere(monkeypatch, reports, "residual_entry")
    counts = []
    for trials in (2, 5):
        calls.clear()
        run(RunConfig(suite=suite, rep="all", backend="float", trials=trials))
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_split_fuzz_trial_builds_each_gamma_p_once(monkeypatch):
    """gamma.p is built once per (rep, momentum, sign); every mass and operator reuses it.

    A trial samples one momentum and splits both spins at frequency sign
    +1 on the term itself, so each trial builds exactly one gamma.p.
    """
    from diracsplit import fields

    built = _counted_everywhere(monkeypatch, fields, "_gamma_dot")
    counts = []
    for trials in (1, 3):
        built.clear()
        report = run(RunConfig(suite="split", backend="float", trials=trials))
        assert report.failed == 0
        # ``built`` holds every momentum, so no id is reused while it is compared
        keys = [(rep.name, id(p), s) for rep, p, s in built]
        assert keys and len(keys) == len(set(keys))
        counts.append(len(keys))
    assert counts[1] - counts[0] == 2


@pytest.mark.parametrize("suite", ("split", "weyl", "majorana", "covariance"))
def test_float_fuzz_builds_no_field_per_trial(suite, monkeypatch):
    """A fuzz trial measures its relations on the sampled terms: no trial builds a field."""
    from diracsplit import fields

    run(RunConfig(suite=suite, rep="all", backend="float", trials=1))  # fills the views
    built = []
    init = fields.PlaneWaveField.__init__
    monkeypatch.setattr(fields.PlaneWaveField, "__init__",
                        lambda *args, **kwargs: built.append(args) or init(*args, **kwargs))
    counts = []
    for trials in (2, 5):
        built.clear()
        run(RunConfig(suite=suite, rep="all", backend="float", trials=trials))
        counts.append(len(built))
    assert counts[0] == counts[1]


# -- a large campaign shares its trials between processes ------------------------------


def _records(report):
    return [(c.check_id, c.equation, c.backend, repr(c.residual), c.exact_zero, c.ok)
            for c in report.checks]


def _force_workers(monkeypatch, workers):
    monkeypatch.setattr(suites, "_workers", lambda trials: workers)


def test_report_does_not_depend_on_the_worker_count(monkeypatch):
    """The NaN records of a huge momentum range come out the same from any number of workers."""
    config = RunConfig(rep="all", trials=500, momentum_range=(1e150, 1e153))
    natural = _records(run(config))
    assert any(r[3] == "nan" for r in natural)
    for workers in (1, 2, 3, 5):
        _force_workers(monkeypatch, workers)
        assert _records(run(config)) == natural, workers


def _bits(worst):
    return [(label, equation, struct.pack("<d", value)) for label, (equation, value)
            in worst.items()]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abc"), st.floats()), max_size=40), st.data())
def test_merged_chunk_worst_is_the_serial_worst(items, data):
    """Any partition into chunks, NaN and signed zeros included: labels, equations, bits."""
    triples = [(label, f"E{i}", value) for i, (label, value) in enumerate(items)]
    cuts = sorted(data.draw(st.lists(st.integers(0, len(triples)), max_size=6)))
    bounds = [0] + cuts + [len(triples)]
    parts = [_keep_worst({}, triples[lo:hi]) for lo, hi in zip(bounds, bounds[1:])]
    assert _bits(_merged(parts)) == _bits(_keep_worst({}, triples))


def _fuzzed(measure, trials=1000):
    out = _Collector()
    _fuzz(RunConfig(), out, "t", "tag", trials, measure, lambda label: 1e-10)
    return [(r.check_id, r.equation, repr(r.residual)) for r in out.records]


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_an_error_in_a_childs_chunk_is_raised_as_a_serial_run_raises_it(workers, monkeypatch):
    def measure(rng, trial):
        if trial >= 700:
            raise NotASolution(f"trial {trial}, draw {rng.random()!r}")
        yield "r", "E", 1e-12 * trial

    _force_workers(monkeypatch, 1)
    with pytest.raises(NotASolution) as serial:
        _fuzzed(measure)
    _force_workers(monkeypatch, workers)
    with pytest.raises(NotASolution) as shared:
        _fuzzed(measure)
    assert str(shared.value) == str(serial.value)
    _assert_no_child()


def test_a_child_that_dies_has_its_chunk_recomputed(monkeypatch):
    parent = os.getpid()

    def measure(rng, trial):
        if os.getpid() != parent:
            os._exit(3)
        yield "r", f"E{trial % 3}", rng.random()

    _force_workers(monkeypatch, 1)
    serial = _fuzzed(measure)
    _force_workers(monkeypatch, 3)
    assert _fuzzed(measure) == serial
    _assert_no_child()


@pytest.mark.parametrize("error", [ValueError, KeyboardInterrupt])
def test_a_raise_in_the_parents_chunk_leaves_no_child(error, monkeypatch):
    parent = os.getpid()

    def measure(rng, trial):
        if os.getpid() == parent:
            raise error("in the parent's chunk")
        time.sleep(0.01)  # the children are still at work when the parent raises
        yield "r", "E", 0.0

    _force_workers(monkeypatch, 3)
    with pytest.raises(error, match="in the parent's chunk"):
        _fuzzed(measure)
    _assert_no_child()


def _forbid_fork(monkeypatch):
    def fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", fork)


def test_a_campaign_stays_serial_while_a_second_thread_runs(monkeypatch):
    config = RunConfig(suite="weyl", backend="float", trials=600)
    attempts = []

    def failing_fork():  # a fork that fails leaves its chunk to the parent
        attempts.append(1)
        raise OSError("no process to spare")

    monkeypatch.setattr(os, "fork", failing_fork)
    alone = _records(run(config))
    assert len(attempts) == suites._workers(config.trials) - 1  # one per Weyl campaign's child

    _forbid_fork(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert suites._workers(config.trials) == 1
        with_thread = _records(run(config))
    finally:
        release.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert with_thread == alone


def test_small_campaigns_stay_serial(monkeypatch):
    """The allreps shape (20 trials) and the short runs (1 to 9 trials) never fork."""
    _forbid_fork(monkeypatch)
    assert run(RunConfig(rep="all", trials=20)).failed == 0
    for i, suite in enumerate(SUITE_NAMES):
        for rep in REP_CHOICES:
            assert run(RunConfig(suite=suite, rep=rep, trials=1 + i % 9)).failed == 0
    assert run(RunConfig(suite="split", trials=2 * suites._FORK_FLOOR - 1)).failed == 0
