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
)
from diracsplit import suites
from diracsplit.errors import NotASolution
from diracsplit.gamma import REP_NAMES, build_rep
from diracsplit.reports import CONTROL, EXACT_ZERO, RAISES, WITHIN, residual_entry
from diracsplit.scalars import FLOAT
from diracsplit.suites import (
    BACKEND_CHOICES,
    DEFAULT_SEED,
    REP_CHOICES,
    SUITE_NAMES,
    RunConfig,
    _CONTROL_FLOOR,
    _Campaign,
    _judged,
    _keep_worst,
    _measure_campaigns,
    _merged,
    _sub_seed,
    run,
)
from field_helpers import json_dict

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
    d = json.loads(report.to_json())
    assert list(d.keys()) == ["config", "checks", "summary", "wall_ms"]
    assert d["summary"] == {"passed": report.passed, "failed": report.failed}
    for c in d["checks"][:5]:
        assert list(c.keys()) == [
            "id", "paper_eq", "backend", "residual", "exact_zero", "pass",
        ]


def test_determinism_modulo_wall_ms():
    cfg = RunConfig(trials=3)
    d1 = json_dict(run(cfg))
    d2 = json_dict(run(cfg))
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
    """An exact-only run makes exact records alone, the negative controls included."""
    for suite in SUITE_NAMES:
        report = run(RunConfig(suite=suite, rep="all", backend="exact", trials=2))
        assert report.failed == 0
        assert report.checks
        assert all(".fuzz." not in c.check_id for c in report.checks), suite
        assert all(c.backend == "exact" for c in report.checks), suite


def test_float_only_backend_has_no_exact_zeros():
    """A float-only run makes float records alone, the negative controls included."""
    for suite in SUITE_NAMES:
        report = run(RunConfig(suite=suite, backend="float", trials=2))
        assert report.failed == 0
        assert report.checks
        assert all(not c.exact_zero and c.backend == FLOAT for c in report.checks), suite


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
    return _judged("x", entry, bound, kind).ok


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


def _campaign(name, trials, measure, tol=1e-10):
    """A campaign at the default seed whose checks ``<name>.<label>`` are judged within ``tol``."""
    return _Campaign(name, name, trials, DEFAULT_SEED, measure, lambda label: tol)


@pytest.mark.parametrize("nan_trial", [0, 1, 2])
def test_fuzz_driver_keeps_a_nan_from_any_trial(nan_trial):
    def measure(rng, trial):
        yield "r", "E", NAN if trial == nan_trial else 1e-12

    (record,) = _measure_campaigns([_campaign("t", 3, measure)])
    assert record.check_id == "t.r"
    assert math.isnan(record.residual) and not record.ok


def test_fuzz_driver_records_each_labels_largest_value():
    def measure(rng, trial):
        yield "a", "E1", 1e-12 * (trial + 1)
        yield "b", "E2", 1e-11 if trial == 1 else 0.0

    records = _measure_campaigns([_campaign("t", 3, measure, 2e-12)])
    assert [(r.check_id, r.equation, r.residual, r.ok) for r in records] == [
        ("t.a", "E1", 3e-12, False),
        ("t.b", "E2", 1e-11, False),
    ]


def test_campaign_records_take_the_place_of_the_campaign():
    """The campaigns are measured together, yet each one's records sit where it is in the list."""
    def measure(rng, trial):
        yield "r", "E", 0.0

    entry = ResidualEntry("l", "E", "float", 0.0, False)
    out = [("first", entry, 1e-10), _campaign("one", 2, measure), ("second", entry, 1e-10),
           _campaign("two", 2, measure), _campaign("three", 2, measure)]
    records = _measure_campaigns(out)
    assert [r.check_id for r in records] == ["first", "one.r", "second", "two.r", "three.r"]


# -- record skeleton -------------------------------------------------------------

#: sha256 of the (id, paper_eq, backend, exact_zero, pass) tuples of
#: run(RunConfig(rep="all", trials=2, backend=b)), in report order
_SKELETON_DIGESTS = {
    "exact": (314, "fde0c947e8f30e794d2cd742e76e73889a44a62e8f5358e77b8f79fdaafcadce"),
    "float": (612, "0290915dbc03d956ef966af3869ea4702cb638b5b51e0484e567a7198803381d"),
    "both": (790, "95fa1b6a57fd9f8ad68bd9869e9a5236b7c35911041c246d724661fd5f2962bc"),
}


#: sha256 of the full records (id, paper_eq, backend, repr of the residual,
#: exact_zero, pass) of the same runs: any change that moves a float residual,
#: even at roundoff, has to update this digest on purpose
_RECORD_DIGESTS = {
    "exact": (314, "92eeb48ed768db911bbb21e15503c6318996285cc48486a91329cdfea9740ebf"),
    "float": (612, "687439511f3e75d6a3b1a6c25075beb5d001406517682359bc011d5961a8423a"),
    "both": (790, "7a195cab074e9da3d0e1e74c863d0398acecec59cf6cb3264453073326449206"),
}

#: the same sha256 over the records of the 72 single-suite runs, one per suite x
#: rep x backend at trials=3, concatenated in ``SUITE_NAMES``, ``REP_CHOICES``,
#: ``BACKEND_CHOICES`` order: the selections of perfbench's ``short_runs``
_SELECTION_DIGEST = (4792, "ead67b6d9666848f31c771967c9ae8d50f2ad93b55f8cfdc51b5a32b6d0eaeaf")

#: each case's runs and the pinned (count, digest) of their records
_PINNED_RUNS = {backend: ([RunConfig(rep="all", trials=2, backend=backend)], digest)
                for backend, digest in _RECORD_DIGESTS.items()}
_PINNED_RUNS["selections"] = ([RunConfig(suite=suite, rep=rep, backend=backend, trials=3)
                               for suite in SUITE_NAMES for rep in REP_CHOICES
                               for backend in BACKEND_CHOICES], _SELECTION_DIGEST)


#: the paper equations of the ``--rep all`` report that no negative control
#: (a ``.control.`` record) tests; a new control removes its equation here
_EQUATIONS_WITHOUT_A_CONTROL = frozenset({
    "DP2b", "Dirac2", "DiracNeutrino", "MAJORANA", "Majorana1", "Majorana2", "P'", "P1",
    "P1a", "P2", "P2a", "P3", "P4", "PRO", "Weyl2", "constituent1", "constituent1/4",
    "constituent1/P", "constituent2", "constituent2/4", "constituent2/P", "constituents/3",
    "def3", "def4", "id1", "id2", "identities", "psi",
})


def test_equations_without_a_control_are_the_pinned_ones():
    """The list can only shrink: an equation that loses its control, or a new one without, fails."""
    report = run(RunConfig(rep="all", trials=2))
    controlled = {c.equation for c in report.checks if ".control." in c.check_id}
    assert {c.equation for c in report.checks} - controlled == _EQUATIONS_WITHOUT_A_CONTROL


_STRUCTURAL_BUILDERS = {"clifford": "_clifford_records", "projectors": "_projector_records",
                        "covariance": "_covariance_records"}


@pytest.mark.parametrize("backend, suite", [
    ("exact", "clifford"), ("exact", "projectors"), ("float", "clifford"),
    ("float", "projectors"), ("exact", "covariance")])
def test_warm_structural_run_makes_no_matrix_products(suite, backend, monkeypatch):
    """Every structural relation is measured once per builder key; a second run only reads them.

    Once the builder's cache is cleared, a run multiplies matrices again
    and gives the same records.
    """
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
    assert json_dict(second)["checks"] == json_dict(first)["checks"]
    getattr(suites, _STRUCTURAL_BUILDERS[suite]).cache_clear()
    assert json_dict(run(config))["checks"] == json_dict(first)["checks"]
    assert products


@pytest.mark.parametrize("backend", BACKEND_CHOICES)
def test_record_skeleton_is_pinned(backend):
    """Ids, order, equations, backends and verdicts of every suite on every basis."""
    report = run(RunConfig(rep="all", trials=2, backend=backend))
    skeleton = [(c.check_id, c.equation, c.backend, c.exact_zero, c.ok) for c in report.checks]
    digest = hashlib.sha256(json.dumps(skeleton).encode()).hexdigest()
    assert (len(skeleton), digest) == _SKELETON_DIGESTS[backend]


def _records(report) -> list:
    """(id, paper_eq, backend, repr of the residual, exact_zero, pass) of each record, in order."""
    return [(c.check_id, c.equation, c.backend, repr(c.residual), c.exact_zero, c.ok)
            for c in report.checks]


@pytest.mark.parametrize("case", _PINNED_RUNS)
def test_records_are_pinned(case):
    """Every record of every suite on every basis, residuals included, to the last digit.

    One case per backend pins the ``--rep all`` run; ``selections`` pins
    the 72 single-suite runs.
    """
    configs, pinned = _PINNED_RUNS[case]
    records = [r for config in configs for r in _records(run(config))]
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert (len(records), digest) == pinned


@pytest.mark.parametrize("backend", BACKEND_CHOICES)
@pytest.mark.parametrize("rep", REP_CHOICES)
def test_a_run_of_every_suite_is_the_single_suite_runs_in_order(rep, backend):
    """Every suite's records are those of its own run, in ``SUITE_NAMES`` order.

    The kept builders serve several suites (one of them the split and the
    Weyl controls together), so a suite must neither read nor leave state
    that changes another suite's records.
    """
    whole = _records(run(RunConfig(rep=rep, backend=backend, trials=2)))
    parts = [r for suite in SUITE_NAMES
             for r in _records(run(RunConfig(suite=suite, rep=rep, backend=backend, trials=2)))]
    assert whole == parts


def test_a_wrong_split_statement_is_reported_not_raised(monkeypatch):
    """A split that swaps its constituents fails the witness records; the run still reports.

    Each basis's projector forms fail at both spins, and only witness
    records fail.  The recombination alone would not tell: P1 Psi_(2) +
    P2 Psi_(1) is psi as well.
    """
    from diracsplit import subsolutions

    split_term = subsolutions.split_term

    def swapped(*args):
        psi1, psi2 = split_term(*args)
        return psi2, psi1

    for module in (subsolutions, suites):
        monkeypatch.setattr(module, "split_term", swapped)
    suites._split_witness.cache_clear()
    try:
        report = run(RunConfig(suite="split", backend="exact"))
    finally:
        suites._split_witness.cache_clear()  # no later run may read the wrong records
    failing = [c.check_id for c in report.checks if not c.ok]
    assert failing and all(i.startswith("split.witness") for i in failing)
    assert len([i for i in failing if i.endswith(".constituent1-P.dirac")]) == 2 * len(REP_NAMES)


def test_warm_covariance_run_reads_its_certificates(monkeypatch):
    """The float covariance certificates depend on the basis alone: measured once per basis.

    Every other product of a float covariance run is kept too, so a warm
    run multiplies no matrix; the certificates measured afresh do.
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
    assert json_dict(second)["checks"] == json_dict(first)["checks"]
    suites._lorentz_certificates.cache_clear()
    assert json_dict(run(config))["checks"] == json_dict(first)["checks"]
    assert calls


def test_warm_covariance_run_keeps_the_special_frame_witness(monkeypatch):
    """The witness momentum's special frame is found once; a warm run finds one per trial."""
    config = RunConfig(suite="covariance", backend="float", trials=2)
    first = run(config)
    frames = []
    special_frame = suites.special_frame
    monkeypatch.setattr(suites, "special_frame", lambda p: frames.append(p) or special_frame(p))
    second = run(config)
    assert len(frames) == config.trials
    assert json_dict(second)["checks"] == json_dict(first)["checks"]


@pytest.mark.parametrize("suite", ("split", "weyl", "majorana"))
def test_warm_witness_run_reads_its_records(suite, monkeypatch):
    """The exact witness records depend on the basis alone: measured once per basis.

    A warm exact run applies no matrix at all (the Weyl suite's float
    controls are kept too); the records measured afresh, once the
    builder's cache is cleared, apply exact ones again, and give the
    same records.
    """
    from diracsplit import kernels
    from diracsplit.scalars import GaussianRational

    config = RunConfig(suite=suite, rep="all", backend="exact", trials=2)
    first = run(config)
    calls = _counted_everywhere(monkeypatch, kernels, "mul_vec")
    second = run(config)
    assert calls == []
    assert json_dict(second)["checks"] == json_dict(first)["checks"]
    assert second.checks[0] is not first.checks[0]  # each run builds its own records
    getattr(suites, f"_{suite}_witness").cache_clear()
    assert json_dict(run(config))["checks"] == json_dict(first)["checks"]
    assert [c for c in calls if isinstance(c[1][0], GaussianRational)]


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
    return [(r.check_id, r.equation, repr(r.residual))
            for r in _measure_campaigns([_campaign("t", trials, measure)])]


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
    """The parent then runs every campaign serially, the dead child's chunk among them."""
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


@pytest.mark.parametrize("workers", [2, 3, 5])
def test_the_first_campaigns_error_is_raised_whichever_worker_meets_it(workers, monkeypatch):
    """The first campaign fails in a child's chunk, the second in the parent's: the first's error."""
    def first(rng, trial):
        if trial >= 700:
            raise NotASolution(f"first campaign, trial {trial}")
        yield "r", "E", 0.0

    def second(rng, trial):
        raise ValueError(f"second campaign, trial {trial}")

    _force_workers(monkeypatch, workers)
    out = [_campaign("one", 1000, first), _campaign("two", 1000, second)]
    with pytest.raises(NotASolution, match="first campaign, trial 700$"):
        _measure_campaigns(out)
    _assert_no_child()


def test_a_run_forks_once_for_all_its_campaigns(monkeypatch):
    """``verify all`` at the default config: one ``_workers`` call on its 3,400 trials, one fork."""
    workers = suites._workers
    asked = []
    monkeypatch.setattr(suites, "_workers", lambda trials: asked.append(trials) or workers(trials))
    forks = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    report = run(RunConfig())
    assert report.failed == 0
    assert asked == [3 * 1000 + 2 * suites._COV_TRIAL_CAP]
    assert len(forks) == workers(asked[0]) - 1
    _assert_no_child()


@pytest.mark.parametrize("suite", ("weyl", "majorana", "covariance"))
def test_each_basis_fuzz_of_a_rep_all_run_is_its_one_basis_run(suite):
    """Every basis's campaign measures its own basis, though all of them run after the loop."""
    def fuzz(rep):
        report = run(RunConfig(suite=suite, rep=rep, trials=3))
        return {r[0]: r for r in _records(report) if ".fuzz." in r[0]}

    every = fuzz("all")
    seen = {}
    for name in ("spinor", "standard", "majorana"):
        one = fuzz(name)
        assert one and all(every.get(check_id) == record for check_id, record in one.items())
        seen.update(one)
    assert seen == every


def test_a_failed_fork_stops_the_forking(monkeypatch):
    """Three workers, the first fork failing: no second fork is tried; the run is the serial one."""
    config = RunConfig(suite="weyl", backend="float", trials=30)
    _force_workers(monkeypatch, 1)
    serial = _records(run(config))
    _force_workers(monkeypatch, 3)
    attempts = []
    fork = os.fork

    def first_fork_fails():
        attempts.append(1)
        if len(attempts) == 1:
            raise OSError("no process to spare")
        return fork()

    monkeypatch.setattr(os, "fork", first_fork_fails)
    assert _records(run(config)) == serial
    assert len(attempts) == 1
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
    assert len(attempts) == min(1, suites._workers(config.trials) - 1)  # the first fails: no more

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
    """The short runs (1 to 9 trials) never fork, nor does a run of fewer than 200 trials in all."""
    _forbid_fork(monkeypatch)
    for i, suite in enumerate(SUITE_NAMES):
        for rep in REP_CHOICES:
            assert run(RunConfig(suite=suite, rep=rep, trials=1 + i % 9)).failed == 0
    assert run(RunConfig(suite="split", trials=2 * suites._FORK_FLOOR - 1)).failed == 0
