"""Suite runner behavior: determinism, seeding, gating, controls."""

import hashlib
import json
import math

import pytest

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


def test_config_defaults_are_valid():
    RunConfig().validate()


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
    return PlaneWaveField((term,), backend=FLOAT)


@pytest.mark.parametrize(
    "make_value",
    [_nan_field, lambda: Matrix.floats([[NAN, 0], [0, 0]]), lambda: [1e-12, NAN]],
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


@pytest.mark.parametrize("backend", BACKEND_CHOICES)
def test_record_skeleton_is_pinned(backend):
    """Ids, order, equations, backends and verdicts of every suite on every basis."""
    report = run(RunConfig(rep="all", trials=2, backend=backend))
    skeleton = [(c.check_id, c.equation, c.backend, c.exact_zero, c.ok) for c in report.checks]
    digest = hashlib.sha256(json.dumps(skeleton).encode()).hexdigest()
    assert (len(skeleton), digest) == _SKELETON_DIGESTS[backend]
