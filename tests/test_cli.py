"""End-to-end command-line behavior, exit codes, JSON emission."""

import json
import math
import os
import signal
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit import suites
from diracsplit.cli import (
    _CONFIG_KEYS,
    _PARSER,
    EXIT_CHECK_FAILURES,
    EXIT_JSON_UNWRITABLE,
    EXIT_LIBRARY_ERROR,
    EXIT_OK,
    EXIT_USAGE,
    UsageError,
    _assemble_config,
    main,
)
from diracsplit.errors import OffShell
from diracsplit.reports import CheckRecord, Report, format_human
from field_helpers import json_dict


def test_passing_run(capsys):
    assert main(["weyl", "--trials", "2"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("run: ")
    assert "[PASS]" in out
    assert "summary: passed=" in out
    assert "[FAIL]" not in out


def test_failing_run_exits_one(capsys):
    code = main(["split", "--trials", "2", "--tol", "1e-30"])
    assert code == EXIT_CHECK_FAILURES
    out = capsys.readouterr().out
    assert "[FAIL]" in out
    assert "failed=" in out


def test_unknown_suite_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["spectral"])
    assert exc.value.code == EXIT_USAGE


def test_invalid_trials_is_usage_error(capsys):
    assert main(["weyl", "--trials", "0"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_infinite_tol_is_usage_error(capsys):
    assert main(["weyl", "--tol", "inf"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_seed_zero_runs_and_seeds_outside_64_bits_are_usage_errors(tmp_path, capsys):
    """The seed range is [0, 2**64 - 1], both ends included: 0 runs, -1 and 2**64 exit 2."""
    out_json = tmp_path / "out.json"
    assert main(["split", "--seed", "0", "--trials", "2", "--json", str(out_json)]) == EXIT_OK
    assert json.loads(out_json.read_text())["config"]["seed"] == 0
    assert '\n    "seed": 0,\n' in out_json.read_text()
    for seed in ("-1", str(2 ** 64)):
        assert main(["split", "--seed", seed, "--trials", "2"]) == EXIT_USAGE, seed
    assert "seed must be an integer that fits in 64 bits" in capsys.readouterr().err


def test_human_output_marks_exact_and_raise_records(capsys):
    main(["split", "--trials", "2"])
    out = capsys.readouterr().out
    assert "exact-zero" in out
    assert "raised-as-expected" in out


def test_human_output_marks_a_failed_raise_check():
    record = CheckRecord("x.control.rejected", "Dirac1", "float", None, False, False)
    out = format_human(Report(config={}, checks=[record]))
    assert "[FAIL]" in out and "residual=did-not-raise" in out
    assert "raised-as-expected" not in out


def test_json_report_schema(tmp_path, capsys):
    path = tmp_path / "report.json"
    assert main(["projectors", "--trials", "2", "--json", str(path)]) == EXIT_OK
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert list(data.keys()) == ["config", "checks", "summary", "wall_ms"]
    assert data["config"]["suite"] == "projectors"
    assert data["config"]["trials"] == 2
    assert data["summary"]["failed"] == 0
    assert data["summary"]["passed"] == len(data["checks"])
    for check in data["checks"]:
        assert list(check.keys()) == [
            "id", "paper_eq", "backend", "residual", "exact_zero", "pass",
        ]
        if check["exact_zero"]:
            assert check["residual"] is None


def test_json_determinism_modulo_wall_ms(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["majorana", "--trials", "3", "--json", str(p1)])
    main(["majorana", "--trials", "3", "--json", str(p2)])
    capsys.readouterr()
    d1 = json.loads(p1.read_text())
    d2 = json.loads(p2.read_text())
    d1.pop("wall_ms")
    d2.pop("wall_ms")
    assert d1 == d2


def test_unwritable_json_path(tmp_path, capsys):
    path = tmp_path / "missing-dir" / "report.json"
    assert main(["weyl", "--trials", "2", "--json", str(path)]) == EXIT_JSON_UNWRITABLE
    captured = capsys.readouterr()
    assert "cannot write JSON report" in captured.err
    assert "summary:" in captured.out  # report still rendered


def _dumped(report):
    return json.dumps(json_dict(report), indent=2) + "\n"


@pytest.mark.parametrize("suite", suites.SUITE_NAMES)
def test_json_writer_matches_json_dumps_on_every_run(suite):
    """``Report.to_json`` writes ``json.dumps(..., indent=2)`` to the byte, on every rep and backend."""
    for rep in suites.REP_CHOICES:
        for backend in suites.BACKEND_CHOICES:
            report = suites.run(suites.RunConfig(suite=suite, rep=rep, backend=backend, trials=2))
            assert report.to_json() == _dumped(report), (rep, backend)


def test_json_writer_spells_every_value_as_json_does():
    """NaN, infinities, None, ints and floats, escaped ids, empty and nested containers."""
    config = dict(suites.RunConfig().to_dict(), mass_range=[1, 2.5], momentum_range=(0, 1e300),
                  note=None, empty=[], nested={"a": [1, {"b": []}], "c": {}, "d": -0.0})
    checks = [CheckRecord(f'x.{i}."quoted"\\back-slash.\u00e9\u2603\U0001d11e', "Dirac1",
                          "float", residual, False, ok)
              for i, (residual, ok) in enumerate(((math.nan, False), (math.inf, False),
                                                  (-math.inf, True), (None, True),
                                                  (5e-324, True), (-0.0, True), (1, True)))]
    checks.append(CheckRecord("y.exact", "P1", "exact", None, True, True))
    for report in (Report(config=config, checks=checks, wall_ms=12.5),
                   Report(config=config, wall_ms=float("nan")),
                   Report(config={})):
        text = report.to_json()
        assert text == _dumped(report)
        assert text.isascii()
    assert '"checks": []' in Report(config={}).to_json()
    with pytest.raises(TypeError):
        Report(config={"bad": object()}).to_json()


def test_the_kept_parser_carries_nothing_between_calls(tmp_path, capsys):
    """One parser serves every ``main`` call: flags, errors and help leave it as it was."""
    path = tmp_path / "report.json"
    assert main(["all", "--rep", "all", "--backend", "exact", "--trials", "3",
                 "--tol", "1e-8"]) == EXIT_OK
    with pytest.raises(SystemExit) as exc:
        main(["weyl", "--trials", "many"])
    assert exc.value.code == EXIT_USAGE
    assert main(["weyl", "--json", str(path)]) == EXIT_OK
    assert json.loads(path.read_text())["config"] == suites.RunConfig(suite="weyl").to_dict()
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: verify ")


# -- config files ---------------------------------------------------------------


def test_config_file_applies(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 4, "seed": 99, "momentum_range": [0.0, 5.0]}))
    out_json = tmp_path / "out.json"
    assert main(["weyl", "--config", str(cfg), "--json", str(out_json)]) == EXIT_OK
    capsys.readouterr()
    data = json.loads(out_json.read_text())
    assert data["config"]["trials"] == 4
    assert data["config"]["seed"] == 99
    assert data["config"]["momentum_range"] == [0.0, 5.0]


def test_wide_momentum_range_writes_report(tmp_path, capsys):
    # float residuals grow with |p| and may exceed their absolute bounds;
    # the run must still finish with a verdict and a report
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"momentum_range": [0, 1000], "trials": 20}))
    out_json = tmp_path / "out.json"
    code = main(["all", "--config", str(cfg), "--json", str(out_json)])
    assert code in (EXIT_OK, EXIT_CHECK_FAILURES)
    capsys.readouterr()
    data = json.loads(out_json.read_text())
    assert data["config"]["momentum_range"] == [0.0, 1000.0]
    assert data["summary"]["passed"] + data["summary"]["failed"] == len(data["checks"])


def test_nan_residuals_fail_the_fuzz(tmp_path, capsys):
    # at |p| ~ 1e150 the squares of the momenta overflow, and these
    # residual fields come out all NaN: they must fail, not read as zero
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"momentum_range": [1e150, 1e153], "trials": 5}))
    out_json = tmp_path / "out.json"
    argv = ["split", "--backend", "float", "--config", str(cfg), "--json", str(out_json)]
    assert main(argv) == EXIT_CHECK_FAILURES
    capsys.readouterr()
    text = out_json.read_text()
    assert '"residual": NaN' in text
    checks = {c["id"]: c for c in json.loads(text)["checks"]}
    for check_id in (
        "split.fuzz.identity.repfree.P1",
        "split.fuzz.identity.repfree.P2",
        "split.fuzz.constituents3.P1",
        "split.fuzz.constituents3.P2",
        "split.fuzz.constituent2-P.dirac",
    ):
        assert math.isnan(checks[check_id]["residual"]), check_id
        assert checks[check_id]["pass"] is False, check_id


def test_library_error_has_its_own_exit_code(tmp_path, monkeypatch, capsys):
    def broken_suite(config, out):
        raise OffShell("momentum off the shell")

    monkeypatch.setitem(suites._SUITE_RUNNERS, "weyl", broken_suite)
    out_json = tmp_path / "out.json"
    assert main(["weyl", "--json", str(out_json)]) == EXIT_LIBRARY_ERROR
    assert "error: off-shell: momentum off the shell" in capsys.readouterr().err
    assert not out_json.exists()


def test_flags_override_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trials": 4, "tol": 1e-8}))
    out_json = tmp_path / "out.json"
    code = main(["weyl", "--config", str(cfg), "--trials", "2", "--json", str(out_json)])
    assert code == EXIT_OK
    capsys.readouterr()
    data = json.loads(out_json.read_text())
    assert data["config"]["trials"] == 2
    assert data["config"]["tol"] == 1e-8


@pytest.mark.parametrize(
    "content",
    [
        "not json at all",
        json.dumps([1, 2]),
        json.dumps({"cadence": 3}),
        json.dumps({"tol": float("inf")}),
        json.dumps({"trials": True}),
        json.dumps({"trials": 1.5}),
        json.dumps({"mass_range": ["a", 2]}),
        pytest.param('{"tol": 1' + "0" * 400 + "}", id="tol-beyond-float"),
        pytest.param('{"mass_range": [0.1, 1' + "0" * 400 + "]}", id="mass-beyond-float"),
        pytest.param('{"momentum_range": [0, 1' + "0" * 400 + "]}",
                     id="momentum-beyond-float"),
    ],
)
def test_bad_config_files(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(content)
    assert main(["weyl", "--config", str(cfg)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("content", [
    pytest.param(b'\xff\xfe{"trials":2}', id="not-utf-8"),
    pytest.param(b"[" * 100_000, id="nested-past-the-recursion-limit"),
])
def test_a_malformed_config_file_exits_two_without_a_traceback(tmp_path, content):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(content)
    proc = subprocess.run(
        [sys.executable, "-m", "diracsplit", "weyl", "--config", str(cfg)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                 max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "cfg.json"


@given(content=st.binary(max_size=64)
       | st.text(max_size=64).map(str.encode)
       | st.dictionaries(st.sampled_from(_CONFIG_KEYS), _JSON, max_size=4)
       .map(lambda d: json.dumps(d).encode()))
@settings(max_examples=200, deadline=None)
def test_any_config_file_is_a_config_or_a_usage_error(config_path, content):
    """Whatever a --config file holds, assembling the run's config gives one or a UsageError."""
    config_path.write_bytes(content)
    try:
        config = _assemble_config(_PARSER.parse_args(["weyl", "--config", str(config_path)]))
    except UsageError:
        return
    assert isinstance(config, suites.RunConfig)


def test_missing_config_file(tmp_path, capsys):
    assert main(["weyl", "--config", str(tmp_path / "absent.json")]) == EXIT_USAGE
    assert "cannot read config file" in capsys.readouterr().err


def test_bad_range_shape_in_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mass_range": [1.0]}))
    assert main(["weyl", "--config", str(cfg)]) == EXIT_USAGE
    assert "two-element" in capsys.readouterr().err


@pytest.mark.parametrize("workers", [2, None], ids=["two-workers", "as-found"])
def test_a_library_error_in_a_shared_campaign_exits_as_a_serial_run(workers, tmp_path,
                                                                     monkeypatch, capsys):
    """A mass beyond float range fails in every chunk: exit 4, the serial message, no child."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"mass_range": [1e200, 1e200]}))
    monkeypatch.setattr(suites, "_workers", lambda trials: 1)
    assert main(["all", "--config", str(cfg)]) == EXIT_LIBRARY_ERROR
    serial = capsys.readouterr().err
    assert serial.startswith("error: off-shell: momentum (inf, ")
    monkeypatch.undo()
    if workers:
        monkeypatch.setattr(suites, "_workers", lambda trials: workers)
    assert main(["all", "--config", str(cfg)]) == EXIT_LIBRARY_ERROR
    assert capsys.readouterr().err == serial
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_shared_campaign_raises_no_warning_and_leaves_no_process():
    """With warnings as errors (a fork with threads alive warns from Python 3.12 on)."""
    proc = subprocess.Popen(
        [sys.executable, "-W", "error", "-m", "diracsplit", "all", "--trials", "600"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=300)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    assert proc.returncode == EXIT_OK, err
    assert err == ""
    assert out.count("summary:") == 1  # no child went on with the parent's work
    with pytest.raises(ProcessLookupError):  # nothing is left in the run's process group
        os.killpg(proc.pid, 0)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "diracsplit", "clifford", "--trials", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "summary:" in proc.stdout


@pytest.mark.parametrize("suite, momentum_range, code", [
    ("weyl", [0, 0], EXIT_USAGE),
    ("all", [0, 1e-7], EXIT_USAGE),
    ("weyl", [0, 1.0000001e-6], EXIT_OK),
    ("split", [0, 0], EXIT_OK),
])
def test_every_valid_momentum_range_ends(tmp_path, suite, momentum_range, code):
    """A range the Weyl fuzz cannot draw from exits 2; one just above its floor runs."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"momentum_range": momentum_range, "trials": 20}))
    proc = subprocess.run(
        [sys.executable, "-m", "diracsplit", suite, "--backend", "float", "--config", str(cfg)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == code, proc.stderr
    if code == EXIT_USAGE:
        assert "Weyl float fuzz" in proc.stderr


@pytest.mark.parametrize("suite, backend, config", [
    ("split", "both", {"mass_range": [1e154, 1e154]}),
    ("majorana", "both", {"mass_range": [1e154, 1e154]}),
    ("covariance", "both", {"mass_range": [1e154, 1e154]}),
    pytest.param("split", "both", {"mass_range": [6e153, 6e153]}, id="split-sum-past-range"),
    ("weyl", "float", {"momentum_range": [1.1e154, 1.2e154]}),
])
def test_a_norm_beyond_float_range_exits_with_its_code(tmp_path, suite, backend, config):
    """An amplitude whose squared norm overflows stops the run with ``norm-overflow``.

    At a mass of 6e153 each square fits but their sum does not, which
    would otherwise scale u to zero.
    """
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**config, "trials": 2}))
    proc = subprocess.run(
        [sys.executable, "-m", "diracsplit", suite, "--backend", backend, "--config", str(cfg)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == EXIT_LIBRARY_ERROR, proc.stderr
    assert proc.stderr.startswith("error: norm-overflow: ")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
