"""Tests of the benchmark's own machinery.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


def _synthetic(tracer, clock):
    """outer (layer a) -> helper (a, untimed: no span) and inner (b) twice."""

    def inner():
        clock.work(2.0)

    def helper():
        clock.work(0.5)
        inner_w()

    def outer():
        clock.work(1.0)
        inner_w()
        helper_w()
        clock.work(0.25)

    inner_w = tracer.wrap(inner, "b", "b.inner")
    helper_w = tracer.wrap(helper, "a", "a.helper")
    return tracer.wrap(outer, "a", "a.outer")


def test_self_time_is_span_minus_child_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock, keep_spans=True)
    _synthetic(tr, clock)()

    # spans: outer [0, 5.75], inner [1, 3], inner [3.5, 5.5]; helper stays inside outer
    assert [(s.layer, s.parent) for s in tr.spans] == [("a", None), ("b", 0), ("b", 0)]
    outer, *children = tr.spans
    covered = sum(c.end - c.start for c in children)
    assert outer.end - outer.start == 5.75
    assert tr.self_time["a"] == (outer.end - outer.start) - covered == 1.75
    assert tr.self_time["b"] == covered == 4.0
    assert sum(tr.self_time.values()) == outer.end - outer.start
    assert tr.stats["a.helper"].calls == 1 and tr.stats["b.inner"].calls == 2
    assert tr.edges[("a", "b")] == [2, 4.0]


def test_timed_function_opens_a_span_inside_its_own_layer():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock, keep_spans=True)
    inner = tr.wrap(lambda: clock.work(3.0), "gamma", "gamma.intertwiner_pair")
    outer = tr.wrap(lambda: (clock.work(1.0), inner()), "gamma", "gamma.intertwiner")
    outer()
    assert len(tr.spans) == 2 and tr.spans[1].parent == 0
    assert tr.stats["gamma.intertwiner_pair"].time == 3.0
    assert tr.self_time["gamma"] == 4.0


def _run_cli(cli, args):
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        path = os.path.join(tmp, "report.json")
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(list(args) + ["--json", path])
        with open(path, encoding="utf-8") as fh:
            return rc, json.load(fh)


def test_wrappers_catch_names_imported_by_other_modules():
    import diracsplit.subsolutions
    import diracsplit.suites
    from diracsplit import cli
    from diracsplit.matrices import Matrix

    original_split = diracsplit.subsolutions.split
    original_matmul = Matrix.__dict__["__matmul__"]
    tr = tracing.Tracer()
    patch = tracing.install(tr)
    try:
        assert patch.unwrapped_aliases() == []
        assert diracsplit.suites.split is not original_split
        for args in (("split", "--trials", "1"), ("covariance", "--trials", "1"),
                     ("weyl", "--rep", "standard", "--trials", "1")):
            rc, report = _run_cli(cli, args)
            assert rc == 0 and report["summary"]["failed"] == 0
    finally:
        patch.uninstall()

    # suites calls each of these only through the name it imported
    for name in ("subsolutions.split", "fields.dirac_matrix",
                 "lorentz.spinor_transform", "gamma.intertwiner_pair"):
        assert tr.stats[name].calls > 0, name
    for layer in tracing.LAYERS:
        assert tr.self_time.get(layer, 0.0) > 0, layer
    assert tr.stats["suites._run_split"].time > 0
    assert diracsplit.suites.split is original_split
    assert Matrix.__dict__["__matmul__"] is original_matmul


def test_report_problems_flags_failed_and_inexact_records():
    args = ("clifford", "--seed", "7")
    good = {"config": {"suite": "clifford", "rep": "spinor", "backend": "both",
                       "trials": 1000, "seed": 7},
            "checks": [{"id": "a", "backend": "exact", "exact_zero": True, "pass": True},
                       {"id": "x.control.y", "backend": "exact", "exact_zero": False,
                        "pass": True}],
            "summary": {"passed": 2, "failed": 0}}
    assert worker.report_problems(args, json.dumps(good)) == []
    bad = json.loads(json.dumps(good))
    bad["checks"][0]["exact_zero"] = False
    assert worker.report_problems(args, json.dumps(bad))
    bad["checks"][0]["pass"] = False
    bad["summary"] = {"passed": 1, "failed": 1}
    assert len(worker.report_problems(args, json.dumps(bad))) == 2
    assert worker.report_problems(("clifford", "--seed", "8"), json.dumps(good))


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_runs_depend_only_on_the_seed(workload):
    a = workloads.round_runs(workload, 5)
    assert a == workloads.round_runs(workload, 5)
    assert a != workloads.round_runs(workload, 6)
    probes = workloads.probe_runs(workload, 5)
    assert probes and all(workloads.second_seed(p, 5) != p for p in probes)
    if workload == "short_runs":
        assert len(a) == len(workloads.SUITES) * len(workloads.REPS) * len(workloads.BACKENDS)
        assert set(probes) <= set(a)


def test_end_to_end_takes_the_median_round():
    res = {"round_s": [3.0, 1.0, 2.0], "checks": 10, "peak_rss_mb": 20.0}
    assert run.end_to_end("default", res) == {
        "verify_s": 2.0, "checks_per_s": 5.0, "peak_rss_mb": 20.0}
    assert run.end_to_end("short_runs", res)["verify_s"] == 2.0 / 72


def test_adjust_scales_by_the_mean_speed_of_the_samples():
    # half the time at reference speed, half twice as slow: the work done
    # is what 0.75 of the wall time does at reference speed
    assert speed.adjust(8.0, [speed.REF_S, 2 * speed.REF_S]) == 6.0
    assert speed.adjust(8.0, [speed.REF_S]) == 8.0


def test_sampler_takes_its_own_time_out_of_the_work():
    sampler = speed.Sampler()
    sampler.start()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < 10 * speed.INTERVAL_S:
        pass
    adjusted, wall = sampler.stop()
    assert len(sampler.samples) >= 5 and 0 < sampler.spent < wall
    assert adjusted == speed.adjust(wall - sampler.spent, sampler.samples)
    sampler.start()
    adjusted, wall = sampler.stop()  # shorter than the first alarm: one sample after
    assert len(sampler.samples) == 1 and adjusted == speed.adjust(wall, sampler.samples)


def test_default_round_is_verify_all_cut_into_its_suites():
    runs = workloads.round_runs("default", 5)
    assert [args[0] for args in runs] == list(workloads.SUITES)
    (probe,) = workloads.probe_runs("default", 5)
    assert probe[0] == "all" and all(args[1:] == runs[0][1:] for args in runs)
    assert workloads.with_flag(probe, "--trials", "1000")[1:3] == runs[0][1:]
