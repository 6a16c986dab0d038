"""Run one workload through ``diracsplit.cli.main`` in this process.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``; prints one JSON
object as its last line.  Every report the program writes is checked
(exit code, zero failed checks, exact records exactly zero, configuration
echoed back) and compared byte for byte, ``wall_ms`` aside, with the
report of the same run in an earlier round or a repeated probe run.

With ``--trace 0`` it times every CLI run of every round with a
``speed.Sampler`` and reports each round's time at the reference speed,
which ``run.py`` turns into the end-to-end metrics; with ``--trace 1``
the per-layer metrics of one traced round.

Usage: python3 perfbench/worker.py --workload NAME --seed N --seconds S
       --trace 0|1 --work-dir DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import resource
import sys
import time

import speed
import tracing
import workloads

_WALL_MS = re.compile(r'\n\s*"wall_ms":[^\n]*')
_DEFAULTS = {"rep": "spinor", "backend": "both", "trials": 1000}


class Workload:
    def __init__(self, name: str, seed: int, work_dir: str):
        from diracsplit import cli

        self.cli = cli
        self.name = name
        self.seed = seed
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first = {}  # run position -> report text without wall_ms
        self.sampler = None  # a speed.Sampler times the runs when set

    def run_once(self, args: tuple, path: str):
        """One CLI run: ((adjusted s, wall s), report text) or None if it failed.

        Without a sampler the adjusted seconds are the wall seconds.
        """
        self.attempted += 1
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)
        buf = io.StringIO()
        sampler = self.sampler
        if sampler:
            sampler.start()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(list(args) + ["--json", path])
        except Exception as exc:  # an operation that failed, counted as such
            print(f"run {' '.join(args)} raised {exc!r}", file=sys.stderr)
            self.failed += 1
            return None
        finally:
            wall = time.perf_counter() - t0
            seconds = sampler.stop() if sampler else (wall, wall)
        if rc not in (0, 1):  # usage error or unwritable report: no report
            print(f"run {' '.join(args)} exited {rc}", file=sys.stderr)
            self.failed += 1
            return None
        if rc != 0:
            self.problems.append(f"{' '.join(args)}: exit code {rc}")
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        self.problems += [f"{' '.join(args)}: {p}" for p in report_problems(args, text)]
        return seconds, text

    def determinism(self) -> None:
        """Same configuration and seed: same report; second seed: same check ids."""
        path = os.path.join(self.work_dir, "probe.json")
        for args in workloads.probe_runs(self.name, self.seed):
            runs = [self.run_once(args, path), self.run_once(args, path),
                    self.run_once(workloads.second_seed(args, self.seed), path)]
            if None in runs:
                continue
            (_, a), (_, b), (_, c) = runs
            if _WALL_MS.sub("", a) != _WALL_MS.sub("", b):
                self.problems.append(f"{' '.join(args)}: two runs differ beyond wall_ms")
            if check_ids(a) != check_ids(c):
                self.problems.append(f"{' '.join(args)}: check ids depend on the seed")
            if self.name == "default":  # its rounds run ``verify all`` suite by suite
                self.all_is_its_suites(args, a)

    def all_is_its_suites(self, args: tuple, text: str) -> None:
        """``verify all`` gives the checks of its suites run one by one, in order."""
        path = os.path.join(self.work_dir, "part.json")
        parts = []
        for suite in workloads.SUITES:
            res = self.run_once((suite,) + args[1:], path)
            if res is None:
                return
            parts += json.loads(res[1])["checks"]
        if strip_wall(json.loads(text)["checks"]) != strip_wall(parts):
            self.problems.append(f"{' '.join(args)}: checks differ from its suites' runs")

    def round(self, runs: list) -> dict:
        """One round: its run times (adjusted and wall), checks and report bytes."""
        out = {"times": [], "wall": [], "checks": 0, "json_bytes": 0}
        for pos, args in enumerate(runs):
            res = self.run_once(args, os.path.join(self.work_dir, f"run{pos}.json"))
            if res is None:
                continue
            (adjusted, wall), text = res
            out["times"].append(adjusted)
            out["wall"].append(wall)
            out["checks"] += len(json.loads(text)["checks"])
            out["json_bytes"] += len(text.encode("utf-8"))
            canon = _WALL_MS.sub("", text)
            if self.first.setdefault(pos, canon) != canon:
                self.problems.append(f"{' '.join(args)}: report differs between rounds")
        return out


def requested_config(args: tuple) -> dict:
    """The configuration a CLI argument list asks for."""
    want = dict(_DEFAULTS, suite=args[0])
    for flag, value in zip(args[1::2], args[2::2]):
        key = flag.lstrip("-")
        want[key] = int(value) if key in ("trials", "seed") else value
    return want


def report_problems(args: tuple, text: str) -> list:
    """What is wrong with one JSON report of the run ``args``."""
    report = json.loads(text)
    problems = []
    config = report["config"]
    for key, value in requested_config(args).items():
        if config.get(key) != value:
            problems.append(f"config {key}={config.get(key)!r}, asked for {value!r}")
    checks = report["checks"]
    summary = report["summary"]
    if summary != {"passed": len(checks), "failed": 0}:
        problems.append(f"summary {summary} for {len(checks)} checks")
    for c in checks:
        if not c["pass"]:
            problems.append(f"check {c['id']} failed")
        # negative controls are meant to be large, even on the exact backend
        elif (c["backend"] == "exact" and not c["exact_zero"]
              and ".control." not in c["id"]):
            problems.append(f"exact check {c['id']} is not exactly zero")
    return problems


def check_ids(text: str) -> list:
    return sorted(c["id"] for c in json.loads(text)["checks"])


def strip_wall(checks: list) -> list:
    return [{k: v for k, v in c.items() if k != "wall_ms"} for c in checks]


def layer_metrics(tr: tracing.Tracer, traced: dict, untraced: dict) -> dict:
    """Per-layer metrics of one traced round."""

    def stat(name):
        return tr.stats.get(name, tracing.Stat())

    def useful(name):
        st = stat(name)
        return len(st.keys) / st.calls if st.calls else 0.0

    m = {f"{layer}.self_s": tr.self_time.get(layer, 0.0) for layer in tracing.LAYERS}
    for suite in workloads.SUITES:
        m[f"suites.{suite}_s"] = stat(f"suites._run_{suite}").time
    m["matrices.matmul_calls"] = stat("matrices.Matrix.__matmul__").calls
    m["matrices.to_float_calls"] = stat("matrices.Matrix.to_float").calls
    m["scalars.to_complex_calls"] = stat("scalars.GaussianRational.to_complex").calls
    m["fields.field_inits"] = stat("fields.PlaneWaveField.__init__").calls
    m["fields.dirac_matrix_calls"] = stat("fields.dirac_matrix").calls
    m["gamma.intertwiner_pair_s"] = stat("gamma.intertwiner_pair").time
    m["gamma.intertwiner_pair_calls"] = stat("gamma.intertwiner_pair").calls
    m["gamma.intertwiner_pair_useful_ratio"] = useful("gamma.intertwiner_pair")
    m["gamma.rep_hashes"] = stat("gamma.GammaRep.__hash__").calls
    m["projectors.build_projectors_s"] = stat("projectors.build_projectors").time
    m["projectors.build_projectors_calls"] = stat("projectors.build_projectors").calls
    m["subsolutions.split_calls"] = stat("subsolutions.split").calls
    m["lorentz.spinor_transform_calls"] = stat("lorentz.spinor_transform").calls
    m["lorentz.spinor_transform_useful_ratio"] = useful("lorentz.spinor_transform")
    for kernel in ("mul", "mul_vec", "max_abs", "expm"):
        st = stat(f"kernels.{kernel}")
        m[f"kernels.{kernel}_calls"] = st.calls
        m[f"kernels.{kernel}_us"] = st.time / st.calls * 1e6 if st.calls else 0.0
    m["reports.json_bytes"] = traced["json_bytes"]
    traced_s, untraced_s = sum(traced["times"]), sum(untraced["times"])
    m["trace.overhead_ratio"] = traced_s / untraced_s if untraced_s else 0.0
    m["trace.coverage"] = sum(tr.self_time.values()) / traced_s if traced_s else 0.0
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    opts = ap.parse_args()

    from diracsplit import kernels

    wl = Workload(opts.workload, opts.seed, opts.work_dir)
    runs = workloads.round_runs(opts.workload, opts.seed)
    wl.determinism()  # also fills the program's lazy caches before timing

    result = {"implementation": kernels.IMPLEMENTATION}
    if opts.trace:
        untraced = wl.round(runs)
        tr = tracing.Tracer()
        patch = tracing.install(tr)
        try:
            missed = patch.unwrapped_aliases()
            traced = wl.round(runs)
        finally:
            patch.uninstall()
        wl.problems += [f"unwrapped alias {a}" for a in missed]
        result["metrics"] = layer_metrics(tr, traced, untraced)
        result["edges"] = sorted(
            ([caller, callee, n, s] for (caller, callee), (n, s) in tr.edges.items()),
            key=lambda e: -e[3],
        )
        result["rounds"] = 1
    else:
        wl.sampler = speed.Sampler()
        totals, walls, checks = [], [], 0
        start = time.perf_counter()
        while True:
            r = wl.round(runs)
            totals.append(sum(r["times"]))
            walls.append(sum(r["wall"]))
            checks = r["checks"]  # the same in every round: reports are compared
            elapsed = time.perf_counter() - start
            # whole rounds, at least one, ending no later than --seconds
            if elapsed + elapsed / len(totals) > opts.seconds:
                break
        result.update(
            checks=checks, rounds=len(totals), round_s=totals, round_wall_s=walls,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    result.update(attempted=wl.attempted, failed=wl.failed, problems=wl.problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
