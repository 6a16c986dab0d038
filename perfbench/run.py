"""The repository's benchmark: one workload, end to end or traced by layer.

Usage (from the repository root):
    python3 perfbench/run.py --workload default|short_runs
                             --seed N --seconds S --trace 0|1

With ``--trace 0`` it measures set-up in fresh interpreters, then runs
the workload's rounds for about S seconds in a child process, and prints
``setup_s``, ``verify_s``, ``checks_per_s`` and ``peak_rss_mb``; the
timings are wall times scaled to a reference machine speed that
``speed.py`` samples while they run, and medians over the whole run.
With ``--trace 1`` it runs one untraced and one traced round and prints
the per-layer metrics.  Both check the program's outputs: every report
(see ``worker.py``), the determinism property, and the independent
NumPy checks of ``independent.py``.  The last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; metric names and units come from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

#: timed set-ups per run, after one untimed one that compiles bytecode
SETUP_REPEATS = 9
#: the whole benchmark has to end within 180 s
WORKER_TIMEOUT_S = 165

SETUP_CODE = """\
import speed
sampler = speed.Sampler()
sampler.start()
import diracsplit
reps = [diracsplit.build_rep(n) for n in ("spinor", "standard", "majorana")]
sets = [diracsplit.build_projectors(r) for r in reps]
print(*sampler.stop())
"""


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def measure_setup(env: dict) -> tuple:
    """Median (adjusted, wall) seconds for a fresh interpreter to import and build every rep."""
    times = []
    for i in range(SETUP_REPEATS + 1):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed:\n{proc.stderr}")
        if i:
            times.append([float(x) for x in proc.stdout.split()[-2:]])
    return tuple(statistics.median(t[k] for t in times) for k in (0, 1))


def run_worker(opts, env: dict) -> dict:
    WORK.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", opts.workload,
           "--seed", str(opts.seed), "--seconds", str(opts.seconds),
           "--trace", str(opts.trace), "--work-dir", work_dir]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload did not end within {WORKER_TIMEOUT_S} s") from exc
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def end_to_end(workload: str, res: dict) -> dict:
    """verify_s, checks_per_s and peak_rss_mb of a worker's result."""
    round_s = statistics.median(res["round_s"])
    return {
        "verify_s": round_s / workloads.verifications_per_round(workload),
        "checks_per_s": res["checks"] / round_s,
        "peak_rss_mb": res["peak_rss_mb"],
    }


def print_trace(res: dict, metrics: dict) -> None:
    m = res["metrics"]
    wall = sum(m[f"{layer}.self_s"] for layer in tracing.LAYERS)
    print(f"traced round: {wall:.3f} s of layer self time, "
          f"overhead x{m['trace.overhead_ratio']:.2f} against the untraced round, "
          f"coverage {m['trace.coverage']:.4f}")
    for layer in tracing.LAYERS:
        t = m[f"{layer}.self_s"]
        print(f"  {layer:<13} self {t:9.4f} s  {100 * t / wall if wall else 0:5.1f}%")
    print("suites (inclusive):")
    for suite in workloads.SUITES:
        print(f"  {suite:<13} {m[f'suites.{suite}_s']:9.4f} s")
    print("busiest caller -> callee layer edges (spans, seconds):")
    for caller, callee, n, s in res["edges"][:12]:
        print(f"  {caller or '-':>13} -> {callee:<13} {n:9d} {s:9.4f}")
    for name, entry in metrics.items():
        if entry["value"] == 0:
            print(f"not exercised on this workload: {name}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()

    if not (SRC / "diracsplit" / "__init__.py").is_file():
        print(f"error: no diracsplit sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = spec["per_layer" if opts.trace else "end_to_end"]

    env = child_env()
    try:
        setup = None if opts.trace else measure_setup(env)
        res = run_worker(opts, env)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    values = dict(res["metrics"]) if opts.trace else end_to_end(opts.workload, res)
    if setup:
        values["setup_s"] = setup[0]

    sys.path.insert(0, str(SRC))
    import independent

    n_independent, independent_problems = independent.check(opts.workload, opts.seed)
    problems = res["problems"] + independent_problems

    missing = [e["name"] for e in wanted if e["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {e["name"]: {"value": values[e["name"]], "unit": e["unit"]} for e in wanted}

    print(f"workload {opts.workload}, seed {opts.seed}, "
          f"kernel implementation {res['implementation']}, {res['rounds']} round(s)")
    if setup:
        print(f"set-up: {setup[1]:.4f} s wall, {setup[0]:.4f} s at reference speed")
    if "round_s" in res:
        for name, key in (("at reference speed", "round_s"), ("wall", "round_wall_s")):
            print(f"each round's time (s), {name}: "
                  + " ".join(f"{t:.3f}" for t in res[key]))
    if opts.trace:
        print_trace(res, metrics)
    for name, entry in metrics.items():
        print(f"{name:<40} {entry['value']:>16.6g} {entry['unit']}")
    print(f"operations attempted {res['attempted']}, failed {res['failed']}")
    print(f"independent checks: {n_independent}, problems: {len(independent_problems)}")
    for p in problems[:20]:
        print(f"PROBLEM: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
