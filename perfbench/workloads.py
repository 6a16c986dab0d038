"""The benchmark's workloads: the CLI runs each one makes, built from a seed.

The program only ever sees these argument lists; every seed it gets is
derived from the benchmark's ``--seed`` by ``derive``.
"""

from __future__ import annotations

import itertools
import random
import zlib

NAMES = ("default", "allreps", "short_runs")

SUITES = ("clifford", "projectors", "split", "weyl", "majorana", "covariance")
REPS = ("spinor", "standard", "majorana", "all")
BACKENDS = ("exact", "float", "both")

#: cycle positions of ``short_runs`` that the determinism probe re-runs
PROBES_PER_CYCLE = 3
#: trials of ``allreps``, cut from 1000 so that a run takes seconds, not minutes
ALLREPS_TRIALS = 20

_MASK64 = (1 << 64) - 1


def derive(seed: int, tag: str, index: int = 0) -> int:
    """A 64-bit program seed from the benchmark seed (splitmix64 finaliser)."""
    x = (seed * 0x9E3779B97F4A7C15 + zlib.crc32(tag.encode()) * 0xD6E8FEB86659FD93
         + index) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def short_cycle(seed: int) -> list:
    """Every suite x rep x backend once, 1..9 trials, a fresh seed per run."""
    runs = []
    for i, (suite, rep, backend) in enumerate(itertools.product(SUITES, REPS, BACKENDS)):
        runs.append((suite, "--rep", rep, "--backend", backend,
                     "--trials", str(1 + i % 9),
                     "--seed", str(derive(seed, "short_runs", i))))
    return runs


def default_runs(seed: int, suite_names=SUITES) -> list:
    """``verify all`` at the default configuration, one CLI run per suite.

    ``verify all`` runs the suites in this order under one seed, and its
    checks are exactly those of these runs put together (``worker.py``
    checks that on every run), so a round is one default verification
    cut into six timed pieces.
    """
    return [(suite, "--seed", str(derive(seed, "default"))) for suite in suite_names]


def allreps_runs(seed: int) -> list:
    """``verify all --rep all``, one CLI run."""
    return [("all", "--rep", "all", "--trials", str(ALLREPS_TRIALS),
             "--seed", str(derive(seed, "allreps")))]


def round_runs(workload: str, seed: int) -> list:
    """The CLI argument lists of one round; every round repeats them."""
    if workload == "default":
        return default_runs(seed)
    if workload == "allreps":
        return allreps_runs(seed)
    if workload == "short_runs":
        return short_cycle(seed)
    raise ValueError(f"unknown workload {workload!r}")


def verifications_per_round(workload: str) -> int:
    """How many verification runs ``verify_s`` divides one round into."""
    return 1 if workload == "default" else len(round_runs(workload, 0))


def probe_runs(workload: str, seed: int) -> list:
    """Cheap configurations of the workload for the determinism property."""
    if workload == "short_runs":
        cycle = short_cycle(seed)
        picks = random.Random(derive(seed, "probe")).sample(range(len(cycle)), PROBES_PER_CYCLE)
        return [cycle[i] for i in sorted(picks)]
    (args,) = allreps_runs(seed) if workload == "allreps" else default_runs(seed, ("all",))
    return [with_flag(args, "--trials", "1")]


def with_flag(args: tuple, flag: str, value: str) -> tuple:
    """``args`` with ``flag`` set to ``value``."""
    out = list(args)
    if flag in out:
        out[out.index(flag) + 1] = value
    else:
        out += [flag, value]
    return tuple(out)


def second_seed(args: tuple, seed: int) -> tuple:
    """The same configuration under another seed."""
    return with_flag(args, "--seed", str(derive(seed, "second-seed")))


def reps_of(workload: str) -> tuple:
    """Representations whose outputs the independent checks sample."""
    return ("spinor",) if workload == "default" else ("spinor", "standard", "majorana")
