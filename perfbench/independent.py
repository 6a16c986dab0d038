"""Checks of the program's outputs in arithmetic the program does not use.

For momenta sampled from the workload seed (over the default mass and
momentum ranges, plus a few exact integer on-shell and light-like
momenta), the outputs of ``u_spinor``, ``split`` and ``weyl_spinor`` are
converted to NumPy arrays and checked against properties the method
must have; the gamma matrices of each basis are checked against the
Clifford and gamma5 relations.  Projectors are rebuilt here from the
gammas, not taken from the program.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

import workloads

METRIC = np.diag([1.0, -1.0, -1.0, -1.0])
REL_TOL = 1e-10
SAMPLES = 16  # float momenta per family and representation

# integer on-shell (p0, p1, p2, p3, m) with small entries, and light-like k
_EXACT_MASSIVE = [
    (p0, a, b, c, m)
    for a, b, c in itertools.product(range(-4, 5), repeat=3)
    for m in range(1, 5)
    for p0 in range(1, 10)
    if p0 * p0 == m * m + a * a + b * b + c * c
]
_EXACT_LIGHTLIKE = [
    (k0, a, b, c)
    for a, b, c in itertools.product(range(-4, 5), repeat=3)
    for k0 in range(1, 10)
    if k0 * k0 == a * a + b * b + c * c
]


def _c(x) -> complex:
    if hasattr(x, "re"):  # GaussianRational
        return complex(float(x.re), float(x.im))
    return complex(x)


def _mat(m) -> np.ndarray:
    return np.array([[_c(x) for x in row] for row in m.rows()], dtype=complex)


def _vec(amplitude) -> np.ndarray:
    return np.array([_c(x) for x in amplitude], dtype=complex)


def _direction(rng: random.Random) -> np.ndarray:
    while True:
        v = np.array([rng.gauss(0.0, 1.0) for _ in range(3)])
        n = np.linalg.norm(v)
        if n > 1e-9:
            return v / n


class Checker:
    def __init__(self, ds):
        self.ds = ds
        self.problems = []
        self.count = 0

    def near_zero(self, what: str, value: np.ndarray, scale: float) -> None:
        self.count += 1
        err = float(np.max(np.abs(value))) if value.size else 0.0
        if not err <= REL_TOL * max(scale, 1.0):
            self.problems.append(f"{what}: residual {err:.3e} at scale {scale:.3e}")

    def gammas(self, rep_name: str):
        rep = self.ds.build_rep(rep_name)
        g = [_mat(x) for x in rep.gammas]
        g5 = _mat(rep.gamma5)
        ident = np.eye(4)
        for mu, nu in itertools.product(range(4), repeat=2):
            self.near_zero(f"{rep_name} {{g{mu}, g{nu}}} - 2 eta",
                           g[mu] @ g[nu] + g[nu] @ g[mu] - 2 * METRIC[mu, nu] * ident, 1)
        self.near_zero(f"{rep_name} g5 + i g0 g1 g2 g3",
                       g5 + 1j * g[0] @ g[1] @ g[2] @ g[3], 1)
        self.near_zero(f"{rep_name} g5^2 - 1", g5 @ g5 - ident, 1)
        for mu in range(4):
            self.near_zero(f"{rep_name} {{g5, g{mu}}}", g5 @ g[mu] + g[mu] @ g5, 1)
        return g, g5

    def rep(self, rep_name: str, rng: random.Random) -> None:
        ds = self.ds
        g, g5 = self.gammas(rep_name)
        ident = np.eye(4)
        self.slash = lambda p: sum(METRIC[mu, mu] * p[mu] * g[mu] for mu in range(4))
        self.q = {"+": (ident + g5) / 2, "-": (ident - g5) / 2}
        g03, ig12 = g[0] @ g[3], 1j * g[1] @ g[2]
        self.p12 = ((3 * ident - g5 - g03 + ig12) / 4, (3 * ident - g5 + g03 - ig12) / 4)

        massive = []
        for _ in range(SAMPLES):
            m = rng.uniform(0.1, 10.0)
            spatial = rng.uniform(0.0, 10.0) * _direction(rng)
            massive.append(ds.FourMomentum.on_shell(m, tuple(float(x) for x in spatial)))
        massive += [ds.FourMomentum.exact(p[:4], p[4]) for p in rng.sample(_EXACT_MASSIVE, 3)]
        lightlike = []
        for _ in range(SAMPLES):
            spatial = rng.uniform(1e-3, 10.0) * _direction(rng)
            k0 = float(np.linalg.norm(spatial))
            lightlike.append(ds.FourMomentum((k0, *map(float, spatial)), 0.0, "float"))
        lightlike += [ds.FourMomentum.exact(k, 0) for k in rng.sample(_EXACT_LIGHTLIKE, 2)]

        cases = [(self.massive, mom, s) for mom in massive for s in (1, 2)]
        cases += [(self.weyl, mom, ch) for mom in lightlike for ch in ("left", "right")]
        for method, mom, label in cases:
            try:
                method(rep_name, mom, label)
            except Exception as exc:  # a program error is a wrong output too
                self.problems.append(f"{rep_name} {method.__name__} {label} at {mom.p} raised {exc!r}")

    def weyl(self, rep_name, mom, chirality):
        """weyl_spinor at one light-like momentum."""
        k = np.array([float(x) for x in mom.p])
        a = _vec(self.ds.weyl_spinor(mom, self.ds.build_rep(rep_name), chirality).amplitude)
        size = np.linalg.norm(a)
        if not size > 0:
            self.problems.append(f"{rep_name} weyl {chirality} at {k}: zero amplitude")
            return
        image = self.q["+" if chirality == "left" else "-"]
        self.near_zero(f"{rep_name} weyl {chirality} chiral image at {k}", image @ a - a, size)
        for name, q in self.q.items():
            self.near_zero(f"{rep_name} weyl {chirality} g.k Q{name} psi at {k}",
                           self.slash(k) @ q @ a, k[0] * size)

    def massive(self, rep_name, mom, s):
        """u_spinor at one momentum, and split of it in the spinor basis."""
        ds, slash = self.ds, self.slash
        rep = ds.build_rep(rep_name)
        p = np.array([float(x) for x in mom.p])
        ident = np.eye(4)
        m = float(mom.mass)
        term = ds.u_spinor(mom, rep, s)
        u = _vec(term.amplitude)
        scale = (p[0] + m) * np.linalg.norm(u)
        self.near_zero(f"{rep_name} (g.p - m) u{s} at {p}", (slash(p) - m * ident) @ u, scale)
        if mom.backend == "float":
            self.near_zero(f"{rep_name} u{s}'u{s} - 2 p0 at {p}",
                           np.array([np.vdot(u, u) - 2 * p[0]]), p[0])
        if rep_name != "spinor":
            return  # split's component formulas are pinned to the spinor basis
        p1, p2 = self.p12
        sr = ds.split(ds.field_of(term, rep), mom.mass)
        whole = _vec(sr.psi.terms[0].amplitude)
        parts = [_vec(f.terms[0].amplitude) if f.terms else np.zeros(4)
                 for f in (sr.psi1, sr.psi2)]
        xis = [_vec(f.terms[0].amplitude) if f.terms else np.zeros(2)
               for f in (sr.xi1_pair, sr.xi2_pair)]
        size = np.linalg.norm(whole)
        self.near_zero(f"split xi1 + xi2 - xi at {p}", xis[0] + xis[1] - whole[:2], size)
        self.near_zero(f"split P1 psi1 + P2 psi2 - psi at {p}",
                       p1 @ parts[0] + p2 @ parts[1] - whole, size)
        for k, (proj, part) in enumerate(((p1, parts[0]), (p2, parts[1])), start=1):
            self.near_zero(f"split (g.p - m) P{k} psi{k} at {p}",
                           (slash(p) - m * ident) @ proj @ part,
                           (p[0] + m) * np.linalg.norm(part))


def check(workload: str, seed: int) -> tuple:
    """(number of checks, list of problems) for a workload's reps and seed."""
    import diracsplit

    checker = Checker(diracsplit)
    rng = random.Random(workloads.derive(seed, "independent"))
    for rep_name in workloads.reps_of(workload):
        checker.rep(rep_name, rng)
    return checker.count, checker.problems
