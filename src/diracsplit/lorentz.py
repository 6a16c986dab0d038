"""Lorentz transformations of momenta, amplitudes and fields.

A transformation is restricted to a single coordinate plane: a boost in
(0, k) with rapidity omega or a rotation in (j, k), j < k, by angle
omega.  The spinor representative is

    S = exp(-(i/2) omega I sigma_{mu nu})

with I = +1 for boost planes and I = -1 for rotation planes, and the
vector matrix a is the matching one, pinned so that

    S^-1 gamma^nu S = a^nu_mu gamma^mu

holds in every representation.  Since sigma_{mu nu} squares to
g_{mu mu} g_{nu nu} times the identity (-1 on boost planes, +1 on
rotation planes), the exponential series collapses and
``spinor_transform`` evaluates it in closed form:

    S = cosh(omega/2) - i I sinh(omega/2) sigma    (boost)
    S = cos(omega/2)  - i I sin(omega/2)  sigma    (rotation)

The covariance suite checks that premise exactly, plane by plane, as
its ``sigma-square`` records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import kernels
from .errors import OffShell, SpecialFrameRequiresMass
from .fields import FourMomentum, PlaneWaveField, PlaneWaveTerm, momentum_op
from .gamma import METRIC_SIGNS, GammaRep
from .matrices import Matrix, commutator, max_abs_diff
from .reports import ResidualReport, residual_entry
from .scalars import EXACT, FLOAT, scalar_is_zero

_BOOST = "boost"
_ROTATION = "rotation"


@dataclass(frozen=True)
class LorentzParams:
    """One-plane transformation: kind, plane indices, parameter."""

    kind: str
    plane: tuple
    omega: float

    def __post_init__(self):
        if self.kind not in (_BOOST, _ROTATION):
            raise ValueError(f"unknown kind {self.kind!r}")
        mu, nu = self.plane
        if not (0 <= mu <= 3 and 0 <= nu <= 3 and mu != nu):
            raise ValueError(f"invalid plane {self.plane}")
        if self.kind == _BOOST and mu != 0:
            raise ValueError("boost plane must be (0, k)")
        if self.kind == _ROTATION and not (1 <= mu < nu):
            raise ValueError("rotation plane must be spatial with j < k")
        object.__setattr__(self, "omega", float(self.omega))

    @property
    def generator_sign(self) -> int:
        """The I^{mu nu} weight: +1 on boost planes, -1 on rotation planes."""
        return 1 if self.kind == _BOOST else -1

    def inverse(self) -> "LorentzParams":
        return replace(self, omega=-self.omega)


@dataclass(frozen=True)
class VectorTransform:
    """4x4 real matrix a^nu_mu together with its metric-preservation certificate."""

    matrix: tuple
    metric_residual: float

    def apply(self, p: FourMomentum) -> FourMomentum:
        pf = p.to_float()
        comps = tuple(
            sum(self.matrix[nu][mu] * pf.p[mu] for mu in range(4)) for nu in range(4)
        )
        return FourMomentum(comps, pf.mass, FLOAT)


def vector_transform(params: LorentzParams) -> VectorTransform:
    rows = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    mu, nu = params.plane
    w = params.omega
    if params.kind == _BOOST:
        c, s = math.cosh(w), math.sinh(w)
        rows[0][0] = c
        rows[0][nu] = -s
        rows[nu][0] = -s
        rows[nu][nu] = c
    else:
        c, s = math.cos(w), math.sin(w)
        rows[mu][mu] = c
        rows[mu][nu] = s
        rows[nu][mu] = -s
        rows[nu][nu] = c
    matrix = tuple(tuple(r) for r in rows)
    residual = _metric_defect(matrix)
    return VectorTransform(matrix, residual)


def _metric_defect(a: tuple) -> float:
    defects = []
    for mu in range(4):
        for nu in range(4):
            acc = 0.0
            for al in range(4):
                acc += a[al][mu] * METRIC_SIGNS[al] * a[al][nu]
            defects.append(acc - (METRIC_SIGNS[mu] if mu == nu else 0.0))
    return kernels.max_abs(defects)


def spinor_transform(params: LorentzParams, rep: GammaRep) -> Matrix:
    """exp(-(i/2) omega I sigma) in closed form: c Id - i I s sigma."""
    mu, nu = params.plane
    sig = rep.on(FLOAT).sigmas[mu][nu]
    half = 0.5 * params.omega
    if params.kind == _BOOST:
        c, s = math.cosh(half), math.sinh(half)
    else:
        c, s = math.cos(half), math.sin(half)
    return Matrix.identity(4, FLOAT).scale(complex(c, 0)) + sig.scale(
        complex(0, -s * params.generator_sign)
    )


def pconditions_residual(rep: GammaRep, s: Matrix, s_inv: Matrix,
                         vt: VectorTransform) -> ResidualReport:
    """Residuals of S^-1 gamma^nu S - a^nu_mu gamma^mu, one entry per nu.

    Takes S and its inverse explicitly so negative controls can feed a
    mismatched pair (for example the transform at the flipped parameter)
    and watch the residual blow up.
    """
    gf = rep.on(FLOAT).gammas
    entries = []
    for nu in range(4):
        acc = Matrix.zero(4, FLOAT)
        for mu in range(4):
            coeff = vt.matrix[nu][mu]
            if coeff != 0.0:
                acc = acc + gf[mu].scale(complex(coeff, 0))
        resid = s_inv @ gf[nu] @ s - acc
        entries.append(residual_entry(f"Pconditions.nu{nu}", "Pconditions", FLOAT, resid))
    return ResidualReport(tuple(entries))


def covariance_check(params: LorentzParams, rep: GammaRep) -> ResidualReport:
    """Full covariance certificate for one transformation.

    Metric preservation of a, S S^-1 = 1, the gamma-matrix condition for
    every nu, and idempotence of each transformed projector
    P' = S P S^-1.
    """
    s = spinor_transform(params, rep)
    s_inv = spinor_transform(params.inverse(), rep)
    vt = vector_transform(params)
    ident = Matrix.identity(4, FLOAT)

    head = ResidualReport((
        residual_entry("vector.metric", "Pconditions", FLOAT, vt.metric_residual),
        residual_entry("S.inverse", "S", FLOAT, max_abs_diff(s @ s_inv, ident)),
    ))
    primes = []
    for k, p in enumerate(rep.on(FLOAT).p, start=1):
        p_prime = s @ p @ s_inv
        primes.append(residual_entry(f"Pprime.P{k}.idempotent", "P'", FLOAT,
                                     max_abs_diff(p_prime @ p_prime, p_prime)))
    tail = ResidualReport(tuple(primes))
    return head.merged(pconditions_residual(rep, s, s_inv, vt)).merged(tail)


def pi_commutation_check(rep: GammaRep) -> ResidualReport:
    """[sigma_03, P_i] and [sigma_12, P_i], exactly and at float group elements.

    The generators of the (0,3) boost and (1,2) rotation commute with P1
    and P2, so those transformations act inside each subsolution class.
    """
    exact, flt = rep.on(EXACT), rep.on(FLOAT)
    entries = []
    for mu, nu in ((0, 3), (1, 2)):
        sig = exact.sigmas[mu][nu]
        for i in (1, 2):
            comm = commutator(sig, exact.p[i - 1])
            entries.append(residual_entry(f"commute.sigma{mu}{nu}.P{i}", "S", EXACT, comm))
    for mu, nu, kind in ((0, 3, _BOOST), (1, 2, _ROTATION)):
        for w in (0.5, 1.3, 3.0):
            s = spinor_transform(LorentzParams(kind, (mu, nu), w), rep)
            for i in (1, 2):
                comm = commutator(s, flt.p[i - 1])
                label = f"commute.S{mu}{nu}.w{w:g}.P{i}"
                entries.append(residual_entry(label, "S", FLOAT, comm))
    return ResidualReport(tuple(entries))


def special_frame(p: FourMomentum) -> tuple:
    """Rotation and boost carrying p to the (p0', p1', 0, 0) frame.

    The (1,2) rotation by atan2(p2, p1) turns the transverse momentum
    onto the 1-axis without touching p0 or p3; the (0,3) boost by
    atanh(p3/p0) then removes p3.  The planes are disjoint, so the two
    transformations commute and the order is immaterial.  Requires a
    massive on-shell momentum: for m = 0 with p1 = p2 = 0 the boost
    parameter would be |p3/p0| = 1.
    """
    if scalar_is_zero(p.mass):
        raise SpecialFrameRequiresMass("frame-fixing boost needs m > 0")
    if not p.is_on_shell(tol=1e-9 if p.backend == FLOAT else 0.0):
        raise OffShell(f"momentum {p.p} with mass {p.mass} is off the shell")
    pf = p.to_float()
    omega_r = math.atan2(pf.p[2], pf.p[1])
    omega_b = math.atanh(pf.p[3] / pf.p[0])
    return (
        LorentzParams(_ROTATION, (1, 2), omega_r),
        LorentzParams(_BOOST, (0, 3), omega_b),
    )


def transform_field(f: PlaneWaveField, params: LorentzParams) -> PlaneWaveField:
    """Transformed field: amplitudes through S, momenta through a.

    The entries of S are transcendental in omega, so this is a
    float-backend operation; promote exact fields with ``to_float``.
    """
    ff = f if f.backend == FLOAT else f.to_float()
    if f.rep is None:
        raise ValueError("field carries no representation")
    s = spinor_transform(params, f.rep)
    if ff.ncomp != 4:
        raise ValueError("transformation acts on bispinor fields")
    vt = vector_transform(params)
    out = [
        PlaneWaveTerm(s.apply(t.amplitude), vt.apply(t.momentum), t.freq_sign)
        for t in ff.terms
    ]
    return PlaneWaveField(out, rep=ff.rep, ncomp=4, backend=FLOAT)


def reduced_dirac_residual(f: PlaneWaveField, mass) -> PlaneWaveField:
    """(gamma^0 p_0 + gamma^1 p_1 - m) f.

    In the special frame the momentum operator components p_2 and p_3
    annihilate the field, and the Dirac operator gamma^mu p_mu collapses
    to its (0, 1) part; this evaluates that reduced form.
    """
    if f.rep is None:
        raise ValueError("field carries no representation")
    gammas = f.rep.on(f.backend).gammas
    t0, t1 = (momentum_op(f, mu).apply(gammas[mu]).scale(METRIC_SIGNS[mu]) for mu in (0, 1))
    return t0 + t1 - f.scale(mass)
