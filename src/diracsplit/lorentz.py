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

Each ``LorentzParams`` keeps, per representation, the matrix
``spinor_transform`` built for it and the transformed projectors
S P_k S^-1 of ``transformed_projectors``, and it keeps its
``inverse()``, all in fields outside ``==``, ``hash`` and ``repr``: the
transformations of one trial share their S, and the covariance fuzz,
which cycles through the twelve of ``COVARIANCE_GRID``, builds S^-1 and
P' once per transformation and basis.

The exact view keeps that premise, plane by plane, among its
``RepView.covariance_residuals`` (``sigma-square.<mu><nu>``), measured
once per representation, and the covariance suite records them.  The
float certificates that depend on the basis alone (``float_certificates``)
are kept the same way, on the float view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

from . import kernels
from .errors import OffShell, SpecialFrameRequiresMass
from .fields import FourMomentum, PlaneWaveField, PlaneWaveTerm, apply_symbol
from .gamma import METRIC_SIGNS, GammaRep, RepView
from .matrices import Matrix, commutator, max_abs_diff
from .reports import ResidualReport, residual_entry
from .scalars import FLOAT

_BOOST = "boost"
_ROTATION = "rotation"


@dataclass(frozen=True)
class LorentzParams:
    """One-plane transformation: kind, plane indices, parameter."""

    kind: str
    plane: tuple
    omega: float
    # per rep, spinor_transform's S and transformed_projectors' S P_k S^-1, and the
    # inverse once built; all outside ==, hash and repr
    _spinors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _projectors: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _inverse: Optional["LorentzParams"] = field(default=None, init=False, repr=False,
                                                compare=False)

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
        """The transformation at -omega, built once and kept, so its S is built once too."""
        inv = self._inverse
        if inv is None:
            inv = replace(self, omega=-self.omega)
            object.__setattr__(self, "_inverse", inv)
        return inv


@dataclass(frozen=True)
class VectorTransform:
    """4x4 real matrix a^nu_mu; its metric-preservation certificate is measured when read."""

    matrix: tuple

    @cached_property
    def metric_residual(self) -> float:
        """Largest entry of a^T g a - g."""
        a = self.matrix
        defects = []
        for mu in range(4):
            for nu in range(4):
                acc = 0.0
                for al in range(4):
                    acc += a[al][mu] * METRIC_SIGNS[al] * a[al][nu]
                defects.append(acc - (METRIC_SIGNS[mu] if mu == nu else 0.0))
        return kernels.max_abs(defects)

    def apply(self, p: FourMomentum) -> FourMomentum:
        pf = p.to_float()
        comps = tuple(
            kernels.ordered_sum(self.matrix[nu][mu] * pf.p[mu] for mu in range(4))
            for nu in range(4)
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
    return VectorTransform(tuple(tuple(r) for r in rows))


def spinor_transform(params: LorentzParams, rep: GammaRep) -> Matrix:
    """exp(-(i/2) omega I sigma), built once per (params, rep) and kept on ``params``."""
    s_mat = params._spinors.get(rep)
    if s_mat is None:
        s_mat = params._spinors[rep] = _spinor_closed_form(params, rep)
    return s_mat


def transformed_projectors(params: LorentzParams, rep: GammaRep) -> tuple:
    """S P_k S^-1 for the float view's (P1, P2, P3, P4), built once per (params, rep) and kept."""
    primes = params._projectors.get(rep)
    if primes is None:
        s = spinor_transform(params, rep)
        s_inv = spinor_transform(params.inverse(), rep)
        primes = params._projectors[rep] = tuple(s @ p @ s_inv for p in rep.on(FLOAT).p)
    return primes


def _spinor_closed_form(params: LorentzParams, rep: GammaRep) -> Matrix:
    """c Id - i I s sigma, with (c, s) = (cosh, sinh) or (cos, sin) of omega/2."""
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
    tail = ResidualReport(tuple(
        residual_entry(f"Pprime.P{k}.idempotent", "P'", FLOAT,
                       max_abs_diff(p_prime @ p_prime, p_prime))
        for k, p_prime in enumerate(transformed_projectors(params, rep), start=1)))
    return head.merged(pconditions_residual(rep, s, s_inv, vt)).merged(tail)


def pi_commutation_check(rep: GammaRep) -> ResidualReport:
    """[S, P_i] for i = 1, 2 at float group elements of the (0,3) boost and (1,2) rotation.

    The generators of those transformations commute with P1 and P2, so
    they act inside each subsolution class.  The exact generator
    commutators [sigma_03, P_i] and [sigma_12, P_i] are entries of the
    exact view's ``covariance_residuals``.
    """
    flt = rep.on(FLOAT)
    entries = []
    for mu, nu, kind in ((0, 3, _BOOST), (1, 2, _ROTATION)):
        for w in (0.5, 1.3, 3.0):
            s = spinor_transform(LorentzParams(kind, (mu, nu), w), rep)
            for i in (1, 2):
                comm = commutator(s, flt.p[i - 1])
                label = f"commute.S{mu}{nu}.w{w:g}.P{i}"
                entries.append(residual_entry(label, "S", FLOAT, comm))
    return ResidualReport(tuple(entries))


#: the transformations of the covariance certificates and of the covariance
#: fuzz: the (0,3) boost and the (1,2) rotation at six parameters each
COVARIANCE_GRID = tuple(LorentzParams(kind, plane, w)
                        for kind, plane in ((_BOOST, (0, 3)), (_ROTATION, (1, 2)))
                        for w in (0.5, -0.5, 1.0, -1.0, 3.0, -3.0))


def float_certificates(rep: GammaRep) -> tuple:
    """The float covariance records that depend on the basis alone.

    Returns ``(grid, commutators, controls)``: ``covariance_check`` at
    each transformation of ``COVARIANCE_GRID``, its labels prefixed
    ``<kind><mu><nu>.w<omega>.``; ``pi_commutation_check``; and two
    negative controls, far from zero: ``sign-flip``, the largest
    P-condition of the (0,3) boost at omega = 1 with S and S^-1 swapped,
    and ``boost01-noncommute``, [S, P1] for the (0,1) boost at omega = 1,
    which does not keep the class of P1.  The float view keeps them:
    read ``rep.on(FLOAT).lorentz_certificates``.
    """
    grid = []
    for params in COVARIANCE_GRID:
        mu, nu = params.plane
        tag = f"{params.kind}{mu}{nu}.w{params.omega:g}"
        grid += [replace(e, label=f"{tag}.{e.label}") for e in covariance_check(params, rep)]
    flip = LorentzParams(_BOOST, (0, 3), 1.0)
    sign_flip = pconditions_residual(rep, spinor_transform(flip.inverse(), rep),
                                     spinor_transform(flip, rep), vector_transform(flip))
    s01 = spinor_transform(LorentzParams(_BOOST, (0, 1), 1.0), rep)
    controls = (residual_entry("sign-flip", "Pconditions", FLOAT,
                               [e.residual for e in sign_flip]),
                residual_entry("boost01-noncommute", "S", FLOAT,
                               commutator(s01, rep.on(FLOAT).p[0])))
    return ResidualReport(tuple(grid)), pi_commutation_check(rep), ResidualReport(controls)


def special_frame(p: FourMomentum) -> tuple:
    """Rotation and boost carrying p to the (p0', p1', 0, 0) frame.

    The (1,2) rotation by atan2(p2, p1) turns the transverse momentum
    onto the 1-axis without touching p0 or p3; the (0,3) boost by
    atanh(p3/p0) then removes p3.  The planes are disjoint, so the two
    transformations commute and the order is immaterial.  Requires a
    massive on-shell momentum: for m = 0 with p1 = p2 = 0 the boost
    parameter would be |p3/p0| = 1.
    """
    if not p.mass:
        raise SpecialFrameRequiresMass("frame-fixing boost needs m > 0")
    if not p.is_on_shell(tol=1e-9):
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
    s = spinor_transform(params, f.rep)
    if ff.ncomp != 4:
        raise ValueError("transformation acts on bispinor fields")
    vt = vector_transform(params)
    out = [
        PlaneWaveTerm(s.apply(t.amplitude), vt.apply(t.momentum), t.freq_sign)
        for t in ff.terms
    ]
    return PlaneWaveField(out, rep=ff.rep, ncomp=4, backend=FLOAT)


def reduced_dirac_symbol(view: RepView, p: FourMomentum, s: int, mass) -> Matrix:
    """gamma_0 (s p^0) + gamma_1 (s p^1) - m: the symbol of ``reduced_dirac_residual``."""
    g0, g1 = view.gammas_lower[:2]
    return g0.scale(s * p.p[0]) + g1.scale(s * p.p[1]) - Matrix.diag((mass,) * 4, p.backend)


def reduced_dirac_residual(f: PlaneWaveField, mass) -> PlaneWaveField:
    """(gamma^0 p_0 + gamma^1 p_1 - m) f.

    In the special frame the momentum operator components p_2 and p_3
    annihilate the field, and the Dirac operator gamma^mu p_mu collapses
    to its (0, 1) part; this evaluates that reduced form.
    """
    view = f.rep.on(f.backend)
    return apply_symbol(f, lambda p, s: reduced_dirac_symbol(view, p, s, mass))
