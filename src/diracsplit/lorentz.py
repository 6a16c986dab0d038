"""Lorentz transformations of momenta and amplitudes.

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

The covariance suite checks that premise exactly, plane by plane, among
the exact records it keeps per representation
(``suites._covariance_records``, ``sigma-square.<mu><nu>``).  This module
builds no Dirac symbol: the special frame's reduced operator is
``fields.dirac_matrix`` at the frame's momentum (see ``special_frame``).

``vector_transform`` gives a as its four rows, from the same functions
at omega (``_cos_sin`` serves both): with (c, s) = (cosh, sinh) or
(cos, sin) of omega on the plane (mu, nu), a^mu_mu = a^nu_nu = c,
a^nu_mu = -s, and a^mu_nu = -s on a boost or +s on a rotation.
``transformed_momentum`` moves a momentum through a, and
``metric_residual`` measures a^T g a - g; each sums its components left
to right from 0.0, as ``kernels.ordered_sum`` does.

This module keeps nothing: a ``LorentzParams`` holds its three fields
alone, and every function builds afresh.  ``grid_transforms`` gives,
at each transformation of ``COVARIANCE_GRID``, the tuple (S, S^-1, a,
S P_k S^-1) that the covariance certificates and the covariance fuzz
read; ``suites._covariance_grid`` keeps it per pinned basis.

The float certificates that depend on the basis alone are stated as
``(label, equation, value)`` relations, like every other family:
``_pconditions`` states S^-1 gamma^nu S = a^nu_mu gamma^mu on the backend
of S, and ``float_certificates`` lists the grid's certificates, the
commutators and the controls under their final labels and measures each
list once with ``residual_report``.  It keeps nothing, since it takes
any basis; the covariance suite keeps the three reports of each pinned
one.
"""

from __future__ import annotations

import math

from . import kernels
from .errors import OffShell, SpecialFrameRequiresMass
from .fields import FourMomentum
from .gamma import METRIC_SIGNS, GammaRep
from .matrices import Matrix, commutator
from .reports import residual_report
from .scalars import FLOAT
from .values import Value, store

_BOOST = "boost"
_ROTATION = "rotation"


class LorentzParams(Value):
    """One-plane transformation: kind, plane indices, parameter."""

    __slots__ = _fields = ("kind", "plane", "omega")

    def __init__(self, kind: str, plane: tuple, omega: float):
        if kind not in (_BOOST, _ROTATION):
            raise ValueError(f"unknown kind {kind!r}")
        mu, nu = plane
        if not (0 <= mu <= 3 and 0 <= nu <= 3 and mu != nu):
            raise ValueError(f"invalid plane {plane}")
        if kind == _BOOST and mu != 0:
            raise ValueError("boost plane must be (0, k)")
        if kind == _ROTATION and not (1 <= mu < nu):
            raise ValueError("rotation plane must be spatial with j < k")
        store(self, "kind", kind)
        store(self, "plane", plane)
        store(self, "omega", float(omega))

    @property
    def generator_sign(self) -> int:
        """The I^{mu nu} weight: +1 on boost planes, -1 on rotation planes."""
        return 1 if self.kind == _BOOST else -1

    def inverse(self) -> "LorentzParams":
        """The transformation at -omega."""
        return LorentzParams(self.kind, self.plane, -self.omega)


def _cos_sin(kind: str, angle: float) -> tuple:
    """(cosh, sinh) of ``angle`` for a boost, (cos, sin) for a rotation."""
    if kind == _BOOST:
        return math.cosh(angle), math.sinh(angle)
    return math.cos(angle), math.sin(angle)


def vector_transform(params: LorentzParams) -> tuple:
    """The rows of a^nu_mu: four tuples of four floats."""
    mu, nu = params.plane
    c, s = _cos_sin(params.kind, params.omega)
    rows = [[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)]
    rows[mu][mu] = rows[nu][nu] = c
    rows[nu][mu] = -s
    rows[mu][nu] = -params.generator_sign * s
    return tuple(map(tuple, rows))


def metric_residual(a: tuple) -> float:
    """Largest entry of a^T g a - g, for the rows ``a`` of a vector transformation."""
    (g0, g1, g2, g3), (r0, r1, r2, r3) = METRIC_SIGNS, a
    return kernels.max_abs([0.0 + r0[m] * g0 * r0[n] + r1[m] * g1 * r1[n] + r2[m] * g2 * r2[n]
                            + r3[m] * g3 * r3[n] - (METRIC_SIGNS[m] if m == n else 0.0)
                            for m in range(4) for n in range(4)])


def transformed_momentum(a: tuple, p: FourMomentum) -> FourMomentum:
    """The float momentum a^nu_mu p^mu at p's mass, for the rows ``a`` of a transformation."""
    pf = p.to_float()
    p0, p1, p2, p3 = pf.p
    moved = [0.0 + r[0] * p0 + r[1] * p1 + r[2] * p2 + r[3] * p3 for r in a]
    return FourMomentum(tuple(moved), pf.mass, FLOAT)


def spinor_transform(params: LorentzParams, rep: GammaRep) -> Matrix:
    """S = exp(-(i/2) omega I sigma) = c Id - i I s sigma, with (c, s) of omega/2."""
    mu, nu = params.plane
    c, s = _cos_sin(params.kind, 0.5 * params.omega)
    return Matrix.identity(4, FLOAT).scale(complex(c, 0)) + rep.on(FLOAT).sigmas[mu][nu].scale(
        complex(0, -s * params.generator_sign))


def _pconditions(rep: GammaRep, s: Matrix, s_inv: Matrix, a: tuple):
    """S^-1 gamma^nu S - a^nu_mu gamma^mu on the backend of S, one relation per nu.

    Takes S and its inverse explicitly so a negative control can feed a
    mismatched pair (the transform at the flipped parameter) and watch
    the residual blow up.
    """
    gammas = rep.on(s.backend).gammas
    for nu in range(4):
        acc = Matrix.zero(4, s.backend)
        for mu in range(4):
            coeff = a[nu][mu]
            if coeff != 0.0:
                acc = acc + gammas[mu].scale(coeff)
        yield f"Pconditions.nu{nu}", "Pconditions", s_inv @ gammas[nu] @ s - acc


#: the transformations of the covariance certificates and of the covariance
#: fuzz: the (0,3) boost and the (1,2) rotation at six parameters each, each
#: omega next to its negative (``grid_transforms`` reads S^-1 there)
COVARIANCE_GRID = tuple(LorentzParams(kind, plane, w)
                        for kind, plane in ((_BOOST, (0, 3)), (_ROTATION, (1, 2)))
                        for w in (0.5, -0.5, 1.0, -1.0, 3.0, -3.0))


def _transforms(params: LorentzParams, rep: GammaRep, s: Matrix, s_inv: Matrix) -> tuple:
    """(S, S^-1, a, S P_k S^-1 for the float view's P1..P4) of one transformation."""
    return s, s_inv, vector_transform(params), tuple(s @ p @ s_inv for p in rep.on(FLOAT).p)


def grid_transforms(rep: GammaRep) -> tuple:
    """``(S, S^-1, a, P')`` at each transformation of ``COVARIANCE_GRID``, in its order.

    Each S is built once: the grid lists each omega next to its negative,
    which is ``params.inverse()``, so S^-1 is that neighbour's S.
    """
    s = [spinor_transform(params, rep) for params in COVARIANCE_GRID]
    return tuple(_transforms(params, rep, s[i], s[i ^ 1])
                 for i, params in enumerate(COVARIANCE_GRID))


def _certificate(rep: GammaRep, params: LorentzParams, transforms: tuple):
    """One transformation's float covariance certificate, labelled ``<kind><mu><nu>.w<omega>.``.

    Metric preservation of a, S S^-1 = 1, the P-conditions and the
    idempotence of each transformed projector P' = S P S^-1, read off
    ``transforms``, the transformation's ``(S, S^-1, a, P')``.
    """
    mu, nu = params.plane
    tag = f"{params.kind}{mu}{nu}.w{params.omega:g}"
    s, s_inv, a, primes = transforms
    yield f"{tag}.vector.metric", "Pconditions", metric_residual(a)
    yield f"{tag}.S.inverse", "S", s @ s_inv - Matrix.identity(4, FLOAT)
    for label, equation, value in _pconditions(rep, s, s_inv, a):
        yield f"{tag}.{label}", equation, value
    for k, p_prime in enumerate(primes, start=1):
        yield f"{tag}.Pprime.P{k}.idempotent", "P'", p_prime @ p_prime - p_prime


def float_certificates(rep: GammaRep, grid: tuple) -> tuple:
    """The float covariance records that depend on the basis alone.

    ``grid`` is ``grid_transforms(rep)``.  Returns three reports,
    ``(grid, commutators, controls)``:

    * ``_certificate`` at each transformation of ``COVARIANCE_GRID``;
    * ``commute.S<mu><nu>.w<omega>.P<i>``, [S, P_i] for i = 1, 2 at float
      group elements of the (0,3) boost and (1,2) rotation.  Their
      generators commute with P1 and P2, so they act inside each
      subsolution class; the exact generator commutators are records of
      ``suites._covariance_records``;
    * two negative controls, far from zero: ``sign-flip``, the largest
      P-condition entry of the (0,3) boost at omega = 1 with S and S^-1
      swapped, and ``boost01-noncommute``, [S, P1] for the (0,1) boost at
      omega = 1, which does not keep the class of P1.

    Each call measures them afresh; ``suites._lorentz_certificates``
    keeps those of the pinned bases.
    """
    ps = rep.on(FLOAT).p
    commutators = []
    for mu, nu, kind in ((0, 3, _BOOST), (1, 2, _ROTATION)):
        for w in (0.5, 1.3, 3.0):
            s = spinor_transform(LorentzParams(kind, (mu, nu), w), rep)
            commutators += [(f"commute.S{mu}{nu}.w{w:g}.P{i}", "S", commutator(s, p))
                            for i, p in enumerate(ps[:2], start=1)]
    flip = LorentzParams(_BOOST, (0, 3), 1.0)
    swapped = _pconditions(rep, spinor_transform(flip.inverse(), rep),
                           spinor_transform(flip, rep), vector_transform(flip))
    s01 = spinor_transform(LorentzParams(_BOOST, (0, 1), 1.0), rep)
    controls = [("sign-flip", "Pconditions", [z for _, _, m in swapped for z in m.entries]),
                ("boost01-noncommute", "S", commutator(s01, ps[0]))]
    certificates = (r for params, transforms in zip(COVARIANCE_GRID, grid)
                    for r in _certificate(rep, params, transforms))
    return tuple(residual_report(FLOAT, relations)
                 for relations in (certificates, commutators, controls))


def special_frame(p: FourMomentum) -> tuple:
    """Rotation and boost carrying p to the (p0', p1', 0, 0) frame.

    The (1,2) rotation by atan2(p2, p1) turns the transverse momentum
    onto the 1-axis without touching p0 or p3; the (0,3) boost by
    atanh(p3/p0) then removes p3.  The planes are disjoint, so the two
    transformations commute and the order is immaterial.  Requires a
    massive on-shell momentum: for m = 0 with p1 = p2 = 0 the boost
    parameter would be |p3/p0| = 1.  In that frame gamma.p - m is
    ``fields.dirac_matrix`` at (p0', p1', 0, 0), the reduced operator the
    covariance suite checks there.
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

