"""Gamma-matrix representations.

Three bases are pinned as exact matrices:

* ``spinor``   -- the chiral basis in which the four component equations
  of the massive bispinor system take their canonical form; gamma5 is
  diagonal and the upper/lower component pairs are the eta/xi spinors.
* ``standard`` -- gamma0 diagonal (rest-frame energy eigenbasis).
* ``majorana`` -- all four gamma matrices purely imaginary, so the
  charge-conjugation matrix is real.

All three satisfy the anticommutation relation with metric
diag(1, -1, -1, -1) and gamma5 = -i gamma0 gamma1 gamma2 gamma3; the
pairwise intertwiners are pinned integer (or Gaussian-integer) matrices
W with W Wdag = norm2 * Id, so similarity transforms stay exact.

Everything derived from a representation -- lowered gammas, the spin
generators sigma_{mu nu}, the chiral projectors Q+-, the rank-3 family
P1..P4 with the swap V, the charge-conjugation matrix and the
intertwiners to the other bases -- is read from ``rep.on(backend)``, a
:class:`RepView`.  Each piece is built on first use, validated exactly
once per representation, and kept on the representation object; the
float view holds the ``to_float()`` of the validated exact matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import IntertwinerInvalid, ProjectorAlgebraViolation
from .matrices import Matrix, commutator
from .scalars import EXACT, FLOAT, HALF, GaussianRational, I

REP_NAMES = ("spinor", "standard", "majorana")

#: signs of the metric diag(1, -1, -1, -1)
METRIC_SIGNS = (1, -1, -1, -1)

#: index pairs (mu, nu) with mu <= nu, the order used by clifford_residual
INDEX_PAIRS = tuple((mu, nu) for mu in range(4) for nu in range(mu, 4))

# 2x2 building blocks
PAULI = (
    Matrix.exact([[0, 1], [1, 0]]),
    Matrix.exact([[0, -I], [I, 0]]),
    Matrix.exact([[1, 0], [0, -1]]),
)
ID2 = Matrix.identity(2)


@dataclass(frozen=True, eq=False)
class GammaRep:
    """A pinned gamma-matrix basis (all entries exact).

    Compared and hashed by identity: an ad-hoc representation that reuses
    a pinned name never shares the pinned one's views.
    """

    name: str
    gammas: tuple  # (gamma0, gamma1, gamma2, gamma3)
    gamma5: Matrix
    _views: dict = field(default_factory=dict, init=False, repr=False)

    def gamma(self, mu: int) -> Matrix:
        return self.gammas[mu]

    def gamma_lower(self, mu: int) -> Matrix:
        return self.on(EXACT).gammas_lower[mu]

    def on(self, backend: str) -> "RepView":
        """This representation materialised on ``backend`` (one view per backend)."""
        view = self._views.get(backend)
        if view is None:
            if backend not in (EXACT, FLOAT):
                raise ValueError(f"unknown backend {backend!r}")
            view = self._views[backend] = RepView(self, backend)
        return view


@dataclass(frozen=True)
class Intertwiner:
    """Change of basis from one representation to another, on one backend.

    W gamma_from Wdag = norm2 * gamma_to and Wdag W = norm2 * Id hold
    exactly; U = W / sqrt(norm2) is the unitary change of basis.  The
    exact data has U only where sqrt(norm2) is rational; the float data
    always has it, as to_float(U), or as to_float(W) / sqrt(norm2) where
    U is irrational.
    """

    w: Matrix
    norm2: int
    u: Optional[Matrix]


def _promote(value):
    """Exact matrices, also inside tuples, promoted to the float backend."""
    if isinstance(value, Matrix):
        return value.to_float()
    if isinstance(value, tuple):
        return tuple(_promote(v) for v in value)
    return value


def _materialised(build):
    """A RepView attribute computed on first use and then kept.

    ``build`` runs on the exact view only, where it constructs and
    validates the value; the float view holds its promotion.
    """

    def get(view):
        if view.backend == EXACT:
            return build(view)
        return _promote(getattr(view.rep.on(EXACT), build.__name__))

    get.__doc__ = build.__doc__
    return cached_property(get)


@dataclass(frozen=True, eq=False)
class RepView:
    """One representation materialised on one backend.

    Obtain it with ``rep.on(backend)``.  Attributes are built lazily, so
    a caller pays only for what it reads, and each validation (projector
    algebra, conjugation relations, intertwiner similarity) runs once per
    representation.
    """

    rep: GammaRep
    backend: str
    _links: dict = field(default_factory=dict, init=False, repr=False)

    @_materialised
    def gammas(self) -> tuple:
        """(gamma0, gamma1, gamma2, gamma3)."""
        return self.rep.gammas

    @_materialised
    def gamma5(self) -> Matrix:
        """gamma5 = -i gamma0 gamma1 gamma2 gamma3."""
        return self.rep.gamma5

    @_materialised
    def gammas_lower(self) -> tuple:
        """gamma_mu = g_{mu mu} gamma^mu."""
        return tuple(g if s == 1 else -g for g, s in zip(self.rep.gammas, METRIC_SIGNS))

    @_materialised
    def sigmas(self) -> tuple:
        """Spin generators (i/2)[gamma_mu, gamma_nu], indexed [mu][nu]."""
        low = self.gammas_lower
        half_i = GaussianRational(0, HALF)
        s = {}
        for mu, nu in INDEX_PAIRS:
            m = commutator(low[mu], low[nu]).scale(half_i)
            s[mu, nu], s[nu, mu] = m, -m
        return tuple(tuple(s[mu, nu] for nu in range(4)) for mu in range(4))

    @_materialised
    def projectors(self) -> tuple:
        """(Q+, Q-, (P1, P2, P3, P4), V), validated exactly as a family."""
        return _projector_family(self.rep)

    q_plus = property(lambda self: self.projectors[0], doc="Q+ = (1 + gamma5)/2.")
    q_minus = property(lambda self: self.projectors[1], doc="Q- = (1 - gamma5)/2.")
    p = property(lambda self: self.projectors[2], doc="(P1, P2, P3, P4).")
    v = property(lambda self: self.projectors[3], doc="V = i gamma2 gamma3.")

    @_materialised
    def conjugation(self) -> Matrix:
        """The matrix M of charge conjugation C psi = M conj(psi)."""
        return _conjugation_matrix(self.rep)

    def intertwiner(self, rep_to: GammaRep) -> Intertwiner:
        """Change of basis to ``rep_to``, verified exactly on first use."""
        link = self._links.get(rep_to)
        if link is None:
            if self.backend == EXACT:
                link = _verified_intertwiner(self.rep, rep_to)
            else:
                exact = self.rep.on(EXACT).intertwiner(rep_to)
                w, u = _promote((exact.w, exact.u))
                if u is None:
                    u = w.scale(1.0 / exact.norm2**0.5)
                link = Intertwiner(w, exact.norm2, u)
            self._links[rep_to] = link
        return link


#: the Pauli matrices on the float backend
PAULI_FLOAT = _promote(PAULI)


def _block4(a, b, c, d) -> Matrix:
    """Assemble a 4x4 exact matrix from 2x2 blocks [[a, b], [c, d]]."""
    rows = []
    for i in range(2):
        rows.append(list(a.rows()[i]) + list(b.rows()[i]))
    for i in range(2):
        rows.append(list(c.rows()[i]) + list(d.rows()[i]))
    return Matrix.exact(rows)


_Z2 = Matrix.zero(2)

_SPINOR = GammaRep(
    name="spinor",
    gammas=(
        _block4(_Z2, ID2, ID2, _Z2),
        _block4(_Z2, -PAULI[0], PAULI[0], _Z2),
        _block4(_Z2, -PAULI[1], PAULI[1], _Z2),
        _block4(_Z2, -PAULI[2], PAULI[2], _Z2),
    ),
    gamma5=Matrix.diag([-1, -1, 1, 1]),
)

_STANDARD = GammaRep(
    name="standard",
    gammas=(
        _block4(ID2, _Z2, _Z2, -ID2),
        _block4(_Z2, -PAULI[0], PAULI[0], _Z2),
        _block4(_Z2, -PAULI[1], PAULI[1], _Z2),
        _block4(_Z2, -PAULI[2], PAULI[2], _Z2),
    ),
    gamma5=_block4(_Z2, ID2, ID2, _Z2),
)

_MAJORANA = GammaRep(
    name="majorana",
    gammas=(
        _block4(_Z2, PAULI[1], PAULI[1], _Z2),
        _block4(PAULI[2].scale(-I), _Z2, _Z2, PAULI[2].scale(-I)),
        _block4(_Z2, PAULI[1], -PAULI[1], _Z2),
        _block4(PAULI[0].scale(I), _Z2, _Z2, PAULI[0].scale(I)),
    ),
    gamma5=_block4(PAULI[1], _Z2, _Z2, -PAULI[1]),
)

_REPS = {rep.name: rep for rep in (_SPINOR, _STANDARD, _MAJORANA)}


def build_rep(name: str) -> GammaRep:
    """Return the pinned representation with the given name."""
    try:
        return _REPS[name]
    except KeyError:
        raise ValueError(
            f"unknown representation {name!r}; expected one of {REP_NAMES}"
        ) from None


def clifford_residual(rep: GammaRep) -> list:
    """The ten independent anticommutator residuals.

    Entry k is {gamma^mu, gamma^nu} - 2 g^{mu nu} Id for the k-th pair in
    INDEX_PAIRS; every entry is exactly zero for a valid representation.
    """
    out = []
    ident = Matrix.identity(4)
    for mu, nu in INDEX_PAIRS:
        anti = rep.gammas[mu] @ rep.gammas[nu] + rep.gammas[nu] @ rep.gammas[mu]
        if mu == nu:
            anti = anti - ident.scale(2 * METRIC_SIGNS[mu])
        out.append(anti)
    return out


def gamma5_residuals(rep: GammaRep) -> list:
    """Residuals of the gamma5 relations.

    Returns six matrices: gamma5 + i g0 g1 g2 g3, gamma5^2 - Id, and the
    four anticommutators {gamma5, gamma^mu}.
    """
    g0, g1, g2, g3 = rep.gammas
    product = g0 @ g1 @ g2 @ g3
    out = [rep.gamma5 + product.scale(I)]
    out.append(rep.gamma5 @ rep.gamma5 - Matrix.identity(4))
    for mu in range(4):
        out.append(rep.gamma5 @ rep.gammas[mu] + rep.gammas[mu] @ rep.gamma5)
    return out


def sigma(rep: GammaRep, mu: int, nu: int) -> Matrix:
    """Spin generator (i/2)[gamma_mu, gamma_nu] with lowered indices."""
    return rep.on(EXACT).sigmas[mu][nu]


# -- projector family ----------------------------------------------------------

_QUARTER = Fraction(1, 4)


def _projector_family(rep: GammaRep) -> tuple:
    """Q+-, the rank-3 family P1..P4 and the swap V, validated exactly.

    The formulas and the relations checked are listed in the
    ``projectors`` module docstring.
    """
    ident = Matrix.identity(4)
    g5 = rep.gamma5
    q_plus = (ident + g5).scale(HALF)
    q_minus = (ident - g5).scale(HALF)

    g0g3 = rep.gammas[0] @ rep.gammas[3]
    ig1g2 = (rep.gammas[1] @ rep.gammas[2]).scale(I)
    three = ident.scale(3)
    p1 = (three - g5 - g0g3 + ig1g2).scale(_QUARTER)
    p2 = (three - g5 + g0g3 - ig1g2).scale(_QUARTER)
    p3 = (three + g5 + g0g3 + ig1g2).scale(_QUARTER)
    p4 = (three + g5 - g0g3 - ig1g2).scale(_QUARTER)
    ps = (p1, p2, p3, p4)

    v = (rep.gammas[2] @ rep.gammas[3]).scale(I)

    _validate_family(rep, q_plus, q_minus, ps, v)
    return q_plus, q_minus, ps, v


def _validate_family(rep, q_plus, q_minus, ps, v):
    ident = Matrix.identity(4)

    def demand(m: Matrix, what: str):
        if not m.is_zero:
            raise ProjectorAlgebraViolation(f"{what} (rep {rep.name})")

    demand(q_plus @ q_plus - q_plus, "Q+ not idempotent")
    demand(q_minus @ q_minus - q_minus, "Q- not idempotent")
    demand(q_plus + q_minus - ident, "Q+ + Q- != 1")
    demand(q_plus @ q_minus, "Q+ Q- != 0")

    total = Matrix.zero(4)
    for k, p in enumerate(ps, start=1):
        demand(p @ p - p, f"P{k} not idempotent")
        if p.trace() != 3:
            raise ProjectorAlgebraViolation(f"P{k} trace != 3 (rep {rep.name})")
        total = total + p
    demand(total - ident.scale(3), "sum of P_k != 3")
    for a in range(4):
        for b in range(a + 1, 4):
            demand(commutator(ps[a], ps[b]), f"[P{a + 1}, P{b + 1}] != 0")

    demand(v @ v.adjoint() - ident, "V not unitary")


# -- intertwiners ------------------------------------------------------------

# W matrices with W Wdag = norm2 * Id; U = W / sqrt(norm2) is unitary and
# satisfies U gamma_from U^-1 = gamma_to entry by entry.
_W_SPINOR_TO_STANDARD = _block4(ID2, ID2, -ID2, ID2)
_W_STANDARD_TO_MAJORANA = _block4(ID2, PAULI[1], PAULI[1], -ID2)


def _intertwiner_table() -> dict:
    w1 = _W_SPINOR_TO_STANDARD
    w2 = _W_STANDARD_TO_MAJORANA
    w21 = w2 @ w1
    ident = Matrix.identity(4)
    return {
        ("spinor", "spinor"): (ident, 1),
        ("standard", "standard"): (ident, 1),
        ("majorana", "majorana"): (ident, 1),
        ("spinor", "standard"): (w1, 2),
        ("standard", "spinor"): (w1.adjoint(), 2),
        ("standard", "majorana"): (w2, 2),
        ("majorana", "standard"): (w2.adjoint(), 2),
        ("spinor", "majorana"): (w21, 4),
        ("majorana", "spinor"): (w21.adjoint(), 4),
    }


_INTERTWINERS = _intertwiner_table()


def _verified_intertwiner(rep_from: GammaRep, rep_to: GammaRep) -> Intertwiner:
    """The pinned W for a pair of bases, checked exactly against both."""
    try:
        w, norm2 = _INTERTWINERS[(rep_from.name, rep_to.name)]
    except KeyError:
        raise ValueError(
            f"no intertwiner for pair ({rep_from.name!r}, {rep_to.name!r})"
        ) from None
    wd = w.adjoint()
    if not (wd @ w - Matrix.identity(4).scale(norm2)).is_zero:
        raise IntertwinerInvalid(f"W not proportional-unitary for {rep_to.name}")
    mats_from = rep_from.gammas + (rep_from.gamma5,)
    mats_to = rep_to.gammas + (rep_to.gamma5,)
    for a, b in zip(mats_from, mats_to):
        if not (w @ a @ wd - b.scale(norm2)).is_zero:
            raise IntertwinerInvalid(
                f"similarity check failed for {rep_from.name} -> {rep_to.name}"
            )
    root = {1: 1, 4: 2}.get(norm2)
    return Intertwiner(w, norm2, None if root is None else w.scale(Fraction(1, root)))


def intertwiner_pair(rep_from: GammaRep, rep_to: GammaRep):
    """Exact intertwiner data (W, norm2) for a pair of representations.

    W gamma_from Wdag = norm2 * gamma_to and Wdag W = norm2 * Id are
    verified exactly once per pair, when ``rep_from``'s exact view first
    needs them; U = W / sqrt(norm2) is the unitary change of basis.
    Raises IntertwinerInvalid if the pinned W fails either check.
    """
    link = rep_from.on(EXACT).intertwiner(rep_to)
    return link.w, link.norm2


def intertwiner(rep_from: GammaRep, rep_to: GammaRep) -> Matrix:
    """Unitary change of basis U with U gamma_from U^-1 = gamma_to.

    Exact when norm2 is a perfect square, float otherwise.
    """
    u = rep_from.on(EXACT).intertwiner(rep_to).u
    return u if u is not None else rep_from.on(FLOAT).intertwiner(rep_to).u


# -- charge conjugation ------------------------------------------------------


def _conjugation_valid(rep: GammaRep, m: Matrix) -> bool:
    if not (m @ m.conj() - Matrix.identity(4)).is_zero:
        return False
    for g in rep.gammas:
        if not (m @ g.conj() + g @ m).is_zero:
            return False
    return True


def _conjugation_matrix(rep: GammaRep) -> Matrix:
    m = rep.gammas[2].scale(I)
    if _conjugation_valid(rep, m):
        return m
    sp = build_rep("spinor")
    m_sp = sp.gammas[2].scale(I)
    link = sp.on(EXACT).intertwiner(rep)
    m = (link.w @ m_sp @ link.w.transpose()).scale(Fraction(1, link.norm2))
    if not _conjugation_valid(rep, m):
        raise IntertwinerInvalid(
            f"no valid conjugation matrix for rep {rep.name}"
        )
    return m


def conjugation_matrix(rep: GammaRep) -> Matrix:
    """The matrix M of charge conjugation C psi = M conj(psi).

    M must anticommute conjugated gammas onto gammas, M conj(gamma^mu)
    = -gamma^mu M, and satisfy M conj(M) = Id so C is an involution.
    In bases where gamma2 is the only imaginary gamma this is the usual
    i gamma2; in general (e.g. when every gamma is imaginary and the
    role of i gamma2 degenerates to a phase times the identity) it is
    the exact transport U M_spinor conj(U)^-1 of the spinor-basis
    matrix.  Both properties are verified exactly, once per
    representation, when its exact view first builds M.
    """
    return rep.on(EXACT).conjugation


def conjugate_by_intertwiner(rep_from: GammaRep, rep_to: GammaRep, m: Matrix) -> Matrix:
    """Transport a matrix between bases: U m U^-1, exact for exact input."""
    link = rep_from.on(m.backend).intertwiner(rep_to)
    inv = Fraction(1, link.norm2) if m.backend == EXACT else 1.0 / link.norm2
    return (link.w @ m @ link.w.adjoint()).scale(inv)
