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

Each structural relation has one residual function here (``*_residual``,
``*_residuals``), returning labelled residuals with their paper-equation
tags in report order.  The residuals a validation demands to vanish --
the intertwiner's (``Intertwiner.residuals``) and the projector
family's -- are kept with the validated data, so the verification
suites record the very residuals that validation checked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import IntertwinerInvalid, ProjectorAlgebraViolation
from .matrices import Matrix, commutator
from .reports import ResidualReport, residual_entry
from .scalars import EXACT, FLOAT, HALF, GaussianRational, I

REP_NAMES = ("spinor", "standard", "majorana")

#: signs of the metric diag(1, -1, -1, -1)
METRIC_SIGNS = (1, -1, -1, -1)

#: index pairs (mu, nu) with mu <= nu: the order of the anticommutator
#: residuals of clifford_residual (and of the report's clifford checks)
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
    U is irrational.  ``residuals`` are those the exact verification
    found identically zero: ``unitary`` (Wdag W - norm2 Id) and
    ``similarity.gamma<mu>`` / ``similarity.gamma5`` (W a Wdag - norm2 b).
    """

    w: Matrix
    norm2: int
    u: Optional[Matrix]
    residuals: ResidualReport


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
        """(Q+, Q-, (P1, P2, P3, P4), V, residuals), validated exactly as a family.

        ``residuals`` are the exact ones of that validation, on either view.
        """
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
                link = Intertwiner(w, exact.norm2, u, exact.residuals)
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


def _demand_zero(residuals: ResidualReport, error, where: str) -> None:
    """Raise ``error`` for the first residual that does not vanish identically."""
    for e in residuals:
        if not e.exact_zero:
            raise error(f"{e.label} residual {e.residual:.3e} is not zero ({where})")


def _entries(backend: str, relations) -> ResidualReport:
    """Measure (label, equation, residual) triples on ``backend``."""
    return ResidualReport(tuple(residual_entry(label, eq, backend, value)
                                for label, eq, value in relations))


def clifford_residual(view: "RepView") -> ResidualReport:
    """The ten independent anticommutator residuals, on the view's backend.

    ``anticommute.<mu><nu>`` (equation Dirac1) is {gamma^mu, gamma^nu} -
    2 g^{mu nu} Id for the pairs of INDEX_PAIRS; each vanishes exactly
    for a valid representation.
    """
    gams = view.gammas
    ident = Matrix.identity(4, view.backend)
    relations = []
    for mu, nu in INDEX_PAIRS:
        anti = gams[mu] @ gams[nu] + gams[nu] @ gams[mu]
        if mu == nu:
            anti = anti - ident.scale(2 * METRIC_SIGNS[mu])
        relations.append((f"anticommute.{mu}{nu}", "Dirac1", anti))
    return _entries(view.backend, relations)


def gamma5_residuals(view: "RepView") -> ResidualReport:
    """Residuals of the gamma5 relations (equation DiracNeutrino), on the view's backend.

    ``gamma5.definition`` is gamma5 + i g0 g1 g2 g3, ``gamma5.square`` is
    gamma5^2 - Id and ``gamma5.anticommute.<mu>`` is {gamma5, gamma^mu}.
    """
    g0, g1, g2, g3 = gams = view.gammas
    g5, backend = view.gamma5, view.backend
    i_unit = I if backend == EXACT else 1j
    relations = [
        ("gamma5.definition", g5 + (g0 @ g1 @ g2 @ g3).scale(i_unit)),
        ("gamma5.square", g5 @ g5 - Matrix.identity(4, backend)),
    ]
    relations += [(f"gamma5.anticommute.{mu}", g5 @ g + g @ g5) for mu, g in enumerate(gams)]
    return _entries(backend, ((label, "DiracNeutrino", m) for label, m in relations))


def sigma(rep: GammaRep, mu: int, nu: int) -> Matrix:
    """Spin generator (i/2)[gamma_mu, gamma_nu] with lowered indices."""
    return rep.on(EXACT).sigmas[mu][nu]


# -- projector family ----------------------------------------------------------

_QUARTER = Fraction(1, 4)


def _projector_family(rep: GammaRep) -> tuple:
    """Q+-, P1..P4 and V, validated exactly, with their ``_family_residuals``.

    The formulas are listed in the ``projectors`` module docstring.
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

    residuals = _family_residuals(q_plus, q_minus, ps, v)
    _demand_zero(residuals, ProjectorAlgebraViolation, f"rep {rep.name}")
    return q_plus, q_minus, ps, v, residuals


_PAIRS_OF_FOUR = tuple((a, b) for a in range(4) for b in range(a + 1, 4))


def _family_residuals(q_plus, q_minus, ps, v) -> ResidualReport:
    """The relations the family is validated against, on the matrices' backend.

    Q+ + Q- = Id, Q+- idempotent, Q+ Q- = 0; each P_k idempotent with
    trace 3; P1 + P2 + P3 + P4 = 3 Id; [P_a, P_b] = 0; V unitary.
    """
    backend = v.backend
    ident = Matrix.identity(4, backend)
    relations = [
        ("q.sum", "DiracNeutrino", q_plus + q_minus - ident),
        ("q.idempotent-plus", "DiracNeutrino", q_plus @ q_plus - q_plus),
        ("q.idempotent-minus", "DiracNeutrino", q_minus @ q_minus - q_minus),
        ("q.orthogonal", "DiracNeutrino", q_plus @ q_minus),
    ]
    for k, p in enumerate(ps, start=1):
        relations += [(f"p{k}.idempotent", f"P{k}", p @ p - p),
                      (f"p{k}.trace", f"P{k}", p.trace() - 3)]
    relations.append(("sum", "PRO", ps[0] + ps[1] + ps[2] + ps[3] - ident.scale(3)))
    relations += [(f"commute.p{a + 1}p{b + 1}", "PRO", commutator(ps[a], ps[b]))
                  for a, b in _PAIRS_OF_FOUR]
    relations.append(("v-swap.unitary", "V", v @ v.adjoint() - ident))
    return _entries(backend, relations)


def swap_residuals(view: "RepView", v: Optional[Matrix] = None) -> ResidualReport:
    """V P1 V^-1 - P2 and V P2 V^-1 - P1; a negative control passes another ``v``."""
    v = view.v if v is None else v
    p1, p2 = view.p[:2]
    vinv = v.adjoint()  # unitary
    return _entries(view.backend, (("v-swap.p1-to-p2", "V", v @ p1 @ vinv - p2),
                                   ("v-swap.p2-to-p1", "V", v @ p2 @ vinv - p1)))


def projector_residuals(view: "RepView") -> ResidualReport:
    """Every relation of one basis's projector family, in report order.

    Those of ``_family_residuals`` come from the validation on the exact
    view and are measured afresh on the float view.  The others are
    [P_k, gamma5], the complement 1 - P_k (idempotent and orthogonal to
    P_k: the larger residual), the swap and [V, gamma0], [V, gamma1].
    """
    q_plus, q_minus, ps, v, checked = view.projectors
    backend = view.backend
    if backend != EXACT:
        checked = _family_residuals(q_plus, q_minus, ps, v)
    family = {e.label: e for e in checked}
    ident = Matrix.identity(4, backend)

    out = [family[label] for label in
           ("q.sum", "q.idempotent-plus", "q.idempotent-minus", "q.orthogonal")]
    for k, p in enumerate(ps, start=1):
        out += [family[f"p{k}.idempotent"], family[f"p{k}.trace"],
                residual_entry(f"p{k}.gamma5-commute", "PRO", backend,
                               commutator(p, view.gamma5))]
    out.append(family["sum"])
    out += [e for e in checked if e.label.startswith("commute.")]
    for k, p in enumerate(ps, start=1):
        eps = ident - p
        complement = _entries(backend, (("idempotent", "PRO", eps @ eps - eps),
                                        ("orthogonal", "PRO", eps @ p)))
        out.append(complement.worst(f"complement.p{k}", "PRO"))
    out += swap_residuals(view).entries
    out += _entries(backend, (("v-swap.commute-gamma0", "V", commutator(v, view.gammas[0])),
                              ("v-swap.commute-gamma1", "V", commutator(v, view.gammas[1]))))
    out.append(family["v-swap.unitary"])
    return ResidualReport(tuple(out))


def transport_residuals(rep_from: GammaRep, rep_to: GammaRep) -> ResidualReport:
    """W P_k Wdag - norm2 P'_k (``transport.p<k>``, equation PRO), exactly.

    The family of ``rep_from`` carried by the pinned intertwiner onto
    that of ``rep_to``.
    """
    link = rep_from.on(EXACT).intertwiner(rep_to)
    wd = link.w.adjoint()
    pairs = zip(rep_from.on(EXACT).p, rep_to.on(EXACT).p)
    return _entries(EXACT, ((f"transport.p{k}", "PRO", link.w @ a @ wd - b.scale(link.norm2))
                            for k, (a, b) in enumerate(pairs, start=1)))


def spinor_diagonal_residuals() -> ResidualReport:
    """P1..P4 and Q- of the spinor basis minus their pinned diagonals, exactly."""
    view = _SPINOR.on(EXACT)
    diagonals = ((1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1))
    relations = [(f"p{k}.diagonal", f"P{k}", p - Matrix.diag(d))
                 for k, (p, d) in enumerate(zip(view.p, diagonals), start=1)]
    qminus = view.q_minus - Matrix.diag((1, 1, 0, 0))
    relations.append(("qminus.diagonal", "DiracNeutrino", qminus))
    return _entries(EXACT, relations)


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
    relations = [("unitary", "Dirac1", wd @ w - Matrix.identity(4).scale(norm2))]
    names = [f"gamma{mu}" for mu in range(4)] + ["gamma5"]
    for name, a, b in zip(names, rep_from.gammas + (rep_from.gamma5,),
                          rep_to.gammas + (rep_to.gamma5,)):
        relations.append((f"similarity.{name}", "Dirac1", w @ a @ wd - b.scale(norm2)))
    residuals = _entries(EXACT, relations)
    _demand_zero(residuals, IntertwinerInvalid, f"{rep_from.name} -> {rep_to.name}")
    root = {1: 1, 4: 2}.get(norm2)
    u = None if root is None else w.scale(Fraction(1, root))
    return Intertwiner(w, norm2, u, residuals)


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
