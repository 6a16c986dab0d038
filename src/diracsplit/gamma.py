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

Q+- = (1 +- gamma5)/2 select the two-component chiral halves of a
bispinor.  The four rank-3 projectors

    P1 = (3 - gamma5 - gamma0 gamma3 + i gamma1 gamma2) / 4
    P2 = (3 - gamma5 + gamma0 gamma3 - i gamma1 gamma2) / 4
    P3 = (3 + gamma5 + gamma0 gamma3 + i gamma1 gamma2) / 4
    P4 = (3 + gamma5 - gamma0 gamma3 - i gamma1 gamma2) / 4

commute pairwise, sum to 3*Id, and each leaves a three-dimensional
subspace invariant; in the spinor basis they are diagonal with a single
zero.  The unitary V = i gamma2 gamma3 swaps P1 and P2 while commuting
with gamma0 and gamma1.

Everything derived from a representation -- lowered gammas, the spin
generators sigma_{mu nu}, Q+-, P1..P4 and V, the charge-conjugation
matrix -- is read from ``rep.on(backend)``, a :class:`RepView`.  Each
piece is built on first use, validated exactly once per representation,
and kept on the representation object; the float view holds the
``to_float()`` of the validated exact matrices.  Every field and every
relation is built from its own basis's matrices, so no code moves a
field between bases.  The pinned intertwiners are plain data:
``intertwiner`` looks up a pair's exact ``(W, norm2)`` by the bases'
names, keeps nothing and checks nothing.  It serves to derive the
conjugation matrix, which is validated on its own, and the suites
state and record W's relations.  A view also keeps, per entry of a 4x4
symbol, the nonzero lowered-gamma entries that fill it
(``symbol_slots``), from which ``fields`` builds gamma.p in 16 products.

A view holds matrices and their validations only.  Each validation
states its relations, measures them with ``reports.residual_report``
and runs them through ``reports.demand``, which raises the validation's
error naming the first relation that does not vanish identically.  The
residuals of the projector family are kept with what they validated,
so the suites record the very residuals the validation checked.  Every
other structural relation of a basis, the intertwiners' among them, is
stated, measured and kept as a record by the suite that records it
(see ``suites``), never when a view or the family is built.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .errors import IntertwinerInvalid, ProjectorAlgebraViolation
from .matrices import Matrix, commutator
from .reports import ResidualReport, demand, residual_report
from .scalars import EXACT, FLOAT, HALF, GaussianRational, I
from .values import Value, store

REP_NAMES = ("spinor", "standard", "majorana")

#: signs of the metric diag(1, -1, -1, -1)
METRIC_SIGNS = (1, -1, -1, -1)

#: index pairs (mu, nu) with mu <= nu: the order of the sigmas built and of
#: the report's anticommutator checks (``suites._clifford_records``)
INDEX_PAIRS = tuple((mu, nu) for mu in range(4) for nu in range(mu, 4))

# 2x2 building blocks
PAULI = (
    Matrix.exact([[0, 1], [1, 0]]),
    Matrix.exact([[0, -I], [I, 0]]),
    Matrix.exact([[1, 0], [0, -1]]),
)
ID2 = Matrix.identity(2)


class GammaRep(Value):
    """A pinned gamma-matrix basis (all entries exact).

    Compared and hashed by identity: an ad-hoc representation that reuses
    a pinned name never shares the pinned one's views.
    """

    _fields = ("name", "gammas", "gamma5")
    __slots__ = _fields + ("_views",)
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, name: str, gammas: tuple, gamma5: Matrix):
        store(self, "name", name)
        store(self, "gammas", gammas)  # (gamma0, gamma1, gamma2, gamma3)
        store(self, "gamma5", gamma5)
        store(self, "_views", {})

    def on(self, backend: str) -> "RepView":
        """This representation materialised on ``backend`` (one view per backend)."""
        view = self._views.get(backend)
        if view is None:
            if backend not in (EXACT, FLOAT):
                raise ValueError(f"unknown backend {backend!r}")
            view = self._views[backend] = RepView(self, backend)
        return view


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


class RepView(Value):
    """One representation materialised on one backend.

    Obtain it with ``rep.on(backend)``.  Attributes are built lazily, so
    a caller pays only for what it reads, and each validation (projector
    algebra, conjugation relations) runs once per representation.  It
    holds matrices and validations only: every record built from them
    (the structural relations, the witnesses and controls, the Lorentz
    certificates) is kept by its builder in ``suites``.
    """

    _fields = ("rep", "backend")  # no __slots__: the cached properties live in __dict__
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, rep: GammaRep, backend: str):
        store(self, "rep", rep)
        store(self, "backend", backend)

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
        """The matrix M of charge conjugation C psi = M conj(psi).

        M must anticommute conjugated gammas onto gammas, M conj(gamma^mu)
        = -gamma^mu M, and satisfy M conj(M) = Id so C is an involution.
        It is the spinor basis's i gamma2 moved by the pinned intertwiner,
        U M conj(U)^-1 = W M W^T / norm2: i gamma2 again in the standard
        basis, a phase times the identity in the Majorana basis, where
        every gamma is imaginary.  Both properties are verified exactly,
        once per representation, when the exact view first builds M;
        IntertwinerInvalid names the first that fails, so a wrong W or a
        basis that reuses a pinned name is caught here.
        """
        return _conjugation_matrix(self.rep)

    @cached_property
    def complements(self) -> tuple:
        """(Id - P1, Id - P2, Id - P3, Id - P4), formed on this view's backend."""
        ident = Matrix.identity(4, self.backend)
        return tuple(ident - p for p in self.p)

    @cached_property
    def symbol_slots(self) -> tuple:
        """Per entry of a 4x4 symbol, row-major, the lowered gammas that fill it.

        Each slot is ``(mu, entry, rest)``: the first mu whose gamma_mu has
        a nonzero entry there, that entry, and the ``(mu, entry)`` pairs of
        the later ones in mu order; a slot no gamma_mu fills is ``(None,
        zero, ())`` with this view's exact zero.  Every pinned gamma_mu has
        one nonzero entry per row and per column, so the slots hold 16
        entries in all, not 64.
        """
        lowered = [g.entries for g in self.gammas_lower]
        slots = []
        for k in range(16):
            filled = tuple((mu, g[k]) for mu, g in enumerate(lowered) if g[k])
            slots.append(filled[0] + (filled[1:],) if filled else (None, lowered[0][k], ()))
        return tuple(slots)


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


# -- projector family ----------------------------------------------------------

_QUARTER = Fraction(1, 4)


def _projector_family(rep: GammaRep) -> tuple:
    """Q+-, P1..P4 and V, validated exactly, with their ``_family_residuals``.

    The formulas are listed in the module docstring.
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
    demand(residuals, ProjectorAlgebraViolation, f"rep {rep.name}")
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
    return residual_report(backend, relations)


# -- intertwiners ------------------------------------------------------------

# W matrices with W Wdag = norm2 * Id; U = W / sqrt(norm2) is unitary and
# satisfies U gamma_from U^-1 = gamma_to entry by entry.  Each pair is pinned
# in one direction: the reverse takes Wdag, and a basis to itself the identity.
_W_SPINOR_TO_STANDARD = _block4(ID2, ID2, -ID2, ID2)
_W_STANDARD_TO_MAJORANA = _block4(ID2, PAULI[1], PAULI[1], -ID2)
_INTERTWINERS = {
    ("spinor", "standard"): (_W_SPINOR_TO_STANDARD, 2),
    ("standard", "majorana"): (_W_STANDARD_TO_MAJORANA, 2),
    ("spinor", "majorana"): (_W_STANDARD_TO_MAJORANA @ _W_SPINOR_TO_STANDARD, 4),
}


def intertwiner(rep_from: GammaRep, rep_to: GammaRep) -> tuple:
    """The pinned change of basis ``(W, norm2)`` from ``rep_from`` to ``rep_to``, by name.

    A plain lookup that checks nothing: the clifford suite states and
    records W's relations (``suites._clifford_records``).  Raises
    ValueError if no W is pinned for the pair.
    """
    pair = (rep_from.name, rep_to.name)
    if pair in _INTERTWINERS:
        return _INTERTWINERS[pair]
    if pair[::-1] in _INTERTWINERS:
        w, norm2 = _INTERTWINERS[pair[::-1]]
        return w.adjoint(), norm2
    if pair[0] == pair[1] and pair[0] in REP_NAMES:
        return Matrix.identity(4), 1
    raise ValueError(f"no intertwiner for pair ({rep_from.name!r}, {rep_to.name!r})")


# -- charge conjugation ------------------------------------------------------


def _conjugation_matrix(rep: GammaRep) -> Matrix:
    """The spinor basis's i gamma2 carried into ``rep``: W M W^T / norm2, then validated.

    The relations it must meet exactly: ``involution`` (M conj(M) - Id)
    and ``anticommute.gamma<mu>`` (M conj(gamma^mu) + gamma^mu M).
    """
    sp = build_rep("spinor")
    w, norm2 = intertwiner(sp, rep)
    m = (w @ sp.gammas[2].scale(I) @ w.transpose()).scale(Fraction(1, norm2))
    relations = [("involution", "MAJORANA", m @ m.conj() - Matrix.identity(4))]
    relations += [(f"anticommute.gamma{mu}", "MAJORANA", m @ g.conj() + g @ m)
                  for mu, g in enumerate(rep.gammas)]
    demand(residual_report(EXACT, relations), IntertwinerInvalid,
           f"conjugation matrix of rep {rep.name}")
    return m
