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
matrix and the intertwiners to the other bases -- is read from
``rep.on(backend)``, a :class:`RepView`.  Each piece is built on first
use, validated exactly once per representation, and kept on the
representation object; the float view holds the ``to_float()`` of the
validated exact matrices.

Every structural relation of a basis is a report of labelled residuals
with their paper-equation tags, in report order, kept on the view: it is
measured on the view's own backend the first time it is read, and read
from the view ever after.  The residuals a validation demands to vanish
-- the intertwiner's (``Intertwiner.residuals``) and the projector
family's -- are measured by that validation, so the suites record the
very residuals it checked.  The others are measured only when first
read, never when a view or the family is built.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .errors import IntertwinerInvalid, ProjectorAlgebraViolation
from .matrices import Matrix, commutator
from .reports import ResidualReport, residual_entry, residual_report
from .scalars import EXACT, FLOAT, HALF, SCALAR_TYPE, GaussianRational, I

REP_NAMES = ("spinor", "standard", "majorana")

#: signs of the metric diag(1, -1, -1, -1)
METRIC_SIGNS = (1, -1, -1, -1)

#: index pairs (mu, nu) with mu <= nu: the order of the anticommutator
#: residuals of RepView.clifford_residual (and of the report's clifford checks)
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
    exactly; U = W / sqrt(norm2) is the unitary change of basis.  Exact
    code moves fields with W, so U lives on the float view only, as
    to_float(W) / sqrt(norm2); it is None on the exact view.
    ``residuals`` are those the exact verification found identically
    zero: ``unitary`` (Wdag W - norm2 Id) and ``similarity.gamma<mu>`` /
    ``similarity.gamma5`` (W a Wdag - norm2 b).
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


def _kept_records(builder: str, backend: str):
    """A RepView attribute: the records ``suites.<builder>`` measures on this basis, kept.

    The suites' witness records and controls depend on the basis alone,
    not on the run's seed, trials, tolerance or ranges.  Each is a tuple
    of ``_Collector.add`` arguments, read on the view of its ``backend``:
    the witnesses, ``(check_id, entry)``, on the exact one, and the
    controls, ``(check_id, entry, bound, kind)``, on the float one.
    """

    def get(view):
        if view.backend != backend:
            raise ValueError(f"these records are {backend}: read them on the {backend} view")
        from . import suites  # the suites build on this module

        return getattr(suites, builder)(view.rep)

    get.__doc__ = f"``suites.{builder}`` of this basis, measured on first read and kept."
    return cached_property(get)


@dataclass(frozen=True, eq=False)
class RepView:
    """One representation materialised on one backend.

    Obtain it with ``rep.on(backend)``.  Attributes are built lazily, so
    a caller pays only for what it reads, and each validation (projector
    algebra, conjugation relations, intertwiner similarity) runs once per
    representation.  The structural relations, ``clifford_residual``
    through ``covariance_residuals``, are measured on this view's backend
    when first read, then kept, and so are the float view's
    ``lorentz_certificates`` and controls (``split_controls``,
    ``weyl_controls``) and the exact view's witness records
    (``split_witness``, ``weyl_witness``, ``majorana_witness``).
    """

    rep: GammaRep
    backend: str
    _links: dict = field(default_factory=dict, init=False, repr=False)
    _transports: dict = field(default_factory=dict, init=False, repr=False)

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
        once per representation, when the exact view first builds M.
        """
        return _conjugation_matrix(self.rep)

    def intertwiner(self, rep_to: GammaRep) -> Intertwiner:
        """Change of basis to ``rep_to``, verified exactly on first use.

        Raises IntertwinerInvalid if the pinned W fails its checks, and
        ValueError if no W is pinned for the pair.
        """
        link = self._links.get(rep_to)
        if link is None:
            if self.backend == EXACT:
                link = _verified_intertwiner(self.rep, rep_to)
            else:
                exact = self.rep.on(EXACT).intertwiner(rep_to)
                w = exact.w.to_float()
                link = Intertwiner(w, exact.norm2, w.scale(1.0 / exact.norm2**0.5),
                                   exact.residuals)
            self._links[rep_to] = link
        return link

    # -- structural relations, measured on this view's backend when first read --

    @cached_property
    def clifford_residual(self) -> ResidualReport:
        """The ten independent anticommutator residuals.

        ``anticommute.<mu><nu>`` (equation Dirac1) is {gamma^mu, gamma^nu} -
        2 g^{mu nu} Id for the pairs of INDEX_PAIRS; each vanishes exactly
        for a valid representation.
        """
        gams = self.gammas
        ident = Matrix.identity(4, self.backend)
        relations = []
        for mu, nu in INDEX_PAIRS:
            anti = gams[mu] @ gams[nu] + gams[nu] @ gams[mu]
            if mu == nu:
                anti = anti - ident.scale(2 * METRIC_SIGNS[mu])
            relations.append((f"anticommute.{mu}{nu}", "Dirac1", anti))
        return residual_report(self.backend, relations)

    @cached_property
    def gamma5_residuals(self) -> ResidualReport:
        """Residuals of the gamma5 relations (equation DiracNeutrino).

        ``gamma5.definition`` is gamma5 + i g0 g1 g2 g3, ``gamma5.square`` is
        gamma5^2 - Id and ``gamma5.anticommute.<mu>`` is {gamma5, gamma^mu}.
        """
        g0, g1, g2, g3 = gams = self.gammas
        g5, backend = self.gamma5, self.backend
        i_unit = SCALAR_TYPE[backend](0, 1)
        relations = [
            ("gamma5.definition", g5 + (g0 @ g1 @ g2 @ g3).scale(i_unit)),
            ("gamma5.square", g5 @ g5 - Matrix.identity(4, backend)),
        ]
        relations += [(f"gamma5.anticommute.{mu}", g5 @ g + g @ g5) for mu, g in enumerate(gams)]
        return residual_report(backend, ((label, "DiracNeutrino", m) for label, m in relations))

    @cached_property
    def projector_residuals(self) -> ResidualReport:
        """Every relation of the projector family, in report order.

        Those of ``_family_residuals`` come from the validation on the
        exact view and are measured afresh on the float view.  The others
        are [P_k, gamma5], the complement 1 - P_k (idempotent and
        orthogonal to P_k: the larger residual), the swap and [V, gamma0],
        [V, gamma1].
        """
        q_plus, q_minus, ps, v, checked = self.projectors
        backend = self.backend
        if backend != EXACT:
            checked = _family_residuals(q_plus, q_minus, ps, v)
        family = {e.label: e for e in checked}

        out = [family[label] for label in
               ("q.sum", "q.idempotent-plus", "q.idempotent-minus", "q.orthogonal")]
        for k, p in enumerate(ps, start=1):
            out += [family[f"p{k}.idempotent"], family[f"p{k}.trace"],
                    residual_entry(f"p{k}.gamma5-commute", "PRO", backend,
                                   commutator(p, self.gamma5))]
        out.append(family["sum"])
        out += [e for e in checked if e.label.startswith("commute.")]
        for k, (p, eps) in enumerate(zip(ps, self.complements), start=1):
            out.append(residual_entry(f"complement.p{k}", "PRO", backend,
                                      (eps @ eps - eps).entries + (eps @ p).entries))
        out += swap_residuals(self).entries
        out += residual_report(backend, (
            ("v-swap.commute-gamma0", "V", commutator(v, self.gammas[0])),
            ("v-swap.commute-gamma1", "V", commutator(v, self.gammas[1]))))
        out.append(family["v-swap.unitary"])
        return ResidualReport(tuple(out))

    @cached_property
    def complements(self) -> tuple:
        """(Id - P1, Id - P2, Id - P3, Id - P4), formed on this view's backend."""
        ident = Matrix.identity(4, self.backend)
        return tuple(ident - p for p in self.p)

    @cached_property
    def swap_control(self) -> ResidualReport:
        """``swap_residuals`` with the identity for V: a negative control, far from zero."""
        return swap_residuals(self, Matrix.identity(4, self.backend))

    @cached_property
    def spinor_diagonal_residuals(self) -> ResidualReport:
        """P1..P4 and Q- minus their pinned spinor-basis diagonals: zero on the spinor basis."""
        diagonals = ((1, 1, 1, 0), (1, 1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1))
        relations = [(f"p{k}.diagonal", f"P{k}", p - Matrix.diag(d, self.backend))
                     for k, (p, d) in enumerate(zip(self.p, diagonals), start=1)]
        qminus = self.q_minus - Matrix.diag((1, 1, 0, 0), self.backend)
        relations.append(("qminus.diagonal", "DiracNeutrino", qminus))
        return residual_report(self.backend, relations)

    def transport_residuals(self, rep_to: GammaRep) -> ResidualReport:
        """W P_k Wdag - norm2 P'_k (``transport.p<k>``, equation PRO), kept per ``rep_to``.

        The family of this basis carried by the pinned intertwiner onto
        that of ``rep_to``.
        """
        report = self._transports.get(rep_to)
        if report is None:
            link = self.intertwiner(rep_to)
            wd = link.w.adjoint()
            pairs = zip(self.p, rep_to.on(self.backend).p)
            report = residual_report(self.backend, (
                (f"transport.p{k}", "PRO", link.w @ a @ wd - b.scale(link.norm2))
                for k, (a, b) in enumerate(pairs, start=1)))
            self._transports[rep_to] = report
        return report

    @cached_property
    def covariance_residuals(self) -> ResidualReport:
        """The fixed relations behind the covariance suite, in report order.

        ``commute.sigma<mu><nu>.P<i>`` (equation S) is [sigma_03, P_i] and
        [sigma_12, P_i] for i = 1, 2: the (0,3) boost and (1,2) rotation
        act inside each subsolution class.  ``v-reduced-op.<n>`` (equation
        V) is V op V^-1 - op for op = a gamma0 - b gamma1 - m at two pinned
        (a, b, m): V keeps the reduced Dirac operator of the special
        frame.  ``sigma-square.<mu><nu>`` (equation S) is sigma_{mu nu}^2 -
        g_{mu mu} g_{nu nu} Id, the premise of ``lorentz.spinor_transform``.
        """
        backend = self.backend
        ident = Matrix.identity(4, backend)
        relations = [(f"commute.sigma{mu}{nu}.P{i}", "S",
                      commutator(self.sigmas[mu][nu], self.p[i - 1]))
                     for mu, nu in ((0, 3), (1, 2)) for i in (1, 2)]
        g0, g1 = self.gammas[:2]
        vd = self.v.adjoint()
        for n, (a, b, m) in enumerate(((3, 2, 1), (5, -7, 2))):
            op = g0.scale(a) - g1.scale(b) - ident.scale(m)
            relations.append((f"v-reduced-op.{n}", "V", self.v @ op @ vd - op))
        for mu, nu in INDEX_PAIRS:
            if mu < nu:
                sig = self.sigmas[mu][nu]
                square = sig @ sig - ident.scale(METRIC_SIGNS[mu] * METRIC_SIGNS[nu])
                relations.append((f"sigma-square.{mu}{nu}", "S", square))
        return residual_report(backend, relations)

    @cached_property
    def lorentz_certificates(self) -> tuple:
        """``lorentz.float_certificates`` of this basis: (grid, commutators, controls)."""
        if self.backend != FLOAT:
            raise ValueError("Lorentz certificates are float records: read them on the float view")
        from .lorentz import float_certificates  # lorentz builds on this module

        return float_certificates(self.rep)

    # -- the suites' witness records and controls, measured when first read --

    split_witness = _kept_records("_split_witness", EXACT)
    weyl_witness = _kept_records("_weyl_witness", EXACT)
    majorana_witness = _kept_records("_majorana_witness", EXACT)
    split_controls = _kept_records("_split_controls", FLOAT)
    weyl_controls = _kept_records("_weyl_controls", FLOAT)


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
    return residual_report(backend, relations)


def swap_residuals(view: "RepView", v: Optional[Matrix] = None) -> ResidualReport:
    """V P1 V^-1 - P2 and V P2 V^-1 - P1; a negative control passes another ``v``."""
    v = view.v if v is None else v
    p1, p2 = view.p[:2]
    vinv = v.adjoint()  # unitary
    return residual_report(view.backend, (("v-swap.p1-to-p2", "V", v @ p1 @ vinv - p2),
                                   ("v-swap.p2-to-p1", "V", v @ p2 @ vinv - p1)))


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
    residuals = residual_report(EXACT, relations)
    _demand_zero(residuals, IntertwinerInvalid, f"{rep_from.name} -> {rep_to.name}")
    return Intertwiner(w, norm2, None, residuals)


# -- charge conjugation ------------------------------------------------------


def _conjugation_valid(rep: GammaRep, m: Matrix) -> bool:
    if not (m @ m.conj() - Matrix.identity(4)).is_zero:
        return False
    for g in rep.gammas:
        if not (m @ g.conj() + g @ m).is_zero:
            return False
    return True


def _conjugation_matrix(rep: GammaRep) -> Matrix:
    """The spinor basis's i gamma2 carried into ``rep``: W M W^T / norm2, then validated."""
    sp = build_rep("spinor")
    link = sp.on(EXACT).intertwiner(rep)
    m = (link.w @ sp.gammas[2].scale(I) @ link.w.transpose()).scale(Fraction(1, link.norm2))
    if not _conjugation_valid(rep, m):
        raise IntertwinerInvalid(
            f"no valid conjugation matrix for rep {rep.name}"
        )
    return m
