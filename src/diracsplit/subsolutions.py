"""The two-system decomposition of a massive Dirac solution.

For a solution Psi = (xi1, xi2, eta1, eta2) of the bispinor system and
m != 0, four quantities are defined term-wise from the eta pair:

    m xi(1)^1 = (p0 + p3) eta1      m xi(2)^1 = (p1 - i p2) eta2
    m xi(1)^2 = (p1 + i p2) eta1    m xi(2)^2 = (p0 - p3) eta2

with xi(1)^a + xi(2)^a = xi^a.  The two constituent fields

    Psi_(1) = (xi(1)^1, xi(1)^2, eta1, eta2)
    Psi_(2) = (xi(2)^1, xi(2)^2, eta1, eta2)

each satisfy a closed three-line system, equivalent four-line forms, and
the projector forms (gamma.p - m) P_k Psi_(k) = 0, which are basis
independent.

Each family of relations is stated once, on one plane-wave term:
``split_relations`` (the recombination, identity and constituent
families), ``transported_relations``, ``weyl_relations`` and
``majorana_relations`` take a term's amplitude, momentum and frequency
sign, plus the representation view and the mass, and return ``(label,
equation, value)`` relations whose values are tuples of scalars.  Every
relation is linear with constant coefficients, so it holds for a field
iff it holds on each of its terms: the field-level ``*_residuals``
functions map the statement over a field's terms (the zero field's one
zero term) and concatenate each label's values (``termwise``), and
``split``'s preconditions and the exact witnesses read those; the float
fuzz passes a sampled mode's amplitude straight in and builds no field.
The one family that couples two terms is Majorana's, where the term at
(p, s) meets the conjugate of the term at (p, -s): complex conjugation
flips the frequency sign.  The statements combine amplitudes with the
amplitude algebra of ``fields`` (``_add``, ``_sub``, ``_scaled``), so a
witness field's report and a fuzz trial's agree to the last bit.  For
exact inputs on an exact mass shell all residuals vanish identically.

The Weyl (massless chiral) and Majorana (charge-conjugation-invariant)
subsolution checks live here as well, since they share the component
conventions of the spinor basis.
"""

from __future__ import annotations

from functools import cached_property

from .errors import (
    ChargeConjugationNeedsBispinor,
    NotASolution,
    NotMajorana,
    SplitRequiresMass,
    SplitRequiresSpinorRep,
    WeylRequiresMassless,
)
from .fields import (
    FourMomentum,
    PlaneWaveField,
    PlaneWaveTerm,
    _add,
    _scaled,
    _sub,
    dirac_matrix,
    dirac_residual,
    upper_half,
)
from .gamma import GammaRep, RepView, build_rep
from .matrices import Matrix
from .reports import ResidualReport, residual_entry, residual_report
from .scalars import SCALAR_TYPE, coerce_real, coerce_scalar
from .values import Value, store

#: the bound of the float preconditions of split and majorana_residuals
_TOL = 1e-10


def termwise(relation_lists) -> list:
    """A field's relations from its terms': each label's values concatenated in order.

    ``relation_lists`` yields the relations of each term, values as
    tuples of scalars.  Every relation here is linear with constant
    coefficients, so it holds on a field iff it holds on each term, and
    the field's residual is the largest of its terms'.  Labels keep their
    order of first appearance.
    """
    merged: dict = {}
    for relations in relation_lists:
        for label, equation, value in relations:
            held = merged.get(label)
            merged[label] = (equation, value) if held is None else (equation, held[1] + value)
    return [(label, equation, value) for label, (equation, value) in merged.items()]


def _terms(f: PlaneWaveField) -> tuple:
    """f's terms, or one zero term for the zero field, so that it still has every relation.

    The zero field is the zero amplitude at any momentum, and every
    relation is linear in the amplitude, so each measures zero there.
    """
    if f.terms:
        return f.terms
    zero, origin = SCALAR_TYPE[f.backend](0), coerce_real(0, f.backend)
    return (((zero,) * f.ncomp, FourMomentum((origin,) * 4, origin, f.backend), 1),)


class SplitResult(Value):
    """A split; its xi pairs and its relations are built once, when first read."""

    _fields = ("psi", "psi1", "psi2", "mass")  # no __slots__: the cached properties live in __dict__

    def __init__(self, psi: PlaneWaveField, psi1: PlaneWaveField, psi2: PlaneWaveField, mass):
        store(self, "psi", psi)
        store(self, "psi1", psi1)
        store(self, "psi2", psi2)
        store(self, "mass", mass)

    @cached_property
    def xi1_pair(self) -> PlaneWaveField:
        """The upper half of Psi_(1)."""
        return upper_half(self.psi1)

    @cached_property
    def xi2_pair(self) -> PlaneWaveField:
        """The upper half of Psi_(2)."""
        return upper_half(self.psi2)

    @cached_property
    def relations(self) -> tuple:
        """(recombination, identity, constituent): ``split_relations`` over psi's terms."""
        view = self.psi.rep.on(self.psi.backend)
        per_term = [split_relations(view, amp, p, s, self.mass) for amp, p, s in _terms(self.psi)]
        return tuple(termwise(families[k] for families in per_term) for k in range(3))


def split_term(amp: tuple, p: FourMomentum, s: int, mass) -> tuple:
    """The amplitudes (Psi_(1), Psi_(2)) of one term: the defining relations.

    The momentum operator's eigenvalues on the term are q = s p.
    """
    scalar = SCALAR_TYPE[p.backend]
    q0, q1, q2, q3 = (c * s for c in p.p)
    eta = amp[2:]
    eta1, eta2 = eta
    return (((q0 + q3) * eta1 / mass, scalar(q1, q2) * eta1 / mass) + eta,
            (scalar(q1, -q2) * eta2 / mass, (q0 - q3) * eta2 / mass) + eta)


def split(psi: PlaneWaveField, mass) -> SplitResult:
    """Decompose a Dirac solution into its two constituent fields.

    Each term is split by ``split_term``.  The recombination invariants
    (xi(1)+xi(2) = xi componentwise and P1 Psi_(1) + P2 Psi_(2) = Psi)
    are verified before returning: exactly on the exact backend, within
    the constant bound 1e-10 on the float one.
    """
    if not mass:
        raise SplitRequiresMass("the defining relations divide by m")
    if psi.ncomp != 4:
        raise SplitRequiresSpinorRep("split needs a bispinor field")
    if psi.rep.name != "spinor":
        raise SplitRequiresSpinorRep(
            "component formulas are pinned to the spinor basis; "
            "transport the field with the intertwiner first"
        )
    res = residual_entry("dirac", "Dirac1", psi.backend, dirac_residual(psi, mass))
    if not res.within(_TOL):
        raise NotASolution(f"Dirac residual {res.residual:.3e} ({res.backend}, tol {_TOL})")

    terms1, terms2 = [], []
    for amp, p, s in psi.terms:
        amp1, amp2 = split_term(amp, p, s, mass)
        terms1.append(PlaneWaveTerm(amp1, p, s))
        terms2.append(PlaneWaveTerm(amp2, p, s))
    result = SplitResult(psi=psi, psi1=PlaneWaveField(terms1, psi.rep, 4, psi.backend),
                         psi2=PlaneWaveField(terms2, psi.rep, 4, psi.backend), mass=mass)
    rec = recombination_residuals(result)
    if not rec.all_within(_TOL):
        raise NotASolution(
            f"recombination residual {rec.max_residual():.3e} ({psi.backend}, tol {_TOL})"
        )
    return result


# -- residual evaluation -------------------------------------------------------


def _projector_forms(view: RepView, p: FourMomentum, s: int, mass, k: int, psi_k: tuple) -> tuple:
    """P_k Psi_(k) on one term, and the projector forms of constituent k there.

    Returns (P_k Psi_(k), (gamma.p - m) P_k Psi_(k), P_k gamma.p P_k
    Psi_(k) - m P_k Psi_(k), (1 - P_k) gamma.p P_k Psi_(k)), in ``view``'s
    basis; gamma.p is applied once.
    """
    backend = view.backend
    p_k = view.p[k - 1]
    projected = p_k.apply(psi_k)
    image = dirac_matrix(view.rep, p, s).apply(projected)
    return (projected,
            dirac_matrix(view.rep, p, s, mass).apply(projected),
            _sub(p_k.apply(image), _scaled(coerce_scalar(mass, backend), projected), backend),
            view.complements[k - 1].apply(image))


def split_relations(view: RepView, amp: tuple, p: FourMomentum, s: int, mass) -> tuple:
    """The split's relations on one term, as (recombination, identity, constituent) lists.

    ``view`` is the spinor basis on the term's backend.  Recombination:
    xi(1)^a + xi(2)^a - xi^a componentwise, and P1 Psi_(1) + P2 Psi_(2)
    - Psi.  Identities:

        (p1 + i p2) xi(1)^1 = (p0 + p3) xi(1)^2
        (p0 - p3) xi(2)^1 = (p1 - i p2) xi(2)^2
        (1 - P_i) gamma.p P_i Psi_(i) = 0   (i = 1, 2)

    Constituents, in all four formulations: the three-line systems, the
    four-line systems, the projector forms (gamma.p - m) P_k Psi_(k), and
    the projected form P_i gamma.p P_i Psi_(i) - m P_i Psi_(i).
    """
    backend = view.backend
    scalar = SCALAR_TYPE[backend]
    psi1, psi2 = split_term(amp, p, s, mass)
    proj1, dirac1, projected1, repfree1 = _projector_forms(view, p, s, mass, 1, psi1)
    proj2, dirac2, projected2, repfree2 = _projector_forms(view, p, s, mass, 2, psi2)
    xi = _sub(_add(psi1[:2], psi2[:2]), amp[:2], backend)
    recombination = [
        ("recombine.xi1", "def3", xi[:1]),
        ("recombine.xi2", "def4", xi[1:]),
        ("recombine.psi", "psi", _sub(_add(proj1, proj2), amp, backend)),
    ]

    q0, q1, q2, q3 = (c * s for c in p.p)
    qp, qm = scalar(q1, q2), scalar(q1, -q2)
    xi11, xi12, eta1, _ = psi1
    xi21, xi22, _, eta2 = psi2
    identity = [
        ("identity.id1", "id1", (qp * xi11 - (q0 + q3) * xi12,)),
        ("identity.id2", "id2", ((q0 - q3) * xi21 - qm * xi22,)),
        ("identity.repfree.P1", "identities", repfree1),
        ("identity.repfree.P2", "identities", repfree2),
    ]

    m = mass
    return recombination, identity, [
        ("constituent1.line1", "constituent1", ((q0 + q3) * eta1 - m * xi11,)),
        ("constituent1.line2", "constituent1", (qp * eta1 - m * xi12,)),
        ("constituent1.line3", "constituent1", ((q0 - q3) * xi11 - qm * xi12 - m * eta1,)),
        ("constituent2.line1", "constituent2", (qm * eta2 - m * xi21,)),
        ("constituent2.line2", "constituent2", ((q0 - q3) * eta2 - m * xi22,)),
        ("constituent2.line4", "constituent2", (-qp * xi21 + (q0 + q3) * xi22 - m * eta2,)),
        ("constituent1-4.line4", "constituent1/4", ((q0 + q3) * xi12 - qp * xi11,)),
        ("constituent2-4.line3", "constituent2/4", ((q0 - q3) * xi21 - qm * xi22,)),
        ("constituent1-P.dirac", "constituent1/P", dirac1),
        ("constituents3.P1", "constituents/3", projected1),  # P1 gamma.p P1 Psi_(1) = m P1 Psi_(1)
        ("constituent2-P.dirac", "constituent2/P", dirac2),
        ("constituents3.P2", "constituents/3", projected2),
    ]


def recombination_residuals(sr: SplitResult) -> ResidualReport:
    """The recombination relations of ``split_relations``, over the split's terms."""
    return residual_report(sr.psi.backend, sr.relations[0])


def transported_relations(view: RepView, amp: tuple, p: FourMomentum, s: int, mass) -> list:
    """The basis-independent constituent checks of one spinor-basis term, in ``view``'s basis.

    Each constituent is transported with the pinned integer intertwiner
    W (an overall scale, so exact zeros stay exact) and the projector
    forms are evaluated against the target basis's own gamma matrices
    and projectors.
    """
    w = build_rep("spinor").on(view.backend).intertwiner(view.rep).w
    tag = f"transport.{view.rep.name}"
    relations = []
    for k, psi_k in enumerate(split_term(amp, p, s, mass), start=1):
        _, dirac, projected, repfree = _projector_forms(view, p, s, mass, k, w.apply(psi_k))
        relations += [
            (f"{tag}.constituent{k}-P", f"constituent{k}/P", dirac),
            (f"{tag}.constituents3.P{k}", "constituents/3", projected),
            (f"{tag}.identities.P{k}", "identities", repfree),
        ]
    return relations


def transported_constituent_residuals(sr: SplitResult, rep_to: GammaRep) -> ResidualReport:
    """``transported_relations`` in ``rep_to``, over the split's terms."""
    backend = sr.psi.backend
    view = rep_to.on(backend)
    return residual_report(backend, termwise(transported_relations(view, amp, p, s, sr.mass)
                                             for amp, p, s in _terms(sr.psi)))


# -- Weyl ----------------------------------------------------------------------


def _sigma_symbol(p: FourMomentum, s: int, sign: int) -> Matrix:
    """The symbol of (p^0 + sign * sigma.p) on a term with eigenvalues q = s p.

    [[q0 + sign q3, sign (q1 - i q2)], [sign (q1 + i q2), q0 - sign q3]],
    kept on p per (s, type of s, sign) as ``dirac_matrix`` keeps its symbols.
    """
    key = ("sigma", s, type(s), sign)
    symbol = p._symbols.get(key)
    if symbol is None:
        scalar = SCALAR_TYPE[p.backend]
        q0, q1, q2, q3 = (c * s for c in p.p)
        q1, q2, q3 = sign * q1, sign * q2, sign * q3
        symbol = Matrix(2, p.backend, (scalar(q0 + q3), scalar(q1, -q2),
                                       scalar(q1, q2), scalar(q0 - q3)))
        p._symbols[key] = symbol
    return symbol


def weyl_relations(view: RepView, amp: tuple, p: FourMomentum, s: int) -> list:
    """The massless chiral equations on one term, in ``view``'s basis.

    The two-component forms (p0 + sigma.p) eta = 0, (p0 - sigma.p) xi = 0
    evaluated on the chiral halves in the spinor basis, plus the bispinor
    forms gamma.p Q-+ psi = 0.  Outside the spinor basis the halves are
    taken after the exact W, which is W-scaled (norm 2 or 4), not
    unitary: residual magnitudes pick up that bounded factor, exact zeros
    are unaffected.
    """
    spinor = build_rep("spinor")
    chiral = amp if view.rep.name == "spinor" else view.intertwiner(spinor).w.apply(amp)
    gamma_p = dirac_matrix(view.rep, p, s)
    return [
        ("eta", "Weyl1", _sigma_symbol(p, s, +1).apply(chiral[2:])),
        ("xi", "Weyl2", _sigma_symbol(p, s, -1).apply(chiral[:2])),
        ("bispinor.Qminus", "DiracNeutrino", gamma_p.apply(view.q_minus.apply(amp))),
        ("bispinor.Qplus", "DiracNeutrino", gamma_p.apply(view.q_plus.apply(amp))),
    ]


def weyl_residuals(f: PlaneWaveField) -> ResidualReport:
    """``weyl_relations`` over f's terms, on f's backend; every term must be massless."""
    if f.ncomp != 4:
        raise ValueError("the Weyl relations act on bispinor fields")
    for t in f.terms:
        if t.momentum.mass:
            raise WeylRequiresMassless("field carries a massive term")
    view = f.rep.on(f.backend)
    return residual_report(f.backend, termwise(weyl_relations(view, amp, p, s)
                                               for amp, p, s in _terms(f)))


# -- Majorana --------------------------------------------------------------------


_SIGMA2 = {backend: Matrix(2, backend, (scalar(0), scalar(0, -1), scalar(0, 1), scalar(0)))
           for backend, scalar in SCALAR_TYPE.items()}


def majorana_relations(view: RepView, amp: tuple, partner: tuple, p: FourMomentum, s: int,
                       mass) -> list:
    """Self-conjugacy and the Majorana system, or the Dirac equation, on the term at (p, s).

    ``partner`` is the amplitude of the term at (p, -s): conjugation flips
    the frequency sign, so C f at (p, s) is M conj(partner), with M the
    basis's conjugation matrix, and the coupled equations pair the term
    with it in the same way.  Self-conjugacy f = C f holds in every basis;
    the spinor basis adds (p0 + sigma.p) eta = -i m sigma2 eta*,
    (p0 - sigma.p) xi = +i m sigma2 xi*, and the component relations
    xi = -i sigma2 eta*, eta = +i sigma2 xi*.  Another basis, which has
    no components to check, adds the Dirac equation (gamma.p - m) f = 0.
    """
    backend = view.backend
    conj = tuple(a.conjugate() for a in partner)
    relations = [("selfconj", "MAJORANA", _sub(amp, view.conjugation.apply(conj), backend))]
    if view.rep.name != "spinor":
        return relations + [("dirac", "Dirac1", dirac_matrix(view.rep, p, s, mass).apply(amp))]
    scalar = SCALAR_TYPE[backend]
    i_m, i_one = scalar(0, mass), scalar(0, 1)
    xi, eta = amp[:2], amp[2:]
    s2_eta = _SIGMA2[backend].apply(conj[2:])  # sigma2 eta*
    s2_xi = _SIGMA2[backend].apply(conj[:2])  # sigma2 xi*
    return relations + [
        ("eq1", "Majorana1", _add(_sigma_symbol(p, s, +1).apply(eta), _scaled(i_m, s2_eta))),
        ("eq2", "Majorana2", _sub(_sigma_symbol(p, s, -1).apply(xi), _scaled(i_m, s2_xi),
                                  backend)),
        ("xi-consistency", "MAJORANA", _add(xi, _scaled(i_one, s2_eta))),
        ("eta-consistency", "MAJORANA", _sub(eta, _scaled(i_one, s2_xi), backend)),
    ]


def majorana_residuals(f: PlaneWaveField, mass) -> ResidualReport:
    """``majorana_relations`` at every key of f or of C f, on f's backend.

    At (p, s) the term of f there meets its partner at (p, -s), since
    conjugation flips the frequency sign; an absent one is zero.
    The report holds the relations ``majorana_relations`` gives f's basis:
    ``selfconj`` and the component relations in the spinor basis,
    ``selfconj`` and ``dirac`` in any other.  Raises "not-majorana" when
    self-conjugacy fails (exactly on the exact backend, beyond the
    constant bound 1e-10 on the float one).
    """
    if f.ncomp != 4:
        raise ChargeConjugationNeedsBispinor("charge conjugation acts on bispinors")
    backend = f.backend
    view = f.rep.on(backend)
    zero = (SCALAR_TYPE[backend](0),) * 4
    at = {(s,) + p.key(): (amp, p) for amp, p, s in _terms(f)}
    per_term = []
    for key in sorted(at.keys() | {(-k[0],) + k[1:] for k in at}):
        term, partner = at.get(key), at.get((-key[0],) + key[1:])
        per_term.append(majorana_relations(view, term[0] if term else zero,
                                           partner[0] if partner else zero,
                                           (term or partner)[1], key[0], mass))
    report = residual_report(backend, termwise(per_term))
    selfconj = report.entries[0]  # first in every basis
    if not selfconj.within(_TOL):
        raise NotMajorana(
            f"charge-conjugation residual {selfconj.residual:.3e} ({backend}, tol {_TOL})"
        )
    return report
