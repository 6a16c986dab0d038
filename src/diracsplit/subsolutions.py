"""The two-system decomposition of a massive Dirac solution.

At a term with momentum eigenvalues q = s p, and m != 0, a solution psi
splits in every basis into the constituents (``split_term``)

    Psi_(1) = m^-1 (gamma.q + m)(1 - P2) psi + (1 - P1) psi
    Psi_(2) = m^-1 (gamma.q + m)(1 - P1) psi + (1 - P2) psi

where 1 - P1 and 1 - P2 are orthogonal rank-1 projectors with sum Q+.
Why it holds, in two lines:

* gamma.q anticommutes with gamma5, so every solution obeys psi = m^-1
  (gamma.q + m) Q+ psi, and gamma.q maps im Q+ into im Q-.  Hence P1
  Psi_(1) = m^-1 (gamma.q + m)(1 - P2) psi, P2 Psi_(2) likewise, and
  the two recombine to psi.
* (gamma.q - m)(gamma.q + m) = q^2 - m^2, so on the mass shell each
  P_k Psi_(k) solves the Dirac equation.

That is, the split takes the right-chiral half of a solution, splits it
by its spin along the 3-axis, and rebuilds the unique solution over
each half.  In the spinor basis, psi = (xi1, xi2, eta1, eta2), it is the
paper's component definition, Psi_(k) = (xi(k)^1, xi(k)^2, eta1, eta2):

    m xi(1)^1 = (q0 + q3) eta1      m xi(2)^1 = (q1 - i q2) eta2
    m xi(1)^2 = (q1 + i q2) eta1    m xi(2)^2 = (q0 - q3) eta2

with xi(1)^a + xi(2)^a = xi^a; each constituent satisfies a closed
three-line system and equivalent four-line forms.  Those component
statements are made in the spinor basis only; the recombination and
the projector forms (gamma.q - m) P_k Psi_(k) = 0 in every basis.

Each family of relations is stated once, on one plane-wave term:
``split_relations`` (the recombination, identity and constituent
families), ``weyl_relations`` and ``majorana_relations`` take a term's
amplitude, momentum and frequency sign, plus the representation view and
the mass, and return ``(label, equation, value)`` relations whose values
are tuples of scalars; ``split_relations`` takes the term's constituents
from ``split_term`` too, so a split computes them once per term.  Every
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
witness field's report and a fuzz trial's agree to the last bit.  They
name no backend and build no scalar: the mass is used as given, and the
spinor basis's component statements read q0 +- q3 and q1 -+ i q2 off
the upper-right block of ``dirac_matrix``'s gamma.q, [[q0 + q3, q1 - i
q2], [q1 + i q2, q0 - q3]].  For exact inputs on an exact mass shell all
residuals vanish identically.

The Weyl (massless chiral) and Majorana (charge-conjugation-invariant)
subsolution checks live here as well, since they share the component
conventions of the spinor basis.  Like the split's component statements,
their two-component forms are made in the spinor basis only, where
(p0 + sigma.p) eta and (p0 - sigma.p) xi are the upper and lower halves
of gamma.p (xi, eta): every operator here is a ``dirac_matrix`` symbol or
a constant matrix, or the real swap i sigma2 (v0, v1) = (v1, -v0).
Every basis states the bispinor forms with its own matrices, and no
relation moves an amplitude between bases.
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
    _conj,
    _divided,
    _scaled,
    _sub,
    dirac_matrix,
    dirac_residual,
    upper_half,
)
from .gamma import RepView
from .reports import ResidualReport, demand, residual_entry, residual_report
from .scalars import EXACT, SCALAR_TYPE, coerce_real
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
    """The split of psi at ``mass``: its constituents and relations, one closed form per term.

    Per term of psi (the zero field's one zero term), ``split_term`` gives
    the constituents' amplitudes once, and ``split_relations`` states that
    term's relations on them: ``psi1`` and ``psi2`` are the constituent
    fields, ``relations`` the (recombination, identity, constituent)
    families over psi's terms.  The xi pairs are built when first read.
    The constructor checks nothing; ``split`` checks the preconditions
    and the relations.
    """

    _fields = ("psi", "mass")  # no __slots__: the cached properties live in __dict__

    def __init__(self, psi: PlaneWaveField, mass):
        view = psi.rep.on(psi.backend)
        terms1, terms2, per_term = [], [], []
        for amp, p, s in _terms(psi):
            constituents = split_term(view, amp, p, s, mass)
            terms1.append(PlaneWaveTerm(constituents[0], p, s))
            terms2.append(PlaneWaveTerm(constituents[1], p, s))
            per_term.append(split_relations(view, amp, constituents, p, s, mass))
        store(self, "psi", psi)
        store(self, "mass", mass)
        store(self, "psi1", PlaneWaveField(terms1, psi.rep, 4, psi.backend))
        store(self, "psi2", PlaneWaveField(terms2, psi.rep, 4, psi.backend))
        store(self, "relations",
              tuple(termwise(families[k] for families in per_term) for k in range(3)))

    @cached_property
    def xi1_pair(self) -> PlaneWaveField:
        """The upper half of Psi_(1): its xi pair in the spinor basis only."""
        return upper_half(self.psi1)

    @cached_property
    def xi2_pair(self) -> PlaneWaveField:
        """The upper half of Psi_(2): its xi pair in the spinor basis only."""
        return upper_half(self.psi2)


def split_term(view: RepView, amp: tuple, p: FourMomentum, s: int, mass) -> tuple:
    """The amplitudes (Psi_(1), Psi_(2)) of one term in ``view``'s basis: the closed form.

    Psi_(1) = m^-1 (gamma.q + m)(1 - P2) psi + (1 - P1) psi, and Psi_(2)
    the same with P1 and P2 swapped, where q = s p are the momentum
    operator's eigenvalues on the term.  gamma.q + m is the symbol
    ``u_spinor`` keeps on p, and 1 - P_k the view's kept complements.
    """
    lift = dirac_matrix(view.rep, p, s, -mass)
    out1, out2 = view.complements[:2]
    pi1, pi2 = out2.apply(amp), out1.apply(amp)  # (1 - P2) psi, (1 - P1) psi
    return (_add(_divided(lift.apply(pi1), mass), pi2),
            _add(_divided(lift.apply(pi2), mass), pi1))


def split(psi: PlaneWaveField, mass) -> SplitResult:
    """Decompose a Dirac solution, in any basis, into its two constituent fields.

    Each term is split once by ``split_term`` (see ``SplitResult``).  psi
    must solve the Dirac equation (relation ``dirac``), and the relations
    of ``split_relations`` are verified before returning: on the exact
    backend every family must vanish identically; on the float one the
    recombination family must sit within the constant bound 1e-10.  Both
    go through ``reports.demand``, so a NotASolution names the first
    relation that fails.
    """
    if not mass:
        raise SplitRequiresMass("the defining relations divide by m")
    if psi.ncomp != 4:
        raise SplitRequiresSpinorRep("split needs a bispinor field")
    demand([residual_entry("dirac", "Dirac1", psi.backend, dirac_residual(psi, mass))],
           NotASolution, "split", _TOL)
    result = SplitResult(psi, mass)
    for family in result.relations if psi.backend == EXACT else result.relations[:1]:
        demand(residual_report(psi.backend, family), NotASolution, "split", _TOL)
    return result


# -- residual evaluation -------------------------------------------------------


def _projector_forms(view: RepView, p: FourMomentum, s: int, mass, k: int, psi_k: tuple) -> tuple:
    """P_k Psi_(k) on one term, and the projector forms of constituent k there.

    Returns (P_k Psi_(k), (gamma.p - m) P_k Psi_(k), P_k gamma.p P_k
    Psi_(k) - m P_k Psi_(k), (1 - P_k) gamma.p P_k Psi_(k)), in ``view``'s
    basis; gamma.p is applied once.
    """
    p_k = view.p[k - 1]
    projected = p_k.apply(psi_k)
    image = dirac_matrix(view.rep, p, s).apply(projected)
    return (projected,
            dirac_matrix(view.rep, p, s, mass).apply(projected),
            _sub(p_k.apply(image), _scaled(mass, projected)),
            view.complements[k - 1].apply(image))


def split_relations(view: RepView, amp: tuple, constituents: tuple, p: FourMomentum, s: int,
                    mass) -> tuple:
    """The split's relations on one term, as (recombination, identity, constituent) lists.

    ``constituents`` are the amplitudes (Psi_(1), Psi_(2)) that
    ``split_term`` gives the term.  Every basis states the recombination
    P1 Psi_(1) + P2 Psi_(2) - Psi, the identities (1 - P_i) gamma.q P_i Psi_(i) (i = 1, 2) and the
    projector forms (gamma.q - m) P_k Psi_(k) and P_k gamma.q P_k Psi_(k)
    - m P_k Psi_(k).  The spinor basis puts its component statements,
    with q0 +- q3 and q1 -+ i q2 read off gamma.q's entries, first in each
    family: xi(1)^a + xi(2)^a - xi^a and the component
    definition minus the closed form (``closed-form``); the identities
    (q1 + i q2) xi(1)^1 = (q0 + q3) xi(1)^2 and (q0 - q3) xi(2)^1 =
    (q1 - i q2) xi(2)^2; the three- and four-line systems.
    """
    psi1, psi2 = constituents
    proj1, dirac1, projected1, repfree1 = _projector_forms(view, p, s, mass, 1, psi1)
    proj2, dirac2, projected2, repfree2 = _projector_forms(view, p, s, mass, 2, psi2)
    recombination = [("recombine.psi", "psi", _sub(_add(proj1, proj2), amp))]
    identity = [
        ("identity.repfree.P1", "identities", repfree1),
        ("identity.repfree.P2", "identities", repfree2),
    ]
    constituent = [
        ("constituent1-P.dirac", "constituent1/P", dirac1),
        ("constituents3.P1", "constituents/3", projected1),  # P1 gamma.q P1 Psi_(1) = m P1 Psi_(1)
        ("constituent2-P.dirac", "constituent2/P", dirac2),
        ("constituents3.P2", "constituents/3", projected2),
    ]
    if view.rep.name != "spinor":
        return recombination, identity, constituent

    # the upper-right block of gamma.q: [[q0 + q3, q1 - i q2], [q1 + i q2, q0 - q3]]
    gamma_q = dirac_matrix(view.rep, p, s).entries
    plus3, qm, qp, minus3 = gamma_q[2], gamma_q[3], gamma_q[6], gamma_q[7]
    m = mass
    eta = amp[2:]
    definition = ((plus3 * eta[0] / m, qp * eta[0] / m) + eta
                  + (qm * eta[1] / m, minus3 * eta[1] / m) + eta)
    xi = _sub(_add(psi1[:2], psi2[:2]), amp[:2])
    xi11, xi12, eta1, _ = psi1
    xi21, xi22, _, eta2 = psi2
    return [
        ("recombine.xi1", "def3", xi[:1]),
        ("recombine.xi2", "def4", xi[1:]),
        ("closed-form", "DEF1", _sub(definition, psi1 + psi2)),
    ] + recombination, [
        ("identity.id1", "id1", (qp * xi11 - plus3 * xi12,)),
        ("identity.id2", "id2", (minus3 * xi21 - qm * xi22,)),
    ] + identity, [
        ("constituent1.line1", "constituent1", (plus3 * eta1 - m * xi11,)),
        ("constituent1.line2", "constituent1", (qp * eta1 - m * xi12,)),
        ("constituent1.line3", "constituent1", (minus3 * xi11 - qm * xi12 - m * eta1,)),
        ("constituent2.line1", "constituent2", (qm * eta2 - m * xi21,)),
        ("constituent2.line2", "constituent2", (minus3 * eta2 - m * xi22,)),
        ("constituent2.line4", "constituent2", (-qp * xi21 + plus3 * xi22 - m * eta2,)),
        ("constituent1-4.line4", "constituent1/4", (plus3 * xi12 - qp * xi11,)),
        ("constituent2-4.line3", "constituent2/4", (minus3 * xi21 - qm * xi22,)),
    ] + constituent


def recombination_residuals(sr: SplitResult) -> ResidualReport:
    """The recombination relations of ``split_relations``, over the split's terms."""
    return residual_report(sr.psi.backend, sr.relations[0])


# -- Weyl ----------------------------------------------------------------------


def weyl_relations(view: RepView, amp: tuple, p: FourMomentum, s: int) -> list:
    """The massless chiral equations on one term, in ``view``'s basis.

    Every basis states the bispinor forms gamma.p Q-+ psi = 0.  The spinor
    basis puts first the two-component forms (p0 + sigma.p) eta = 0 and
    (p0 - sigma.p) xi = 0 on its chiral halves, psi = (xi, eta): the upper
    and lower halves of gamma.p psi there; another basis has no such
    components.
    """
    gamma_p = dirac_matrix(view.rep, p, s)
    relations = [
        ("bispinor.Qminus", "DiracNeutrino", gamma_p.apply(view.q_minus.apply(amp))),
        ("bispinor.Qplus", "DiracNeutrino", gamma_p.apply(view.q_plus.apply(amp))),
    ]
    if view.rep.name != "spinor":
        return relations
    halves = gamma_p.apply(amp)
    return [("eta", "Weyl1", halves[:2]), ("xi", "Weyl2", halves[2:])] + relations


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


def majorana_relations(view: RepView, amp: tuple, partner: tuple, p: FourMomentum, s: int,
                       mass) -> list:
    """Self-conjugacy and the Majorana system, or the Dirac equation, on the term at (p, s).

    ``partner`` is the amplitude of the term at (p, -s): conjugation flips
    the frequency sign, so C f at (p, s) is M conj(partner), with M the
    basis's conjugation matrix, and the coupled equations pair the term
    with it in the same way.  Self-conjugacy f = C f holds in every basis;
    the spinor basis adds (p0 + sigma.p) eta = -i m sigma2 eta*,
    (p0 - sigma.p) xi = +i m sigma2 xi*, whose left sides are the halves
    of gamma.p f there, and the component relations xi = -i sigma2 eta*,
    eta = +i sigma2 xi*, with i sigma2 the swap (v0, v1) -> (v1, -v0).
    Another basis, which has no components to check, adds the Dirac
    equation (gamma.p - m) f = 0.
    """
    conj = _conj(partner)
    relations = [("selfconj", "MAJORANA", _sub(amp, view.conjugation.apply(conj)))]
    if view.rep.name != "spinor":
        return relations + [("dirac", "Dirac1", dirac_matrix(view.rep, p, s, mass).apply(amp))]
    xi, eta = amp[:2], amp[2:]
    blocks = dirac_matrix(view.rep, p, s).apply(amp)  # ((p0 + sigma.p) eta, (p0 - sigma.p) xi)
    is2_eta = (conj[3], -conj[2])  # i sigma2 eta*
    is2_xi = (conj[1], -conj[0])  # i sigma2 xi*
    return relations + [
        ("eq1", "Majorana1", _add(blocks[:2], _scaled(mass, is2_eta))),
        ("eq2", "Majorana2", _sub(blocks[2:], _scaled(mass, is2_xi))),
        ("xi-consistency", "MAJORANA", _add(xi, is2_eta)),
        ("eta-consistency", "MAJORANA", _sub(eta, is2_xi)),
    ]


def majorana_residuals(f: PlaneWaveField, mass) -> ResidualReport:
    """``majorana_relations`` at every key of f or of C f, on f's backend.

    At (p, s) the term of f there meets its partner at (p, -s), since
    conjugation flips the frequency sign; an absent one is zero.
    The report holds the relations ``majorana_relations`` gives f's basis:
    ``selfconj`` and the component relations in the spinor basis,
    ``selfconj`` and ``dirac`` in any other.  Raises "not-majorana",
    through ``reports.demand`` and naming ``selfconj``, when
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
    # selfconj, first in every basis
    demand(report.entries[:1], NotMajorana, "majorana_residuals", _TOL)
    return report
