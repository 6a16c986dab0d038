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
independent.  Each family of these systems is stated once, as a list
of ``(label, equation, value)`` relations (``recombination_relations``,
``identity_relations``, ``constituent_relations``, and below
``weyl_relations`` and ``majorana_relations``); the matching
``*_residuals`` function measures the same list into a
``ResidualReport``, and the float fuzz reads only the magnitudes of the
values.  For exact inputs on an exact mass shell all residuals vanish
identically.

The Weyl (massless chiral) and Majorana (charge-conjugation-invariant)
subsolution checks live here as well, since they share the component
conventions of the spinor basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .errors import (
    NotASolution,
    NotMajorana,
    SplitRequiresMass,
    SplitRequiresSpinorRep,
    WeylRequiresMassless,
)
from .fields import (
    PlaneWaveField,
    PlaneWaveTerm,
    _field,
    _term,
    apply_symbol,
    charge_conjugate,
    conjugate,
    dirac_op,
    dirac_residual,
    lower_half,
    upper_half,
)
from .gamma import GammaRep, build_rep
from .matrices import Matrix
from .reports import ResidualReport, residual_entry, residual_report
from .scalars import EXACT, SCALAR_TYPE

#: the bound of the float preconditions of split and majorana_residuals
_TOL = 1e-10


@dataclass(frozen=True)
class SplitResult:
    """A split; its xi pairs and projected constituents are built once, when first read."""

    psi: PlaneWaveField
    psi1: PlaneWaveField
    psi2: PlaneWaveField
    mass: object

    @cached_property
    def xi1_pair(self) -> PlaneWaveField:
        """The upper half of Psi_(1)."""
        return upper_half(self.psi1)

    @cached_property
    def xi2_pair(self) -> PlaneWaveField:
        """The upper half of Psi_(2)."""
        return upper_half(self.psi2)

    @cached_property
    def projected(self) -> tuple:
        """(P1 Psi_(1), P2 Psi_(2))."""
        ps = self.psi.rep.on(self.psi.backend).p
        return (self.psi1.apply(ps[0]), self.psi2.apply(ps[1]))

    @cached_property
    def dirac_projected(self) -> tuple:
        """(gamma.p P1 Psi_(1), gamma.p P2 Psi_(2))."""
        return tuple(dirac_op(f) for f in self.projected)


def _term_q(term: PlaneWaveTerm) -> tuple:
    """Momentum-operator eigenvalues (q^0..q^3) on one term."""
    s = term.freq_sign
    return tuple(c * s for c in term.momentum.p)


def split(psi: PlaneWaveField, mass, *, require_solution: bool = True) -> SplitResult:
    """Decompose a Dirac solution into its two constituent fields.

    The xi(i) components are computed term-wise by applying the defining
    momentum operators to the eta components and dividing by the mass.
    The recombination invariants (xi(1)+xi(2) = xi componentwise and
    P1 Psi_(1) + P2 Psi_(2) = Psi) are verified before returning: exactly
    on the exact backend, within the constant bound 1e-10 on the float one.

    ``require_solution=False`` skips the Dirac-solution precondition and
    the recombination checks; it exists so negative controls can push
    off-shell inputs through the same code path.
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
    if require_solution:
        res = residual_entry("dirac", "Dirac1", psi.backend, dirac_residual(psi, mass))
        if not res.within(_TOL):
            raise NotASolution(f"Dirac residual {res.residual:.3e} ({res.backend}, tol {_TOL})")

    # each constituent keeps psi's keys, so it is built term by term
    scalar = SCALAR_TYPE[psi.backend]
    terms1, terms2 = [], []
    for amp, p, s in psi.terms:
        q0, q1, q2, q3 = (c * s for c in p.p)
        eta = amp[2:]
        eta1, eta2 = eta
        amp1 = ((q0 + q3) * eta1 / mass, scalar(q1, q2) * eta1 / mass) + eta
        amp2 = (scalar(q1, -q2) * eta2 / mass, (q0 - q3) * eta2 / mass) + eta
        if any(amp1):
            terms1.append(_term(amp1, p, s))
        if any(amp2):
            terms2.append(_term(amp2, p, s))
    psi1 = _field(tuple(terms1), psi.rep, 4, psi.backend)
    psi2 = _field(tuple(terms2), psi.rep, 4, psi.backend)
    result = SplitResult(psi=psi, psi1=psi1, psi2=psi2, mass=mass)
    if require_solution:
        rec = recombination_residuals(result)
        if not rec.all_within(_TOL):
            raise NotASolution(
                f"recombination residual {rec.max_residual():.3e} ({psi.backend}, tol {_TOL})"
            )
    return result


# -- residual evaluation -------------------------------------------------------


def recombination_relations(sr: SplitResult) -> list:
    """The defining recombinations as ``(label, equation, value)`` relations.

    xi(1)^a + xi(2)^a - xi^a componentwise, and the projector
    recombination P1 Psi_(1) + P2 Psi_(2) - Psi.
    """
    diff = sr.xi1_pair + sr.xi2_pair - upper_half(sr.psi)
    proj1, proj2 = sr.projected
    return [
        ("recombine.xi1", "def3", [t.amplitude[0] for t in diff.terms]),
        ("recombine.xi2", "def4", [t.amplitude[1] for t in diff.terms]),
        ("recombine.psi", "psi", proj1 + proj2 - sr.psi),
    ]


def recombination_residuals(sr: SplitResult) -> ResidualReport:
    """``recombination_relations`` measured on the split's backend."""
    return residual_report(sr.psi.backend, recombination_relations(sr))


def identity_relations(sr: SplitResult) -> list:
    """The two scalar identities and their basis-independent form, as relations.

    (p1 + i p2) xi(1)^1 = (p0 + p3) xi(1)^2
    (p0 - p3) xi(2)^1 = (p1 - i p2) xi(2)^2
    (1 - P_i) gamma.p P_i Psi_(i) = 0   (i = 1, 2)
    """
    backend = sr.psi.backend
    scalar = SCALAR_TYPE[backend]
    id1, id2 = [], []
    for term in sr.xi1_pair.terms:
        q0, q1, q2, q3 = _term_q(term)
        a, b = term.amplitude
        id1.append(scalar(q1, q2) * a - (q0 + q3) * b)
    for term in sr.xi2_pair.terms:
        q0, q1, q2, q3 = _term_q(term)
        a, b = term.amplitude
        id2.append((q0 - q3) * a - scalar(q1, -q2) * b)

    relations = [("identity.id1", "id1", id1), ("identity.id2", "id2", id2)]
    complements = sr.psi.rep.on(backend).complements
    for i, (eps, image) in enumerate(zip(complements, sr.dirac_projected), start=1):
        relations.append((f"identity.repfree.P{i}", "identities", image.apply(eps)))
    return relations


def identity_residuals(sr: SplitResult) -> ResidualReport:
    """``identity_relations`` measured on the split's backend."""
    return residual_report(sr.psi.backend, identity_relations(sr))


def constituent_relations(sr: SplitResult) -> list:
    """The constituent systems in all four formulations, as relations.

    Three-line systems, four-line systems, the projector forms
    (gamma.p - m) P_k Psi_(k), and the projected form
    P_i gamma.p P_i Psi_(i) - m P_i Psi_(i).
    """
    scalar = SCALAR_TYPE[sr.psi.backend]
    m = sr.mass
    lines1: dict = {1: [], 2: [], 3: [], 4: []}
    lines2: dict = {1: [], 2: [], 3: [], 4: []}
    for term in sr.psi1.terms:
        q0, q1, q2, q3 = _term_q(term)
        xi1, xi2, eta1, _ = term.amplitude
        qp, qm = scalar(q1, q2), scalar(q1, -q2)
        lines1[1].append((q0 + q3) * eta1 - m * xi1)
        lines1[2].append(qp * eta1 - m * xi2)
        lines1[3].append((q0 - q3) * xi1 - qm * xi2 - m * eta1)
        lines1[4].append((q0 + q3) * xi2 - qp * xi1)
    for term in sr.psi2.terms:
        q0, q1, q2, q3 = _term_q(term)
        xi1, xi2, _, eta2 = term.amplitude
        qp, qm = scalar(q1, q2), scalar(q1, -q2)
        lines2[1].append(qm * eta2 - m * xi1)
        lines2[2].append((q0 - q3) * eta2 - m * xi2)
        lines2[3].append((q0 - q3) * xi1 - qm * xi2)
        lines2[4].append(-qp * xi1 + (q0 + q3) * xi2 - m * eta2)

    relations = [
        ("constituent1.line1", "constituent1", lines1[1]),
        ("constituent1.line2", "constituent1", lines1[2]),
        ("constituent1.line3", "constituent1", lines1[3]),
        ("constituent2.line1", "constituent2", lines2[1]),
        ("constituent2.line2", "constituent2", lines2[2]),
        ("constituent2.line4", "constituent2", lines2[4]),
        ("constituent1-4.line4", "constituent1/4", lines1[4]),
        ("constituent2-4.line3", "constituent2/4", lines2[3]),
    ]
    ps = sr.psi.rep.on(sr.psi.backend).p
    for i, (p, projected, image) in enumerate(zip(ps, sr.projected, sr.dirac_projected),
                                              start=1):
        relations += [
            (f"constituent{i}-P.dirac", f"constituent{i}/P", dirac_residual(projected, m)),
            # P_i gamma.p P_i Psi_(i) = m P_i Psi_(i)
            (f"constituents3.P{i}", "constituents/3", image.apply(p) - projected.scale(m)),
        ]
    return relations


def constituent_residuals(sr: SplitResult) -> ResidualReport:
    """``constituent_relations`` measured on the split's backend."""
    return residual_report(sr.psi.backend, constituent_relations(sr))


def transported_constituent_residuals(sr: SplitResult, rep_to: GammaRep) -> ResidualReport:
    """Basis-independent constituent checks in another representation.

    Fields are transported with the pinned integer intertwiner W (an
    overall scale, so exact zeros stay exact) and the projector forms
    are re-evaluated against rep_to's own gamma matrices and projectors.
    """
    backend = sr.psi.backend
    w = sr.psi.rep.on(backend).intertwiner(rep_to).w
    view = rep_to.on(backend)
    tag = f"transport.{rep_to.name}"
    relations = []
    for i, psi_i in ((1, sr.psi1), (2, sr.psi2)):
        moved = apply_symbol(psi_i, lambda q, s: w, rep=rep_to)
        p = view.p[i - 1]
        projected = moved.apply(p)
        image = dirac_op(projected)
        relations += [
            (f"{tag}.constituent{i}-P", f"constituent{i}/P", dirac_residual(projected, sr.mass)),
            (f"{tag}.constituents3.P{i}", "constituents/3",
             image.apply(p) - projected.scale(sr.mass)),
            (f"{tag}.identities.P{i}", "identities", image.apply(view.complements[i - 1])),
        ]
    return residual_report(backend, relations)


# -- Weyl ----------------------------------------------------------------------


def sigma_momentum_op(f: PlaneWaveField, sign: int) -> PlaneWaveField:
    """(p^0 + sign * sigma.p) acting on a 2-component field.

    Its symbol on a term with eigenvalues q = s p is the 2x2 matrix
    [[q0 + sign q3, sign (q1 - i q2)], [sign (q1 + i q2), q0 - sign q3]].
    """
    if f.ncomp != 2:
        raise ValueError("sigma.p acts on 2-component fields")

    def symbol(p, s):
        scalar = SCALAR_TYPE[p.backend]
        q0, q1, q2, q3 = (c * s for c in p.p)
        q1, q2, q3 = sign * q1, sign * q2, sign * q3
        return Matrix(2, p.backend, (scalar(q0 + q3), scalar(q1, -q2),
                                     scalar(q1, q2), scalar(q0 - q3)))

    return apply_symbol(f, symbol)


def _to_spinor_basis(f: PlaneWaveField) -> PlaneWaveField:
    """Rotate a bispinor field into the spinor basis with the exact W.

    The transport is W-scaled (norm 2 or 4), not unitary; residual
    magnitudes pick up that bounded factor, exact zeros are unaffected.
    """
    if f.rep.name == "spinor":
        return f
    sp = build_rep("spinor")
    w = f.rep.on(f.backend).intertwiner(sp).w
    return apply_symbol(f, lambda p, s: w, rep=sp)


def weyl_relations(f: PlaneWaveField) -> list:
    """The massless chiral equations as ``(label, equation, value)`` relations.

    The two-component forms (p0 + sigma.p) eta = 0, (p0 - sigma.p) xi = 0
    evaluated on the chiral halves (in the spinor basis), plus the
    bispinor forms gamma.p Q-+ f = 0.
    """
    view = f.rep.on(f.backend)
    fs = _to_spinor_basis(f)
    return [
        ("eta", "Weyl1", sigma_momentum_op(lower_half(fs), +1)),
        ("xi", "Weyl2", sigma_momentum_op(upper_half(fs), -1)),
        ("bispinor.Qminus", "DiracNeutrino", dirac_op(f.apply(view.q_minus))),
        ("bispinor.Qplus", "DiracNeutrino", dirac_op(f.apply(view.q_plus))),
    ]


def weyl_residuals(f: PlaneWaveField, *, check_mass: bool = True) -> ResidualReport:
    """``weyl_relations`` measured on f's backend.

    ``check_mass=False`` lets a massive field through as a negative
    control; the residuals are then expected to be large.
    """
    if check_mass:
        for t in f.terms:
            if t.momentum.mass:
                raise WeylRequiresMassless("field carries a massive term")
    return residual_report(f.backend, weyl_relations(f))


# -- Majorana --------------------------------------------------------------------


def majorana_build(psi: PlaneWaveField) -> PlaneWaveField:
    """Self-conjugate combination Psi + C Psi."""
    return psi + charge_conjugate(psi)


def majorana_relations(f: PlaneWaveField, mass) -> list:
    """The self-conjugacy condition and the Majorana system as relations.

    Verifies f = C f, then in the spinor basis the coupled equations
    (p0 + sigma.p) eta = -i m sigma2 eta*, (p0 - sigma.p) xi = +i m
    sigma2 xi*, and the component relations xi = -i sigma2 eta*,
    eta = +i sigma2 xi*.  Raises "not-majorana" when self-conjugacy
    fails (exactly on the exact backend, beyond the constant bound 1e-10
    on the float one); the component checks require the spinor basis.
    """
    backend = f.backend
    defect = f - charge_conjugate(f)
    if not (defect.is_zero if backend == EXACT else defect.max_abs() <= _TOL):
        raise NotMajorana(
            f"charge-conjugation residual {defect.max_abs():.3e} ({backend}, tol {_TOL})"
        )
    if f.rep.name != "spinor":
        raise SplitRequiresSpinorRep(
            "Majorana component checks are pinned to the spinor basis"
        )
    scalar = SCALAR_TYPE[backend]
    i_m, i_one, zero = scalar(0, mass), scalar(0, 1), scalar(0)
    s2 = Matrix(2, backend, (zero, scalar(0, -1), i_one, zero))  # sigma2

    eta = lower_half(f)
    xi = upper_half(f)
    s2_eta = conjugate(eta).apply(s2)  # sigma2 eta*
    s2_xi = conjugate(xi).apply(s2)  # sigma2 xi*
    return [
        ("selfconj", "MAJORANA", defect),
        ("eq1", "Majorana1", sigma_momentum_op(eta, +1) + s2_eta.scale(i_m)),
        ("eq2", "Majorana2", sigma_momentum_op(xi, -1) - s2_xi.scale(i_m)),
        ("xi-consistency", "MAJORANA", xi + s2_eta.scale(i_one)),
        ("eta-consistency", "MAJORANA", eta - s2_xi.scale(i_one)),
    ]


def majorana_residuals(f: PlaneWaveField, mass) -> ResidualReport:
    """``majorana_relations`` measured on f's backend."""
    return residual_report(f.backend, majorana_relations(f, mass))
