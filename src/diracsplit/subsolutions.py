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
independent.  Residual functions below evaluate every one of these
systems; for exact inputs on an exact mass shell all residuals vanish
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
    _termwise,
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
from .reports import ResidualReport, residual_entry
from .scalars import SCALAR_TYPE

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

    scalar = SCALAR_TYPE[psi.backend]

    def xi1(t):
        q0, q1, q2, q3 = _term_q(t)
        eta1 = t.amplitude[2]
        return ((q0 + q3) * eta1 / mass, scalar(q1, q2) * eta1 / mass)

    def xi2(t):
        q0, q1, q2, q3 = _term_q(t)
        eta2 = t.amplitude[3]
        return (scalar(q1, -q2) * eta2 / mass, (q0 - q3) * eta2 / mass)

    # each constituent keeps psi's keys, so it is built term by term
    psi1 = _termwise(psi, lambda t: xi1(t) + t.amplitude[2:])
    psi2 = _termwise(psi, lambda t: xi2(t) + t.amplitude[2:])
    result = SplitResult(psi=psi, psi1=psi1, psi2=psi2, mass=mass)
    if require_solution:
        rec = recombination_residuals(result)
        if not rec.all_within(_TOL):
            raise NotASolution(
                f"recombination residual {rec.max_residual():.3e} ({psi.backend}, tol {_TOL})"
            )
    return result


# -- residual evaluation -------------------------------------------------------


def recombination_residuals(sr: SplitResult) -> ResidualReport:
    """Residuals of the defining recombinations.

    xi(1)^a + xi(2)^a - xi^a componentwise, and the projector
    recombination P1 Psi_(1) + P2 Psi_(2) - Psi.
    """
    backend = sr.psi.backend
    diff = sr.xi1_pair + sr.xi2_pair - upper_half(sr.psi)
    comp0 = [t.amplitude[0] for t in diff.terms]
    comp1 = [t.amplitude[1] for t in diff.terms]

    proj1, proj2 = sr.projected
    recomb = proj1 + proj2 - sr.psi
    entries = (
        residual_entry("recombine.xi1", "def3", backend, comp0),
        residual_entry("recombine.xi2", "def4", backend, comp1),
        residual_entry("recombine.psi", "psi", backend, recomb),
    )
    return ResidualReport(entries)


def identity_residuals(sr: SplitResult) -> ResidualReport:
    """The two scalar identities and their basis-independent form.

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

    ps = sr.psi.rep.on(backend).p
    ident = Matrix.identity(4, backend)
    entries = [
        residual_entry("identity.id1", "id1", backend, id1),
        residual_entry("identity.id2", "id2", backend, id2),
    ]
    for i, (p, image) in enumerate(zip(ps, sr.dirac_projected), start=1):
        resid = image.apply(ident - p)
        entries.append(residual_entry(f"identity.repfree.P{i}", "identities", backend, resid))
    return ResidualReport(tuple(entries))


def constituent_residuals(sr: SplitResult) -> ResidualReport:
    """Residuals of the constituent systems in all four formulations.

    Three-line systems, four-line systems, the projector forms
    (gamma.p - m) P_k Psi_(k), and the projected form
    P_i gamma.p P_i Psi_(i) - m P_i Psi_(i).
    """
    backend = sr.psi.backend
    scalar = SCALAR_TYPE[backend]
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

    entries = [
        residual_entry("constituent1.line1", "constituent1", backend, lines1[1]),
        residual_entry("constituent1.line2", "constituent1", backend, lines1[2]),
        residual_entry("constituent1.line3", "constituent1", backend, lines1[3]),
        residual_entry("constituent2.line1", "constituent2", backend, lines2[1]),
        residual_entry("constituent2.line2", "constituent2", backend, lines2[2]),
        residual_entry("constituent2.line4", "constituent2", backend, lines2[4]),
        residual_entry("constituent1-4.line4", "constituent1/4", backend, lines1[4]),
        residual_entry("constituent2-4.line3", "constituent2/4", backend, lines2[3]),
    ]

    ps = sr.psi.rep.on(backend).p
    for i, (p, projected, image) in enumerate(zip(ps, sr.projected, sr.dirac_projected),
                                              start=1):
        entries.append(
            residual_entry(f"constituent{i}-P.dirac", f"constituent{i}/P", backend,
                           dirac_residual(projected, m))
        )
        # P_i gamma.p P_i Psi_(i) = m P_i Psi_(i)
        resid = image.apply(p) - projected.scale(m)
        entries.append(residual_entry(f"constituents3.P{i}", "constituents/3", backend, resid))
    return ResidualReport(tuple(entries))


def transported_constituent_residuals(sr: SplitResult, rep_to: GammaRep) -> ResidualReport:
    """Basis-independent constituent checks in another representation.

    Fields are transported with the pinned integer intertwiner W (an
    overall scale, so exact zeros stay exact) and the projector forms
    are re-evaluated against rep_to's own gamma matrices and projectors.
    """
    backend = sr.psi.backend
    w = sr.psi.rep.on(backend).intertwiner(rep_to).w
    ps = rep_to.on(backend).p
    ident = Matrix.identity(4, backend)
    entries = []
    for i, psi_i in ((1, sr.psi1), (2, sr.psi2)):
        moved = apply_symbol(psi_i, lambda q, s: w, rep=rep_to)
        p = ps[i - 1]
        projected = moved.apply(p)
        image = dirac_op(projected)
        resid3 = image.apply(p) - projected.scale(sr.mass)
        resid_id = image.apply(ident - p)
        tag = f"transport.{rep_to.name}"
        entries += [
            residual_entry(f"{tag}.constituent{i}-P", f"constituent{i}/P", backend,
                           dirac_residual(projected, sr.mass)),
            residual_entry(f"{tag}.constituents3.P{i}", "constituents/3", backend, resid3),
            residual_entry(f"{tag}.identities.P{i}", "identities", backend, resid_id),
        ]
    return ResidualReport(tuple(entries))


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


def weyl_residuals(f: PlaneWaveField, *, check_mass: bool = True) -> ResidualReport:
    """Residuals of the massless chiral equations.

    The two-component forms (p0 + sigma.p) eta = 0, (p0 - sigma.p) xi = 0
    evaluated on the chiral halves (in the spinor basis), plus the
    bispinor forms gamma.p Q-+ f = 0.

    ``check_mass=False`` lets a massive field through as a negative
    control; the residuals are then expected to be large.
    """
    if check_mass:
        for t in f.terms:
            if t.momentum.mass:
                raise WeylRequiresMassless("field carries a massive term")
    backend = f.backend
    view = f.rep.on(backend)

    fs = _to_spinor_basis(f)
    eta = lower_half(fs)
    xi = upper_half(fs)
    entries = (
        residual_entry("eta", "Weyl1", backend, sigma_momentum_op(eta, +1)),
        residual_entry("xi", "Weyl2", backend, sigma_momentum_op(xi, -1)),
        residual_entry("bispinor.Qminus", "DiracNeutrino", backend,
                       dirac_op(f.apply(view.q_minus))),
        residual_entry("bispinor.Qplus", "DiracNeutrino", backend,
                       dirac_op(f.apply(view.q_plus))),
    )
    return ResidualReport(entries)


# -- Majorana --------------------------------------------------------------------


def majorana_build(psi: PlaneWaveField) -> PlaneWaveField:
    """Self-conjugate combination Psi + C Psi."""
    return psi + charge_conjugate(psi)


def majorana_residuals(f: PlaneWaveField, mass) -> ResidualReport:
    """Residuals of the self-conjugacy condition and the Majorana system.

    Verifies f = C f, then in the spinor basis the coupled equations
    (p0 + sigma.p) eta = -i m sigma2 eta*, (p0 - sigma.p) xi = +i m
    sigma2 xi*, and the component relations xi = -i sigma2 eta*,
    eta = +i sigma2 xi*.  Raises "not-majorana" when self-conjugacy
    fails (exactly on the exact backend, beyond the constant bound 1e-10
    on the float one); the component checks require the spinor basis.
    """
    backend = f.backend
    defect = f - charge_conjugate(f)
    selfconj = residual_entry("selfconj", "MAJORANA", backend, defect)
    if not selfconj.within(_TOL):
        raise NotMajorana(
            f"charge-conjugation residual {selfconj.residual:.3e} ({backend}, tol {_TOL})"
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
    r1 = sigma_momentum_op(eta, +1) + s2_eta.scale(i_m)
    r2 = sigma_momentum_op(xi, -1) - s2_xi.scale(i_m)
    rxi = xi + s2_eta.scale(i_one)
    reta = eta - s2_xi.scale(i_one)
    entries = (
        selfconj,
        residual_entry("eq1", "Majorana1", backend, r1),
        residual_entry("eq2", "Majorana2", backend, r2),
        residual_entry("xi-consistency", "MAJORANA", backend, rxi),
        residual_entry("eta-consistency", "MAJORANA", backend, reta),
    )
    return ResidualReport(entries)
