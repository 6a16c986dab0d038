"""Chiral projectors and the rank-3 projector family.

Q+- = (1 +- gamma5)/2 select the two-component chiral halves of a
bispinor.  The four rank-3 projectors

    P1 = (3 - gamma5 - gamma0 gamma3 + i gamma1 gamma2) / 4
    P2 = (3 - gamma5 + gamma0 gamma3 - i gamma1 gamma2) / 4
    P3 = (3 + gamma5 + gamma0 gamma3 + i gamma1 gamma2) / 4
    P4 = (3 + gamma5 - gamma0 gamma3 - i gamma1 gamma2) / 4

commute pairwise, sum to 3*Id, and each leaves a three-dimensional
subspace invariant; in the spinor basis they are diagonal with a single
zero.  The unitary V = i gamma2 gamma3 swaps P1 and P2 while commuting
with gamma0 and gamma1.  The family is built and its algebra verified
exactly once per representation, by the representation's view
(``rep.on(backend)``, see ``gamma.RepView``); this module reads it from
there.  The residuals of every relation of the family, the V-swap
relations and those of that validation included, come from
``gamma.projector_residuals``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gamma import GammaRep
from .matrices import Matrix
from .scalars import EXACT


@dataclass(frozen=True)
class ProjectorSet:
    """The projector family for one gamma representation (exact entries)."""

    rep: GammaRep
    q_plus: Matrix
    q_minus: Matrix
    p: tuple  # (P1, P2, P3, P4)
    v: Matrix

    def projector(self, k: int) -> Matrix:
        """P_k for k in 1..4."""
        return self.p[k - 1]


def build_projectors(rep: GammaRep) -> ProjectorSet:
    """The exactly validated projector family of ``rep``.

    Read from the representation's exact view, which builds and
    validates the family once, on first use; raises
    ProjectorAlgebraViolation if the family fails its algebra.
    """
    view = rep.on(EXACT)
    return ProjectorSet(rep=rep, q_plus=view.q_plus, q_minus=view.q_minus,
                        p=view.p, v=view.v)


def corson_complement(projectors: ProjectorSet, k: int) -> Matrix:
    """The rank-1 complement 1 - P_k."""
    return Matrix.identity(4) - projectors.projector(k)
