"""The chiral projectors Q+- and the rank-3 family P1..P4 with the swap V.

The family of a representation is built, and its algebra verified
exactly, once per representation by the representation's view
(``rep.on(backend)``, see ``gamma.RepView``), whose module docstring
lists the formulas; the view keeps the residuals of that verification.
The projectors suite states and keeps the family's other relations
(``suites._projector_records``).
"""

from __future__ import annotations

from .gamma import GammaRep, RepView
from .scalars import EXACT


def build_projectors(rep: GammaRep) -> RepView:
    """The exact view of ``rep``, with its projector family built and validated.

    The family is validated once, on first use; raises
    ProjectorAlgebraViolation if it fails its algebra.  The suites'
    structural relations stay unmeasured until a suite runs.
    """
    view = rep.on(EXACT)
    view.projectors  # builds and validates the family on first read
    return view
