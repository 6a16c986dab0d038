"""Exception types with stable machine-readable codes.

Every failure mode that callers are expected to branch on carries a
``code`` string; the CLI prints it and scripts can match on it without
parsing prose.
"""

from __future__ import annotations


class DiracSplitError(Exception):
    """Base class for all verification-library errors."""

    code = "error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)


class BackendMismatch(DiracSplitError):
    """Exact and float operands were mixed without explicit promotion."""

    code = "backend-mismatch"


class IntertwinerInvalid(DiracSplitError):
    """The charge-conjugation matrix carried by a pinned intertwiner failed its validation."""

    code = "intertwiner-invalid"


class ProjectorAlgebraViolation(DiracSplitError):
    """A projector family failed idempotence, commutation or the sum rule."""

    code = "projector-algebra-violation"


class ChargeConjugationNeedsBispinor(DiracSplitError):
    """Charge conjugation was applied to a two-component field."""

    code = "charge-conjugation-needs-bispinor"


class MasslessNeedsWeyl(DiracSplitError):
    """A massive-solution constructor was given a massless momentum."""

    code = "massless-needs-weyl"


class NormOverflow(DiracSplitError):
    """A float amplitude's squared norm is beyond float range, so it cannot be normalized."""

    code = "norm-overflow"


class OffShell(DiracSplitError):
    """A momentum does not satisfy the mass-shell constraint."""

    code = "off-shell"


class WeylRequiresMassless(DiracSplitError):
    """A Weyl constructor or residual was given a massive momentum."""

    code = "weyl-requires-massless"


class SplitRequiresMass(DiracSplitError):
    """The two-system decomposition divides by the mass."""

    code = "split-requires-mass"


class SplitRequiresSpinorRep(DiracSplitError):
    """The split, which acts on bispinors in any basis, was given a two-component field."""

    code = "split-requires-spinor-rep"


class NotASolution(DiracSplitError):
    """The input field does not solve the free Dirac equation."""

    code = "not-a-solution"


class NotMajorana(DiracSplitError):
    """The field is not invariant under charge conjugation."""

    code = "not-majorana"


class SpecialFrameRequiresMass(DiracSplitError):
    """No rest-like frame exists for a lightlike momentum."""

    code = "special-frame-requires-mass"
