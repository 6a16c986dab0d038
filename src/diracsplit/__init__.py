"""diracsplit: verification of the two-system decomposition of free
massive Dirac plane waves, with Weyl and Majorana subsolution checks.

Structural identities run over exact Gaussian-rational arithmetic;
Lorentz-transformation checks run over floats.  The ``verify`` console
command drives the full suite.  The package root exports the library
alone; the verifier's machinery (``run``, ``RunConfig``,
``DEFAULT_SEED``) is imported from ``diracsplit.suites``, so
``import diracsplit`` does not compile it.
"""

from .errors import (
    BackendMismatch,
    ChargeConjugationNeedsBispinor,
    DiracSplitError,
    IntertwinerInvalid,
    NotASolution,
    NotMajorana,
    OffShell,
    ProjectorAlgebraViolation,
    SpecialFrameRequiresMass,
    SplitRequiresMass,
    SplitRequiresSpinorRep,
    WeylRequiresMassless,
)
from .fields import (
    FourMomentum,
    PlaneWaveField,
    PlaneWaveTerm,
    dirac_matrix,
    dirac_residual,
    field_of,
    u_spinor,
    upper_half,
    weyl_spinor,
)
from .gamma import GammaRep, build_rep
from .lorentz import (
    LorentzParams,
    VectorTransform,
    special_frame,
    spinor_transform,
    vector_transform,
)
from .matrices import Matrix
from .projectors import build_projectors
from .reports import CheckRecord, Report, ResidualEntry, ResidualReport, format_human
from .scalars import EXACT, FLOAT, GaussianRational
from .subsolutions import (
    SplitResult,
    majorana_residuals,
    recombination_residuals,
    split,
    weyl_residuals,
)

__version__ = "0.1.0"

__all__ = [
    "BackendMismatch",
    "ChargeConjugationNeedsBispinor",
    "CheckRecord",
    "DiracSplitError",
    "EXACT",
    "FLOAT",
    "FourMomentum",
    "GammaRep",
    "GaussianRational",
    "IntertwinerInvalid",
    "LorentzParams",
    "Matrix",
    "NotASolution",
    "NotMajorana",
    "OffShell",
    "PlaneWaveField",
    "PlaneWaveTerm",
    "ProjectorAlgebraViolation",
    "Report",
    "ResidualEntry",
    "ResidualReport",
    "SpecialFrameRequiresMass",
    "SplitRequiresMass",
    "SplitRequiresSpinorRep",
    "SplitResult",
    "VectorTransform",
    "WeylRequiresMassless",
    "build_projectors",
    "build_rep",
    "dirac_matrix",
    "dirac_residual",
    "field_of",
    "format_human",
    "majorana_residuals",
    "recombination_residuals",
    "special_frame",
    "spinor_transform",
    "split",
    "u_spinor",
    "upper_half",
    "vector_transform",
    "weyl_residuals",
    "weyl_spinor",
]
