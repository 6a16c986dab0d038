"""diracsplit: verification of the two-system decomposition of free
massive Dirac plane waves, with Weyl and Majorana subsolution checks.

Structural identities run over exact Gaussian-rational arithmetic;
Lorentz-transformation checks run over floats.  The ``verify`` console
command drives the full suite.  The package root exports the library
alone; the verifier's machinery (``run``, ``RunConfig``,
``DEFAULT_SEED``) is imported from ``diracsplit.suites``.

``import diracsplit`` imports none of the modules: ``_SOURCES`` names
the module that defines each public name, and the first read of a name
imports that module (PEP 562 module ``__getattr__``) and binds the name
here, so later reads are plain attribute reads.  A caller that builds
bases and projectors alone never compiles ``fields``, ``lorentz`` or
``subsolutions``.
"""

import importlib

__version__ = "0.1.0"

#: each public name -> the module of the package that defines it
_SOURCES = {
    "BackendMismatch": "errors",
    "ChargeConjugationNeedsBispinor": "errors",
    "DiracSplitError": "errors",
    "IntertwinerInvalid": "errors",
    "MasslessNeedsWeyl": "errors",
    "NormOverflow": "errors",
    "NotASolution": "errors",
    "NotMajorana": "errors",
    "OffShell": "errors",
    "ProjectorAlgebraViolation": "errors",
    "SpecialFrameRequiresMass": "errors",
    "SplitRequiresMass": "errors",
    "SplitRequiresSpinorRep": "errors",
    "WeylRequiresMassless": "errors",
    "FourMomentum": "fields",
    "PlaneWaveField": "fields",
    "PlaneWaveTerm": "fields",
    "dirac_matrix": "fields",
    "dirac_residual": "fields",
    "field_of": "fields",
    "u_spinor": "fields",
    "upper_half": "fields",
    "weyl_spinor": "fields",
    "GammaRep": "gamma",
    "build_rep": "gamma",
    "LorentzParams": "lorentz",
    "special_frame": "lorentz",
    "spinor_transform": "lorentz",
    "vector_transform": "lorentz",
    "Matrix": "matrices",
    "build_projectors": "projectors",
    "CheckRecord": "reports",
    "Report": "reports",
    "ResidualEntry": "reports",
    "ResidualReport": "reports",
    "format_human": "reports",
    "EXACT": "scalars",
    "FLOAT": "scalars",
    "GaussianRational": "scalars",
    "SplitResult": "subsolutions",
    "majorana_residuals": "subsolutions",
    "recombination_residuals": "subsolutions",
    "split": "subsolutions",
    "weyl_residuals": "subsolutions",
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list:
    return sorted(globals().keys() | _SOURCES.keys())
