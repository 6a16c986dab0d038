"""Plane-wave fields and the operators acting on them.

A field is a finite sum of terms ``amplitude * exp(-i s p.x)`` where the
amplitude is a 2- or 4-component spinor, p is an on- or off-shell four-
momentum and s = +-1 is the frequency sign.  Every equation verified by
this package is linear with constant coefficients, so it holds for a
field iff it holds term by term; the term algebra therefore checks the
equations with no discretization error.

The four-momentum operator acts diagonally: applying the contravariant
component to a term multiplies the amplitude by s * p^mu.  Complex
conjugation flips the frequency sign, which is what couples a field to
its conjugate in the charge-conjugation and Majorana relations.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import kernels
from .errors import (
    BackendMismatch,
    ChargeConjugationNeedsBispinor,
    MasslessNeedsWeyl,
    OffShell,
    WeylRequiresMassless,
)
from .gamma import METRIC_SIGNS, GammaRep, build_rep
from .matrices import Matrix
from .scalars import EXACT, FLOAT, GaussianRational, coerce_real, coerce_scalar, scalar_abs, scalar_is_zero

_SHELL_TOL = 1e-12


@dataclass(frozen=True)
class FourMomentum:
    """Contravariant components (p0, p1, p2, p3) plus the mass parameter."""

    p: tuple
    mass: object
    backend: str

    @classmethod
    def exact(cls, components: Sequence, mass) -> "FourMomentum":
        comps = tuple(coerce_real(c, EXACT) for c in components)
        return cls(comps, coerce_real(mass, EXACT), EXACT)

    @classmethod
    def floats(cls, components: Sequence, mass) -> "FourMomentum":
        comps = tuple(coerce_real(c, FLOAT) for c in components)
        return cls(comps, coerce_real(mass, FLOAT), FLOAT)

    @classmethod
    def on_shell(cls, mass: float, spatial: Sequence[float]) -> "FourMomentum":
        """Float momentum with p0 computed from the shell condition."""
        p1, p2, p3 = (float(c) for c in spatial)
        m = float(mass)
        p0 = (m * m + p1 * p1 + p2 * p2 + p3 * p3) ** 0.5
        return cls((p0, p1, p2, p3), m, FLOAT)

    def minkowski_square(self):
        p0, p1, p2, p3 = self.p
        return p0 * p0 - p1 * p1 - p2 * p2 - p3 * p3

    def shell_defect(self):
        return self.minkowski_square() - self.mass * self.mass

    def is_on_shell(self, tol: float = _SHELL_TOL) -> bool:
        """p0 > 0 and p^2 = m^2: exactly, or for floats within tol relative to p0^2."""
        p0 = self.p[0]
        if p0 <= 0:
            return False
        if self.backend == EXACT:
            return self.shell_defect() == 0
        return abs(self.shell_defect()) <= tol * max(1.0, p0 * p0)

    def to_float(self) -> "FourMomentum":
        if self.backend == FLOAT:
            return self
        return FourMomentum(
            tuple(float(c) for c in self.p), float(self.mass), FLOAT
        )

    def key(self):
        return self.p + (self.mass,)


@dataclass(frozen=True)
class PlaneWaveTerm:
    """One plane wave: amplitude, four-momentum, frequency sign."""

    amplitude: tuple
    momentum: FourMomentum
    freq_sign: int

    def __post_init__(self):
        if self.freq_sign not in (1, -1):
            raise ValueError("freq_sign must be +1 or -1")
        if len(self.amplitude) not in (2, 4):
            raise ValueError("amplitude must have 2 or 4 components")
        coerced = tuple(
            coerce_scalar(a, self.momentum.backend) for a in self.amplitude
        )
        object.__setattr__(self, "amplitude", coerced)

    @property
    def ncomp(self) -> int:
        return len(self.amplitude)

    @property
    def backend(self) -> str:
        return self.momentum.backend

    def key(self):
        return (self.freq_sign,) + self.momentum.key()


class PlaneWaveField:
    """Canonicalized finite sum of plane-wave terms.

    Terms with identical (momentum, mass, frequency sign) are merged and
    exact zero amplitudes dropped, so structural identities reduce to the
    empty field.  Term order is sorted by key, making equality and
    serialization deterministic.
    """

    __slots__ = ("terms", "rep", "ncomp", "backend")

    def __init__(self, terms: Sequence[PlaneWaveTerm], rep: Optional[GammaRep] = None,
                 ncomp: int = 4, backend: str = EXACT):
        merged: dict = {}
        for t in terms:
            if not isinstance(t, PlaneWaveTerm):
                raise TypeError("terms must be PlaneWaveTerm")
            k = t.key()
            if k in merged:
                prev = merged[k]
                if prev.ncomp != t.ncomp:
                    raise ValueError("mixed component counts in one field")
                amp = tuple(a + b for a, b in zip(prev.amplitude, t.amplitude))
                merged[k] = PlaneWaveTerm(amp, t.momentum, t.freq_sign)
            else:
                merged[k] = t
        kept = [
            t for t in merged.values()
            if not all(scalar_is_zero(a) for a in t.amplitude)
        ]
        kept.sort(key=lambda t: t.key())

        if kept:
            ncomp = kept[0].ncomp
            backend = kept[0].backend
            for t in kept:
                if t.ncomp != ncomp:
                    raise ValueError("mixed component counts in one field")
                if t.backend != backend:
                    raise BackendMismatch("mixed backends in one field")
        object.__setattr__(self, "terms", tuple(kept))
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "ncomp", ncomp)
        object.__setattr__(self, "backend", backend)

    def __setattr__(self, name, value):
        raise AttributeError("PlaneWaveField is immutable")

    # -- linear structure ----------------------------------------------

    def _like(self, terms) -> "PlaneWaveField":
        return PlaneWaveField(terms, rep=self.rep, ncomp=self.ncomp, backend=self.backend)

    def __add__(self, other: "PlaneWaveField") -> "PlaneWaveField":
        if not isinstance(other, PlaneWaveField):
            return NotImplemented
        if self.terms and other.terms and self.backend != other.backend:
            raise BackendMismatch("adding fields from different backends")
        return self._like(self.terms + other.terms)

    def __sub__(self, other: "PlaneWaveField") -> "PlaneWaveField":
        return self.__add__(-other)

    def __neg__(self) -> "PlaneWaveField":
        return self.scale(-1)

    def scale(self, c) -> "PlaneWaveField":
        out = []
        for t in self.terms:
            cc = coerce_scalar(c, t.backend)
            amp = tuple(cc * a for a in t.amplitude)
            out.append(PlaneWaveTerm(amp, t.momentum, t.freq_sign))
        return self._like(out)

    def apply(self, m: Matrix) -> "PlaneWaveField":
        """Apply a constant matrix to every amplitude."""
        out = []
        for t in self.terms:
            if m.n != t.ncomp:
                raise ValueError(f"matrix size {m.n} vs {t.ncomp}-component field")
            if m.backend != t.backend:
                raise BackendMismatch("matrix backend differs from field backend")
            out.append(PlaneWaveTerm(m.apply(t.amplitude), t.momentum, t.freq_sign))
        return self._like(out)

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_abs(self) -> float:
        return kernels.max_abs(scalar_abs(a) for t in self.terms for a in t.amplitude)

    def __eq__(self, other):
        if not isinstance(other, PlaneWaveField):
            return NotImplemented
        return (
            self.ncomp == other.ncomp
            and self.backend == other.backend
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.ncomp, self.backend, self.terms))

    def __repr__(self):
        return f"PlaneWaveField({len(self.terms)} terms, n={self.ncomp}, {self.backend})"

    def to_float(self) -> "PlaneWaveField":
        if self.backend == FLOAT:
            return self
        out = []
        for t in self.terms:
            amp = tuple(a.to_complex() for a in t.amplitude)
            out.append(PlaneWaveTerm(amp, t.momentum.to_float(), t.freq_sign))
        return PlaneWaveField(out, rep=self.rep, ncomp=self.ncomp, backend=FLOAT)


def field_of(term: PlaneWaveTerm, rep: Optional[GammaRep] = None) -> PlaneWaveField:
    return PlaneWaveField((term,), rep=rep, ncomp=term.ncomp, backend=term.backend)


# -- operators ----------------------------------------------------------------


def momentum_op(f: PlaneWaveField, mu: int) -> PlaneWaveField:
    """Contravariant momentum-operator component: amplitude * (s p^mu)."""
    out = []
    for t in f.terms:
        c = t.momentum.p[mu] * t.freq_sign
        amp = tuple(c * a for a in t.amplitude)
        out.append(PlaneWaveTerm(amp, t.momentum, t.freq_sign))
    return f._like(out)


def conjugate(f: PlaneWaveField) -> PlaneWaveField:
    """Complex conjugation: conjugated amplitudes, flipped frequency sign."""
    out = []
    for t in f.terms:
        amp = tuple(a.conjugate() for a in t.amplitude)
        out.append(PlaneWaveTerm(amp, t.momentum, -t.freq_sign))
    return f._like(out)


def charge_conjugate(f: PlaneWaveField) -> PlaneWaveField:
    """C f = M conjugate(f) with M the representation's conjugation matrix.

    M is i gamma2 in the spinor and standard bases and the transported
    equivalent elsewhere; see ``gamma.conjugation_matrix``.
    """
    if f.ncomp != 4:
        raise ChargeConjugationNeedsBispinor("charge conjugation acts on bispinors")
    if f.rep is None:
        raise ValueError("field carries no representation")
    return conjugate(f).apply(f.rep.on(f.backend).conjugation)


def dirac_matrix(rep: GammaRep, momentum: FourMomentum, freq_sign: int) -> Matrix:
    """gamma^mu p_mu evaluated on one term's momentum eigenvalues."""
    gammas = rep.on(momentum.backend).gammas
    acc = Matrix.zero(4, momentum.backend)
    for mu in range(4):
        acc = acc + gammas[mu].scale(METRIC_SIGNS[mu] * momentum.p[mu] * freq_sign)
    return acc


def dirac_op(f: PlaneWaveField) -> PlaneWaveField:
    """gamma^mu p_mu acting term-wise on a bispinor field."""
    if f.ncomp != 4:
        raise ValueError("Dirac operator acts on 4-component fields")
    if f.rep is None:
        raise ValueError("field carries no representation")
    out = []
    for t in f.terms:
        m = dirac_matrix(f.rep, t.momentum, t.freq_sign)
        out.append(PlaneWaveTerm(m.apply(t.amplitude), t.momentum, t.freq_sign))
    return f._like(out)


def dirac_residual(f: PlaneWaveField, mass) -> PlaneWaveField:
    """(gamma^mu p_mu - m) f; the zero field iff f solves the equation."""
    return dirac_op(f) - f.scale(mass)


def upper_half(f: PlaneWaveField) -> PlaneWaveField:
    """Components (0,1) of a bispinor field (the xi pair in the spinor basis)."""
    return _half(f, 0)


def lower_half(f: PlaneWaveField) -> PlaneWaveField:
    """Components (2,3) of a bispinor field (the eta pair in the spinor basis)."""
    return _half(f, 2)


def _half(f: PlaneWaveField, start: int) -> PlaneWaveField:
    if f.ncomp != 4:
        raise ValueError("component split needs a 4-component field")
    out = [
        PlaneWaveTerm(t.amplitude[start : start + 2], t.momentum, t.freq_sign)
        for t in f.terms
    ]
    return PlaneWaveField(out, rep=f.rep, ncomp=2, backend=f.backend)


def combine_halves(upper: PlaneWaveField, lower: PlaneWaveField,
                   rep: Optional[GammaRep]) -> PlaneWaveField:
    """Rebuild a bispinor field from 2-component halves (zero-padding absent terms)."""
    by_key: dict = {}
    for t in upper.terms:
        by_key.setdefault(t.key(), [None, None])[0] = t
    for t in lower.terms:
        by_key.setdefault(t.key(), [None, None])[1] = t
    out = []
    for _, (tu, tl) in sorted(by_key.items()):
        some = tu or tl
        backend = some.backend
        zero = GaussianRational(0) if backend == EXACT else 0j
        ua = tu.amplitude if tu else (zero, zero)
        la = tl.amplitude if tl else (zero, zero)
        out.append(PlaneWaveTerm(ua + la, some.momentum, some.freq_sign))
    backend = upper.backend if upper.terms else lower.backend
    return PlaneWaveField(out, rep=rep, ncomp=4, backend=backend)


# -- solution constructors -----------------------------------------------------

# rest-frame eigenvectors of gamma0 with eigenvalue +1, one pair per basis
_REST_SEEDS = {
    "spinor": ((1, 0, 1, 0), (0, 1, 0, 1)),
    "standard": ((1, 0, 0, 0), (0, 1, 0, 0)),
    "majorana": ((1, 0, 0, GaussianRational(0, 1)), (0, 1, GaussianRational(0, -1), 0)),
}


def u_spinor(p: FourMomentum, rep: GammaRep, spin_label: int) -> PlaneWaveTerm:
    """Positive-frequency massive solution amplitude.

    Built as (gamma^mu p_mu + m) applied to a rest-frame seed, which
    solves the equation on shell because (gamma.p - m)(gamma.p + m) =
    p.p - m^2.  The float backend normalizes to udag u = 2 p0; the exact
    backend keeps the rational scale (gamma.p + m) seed / (2m), since
    the normalization constant is irrational off the rest frame.  The
    two spin labels give u(1)dag u(2) = 0.
    """
    if spin_label not in (1, 2):
        raise ValueError("spin_label must be 1 or 2")
    if scalar_is_zero(p.mass):
        raise MasslessNeedsWeyl("massive constructor needs m > 0")
    if not p.is_on_shell():
        raise OffShell(f"momentum {p.p} with mass {p.mass} is off the shell")
    seed = _REST_SEEDS[rep.name][spin_label - 1]
    if p.backend == FLOAT:
        # seeds are written exactly; promote before the strict coercion
        seed = tuple(
            s.to_complex() if isinstance(s, GaussianRational) else complex(s)
            for s in seed
        )
    seed = tuple(coerce_scalar(s, p.backend) for s in seed)
    op = dirac_matrix(rep, p, 1)
    m_ident = Matrix.identity(4, p.backend).scale(p.mass)
    raw = (op + m_ident).apply(seed)
    if p.backend == EXACT:
        scale = GaussianRational(Fraction(1, 2) / p.mass)
        return PlaneWaveTerm(tuple(scale * a for a in raw), p, 1)
    norm2 = sum(abs(a) ** 2 for a in raw)
    scale = (2.0 * p.p[0] / norm2) ** 0.5
    return PlaneWaveTerm(tuple(scale * a for a in raw), p, 1)


def _weyl_pair(p: FourMomentum, chirality: str) -> tuple:
    """Two-component massless solution in the spinor basis (unnormalized)."""
    p0, p1, p2, p3 = p.p
    if p.backend == EXACT:
        i = GaussianRational(0, 1)
        pp = GaussianRational(p1) + i * GaussianRational(p2)  # p1 + i p2
        pm = pp.conjugate()
        z = GaussianRational
    else:
        pp = complex(p1, p2)
        pm = pp.conjugate()
        z = complex
    if chirality == "left":
        # kernel of (p0 + sigma.p)
        if p3 >= 0:
            return (pm, z(-(p0 + p3)))
        return (z(-(p0 - p3)), pp)
    # kernel of (p0 - sigma.p)
    if p3 >= 0:
        return (z(p0 + p3), pp)
    return (pm, z(p0 - p3))


def weyl_spinor(p: FourMomentum, rep: GammaRep, chirality: str) -> PlaneWaveTerm:
    """Massless chiral solution embedded as a bispinor.

    The left amplitude solves (p0 + sigma.p) eta = 0 and lies in the
    image of Q+; the right amplitude solves (p0 - sigma.p) xi = 0 and
    lies in the image of Q-.  In the float backend the amplitude has
    unit norm with its largest component rotated real positive; in the
    exact backend the pivot component is scaled to 1.  For bases other
    than the spinor one the float amplitude is transported with the
    unitary U and the exact one with the integer intertwiner W (an
    overall scale, harmless for a solution).
    """
    if chirality not in ("left", "right"):
        raise ValueError("chirality must be 'left' or 'right'")
    if not scalar_is_zero(p.mass):
        raise WeylRequiresMassless("chiral constructor needs m = 0")
    if not p.is_on_shell():
        raise OffShell(f"momentum {p.p} is not lightlike")
    pair = _weyl_pair(p, chirality)
    pair = _normalize_pair(pair, p.backend)
    zero = GaussianRational(0) if p.backend == EXACT else 0j
    if chirality == "left":
        amp = (zero, zero) + pair
    else:
        amp = pair + (zero, zero)
    if rep.name != "spinor":
        link = build_rep("spinor").on(p.backend).intertwiner(rep)
        amp = (link.u if p.backend == FLOAT else link.w).apply(amp)
    return PlaneWaveTerm(amp, p, 1)


def _normalize_pair(pair: tuple, backend: str) -> tuple:
    if backend == EXACT:
        pivot = next((a for a in pair if not scalar_is_zero(a)), None)
        if pivot is None:
            raise ValueError("zero chiral amplitude")
        return tuple(a / pivot for a in pair)
    norm = (sum(abs(a) ** 2 for a in pair)) ** 0.5
    if norm == 0:
        raise ValueError("zero chiral amplitude")
    pivot = max(pair, key=abs)
    phase = pivot / abs(pivot)
    factor = phase.conjugate() / norm
    return tuple(factor * a for a in pair)
