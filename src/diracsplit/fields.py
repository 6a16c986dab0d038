"""Plane-wave fields and the operators acting on them.

A field is a finite sum of terms ``amplitude * exp(-i s p.x)`` where the
amplitude is a 2- or 4-component spinor, p is an on- or off-shell four-
momentum and s = +-1 is the frequency sign.  Every equation verified by
this package is linear with constant coefficients, so it holds for a
field iff it holds term by term; the term algebra therefore checks the
equations with no discretization error, and ``subsolutions`` states
each family of relations on one term.

A term, ``PlaneWaveTerm``, is an immutable tuple ``(amplitude, momentum,
freq_sign)`` with read-only attributes of those names: one allocation,
unpacked by the operators as ``amp, p, s = t``.  A field,
``PlaneWaveField``, is a slotted immutable object holding its sorted
terms, its representation, its component count and its backend.

On a plane wave the momentum operator is multiplication by s p^mu, so
every operator is a symbol: a matrix ``symbol(p, s)`` of the term's
momentum and frequency sign, applied to each term's amplitude
(``dirac_residual`` applies ``dirac_matrix``, the symbol of
gamma^mu p_mu - m).

The amplitude algebra of the term relations is written once here:
``_add`` (a + b), ``_sub`` (a + (-1) b, component by component) and
``_scaled`` (c a), with a symbol or a constant matrix applied by
``Matrix.apply`` (``kernels.mul_vec``).  The relation statements of
``subsolutions`` and the fuzz of ``suites`` use it and build no field,
and the constructor adds the amplitudes of a shared key with ``_add``,
so a relation measured on one term equals, bit for bit, the same
relation measured on that term's field.

Every field, an operator's result included, is built by the one
constructor, ``PlaneWaveField(terms, rep, ncomp, backend)``: it merges
terms of one key, drops exactly-zero terms, sorts by key and checks
that the terms agree on component count and backend, so a field is
canonical however it was made.  A term has two ways in.  The
constructor ``PlaneWaveTerm`` coerces every amplitude component onto the
momentum's backend; ``_term`` is one ``tuple.__new__`` for amplitudes
already computed from scalars of that backend, as every operator's are.
``_term`` stays because the float fuzz makes a term per trial
(``u_spinor`` returns one), where the coercion would be repeated work.

The operators keep each term's ``FourMomentum`` object, so the fields
derived from one field share its momenta, and a momentum keeps the
symbols ``dirac_matrix`` built on it, per (rep, frequency sign, mass),
in a field outside ``==``, ``hash`` and ``repr``: gamma.p is built once
per momentum, sign and basis, and the memo goes when the momentum does.
Complex conjugation flips the frequency sign, so the Majorana relations
pair the term at (p, s) with the conjugate of the term at (p, -s).

Components mean something only in a named gamma basis, so every field
carries its representation: the constructor requires a ``GammaRep``.
A field compares by identity; two fields agree when their ``terms``,
``rep``, ``ncomp`` and ``backend`` do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import add, itemgetter
from typing import Sequence

from . import kernels
from .errors import (
    BackendMismatch,
    MasslessNeedsWeyl,
    OffShell,
    WeylRequiresMassless,
)
from .gamma import GammaRep, build_rep
from .matrices import Matrix
from .scalars import EXACT, FLOAT, SCALAR_TYPE, GaussianRational, coerce_real, coerce_scalar

_SHELL_TOL = 1e-12
_MINUS_ONE = {backend: scalar(-1) for backend, scalar in SCALAR_TYPE.items()}


@dataclass(frozen=True)
class FourMomentum:
    """Contravariant components (p0, p1, p2, p3) plus the mass parameter."""

    p: tuple
    mass: object
    backend: str
    # the symbols at this momentum: dirac_matrix's per (rep, freq_sign, mass), and
    # subsolutions._sigma_symbol's per ("sigma", freq_sign, sign); outside ==, hash, repr
    _symbols: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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


class PlaneWaveTerm(tuple):
    """One plane wave: the immutable tuple (amplitude, momentum, freq_sign).

    A term is one allocation, and the operators unpack it as
    ``amp, p, s = t``.  The constructor coerces the amplitude onto the
    momentum's backend; ``_term`` builds a term from parts that already
    are.
    """

    __slots__ = ()

    def __new__(cls, amplitude: tuple, momentum: FourMomentum, freq_sign: int):
        if freq_sign not in (1, -1):
            raise ValueError("freq_sign must be +1 or -1")
        if len(amplitude) not in (2, 4):
            raise ValueError("amplitude must have 2 or 4 components")
        coerced = tuple(coerce_scalar(a, momentum.backend) for a in amplitude)
        return tuple.__new__(cls, (coerced, momentum, freq_sign))

    def __getnewargs__(self):
        """The arguments ``pickle`` and ``copy`` rebuild a term from, through ``__new__``."""
        return tuple(self)

    amplitude = property(itemgetter(0), doc="The 2- or 4-component spinor.")
    momentum = property(itemgetter(1), doc="The term's ``FourMomentum``.")
    freq_sign = property(itemgetter(2), doc="The frequency sign s = +-1.")

    @property
    def ncomp(self) -> int:
        return len(self[0])

    @property
    def backend(self) -> str:
        return self[1].backend

    def key(self):
        return (self[2],) + self[1].key()

    def __repr__(self):
        amplitude, momentum, freq_sign = self
        return (f"PlaneWaveTerm(amplitude={amplitude!r}, momentum={momentum!r}, "
                f"freq_sign={freq_sign!r})")


def _term(amplitude: tuple, momentum: FourMomentum, freq_sign: int) -> PlaneWaveTerm:
    """A term from parts already valid and on one backend: no re-coercion."""
    return tuple.__new__(PlaneWaveTerm, (amplitude, momentum, freq_sign))


class PlaneWaveField:
    """Canonicalized finite sum of plane-wave terms.

    Terms with identical (momentum, mass, frequency sign) are merged and
    exact zero amplitudes dropped, so structural identities reduce to the
    empty field.  Term order is sorted by key, making the terms and
    serialization deterministic.  ``ncomp`` must be 2 or 4 and
    ``backend`` a known one; a non-empty field takes both from its terms.
    """

    __slots__ = ("terms", "rep", "ncomp", "backend")

    def __init__(self, terms: Sequence[PlaneWaveTerm], rep: GammaRep,
                 ncomp: int = 4, backend: str = EXACT):
        if not isinstance(rep, GammaRep):
            raise TypeError("a field needs a GammaRep: its components mean nothing without one")
        if ncomp not in (2, 4):
            raise ValueError(f"a field has 2 or 4 components, not {ncomp!r}")
        if backend not in SCALAR_TYPE:
            raise ValueError(f"unknown backend {backend!r}")
        merged: dict = {}
        for t in terms:
            if not isinstance(t, PlaneWaveTerm):
                raise TypeError("terms must be PlaneWaveTerm")
            k = t.key()
            prev = merged.get(k)
            if prev is None:
                merged[k] = t
            else:
                if prev.ncomp != t.ncomp:
                    raise ValueError("mixed component counts in one field")
                merged[k] = _term(_add(prev.amplitude, t.amplitude), t.momentum, t.freq_sign)
        kept = [merged[k] for k in sorted(merged) if any(merged[k].amplitude)]

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

    # -- predicates ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def max_abs(self) -> float:
        return kernels.max_abs(a for t in self.terms for a in t[0])

    def __repr__(self):
        return f"PlaneWaveField({len(self.terms)} terms, n={self.ncomp}, {self.backend})"


def field_of(term: PlaneWaveTerm, rep: GammaRep) -> PlaneWaveField:
    """The field of one term, on the term's own component count and backend."""
    if not isinstance(term, PlaneWaveTerm):
        raise TypeError("terms must be PlaneWaveTerm")
    return PlaneWaveField((term,), rep, term.ncomp, term.backend)


# -- the amplitude algebra of the term relations (see the module docstring) -------


def _add(a: tuple, b: tuple) -> tuple:
    """a + b, component by component; the constructor merges a shared key's amplitudes with it."""
    return tuple(map(add, a, b))


def _sub(a: tuple, b: tuple, backend: str) -> tuple:
    """a + (-1) b, component by component, on ``backend``."""
    c = _MINUS_ONE[backend]
    return tuple(x + c * y for x, y in zip(a, b))


def _scaled(c, a: tuple) -> tuple:
    """c a, component by component, with c on a's backend."""
    return tuple(c * x for x in a)


# -- operators ----------------------------------------------------------------


def dirac_matrix(rep: GammaRep, momentum: FourMomentum, freq_sign: int, mass=0) -> Matrix:
    """The symbol of gamma^mu p_mu - m on one term: the sum of gamma_mu (s p^mu), less m Id.

    Kept on ``momentum`` per (rep, freq_sign, mass), so the terms that
    share a momentum share their symbols: gamma.p is built once per
    (rep, freq_sign), and each mass is subtracted from its diagonal.
    """
    key = (rep, freq_sign, mass)
    symbol = momentum._symbols.get(key)
    if symbol is None:
        if mass:
            entries = list(dirac_matrix(rep, momentum, freq_sign).entries)
            m = coerce_scalar(mass, momentum.backend)
            for k in (0, 5, 10, 15):
                entries[k] = entries[k] - m
            symbol = Matrix(4, momentum.backend, tuple(entries))
        else:
            symbol = _gamma_dot(rep, momentum, freq_sign)
        momentum._symbols[key] = symbol
    return symbol


def _gamma_dot(rep: GammaRep, momentum: FourMomentum, freq_sign: int) -> Matrix:
    """gamma_mu (s p^mu), each entry summed left to right from mu = 0."""
    backend = momentum.backend
    g0, g1, g2, g3 = (g.entries for g in rep.on(backend).gammas_lower)
    scalar = SCALAR_TYPE[backend]
    c0, c1, c2, c3 = (scalar(c * freq_sign) for c in momentum.p)
    return Matrix(4, backend, tuple(c0 * a + c1 * b + c2 * c + c3 * d
                                    for a, b, c, d in zip(g0, g1, g2, g3)))


def dirac_residual(f: PlaneWaveField, mass) -> PlaneWaveField:
    """(gamma^mu p_mu - m) f in one pass; the zero field iff f solves the equation."""
    if f.ncomp != 4:
        raise ValueError("the Dirac operator acts on 4-component fields")
    rep = f.rep
    return PlaneWaveField([_term(kernels.mul_vec(4, dirac_matrix(rep, p, s, mass).entries, amp),
                                 p, s) for amp, p, s in f.terms], rep, 4, f.backend)


def upper_half(f: PlaneWaveField) -> PlaneWaveField:
    """Components (0,1) of a bispinor field (the xi pair in the spinor basis)."""
    if f.ncomp != 4:
        raise ValueError("component split needs a 4-component field")
    return PlaneWaveField([_term(amp[:2], p, s) for amp, p, s in f.terms], f.rep, 2, f.backend)


# -- solution constructors -----------------------------------------------------

def _rest_seeds(*pair) -> dict:
    exact = tuple(tuple(coerce_scalar(c, EXACT) for c in seed) for seed in pair)
    return {EXACT: exact, FLOAT: tuple(tuple(c.to_complex() for c in seed) for seed in exact)}


# rest-frame eigenvectors of gamma0 with eigenvalue +1, one pair per basis, on each backend
_REST_SEEDS = {
    "spinor": _rest_seeds((1, 0, 1, 0), (0, 1, 0, 1)),
    "standard": _rest_seeds((1, 0, 0, 0), (0, 1, 0, 0)),
    "majorana": _rest_seeds((1, 0, 0, GaussianRational(0, 1)), (0, 1, GaussianRational(0, -1), 0)),
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
    if not p.mass:
        raise MasslessNeedsWeyl("massive constructor needs m > 0")
    if not p.is_on_shell():
        raise OffShell(f"momentum {p.p} with mass {p.mass} is off the shell")
    seed = _REST_SEEDS[rep.name][p.backend][spin_label - 1]
    raw = dirac_matrix(rep, p, 1, -p.mass).apply(seed)
    if p.backend == EXACT:
        scale = GaussianRational(Fraction(1, 2) / p.mass)
    else:
        scale = (2.0 * p.p[0] / kernels.ordered_sum(abs(a) ** 2 for a in raw)) ** 0.5
    return _term(tuple(scale * a for a in raw), p, 1)


def _weyl_pair(p: FourMomentum, chirality: str) -> tuple:
    """Two-component massless solution in the spinor basis (unnormalized)."""
    p0, p1, p2, p3 = p.p
    z = SCALAR_TYPE[p.backend]
    pp = z(p1, p2)  # p1 + i p2
    pm = pp.conjugate()
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
    if p.mass:
        raise WeylRequiresMassless("chiral constructor needs m = 0")
    if not p.is_on_shell():
        raise OffShell(f"momentum {p.p} is not lightlike")
    pair = _weyl_pair(p, chirality)
    pair = _normalize_pair(pair, p.backend)
    zero = SCALAR_TYPE[p.backend](0)
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
        pivot = next((a for a in pair if a), None)
        if pivot is None:
            raise ValueError("zero chiral amplitude")
        return tuple(a / pivot for a in pair)
    norm = kernels.ordered_sum(abs(a) ** 2 for a in pair) ** 0.5
    if norm == 0:
        raise ValueError("zero chiral amplitude")
    pivot = max(pair, key=abs)
    phase = pivot / abs(pivot)
    factor = phase.conjugate() / norm
    return tuple(factor * a for a in pair)
