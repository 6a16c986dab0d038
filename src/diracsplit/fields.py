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
``PlaneWaveField``, is a frozen :class:`~diracsplit.values.Value`
holding its sorted terms, its representation, its component count and
its backend; it refuses assignment and deletion.

On a plane wave the momentum operator is multiplication by s p^mu, so
every operator is a symbol: a matrix ``symbol(p, s)`` of the term's
momentum and frequency sign, applied to each term's amplitude
(``dirac_residual`` applies ``dirac_matrix``, the symbol of
gamma^mu p_mu - m).  ``dirac_matrix`` is the package's one Dirac-type
symbol: in the spinor basis gamma.q = [[0, q0 + sigma.q], [q0 - sigma.q,
0]], so the two-component Weyl and Majorana forms are the halves of its
product with (xi, eta), and the special frame's reduced operator is
``dirac_matrix`` at (q0, q1, 0, 0).

gamma.p is built from the basis's nonzero lowered-gamma entries alone,
which its view keeps per entry (``RepView.symbol_slots``).  Every
gamma_mu of the pinned bases has one nonzero entry per row and per
column, so a symbol costs 16 products, not 64, on both backends.  An
entry that no gamma_mu fills is the view's exact zero at every momentum;
every other is the sum of its products (s p^mu) gamma_mu, left to right
in mu from the first.  That equals the dense sum over all four mu bit
for bit in every nonzero real or imaginary part: only a zero part may
differ, in its sign.  At a non-finite momentum the dense sum's products
of zero entries, 0 inf, read NaN; they are left out here, so an entry no
gamma_mu fills stays 0, and another may be a number where the dense sum
is NaN.  Each gamma_mu is invertible, so at a non-finite momentum every
row of the symbol still holds a non-finite entry, and no residual there
reads as small.

The amplitude algebra of the term relations is written once here:
``_add`` (a + b), ``_sub`` (a - b), ``_scaled`` (c a), ``_divided``
(a / c) and ``_conj`` (conj a), component by component, with a symbol or a
constant matrix applied by ``Matrix.apply`` (``kernels.mul_vec``).  Each
maps a built-in operator over the tuples, so the float fuzz, which runs
them thousands of times a round, pays no generator frame per call.  The
relation statements of ``subsolutions`` and the fuzz of ``suites`` use
it and build no field, and the constructor adds the amplitudes of a
shared key with ``_add``, so a relation measured on one term equals, bit
for bit, the same relation measured on that term's field.  The algebra,
the statements and ``dirac_matrix`` name no backend: they take their
scalars, the mass included, as they come, and ``GaussianRational``
refuses a ``float`` or ``complex`` operand, so a float mass on an exact
term raises ``BackendMismatch``.

Every value has one constructor.  ``PlaneWaveTerm(amplitude, momentum,
freq_sign)`` keeps an amplitude tuple whose components already have the
momentum's backend scalar type, as every operator's do, and coerces any
other.  Every field, an operator's result included, is built by
``PlaneWaveField(terms, rep, ncomp, backend)``: it checks that every
term agrees with the first on component count and backend, zero terms
too, then merges terms of one key, drops exactly-zero terms and sorts by
key, so a field is canonical however it was made.

The operators keep each term's ``FourMomentum`` object, so the fields
derived from one field share its momenta, and a momentum keeps the
symbols ``dirac_matrix`` built on it, per (rep, frequency sign, mass),
in a field outside ``==``, ``hash`` and ``repr``: gamma.p is built once
per momentum, sign and basis, and the memo goes when the momentum does.
Complex conjugation flips the frequency sign, so the Majorana relations
pair the term at (p, s) with the conjugate of the term at (p, -s).

Components mean something only in a named gamma basis, so every field
carries its representation: the constructor requires a ``GammaRep``.
The solution constructors ``u_spinor`` and ``weyl_spinor`` apply that
basis's own symbols and projectors to its own rest seeds, so no field is
ever moved from one basis to another.
A field compares by identity; two fields agree when their ``terms``,
``rep``, ``ncomp`` and ``backend`` do.  ``copy.copy`` rebuilds a field
through the constructor on the same ``rep`` and terms; ``copy.deepcopy``
and ``pickle`` rebuild it, with equal terms, on a copy of its
``GammaRep``, which is not the pinned basis.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import repeat
from math import inf
from operator import add, itemgetter, methodcaller, mul, sub, truediv

from . import kernels
from .errors import (
    BackendMismatch,
    MasslessNeedsWeyl,
    NormOverflow,
    OffShell,
    WeylRequiresMassless,
)
from .gamma import GammaRep
from .matrices import Matrix
from .scalars import EXACT, FLOAT, SCALAR_TYPE, GaussianRational, coerce_real, coerce_scalar
from .values import Record, Value, store

_SHELL_TOL = 1e-12


class FourMomentum(Value):
    """Contravariant components (p0, p1, p2, p3) plus the mass parameter."""

    _fields = ("p", "mass", "backend")
    # _symbols: dirac_matrix's symbols at this momentum, per (rep, freq_sign, mass), keyed
    # with the sign's and the mass's types too
    __slots__ = _fields + ("_symbols",)

    def __init__(self, p: tuple, mass, backend: str):
        store(self, "p", p)
        store(self, "mass", mass)
        store(self, "backend", backend)
        store(self, "_symbols", {})

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
        p1, p2, p3 = map(float, spatial)
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
    ``amp, p, s = t``.  The sign is the int +1 or -1, never a float or a
    bool.  An amplitude tuple of the momentum's backend scalars is kept as
    given; any other is coerced onto that backend.
    """

    __slots__ = ()
    _fields = ("amplitude", "momentum", "freq_sign")

    def __new__(cls, amplitude: tuple, momentum: FourMomentum, freq_sign: int):
        if type(freq_sign) is not int or freq_sign not in (1, -1):
            raise ValueError(f"freq_sign must be the int +1 or -1, not {freq_sign!r}")
        if len(amplitude) not in (2, 4):
            raise ValueError("amplitude must have 2 or 4 components")
        backend = momentum.backend
        scalar = SCALAR_TYPE.get(backend)
        if type(amplitude) is not tuple or {*map(type, amplitude)} != {scalar}:
            amplitude = tuple(coerce_scalar(a, backend) for a in amplitude)
        return tuple.__new__(cls, (amplitude, momentum, freq_sign))

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

    __repr__ = Record.__repr__


class PlaneWaveField(Value):
    """Canonicalized finite sum of plane-wave terms.

    Terms with identical (momentum, mass, frequency sign) are merged and
    exact zero amplitudes dropped, so structural identities reduce to the
    empty field.  Term order is sorted by key, making the terms and
    serialization deterministic.  ``ncomp`` must be 2 or 4 and
    ``backend`` a known one; given terms, the field takes both from the
    first, and every term must agree, even one that is zero or cancels.
    """

    __slots__ = _fields = ("terms", "rep", "ncomp", "backend")
    __eq__, __hash__ = object.__eq__, object.__hash__

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
            amp, p, s = t
            if not merged:
                ncomp, backend = len(amp), p.backend
            elif len(amp) != ncomp:
                raise ValueError("mixed component counts in one field")
            elif p.backend != backend:
                raise BackendMismatch("mixed backends in one field")
            k = t.key()
            prev = merged.get(k)
            merged[k] = t if prev is None else PlaneWaveTerm(_add(prev[0], amp), p, s)
        kept = [merged[k] for k in sorted(merged) if any(merged[k][0])]
        store(self, "terms", tuple(kept))
        store(self, "rep", rep)
        store(self, "ncomp", ncomp)
        store(self, "backend", backend)

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


def _sub(a: tuple, b: tuple) -> tuple:
    """a - b, component by component."""
    return tuple(map(sub, a, b))


def _scaled(c, a: tuple) -> tuple:
    """c a, component by component."""
    return tuple(map(mul, repeat(c), a))


def _divided(a: tuple, c) -> tuple:
    """a / c, component by component."""
    return tuple(map(truediv, a, repeat(c)))


_conjugate = methodcaller("conjugate")


def _conj(a: tuple) -> tuple:
    """The complex conjugate of a, component by component."""
    return tuple(map(_conjugate, a))


# -- operators ----------------------------------------------------------------


def dirac_matrix(rep: GammaRep, momentum: FourMomentum, freq_sign: int, mass=0) -> Matrix:
    """The symbol of gamma^mu p_mu - m on one term: the sum of gamma_mu (s p^mu), less m Id.

    Kept on ``momentum`` per (rep, freq_sign, mass), so the terms that
    share a momentum share their symbols: gamma.p is built once per
    (rep, freq_sign), and each mass is subtracted, as given, from its
    diagonal.  The key holds the sign's and the mass's types too, since
    1 == 1.0 == True: a float sign or mass on an exact momentum raises
    ``BackendMismatch`` whatever ran before, from the exact entries it
    meets.
    """
    key = (rep, freq_sign, type(freq_sign), mass, type(mass))
    symbol = momentum._symbols.get(key)
    if symbol is None:
        if mass:
            entries = list(dirac_matrix(rep, momentum, freq_sign).entries)
            for k in (0, 5, 10, 15):
                entries[k] = entries[k] - mass
            symbol = Matrix(4, momentum.backend, tuple(entries))
        else:
            symbol = _gamma_dot(rep, momentum, freq_sign)
        momentum._symbols[key] = symbol
    return symbol


def _gamma_dot(rep: GammaRep, momentum: FourMomentum, freq_sign: int) -> Matrix:
    """gamma_mu (s p^mu) from the basis's nonzero gamma entries only (``RepView.symbol_slots``).

    An entry that no gamma_mu fills is the view's exact zero at every
    momentum; every other is the sum of its products (s p^mu) gamma_mu,
    left to right in mu from its first nonzero one.  That is the dense
    sum over all four mu with the products of zero entries left out, so
    it equals the dense sum bit for bit in every nonzero real or
    imaginary part: a zero part may differ in its sign, and at a
    non-finite momentum no 0 inf product makes an entry NaN.
    """
    backend = momentum.backend
    p0, p1, p2, p3 = momentum.p
    c = (p0 * freq_sign, p1 * freq_sign, p2 * freq_sign, p3 * freq_sign)
    entries = []
    for mu, g, rest in rep.on(backend).symbol_slots:
        if mu is None:
            entries.append(g)
            continue
        acc = c[mu] * g
        for mu, g in rest:
            acc = acc + c[mu] * g
        entries.append(acc)
    return Matrix(4, backend, tuple(entries))


def dirac_residual(f: PlaneWaveField, mass) -> PlaneWaveField:
    """(gamma^mu p_mu - m) f in one pass; the zero field iff f solves the equation."""
    if f.ncomp != 4:
        raise ValueError("the Dirac operator acts on 4-component fields")
    rep = f.rep
    return PlaneWaveField([PlaneWaveTerm(kernels.mul_vec(4, dirac_matrix(rep, p, s, mass).entries,
                                                         amp), p, s)
                           for amp, p, s in f.terms], rep, 4, f.backend)


def upper_half(f: PlaneWaveField) -> PlaneWaveField:
    """Components (0,1) of a bispinor field (the xi pair in the spinor basis)."""
    if f.ncomp != 4:
        raise ValueError("component split needs a 4-component field")
    return PlaneWaveField([PlaneWaveTerm(amp[:2], p, s) for amp, p, s in f.terms], f.rep, 2,
                          f.backend)


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
        scale = (2.0 * p.p[0] / _norm_squared(raw)) ** 0.5
    return PlaneWaveTerm(_scaled(scale, raw), p, 1)


def weyl_spinor(p: FourMomentum, rep: GammaRep, chirality: str) -> PlaneWaveTerm:
    """Massless chiral solution: Q+ gamma.p seed (left) or Q- gamma.p seed (right), normalized.

    gamma.p anticommutes with gamma5 and squares to p.p = 0, so Q+- gamma.p
    seed = gamma.p Q-+ seed solves gamma.p psi = 0 in the image of Q+-, in
    every basis.  The seed is one of the basis's rest seeds (``u_spinor``'s);
    the image of each vanishes for one direction of k only, along +z or -z,
    so the left amplitude takes the second seed when p3 >= 0, and the right
    one when p3 < 0.  In the spinor basis the left amplitude is (0, 0, eta)
    with (p0 + sigma.p) eta = 0, the right one (xi, 0, 0) with (p0 -
    sigma.p) xi = 0.  In the float backend the amplitude has unit norm with
    its largest component rotated real positive; in the exact backend its
    first nonzero component is 1.
    """
    if chirality not in ("left", "right"):
        raise ValueError("chirality must be 'left' or 'right'")
    if p.mass:
        raise WeylRequiresMassless("chiral constructor needs m = 0")
    if not p.is_on_shell():
        raise OffShell(f"momentum {p.p} is not lightlike")
    left = chirality == "left"
    seed = _REST_SEEDS[rep.name][p.backend][1 if (p.p[3] >= 0) == left else 0]
    view = rep.on(p.backend)
    image = (view.q_plus if left else view.q_minus).apply(dirac_matrix(rep, p, 1).apply(seed))
    return PlaneWaveTerm(_normalized(image, p.backend), p, 1)


def _norm_squared(amp: tuple) -> float:
    """The sum of |a|^2 over a float amplitude, left to right.

    Past float range it raises NormOverflow: a square that overflows
    raises, and an infinite sum would scale the amplitude to zero, which
    solves every relation.
    """
    try:
        total = kernels.ordered_sum(map(pow, map(abs, amp), repeat(2)))
    except OverflowError:
        total = inf
    if total == inf:
        raise NormOverflow(f"the squared norm of an amplitude with a component of magnitude "
                           f"{max(map(abs, amp)):.3g} is beyond float range")
    return total


def _normalized(amp: tuple, backend: str) -> tuple:
    if backend == EXACT:
        pivot = next((a for a in amp if a), None)
        if pivot is None:
            raise ValueError("zero chiral amplitude")
        return _divided(amp, pivot)
    norm = _norm_squared(amp) ** 0.5
    if norm == 0:
        raise ValueError("zero chiral amplitude")
    pivot = max(amp, key=abs)
    phase = pivot / abs(pivot)
    factor = phase.conjugate() / norm
    return _scaled(factor, amp)
