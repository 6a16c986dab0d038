"""Scalar backends.

Two numeric backends run side by side:

* ``exact``  -- complex numbers with rational real and imaginary parts
  (:class:`GaussianRational`).  Arithmetic never rounds, so structural
  identities can be asserted to be exactly zero.
* ``float``  -- ordinary Python ``complex``; residuals are compared
  against tolerances.

A :class:`GaussianRational` is three Python ints ``(a, b, d)`` meaning
(a + b i)/d, always canonical: d > 0 and gcd(a, b, d) = 1, so zero is
(0, 0, 1) and equal values have equal triples.  Each operation does
integer arithmetic and normalises its result with one ``math.gcd``
(none when d = 1); no operation builds a ``Fraction``.  The ``re`` and
``im`` properties read the parts as ``Fraction``s.  It is a frozen
:class:`~diracsplit.values.Value` whose fields are ``re`` and ``im``, so
``pickle`` and ``copy`` rebuild it through the constructor from them.

``SCALAR_TYPE`` names each backend's scalar type; both are built from
``(re, im)``.  Their arithmetic, ``conjugate``, truth value (nonzero)
and ``abs()`` (the magnitude as a float, an estimate for an exact
scalar) agree, so the written-out kernels and residual scans run
unchanged on either.  Exact matrix products read the triples instead
(``_numerators``), see ``kernels.mul_exact``.

Integers and :class:`fractions.Fraction` are backend-neutral and coerce
into either side.  ``float``/``complex`` values never coerce into the
exact backend, not even as the parts of a :class:`GaussianRational`, and
:class:`GaussianRational` values only reach the float backend through an
explicit promotion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import BackendMismatch
from .values import Value

EXACT = "exact"
FLOAT = "float"

_RATIONAL = (int, Fraction)
_INEXACT = (float, complex)


def _ratio(x) -> tuple:
    """(numerator, denominator > 0) of an exact real part, in lowest terms."""
    if isinstance(x, int):
        return int(x), 1
    if not isinstance(x, Fraction):
        x = Fraction(x)
    return x.numerator, x.denominator


def _operand(x):
    """The triple of an int or Fraction operand; None for a type exact arithmetic leaves alone."""
    if type(x) is GaussianRational:
        return x._a, x._b, x._d
    if isinstance(x, int):
        return int(x), 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    if isinstance(x, _INEXACT):
        raise BackendMismatch("float operand in exact arithmetic")
    return None


class GaussianRational(Value):
    """Exact complex scalar (a + b i)/d, held as canonical ints: d > 0, gcd(a, b, d) = 1."""

    __slots__ = ("_a", "_b", "_d")
    _fields = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, _INEXACT) or isinstance(im, _INEXACT):
            raise BackendMismatch("float part in an exact scalar")
        a, d = _ratio(re)
        b, e = _ratio(im)
        if d != e:
            # each part is in lowest terms, so only unequal denominators leave a common factor
            a, b, d = a * e, b * d, d * e
            g = gcd(a, b, d)
            a, b, d = a // g, b // g, d // g
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        a, b, d = self._a, self._b, self._d
        if d == f:
            return _make(a + c, b + e, d)
        return _make(a * f + c * d, b * f + e * d, d * f)

    __radd__ = __add__

    def __sub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _difference(self._a, self._b, self._d, *o)

    def __rsub__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        return _difference(*o, self._a, self._b, self._d)

    def __mul__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        a, b, d = self._a, self._b, self._d
        return _make(a * c - b * e, a * e + b * c, d * f)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        c, e, f = o
        return _quotient(self._a, self._b, self._d, c, e, f)

    def __rtruediv__(self, other):
        o = _operand(other)
        if o is None:
            return NotImplemented
        a, b, d = o
        return _quotient(a, b, d, self._a, self._b, self._d)

    def __neg__(self):
        return _make(-self._a, -self._b, self._d)

    def __abs__(self) -> float:
        """The magnitude as a float (an estimate)."""
        return abs(self.to_complex())

    def conjugate(self) -> "GaussianRational":
        return _make(self._a, -self._b, self._d)

    # -- predicates and conversions -----------------------------------

    @property
    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def to_complex(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does
        d = self._d
        return complex(self._a / d, self._b / d)

    def __eq__(self, other):
        if isinstance(other, _INEXACT):
            return NotImplemented
        o = _operand(other)
        if o is None:
            return NotImplemented
        return (self._a, self._b, self._d) == o

    def __hash__(self):
        # a real value hashes as the int or Fraction it equals, as complex does
        if self._b == 0:
            return hash(self._a) if self._d == 1 else hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __bool__(self):
        return bool(self._a or self._b)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}*i"
        sign = "+" if im > 0 else "-"
        return f"{re} {sign} {abs(im)}*i"


_new = object.__new__
_set_a = GaussianRational._a.__set__
_set_b = GaussianRational._b.__set__
_set_d = GaussianRational._d.__set__


def _make(a: int, b: int, d: int) -> GaussianRational:
    """The canonical scalar (a + b i)/d, for d > 0: one gcd, none when d is 1."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = _new(GaussianRational)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _numerators(entries: tuple) -> tuple:
    """``(pairs, L)``: each scalar of ``entries`` as the ints ``(a, b)`` of (a + b i)/L.

    L is the lcm of the entries' d, the least common denominator.
    """
    L = lcm(*[x._d for x in entries])
    if L == 1:
        return [(x._a, x._b) for x in entries], 1
    return [(x._a * (L // x._d), x._b * (L // x._d)) for x in entries], L


def _difference(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussianRational:
    """(a + b i)/d - (c + e i)/f."""
    if d == f:
        return _make(a - c, b - e, d)
    return _make(a * f - c * d, b * f - e * d, d * f)


def _quotient(a: int, b: int, d: int, c: int, e: int, f: int) -> GaussianRational:
    """((a + b i)/d) / ((c + e i)/f) = f (a + b i)(c - e i) / (d (c^2 + e^2))."""
    n = c * c + e * e
    if n == 0:
        raise ZeroDivisionError("division by exact zero")
    return _make(f * (a * c + b * e), f * (b * c - a * e), d * n)


#: the scalar type of each backend, built from (re, im)
SCALAR_TYPE = {EXACT: GaussianRational, FLOAT: complex}

#: exact imaginary unit
I = GaussianRational(0, 1)

#: exact one half, handy for projector coefficients
HALF = Fraction(1, 2)


def coerce_scalar(value, backend: str):
    """Coerce a scalar into the given backend, refusing cross-backend mixes."""
    if backend == EXACT:
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, _RATIONAL):
            return GaussianRational(value)
        raise BackendMismatch(f"cannot use {type(value).__name__} in exact backend")
    if backend == FLOAT:
        if isinstance(value, GaussianRational):
            raise BackendMismatch("exact scalar in float context; promote explicitly")
        if isinstance(value, (int, float, complex, Fraction)):
            return complex(value)
        raise BackendMismatch(f"cannot use {type(value).__name__} in float backend")
    raise ValueError(f"unknown backend {backend!r}")


def coerce_real(value, backend: str):
    """Coerce a real scalar (momentum component, mass) into a backend."""
    if backend == EXACT:
        if isinstance(value, _RATIONAL):
            return Fraction(value)
        raise BackendMismatch(f"cannot use {type(value).__name__} as exact real")
    if backend == FLOAT:
        if isinstance(value, Fraction) or isinstance(value, (int, float)):
            return float(value)
        raise BackendMismatch(f"cannot use {type(value).__name__} as float real")
    raise ValueError(f"unknown backend {backend!r}")

