"""Scalar backends.

Two numeric backends run side by side:

* ``exact``  -- complex numbers with rational real and imaginary parts
  (:class:`GaussianRational`).  Arithmetic never rounds, so structural
  identities can be asserted to be exactly zero.
* ``float``  -- ordinary Python ``complex``; residuals are compared
  against tolerances.

``SCALAR_TYPE`` names each backend's scalar type; both are built from
``(re, im)``.  Their arithmetic, ``conjugate``, truth value (nonzero)
and ``abs()`` (the magnitude as a float, an estimate for an exact
scalar) agree, so the matrix kernels and residual scans run unchanged
on either.

Integers and :class:`fractions.Fraction` are backend-neutral and coerce
into either side.  ``float``/``complex`` values never coerce into the
exact backend, not even as the parts of a :class:`GaussianRational`, and
:class:`GaussianRational` values only reach the float backend through an
explicit promotion.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BackendMismatch

EXACT = "exact"
FLOAT = "float"

_RATIONAL = (int, Fraction)
_INEXACT = (float, complex)


class GaussianRational:
    """Exact complex scalar with Fraction real and imaginary parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        if isinstance(re, _INEXACT) or isinstance(im, _INEXACT):
            raise BackendMismatch("float part in an exact scalar")
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        """``pickle`` and ``copy`` rebuild through the constructor, not by setting slots."""
        return GaussianRational, (self.re, self.im)

    # -- arithmetic ---------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, _RATIONAL):
            return GaussianRational(other)
        if isinstance(other, _INEXACT):
            raise BackendMismatch("float operand in exact arithmetic")
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        denom = o.re * o.re + o.im * o.im
        if denom == 0:
            raise ZeroDivisionError("division by exact zero")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / denom,
            (self.im * o.re - self.re * o.im) / denom,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o.__truediv__(self)

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __abs__(self) -> float:
        """The magnitude as a float (an estimate)."""
        return abs(self.to_complex())

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- predicates and conversions -----------------------------------

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(self.re, self.im)

    def __eq__(self, other):
        o = self._coerce(other) if not isinstance(other, _INEXACT) else None
        if o is None:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"


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

