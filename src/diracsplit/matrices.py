"""Small dense complex matrices over the exact and float backends.

A :class:`Matrix` is an immutable n-by-n array, n = 2 or 4 (the
constructor admits no other size), stored as a flat row-major tuple.
Exact matrices hold :class:`~diracsplit.scalars.GaussianRational`
entries and never round; float matrices hold Python ``complex``.
Sums, traces, zero tests, matrix-vector products and magnitude scans of
either backend run through the same code.  Matrix products are the one
place the backend picks the kernel: an exact product runs on
``kernels.mul_exact``, which works on integer numerators and skips exact
zeros, and a float product on the written-out ``kernels.mul`` (see
:mod:`diracsplit.kernels` for why).

Binary operations require both operands on the same backend; promotion
is one way, exact to float, via :meth:`Matrix.to_float`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from . import kernels
from .errors import BackendMismatch
from .scalars import EXACT, FLOAT, SCALAR_TYPE, GaussianRational, coerce_scalar


class Matrix:
    __slots__ = ("n", "backend", "entries")

    def __init__(self, n: int, backend: str, entries: tuple):
        if n != 4 and n != 2:
            raise ValueError(f"a matrix is 2x2 or 4x4, not {n!r}x{n!r}")
        if len(entries) != n * n:
            raise ValueError(f"expected {n * n} entries, got {len(entries)}")
        # the exact product kernel reads each entry's numerators; float entries go unchecked
        if backend == EXACT and not all(type(x) is GaussianRational for x in entries):
            raise TypeError("exact entries must be GaussianRational; Matrix.exact coerces")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "backend", backend)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    def __reduce__(self):
        """``pickle`` and ``copy`` rebuild through the constructor, not by setting slots."""
        return Matrix, (self.n, self.backend, self.entries)

    # -- constructors --------------------------------------------------

    @classmethod
    def exact(cls, rows: Sequence[Sequence]) -> "Matrix":
        """Exact matrix from nested rows of ints, Fractions or GaussianRationals."""
        n = len(rows)
        flat = tuple(coerce_scalar(x, EXACT) for row in rows for x in row)
        return cls(n, EXACT, flat)

    @classmethod
    def identity(cls, n: int, backend: str = EXACT) -> "Matrix":
        one, zero = SCALAR_TYPE[backend](1), SCALAR_TYPE[backend](0)
        flat = tuple(one if i == j else zero for i in range(n) for j in range(n))
        return cls(n, backend, flat)

    @classmethod
    def zero(cls, n: int, backend: str = EXACT) -> "Matrix":
        return cls(n, backend, (SCALAR_TYPE[backend](0),) * (n * n))

    @classmethod
    def diag(cls, values: Iterable, backend: str = EXACT) -> "Matrix":
        vals = [coerce_scalar(v, backend) for v in values]
        n = len(vals)
        zero = SCALAR_TYPE[backend](0)
        flat = tuple(vals[i] if i == j else zero for i in range(n) for j in range(n))
        return cls(n, backend, flat)

    # -- structure -----------------------------------------------------

    def rows(self) -> list:
        n = self.n
        return [list(self.entries[i * n : (i + 1) * n]) for i in range(n)]

    def _check_peer(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError(f"expected Matrix, got {type(other).__name__}")
        if self.backend != other.backend:
            raise BackendMismatch(
                f"{self.backend} matrix combined with {other.backend} matrix"
            )
        if self.n != other.n:
            raise ValueError(f"size mismatch: {self.n} vs {other.n}")

    # -- arithmetic ------------------------------------------------------

    def __add__(self, other):
        self._check_peer(other)
        flat = tuple(a + b for a, b in zip(self.entries, other.entries))
        return Matrix(self.n, self.backend, flat)

    def __sub__(self, other):
        self._check_peer(other)
        flat = tuple(a - b for a, b in zip(self.entries, other.entries))
        return Matrix(self.n, self.backend, flat)

    def __neg__(self):
        return Matrix(self.n, self.backend, tuple(-a for a in self.entries))

    def scale(self, c) -> "Matrix":
        c = coerce_scalar(c, self.backend)
        return Matrix(self.n, self.backend, tuple(c * a for a in self.entries))

    def __matmul__(self, other):
        self._check_peer(other)
        if self.backend == EXACT:
            return Matrix(self.n, EXACT, kernels.mul_exact(self.n, self.entries, other.entries))
        return Matrix(self.n, self.backend, kernels.mul(self.n, self.entries, other.entries))

    def apply(self, vec: tuple) -> tuple:
        """Matrix-vector product on a component tuple."""
        n = self.n
        if len(vec) != n:
            raise ValueError(f"vector length {len(vec)} does not match n={n}")
        return kernels.mul_vec(n, self.entries, vec)

    def transpose(self) -> "Matrix":
        n = self.n
        flat = tuple(self.entries[j * n + i] for i in range(n) for j in range(n))
        return Matrix(n, self.backend, flat)

    def conj(self) -> "Matrix":
        flat = tuple(a.conjugate() for a in self.entries)
        return Matrix(self.n, self.backend, flat)

    def adjoint(self) -> "Matrix":
        return self.conj().transpose()

    def trace(self):
        # left to right from the first entry, as in the kernels
        diagonal = self.entries[:: self.n + 1]
        return kernels.ordered_sum(diagonal[1:], diagonal[0])

    # -- predicates and conversions ---------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.entries)

    def max_abs(self) -> float:
        return kernels.max_abs(self.entries)

    def to_float(self) -> "Matrix":
        """Explicit promotion to the float backend."""
        if self.backend == FLOAT:
            return self
        return Matrix(self.n, FLOAT, tuple(a.to_complex() for a in self.entries))

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.n == other.n
            and self.backend == other.backend
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.n, self.backend, self.entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(x) for x in row) for row in self.rows()
        )
        return f"Matrix<{self.n},{self.backend}>[{body}]"


# -- module-level operations -----------------------------------------------


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return a @ b - b @ a
