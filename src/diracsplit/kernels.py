"""Kernels for small dense complex matrices, and the magnitude scan.

Matrices are flat row-major tuples of length n*n with n in {2, 4}, and
their entries are the scalars of either backend (``GaussianRational`` or
``complex``, see ``scalars``): each accumulator starts from its first
product, so one implementation serves both.  ``matrices.Matrix`` routes
all its products through these functions.

``max_abs`` is the package's only largest-magnitude reduction: matrices,
fields, residual entries and fuzz aggregates all scan through it.  Like
IEEE 754-2019 ``maximum`` it propagates NaN, so a NaN residual can never
read as a small one.
"""

from __future__ import annotations

# the only implementation; kept because perfbench prints it and traces this module as a layer
IMPLEMENTATION = "pure-python"


def mul(n: int, a: tuple, b: tuple) -> tuple:
    """Matrix product of two flat n*n tuples."""
    out = []
    for i in range(n):
        row = i * n
        for j in range(n):
            acc = a[row] * b[j]
            for k in range(1, n):
                acc = acc + a[row + k] * b[k * n + j]
            out.append(acc)
    return tuple(out)


def mul_vec(n: int, a: tuple, v: tuple) -> tuple:
    """Matrix-vector product."""
    out = []
    for i in range(n):
        row = i * n
        acc = a[row] * v[0]
        for k in range(1, n):
            acc = acc + a[row + k] * v[k]
        out.append(acc)
    return tuple(out)


def max_abs(values) -> float:
    """Largest magnitude in ``values`` (any iterable; 0.0 if empty), NaN if any is NaN."""
    m = 0.0
    for z in values:
        v = abs(z)
        if not v <= m:
            if v != v:
                return v
            m = v
    return m


def max_abs_diff(a: tuple, b: tuple) -> float:
    """Largest entrywise difference magnitude, NaN if any is NaN."""
    return max_abs(x - y for x, y in zip(a, b))
