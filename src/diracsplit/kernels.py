"""Kernels for small dense complex matrices, and the magnitude scan.

Matrices are flat row-major tuples of length n*n with n in {2, 4}, the
only sizes a ``matrices.Matrix`` admits.  ``mul`` and ``mul_vec`` are
written out for both sizes and take the scalars of either backend
(``GaussianRational`` or ``complex``, see ``scalars``): every entry is
summed left to right from its first product, so the results equal the
textbook loop's bit for bit, signed zeros, inf and NaN included.
``Matrix`` routes its float products and all its matrix-vector products
through them.

Exact matrix products have their own kernel, ``mul_exact``.  Through
``mul`` each of the n**3 scalar products and n**2 (n - 1) sums would
build a ``GaussianRational`` and take a gcd, though most entries of a
gamma matrix or projector are exact zeros.  ``mul_exact`` brings each
operand to Gaussian-integer numerators over one common denominator,
skips the zero entries, and builds each of the n*n results with one
``scalars._make``; exact results are canonical, so they are the ones
``mul`` gives.  This is what the cold start (building and validating a
basis) spends its products on; warm runs read kept results.

``max_abs`` is the package's only largest-magnitude reduction: matrices,
fields, residual entries and fuzz aggregates all scan through it.  Like
IEEE 754-2019 ``maximum`` it propagates NaN, so a NaN residual can never
read as a small one.
"""

from __future__ import annotations

from .scalars import _make, _numerators

# the only implementation; kept because perfbench prints it and traces this module as a layer
IMPLEMENTATION = "pure-python"


def mul(n: int, a: tuple, b: tuple) -> tuple:
    """Matrix product of two flat n*n tuples, n = 4 or 2."""
    if n == 4:
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
        b0, b1, b2, b3, b4, b5, b6, b7, b8, b9, b10, b11, b12, b13, b14, b15 = b
        return (a0*b0 + a1*b4 + a2*b8 + a3*b12, a0*b1 + a1*b5 + a2*b9 + a3*b13,
                a0*b2 + a1*b6 + a2*b10 + a3*b14, a0*b3 + a1*b7 + a2*b11 + a3*b15,
                a4*b0 + a5*b4 + a6*b8 + a7*b12, a4*b1 + a5*b5 + a6*b9 + a7*b13,
                a4*b2 + a5*b6 + a6*b10 + a7*b14, a4*b3 + a5*b7 + a6*b11 + a7*b15,
                a8*b0 + a9*b4 + a10*b8 + a11*b12, a8*b1 + a9*b5 + a10*b9 + a11*b13,
                a8*b2 + a9*b6 + a10*b10 + a11*b14, a8*b3 + a9*b7 + a10*b11 + a11*b15,
                a12*b0 + a13*b4 + a14*b8 + a15*b12, a12*b1 + a13*b5 + a14*b9 + a15*b13,
                a12*b2 + a13*b6 + a14*b10 + a15*b14, a12*b3 + a13*b7 + a14*b11 + a15*b15)
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0*b0 + a1*b2, a0*b1 + a1*b3, a2*b0 + a3*b2, a2*b1 + a3*b3)


def mul_exact(n: int, a: tuple, b: tuple) -> tuple:
    """Matrix product of two flat n*n tuples of ``GaussianRational``, n = 4 or 2."""
    na, da = _numerators(a)
    nb, db = _numerators(b)
    rows_b = _nonzero_rows(n, nb)
    d = [da * db] * n
    out = []
    for row in _nonzero_rows(n, na):
        re = [0] * n
        im = [0] * n
        for k, x, y in row:
            for j, u, v in rows_b[k]:
                re[j] += x * u - y * v
                im[j] += x * v + y * u
        out += map(_make, re, im, d)
    return tuple(out)


def _nonzero_rows(n: int, pairs: list) -> list:
    """Per row, the (column, a, b) of each nonzero entry."""
    return [[(j, a, b) for j, (a, b) in enumerate(pairs[i : i + n]) if a or b]
            for i in range(0, n * n, n)]


def mul_vec(n: int, a: tuple, v: tuple) -> tuple:
    """Matrix-vector product, n = 4 or 2."""
    if n == 4:
        a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10, a11, a12, a13, a14, a15 = a
        v0, v1, v2, v3 = v
        return (a0*v0 + a1*v1 + a2*v2 + a3*v3, a4*v0 + a5*v1 + a6*v2 + a7*v3,
                a8*v0 + a9*v1 + a10*v2 + a11*v3, a12*v0 + a13*v1 + a14*v2 + a15*v3)
    a0, a1, a2, a3 = a
    v0, v1 = v
    return (a0*v0 + a1*v1, a2*v0 + a3*v1)


def ordered_sum(values, start=0.0):
    """``start`` plus each of ``values`` in turn, left to right.

    This is ``sum`` as Python 3.11 computes it; from 3.12 ``sum``
    compensates float roundoff, so results would differ between the
    interpreters ``requires-python`` admits.  Seed complex sums with 0j.
    """
    acc = start
    for v in values:
        acc = acc + v
    return acc


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
