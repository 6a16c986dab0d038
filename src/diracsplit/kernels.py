"""Float kernels for small dense complex matrices.

Matrices are flat row-major tuples of ``complex`` of length n*n with
n in {2, 4}.  ``matrices.Matrix`` routes its float-backend products and
magnitude scans through these functions.
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
            acc = 0j
            for k in range(n):
                acc = acc + a[row + k] * b[k * n + j]
            out.append(acc)
    return tuple(out)


def mul_vec(n: int, a: tuple, v: tuple) -> tuple:
    """Matrix-vector product."""
    out = []
    for i in range(n):
        row = i * n
        acc = 0j
        for k in range(n):
            acc = acc + a[row + k] * v[k]
        out.append(acc)
    return tuple(out)


def max_abs(a: tuple) -> float:
    """Largest entry magnitude."""
    m = 0.0
    for z in a:
        v = abs(z)
        if v > m:
            m = v
    return m


def max_abs_diff(a: tuple, b: tuple) -> float:
    """Largest entrywise difference magnitude."""
    m = 0.0
    for x, y in zip(a, b):
        v = abs(x - y)
        if v > m:
            m = v
    return m
