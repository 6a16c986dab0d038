"""Kernels against hand-worked oracles, and one kernel for both backends."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit import kernels
from diracsplit.matrices import Matrix
from diracsplit.scalars import EXACT, FLOAT, GaussianRational
from field_helpers import max_abs_diff

NAN = float("nan")


def test_selected_implementation_exposed():
    assert kernels.IMPLEMENTATION == "pure-python"


def test_pure_mul_oracle():
    # [[1, i], [0, 2]] @ [[1, 0], [3, 1]] worked by hand
    a = (1 + 0j, 1j, 0j, 2 + 0j)
    b = (1 + 0j, 0j, 3 + 0j, 1 + 0j)
    assert kernels.mul(2, a, b) == (1 + 3j, 1j, 6 + 0j, 2 + 0j)


def test_pure_mul_vec_oracle():
    a = (1 + 0j, 1j, 0j, 2 + 0j)
    assert kernels.mul_vec(2, a, (1 + 0j, 1 + 0j)) == (1 + 1j, 2 + 0j)


def test_pure_max_abs():
    assert kernels.max_abs((3 + 4j, 1 + 0j)) == 5.0
    assert kernels.max_abs(()) == 0.0
    assert kernels.max_abs_diff((3 + 4j, 1 + 0j), (0j, 1 + 0j)) == 5.0



@pytest.mark.parametrize("values", [(1e-12, NAN), (NAN, 1e-12)])
def test_max_abs_propagates_nan(values):
    assert math.isnan(kernels.max_abs(values))
    assert math.isnan(kernels.max_abs(iter(values)))
    assert math.isnan(kernels.max_abs_diff(values, (0j, 0j)))


def test_ordered_sum_adds_left_to_right():
    # a compensated sum (``sum`` on Python 3.12 and later) gives 1.0 and 1+0j here
    assert repr(kernels.ordered_sum((1e16, 1.0, -1e16))) == "0.0"
    assert repr(kernels.ordered_sum(iter((1e16 + 0j, 1 + 0j, -1e16 + 0j)), 0j)) == "0j"
    # seeded from 0.0 as ``sum`` is from 0, so a lone -0.0 sums to 0.0
    assert repr(kernels.ordered_sum((-0.0,))) == "0.0"
    assert repr(kernels.ordered_sum((complex(-0.0, -0.0),), 0j)) == "0j"
    assert kernels.ordered_sum(()) == 0.0


# -- one kernel for both backends -------------------------------------------------

_parts = st.fractions(min_value=-20, max_value=20, max_denominator=12)
_exact_scalars = st.builds(GaussianRational, _parts, _parts)
_finite_parts = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_float_scalars = st.builds(complex, _finite_parts, _finite_parts)


def _exact_matrices(n):
    return st.lists(_exact_scalars, min_size=n * n, max_size=n * n).map(
        lambda xs: Matrix(n, EXACT, tuple(xs)))


def _close(exact, flt):
    """The float result agrees with the promoted exact one to roundoff."""
    assert abs(exact.to_complex() - flt) <= 1e-12 * (1.0 + abs(flt))


def _mul_seeded(n, a, b):
    """The float product accumulated from ``0j``: the kernels equal it up to the sign of a zero."""
    out = []
    for i in range(n):
        for j in range(n):
            acc = 0j
            for k in range(n):
                acc = acc + a[i * n + k] * b[k * n + j]
            out.append(acc)
    return tuple(out)


def _mul_vec_seeded(n, a, v):
    out = []
    for i in range(n):
        acc = 0j
        for k in range(n):
            acc = acc + a[i * n + k] * v[k]
        out.append(acc)
    return tuple(out)


@st.composite
def _exact_cases(draw):
    n = draw(st.sampled_from([2, 4]))
    a, b = draw(_exact_matrices(n)), draw(_exact_matrices(n))
    v = tuple(draw(st.lists(_exact_scalars, min_size=n, max_size=n)))
    return a, b, v


@given(_exact_cases())
@settings(max_examples=60, deadline=None)
def test_exact_results_stay_exact_and_match_their_promotions(case):
    a, b, v = case
    fa, fb = a.to_float(), b.to_float()
    fv = tuple(x.to_complex() for x in v)

    prod, image, trace = a @ b, a.apply(v), a.trace()
    assert prod.backend == EXACT
    for x in prod.entries + image + (trace,):
        assert isinstance(x, GaussianRational)
    for x, y in zip(prod.entries, (fa @ fb).entries):
        _close(x, y)
    for x, y in zip(image, fa.apply(fv)):
        _close(x, y)
    _close(trace, fa.trace())

    # magnitudes: abs() of an exact scalar is the magnitude of its promotion
    assert isinstance(a.max_abs(), float)
    assert a.max_abs() == fa.max_abs()
    scale = 1.0 + a.max_abs() + b.max_abs()
    assert abs(max_abs_diff(a, b) - max_abs_diff(fa, fb)) <= 1e-12 * scale
    assert (a - b).is_zero == (a == b) == (fa - fb).is_zero
    assert (a - a).is_zero and (fa - fa).is_zero


@st.composite
def _float_cases(draw):
    n = draw(st.sampled_from([2, 4]))
    a = tuple(draw(st.lists(_float_scalars, min_size=n * n, max_size=n * n)))
    b = tuple(draw(st.lists(_float_scalars, min_size=n * n, max_size=n * n)))
    v = tuple(draw(st.lists(_float_scalars, min_size=n, max_size=n)))
    return n, a, b, v


@given(_float_cases())
@settings(max_examples=60, deadline=None)
def test_float_kernels_equal_the_zero_seeded_loops(case):
    # seeding from the first product changes at most the sign of an exactly-zero part
    n, a, b, v = case
    assert kernels.mul(n, a, b) == _mul_seeded(n, a, b)
    assert kernels.mul_vec(n, a, v) == _mul_vec_seeded(n, a, v)
    m = Matrix(n, FLOAT, a)
    seeded_trace = 0j
    for i in range(n):
        seeded_trace = seeded_trace + a[i * n + i]
    assert m.trace() == seeded_trace


# -- unrolled n = 4 and n = 2 forms -------------------------------------------------


def _mul_loop(n, a, b):
    """The reference loop: each entry summed left to right from its first product."""
    out = []
    for i in range(n):
        for j in range(n):
            acc = a[i * n] * b[j]
            for k in range(1, n):
                acc = acc + a[i * n + k] * b[k * n + j]
            out.append(acc)
    return tuple(out)


def _mul_vec_loop(n, a, v):
    out = []
    for i in range(n):
        acc = a[i * n] * v[0]
        for k in range(1, n):
            acc = acc + a[i * n + k] * v[k]
        out.append(acc)
    return tuple(out)


#: parts that make signed zeros, overflow, inf - inf and 0 * inf
_special_parts = st.sampled_from((0.0, -0.0, 1.0, -1.0, 0.5, 1e308, -1e308,
                                  float("inf"), float("-inf"), NAN)) | st.floats()
_special_scalars = st.builds(complex, _special_parts, _special_parts)


@st.composite
def _kernel_cases(draw):
    n = draw(st.sampled_from([2, 4]))
    scalars = draw(st.sampled_from([_special_scalars, _exact_scalars]))
    a, b = (tuple(draw(st.lists(scalars, min_size=n * n, max_size=n * n))) for _ in range(2))
    v = tuple(draw(st.lists(scalars, min_size=n, max_size=n)))
    return n, a, b, v


@given(_kernel_cases())
@settings(max_examples=80, deadline=None)
def test_unrolled_kernels_equal_the_loop_bit_for_bit(case):
    """Same products, same order: equal reprs, so signed zeros, inf and NaN agree too."""
    n, a, b, v = case
    assert repr(kernels.mul(n, a, b)) == repr(_mul_loop(n, a, b))
    assert repr(kernels.mul_vec(n, a, v)) == repr(_mul_vec_loop(n, a, v))


def test_a_matrix_has_only_the_sizes_the_kernels_write_out():
    """The kernels are written out for n = 4 and n = 2 alone, so no other Matrix is made."""
    makers = (lambda n: Matrix(n, FLOAT, (0j,) * (n * n)), lambda n: Matrix.exact([[1] * n] * n),
              Matrix.identity, Matrix.zero, lambda n: Matrix.diag((1,) * n))
    for n in (1, 3):
        for make in makers:
            with pytest.raises(ValueError, match="2x2 or 4x4"):
                make(n)
    for n in (2, 4):
        assert [make(n).n for make in makers] == [n] * len(makers)
