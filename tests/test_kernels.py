"""Kernels against hand-worked oracles and the reference loop, on both backends."""

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

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
    assert max_abs_diff(Matrix(2, FLOAT, (3 + 4j, 1 + 0j, 0j, 0j)),
                        Matrix(2, FLOAT, (0j, 1 + 0j, 0j, 0j))) == 5.0



@pytest.mark.parametrize("values", [(1e-12, NAN), (NAN, 1e-12)])
def test_max_abs_propagates_nan(values):
    assert math.isnan(kernels.max_abs(values))
    assert math.isnan(kernels.max_abs(iter(values)))
    assert math.isnan(max_abs_diff(Matrix(2, FLOAT, values + (0j, 0j)), Matrix.zero(2, FLOAT)))


def test_ordered_sum_adds_left_to_right():
    # a compensated sum (``sum`` on Python 3.12 and later) gives 1.0 and 1+0j here
    assert repr(kernels.ordered_sum((1e16, 1.0, -1e16))) == "0.0"
    assert repr(kernels.ordered_sum(iter((1e16 + 0j, 1 + 0j, -1e16 + 0j)), 0j)) == "0j"
    # seeded from 0.0 as ``sum`` is from 0, so a lone -0.0 sums to 0.0
    assert repr(kernels.ordered_sum((-0.0,))) == "0.0"
    assert repr(kernels.ordered_sum((complex(-0.0, -0.0),), 0j)) == "0j"
    assert kernels.ordered_sum(()) == 0.0


# -- the written-out kernels on both backends ----------------------------------------

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



# -- the exact product kernel -------------------------------------------------------

_ZERO = GaussianRational(0)
_small_ints = st.integers(-9, 9)
_denominators = st.sampled_from((1, 2, 3, 4, 6, 12))


@st.composite
def _sparse_exact_entries(draw, integer: bool):
    """Three in four entries are exact zeros; the parts of the rest have their own denominators."""
    if draw(st.integers(0, 3)):
        return _ZERO
    if integer:
        return GaussianRational(draw(_small_ints), draw(_small_ints))
    re = Fraction(draw(_small_ints), draw(_denominators))
    return GaussianRational(re, Fraction(draw(_small_ints), draw(_denominators)))


@st.composite
def _sparse_exact_matrix(draw, n: int) -> tuple:
    shape = draw(st.sampled_from(("sparse", "integer", "zero", "zero-row")))
    if shape == "zero":
        return (_ZERO,) * (n * n)
    entries = draw(st.lists(_sparse_exact_entries(shape == "integer"),
                            min_size=n * n, max_size=n * n))
    if shape == "zero-row":
        row = draw(st.integers(0, n - 1))
        entries[row * n : (row + 1) * n] = [_ZERO] * n
    return tuple(entries)


@st.composite
def _exact_product_cases(draw):
    n = draw(st.sampled_from([2, 4]))
    return n, draw(_sparse_exact_matrix(n)), draw(_sparse_exact_matrix(n))


def _triple(x):
    return x._a, x._b, x._d


_GAUSSIAN_INTEGERS = tuple(GaussianRational(k % 5 - 2, k % 3 - 1) for k in range(16))
_FIRST_ROW_ZERO = (_ZERO,) * 4 + tuple(GaussianRational(Fraction(k, 6), Fraction(1, k))
                                      for k in range(1, 13))


@given(_exact_product_cases())
@example((4, (_ZERO,) * 16, _GAUSSIAN_INTEGERS))
@example((4, _GAUSSIAN_INTEGERS, _GAUSSIAN_INTEGERS))
@example((4, _GAUSSIAN_INTEGERS, _FIRST_ROW_ZERO))
@example((2, _FIRST_ROW_ZERO[:4], _FIRST_ROW_ZERO[4:8]))
@settings(max_examples=150, deadline=None)
def test_exact_kernel_equals_the_loop_and_is_canonical(case):
    n, a, b = case
    product = kernels.mul_exact(n, a, b)
    assert product == _mul_loop(n, a, b)
    for x in product:
        assert type(x) is GaussianRational
        assert _triple(x) == _triple(GaussianRational(x.re, x.im))


def test_exact_kernel_on_every_product_of_view_matrices(all_reps):
    for rep in all_reps:
        view = rep.on(EXACT)
        named = view.gammas + (view.gamma5, view.q_plus, view.q_minus) + view.p + (view.v,)
        for a in named:
            for b in named:
                expected = _mul_loop(4, a.entries, b.entries)
                assert kernels.mul_exact(4, a.entries, b.entries) == expected
                assert (a @ b).entries == expected


@st.composite
def _special_float_cases(draw):
    n = draw(st.sampled_from([2, 4]))
    a, b = (tuple(draw(st.lists(_special_scalars, min_size=n * n, max_size=n * n)))
            for _ in range(2))
    return n, a, b


@given(_special_float_cases())
@settings(max_examples=60, deadline=None)
def test_float_matrix_products_stay_on_the_written_out_kernel(case):
    """Signed zeros, inf and NaN come out of ``Matrix @ Matrix`` as the loop makes them."""
    n, a, b = case
    assert repr((Matrix(n, FLOAT, a) @ Matrix(n, FLOAT, b)).entries) == repr(_mul_loop(n, a, b))


def test_an_exact_product_of_gaussian_integer_matrices_does_no_scalar_arithmetic(monkeypatch):
    calls = []
    for name in ("__mul__", "__rmul__", "__add__", "__radd__"):
        def counted(self, other, _name=name, _original=vars(GaussianRational)[name]):
            calls.append(_name)
            return _original(self, other)

        monkeypatch.setattr(GaussianRational, name, counted)
    a = Matrix(4, EXACT, _GAUSSIAN_INTEGERS)
    b = Matrix(4, EXACT, _GAUSSIAN_INTEGERS[::-1])
    assert GaussianRational(2) * 3 + 1 == 7 and calls == ["__mul__", "__add__"]  # the count works
    calls.clear()
    product = a @ b
    assert calls == []
    monkeypatch.undo()
    assert product.entries == _mul_loop(4, a.entries, b.entries)


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
