"""Gaussian-rational arithmetic against the complex-number oracle."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from diracsplit.errors import BackendMismatch
from diracsplit.scalars import (
    EXACT,
    FLOAT,
    GaussianRational,
    I,
    SCALAR_TYPE,
    coerce_real,
    coerce_scalar,
)

fractions = st.fractions(
    min_value=-50, max_value=50, max_denominator=16
)
gaussians = st.builds(GaussianRational, fractions, fractions)


@given(gaussians, gaussians)
def test_add_componentwise(a, b):
    c = a + b
    assert c.re == a.re + b.re and c.im == a.im + b.im


@given(gaussians, gaussians)
def test_sub_inverts_add(a, b):
    assert (a + b) - b == a


@given(gaussians, gaussians, gaussians)
def test_mul_distributes_over_add(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(gaussians, gaussians, gaussians)
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(gaussians, gaussians)
def test_mul_is_exact_gaussian_product(a, b):
    c = a * b
    assert c.re == a.re * b.re - a.im * b.im
    assert c.im == a.re * b.im + a.im * b.re


@given(gaussians, gaussians)
def test_division_inverts_multiplication(a, b):
    if b.is_zero:
        return
    assert ((a / b) * b - a).is_zero


@given(gaussians)
def test_conjugate_involution(a):
    assert a.conjugate().conjugate() == a
    assert (a * a.conjugate()).im == 0


def test_i_squares_to_minus_one():
    assert I * I == GaussianRational(-1)


def test_exact_literals():
    half = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert half.re == Fraction(1, 2)
    assert half.im == Fraction(-3, 4)
    assert str(half)  # printable


def test_mixed_int_arithmetic():
    a = GaussianRational(2, 1)
    assert a + 1 == GaussianRational(3, 1)
    assert 1 - a == GaussianRational(-1, -1)
    assert a * 2 == GaussianRational(4, 2)
    assert (a / 2) * 2 == a


def test_scalar_helpers():
    assert not GaussianRational(0)
    assert not 0.0 and not 0j
    assert GaussianRational(0, 1)
    assert abs(GaussianRational(3, 4)) == 5.0
    assert isinstance(abs(GaussianRational(3, 4)), float)
    assert abs(3 + 4j) == 5.0
    assert abs(Fraction(-7, 2)) == 3.5


@pytest.mark.parametrize("re, im", [(0.1, 0), (0, 0.5), (1 + 0j, 0), (0, 2j), (1.0, 1.0)])
def test_float_parts_never_enter_the_exact_backend(re, im):
    with pytest.raises(BackendMismatch):
        GaussianRational(re, im)


def test_each_backend_builds_its_scalar_type_from_parts():
    assert SCALAR_TYPE[EXACT](Fraction(1, 2), -3) == GaussianRational(Fraction(1, 2), -3)
    assert SCALAR_TYPE[FLOAT](0.5, -3.0) == 0.5 - 3j
    for backend, kind in ((EXACT, GaussianRational), (FLOAT, complex)):
        assert type(SCALAR_TYPE[backend](1, 2)) is kind
        assert type(SCALAR_TYPE[backend](0)) is kind


def test_coercion_backends():
    g = coerce_scalar(2, EXACT)
    assert isinstance(g, GaussianRational) and g.re == 2
    assert coerce_scalar(Fraction(1, 2), FLOAT) == 0.5 + 0j
    assert coerce_real(Fraction(1, 2), FLOAT) == 0.5
    # cross-backend mixing must be explicit, never silent
    with pytest.raises(BackendMismatch):
        coerce_scalar(GaussianRational(1, 1), FLOAT)
    with pytest.raises(BackendMismatch):
        coerce_scalar(1.5, EXACT)
    with pytest.raises(BackendMismatch):
        coerce_scalar(object(), EXACT)
    assert GaussianRational(1, 1).to_complex() == 1 + 1j


def test_truediv_by_gaussian():
    a = GaussianRational(1, 1)
    inv = 1 / a
    assert (inv * a) == GaussianRational(1)


def test_immutability():
    a = GaussianRational(1, 2)
    with pytest.raises(AttributeError):
        a.re = Fraction(5)


@pytest.mark.parametrize("roundtrip", (lambda x: pickle.loads(pickle.dumps(x)),
                                       copy.copy, copy.deepcopy),
                         ids=("pickle", "copy", "deepcopy"))
@pytest.mark.parametrize("value", (GaussianRational(1, 2), GaussianRational(Fraction(-1, 3)), I))
def test_pickle_and_copy_rebuild_an_equal_exact_scalar(roundtrip, value):
    again = roundtrip(value)
    assert again == value and hash(again) == hash(value)
    assert type(again) is GaussianRational
    assert (type(again.re), type(again.im)) == (Fraction, Fraction)
    with pytest.raises(AttributeError, match="immutable"):
        again.re = Fraction(0)
