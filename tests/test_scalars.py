"""Gaussian-rational arithmetic against the complex-number oracle and a Fraction-pair model."""

import copy
import operator
import pickle
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit.errors import BackendMismatch
from diracsplit.matrices import Matrix
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
    a = GaussianRational(Fraction(1, 3), 2)
    for name in ("_a", "_b", "_d", "re", "im"):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(a, name, 5)
        with pytest.raises(AttributeError, match="immutable"):
            delattr(a, name)
    assert (a._a, a._b, a._d) == (1, 6, 3)


@pytest.mark.parametrize("roundtrip", (lambda x: pickle.loads(pickle.dumps(x)),
                                       copy.copy, copy.deepcopy),
                         ids=("pickle", "copy", "deepcopy"))
@pytest.mark.parametrize("value", (GaussianRational(1, 2), GaussianRational(Fraction(-1, 3)), I,
                                   GaussianRational(Fraction(2**80 + 1, 3),
                                                    Fraction(-(10**30) - 7, 2**64 + 1))))
def test_pickle_and_copy_rebuild_an_equal_exact_scalar(roundtrip, value):
    again = roundtrip(value)
    assert again == value and hash(again) == hash(value)
    assert type(again) is GaussianRational
    assert (again._a, again._b, again._d) == (value._a, value._b, value._d)
    assert (type(again.re), type(again.im)) == (Fraction, Fraction)
    with pytest.raises(AttributeError, match="immutable"):
        again.re = Fraction(0)


# -- the integer-triple representation ------------------------------------------

#: parts far beyond 2**53, with denominators that are mostly not powers of 2
wide_parts = st.one_of(
    st.integers(-2**200, 2**200),
    st.builds(Fraction, st.integers(-2**300, 2**300), st.integers(1, 2**120)),
    st.builds(Fraction, st.integers(-2**60, 2**60), st.sampled_from((3, 7, 10, 2**64 + 1))),
)
wide_gaussians = st.builds(GaussianRational, wide_parts, wide_parts)
#: an operand of exact arithmetic: a scalar, an int or a Fraction
operands = st.one_of(wide_gaussians, st.integers(-2**100, 2**100), wide_parts)


def _model(x) -> tuple:
    """The (re, im) Fraction pair of an exact operand."""
    if isinstance(x, GaussianRational):
        return x.re, x.im
    return Fraction(x), Fraction(0)


def _model_op(name, x, y) -> tuple:
    (a, b), (c, e) = _model(x), _model(y)
    if name == "add":
        return a + c, b + e
    if name == "sub":
        return a - c, b - e
    if name == "mul":
        return a * c - b * e, a * e + b * c
    n = c * c + e * e
    return (a * c + b * e) / n, (b * c - a * e) / n


def _assert_canonical(z):
    assert type(z) is GaussianRational
    a, b, d = z._a, z._b, z._d
    assert (type(a), type(b), type(d)) == (int, int, int)
    assert d > 0 and gcd(a, b, d) == 1


_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
        "div": operator.truediv}


@settings(max_examples=300)
@given(st.sampled_from(sorted(_OPS)), operands, operands)
def test_every_operation_is_canonical_and_matches_the_fraction_model(name, x, y):
    if not (isinstance(x, GaussianRational) or isinstance(y, GaussianRational)):
        x = GaussianRational(x)
    if name == "div" and not y:
        with pytest.raises(ZeroDivisionError):
            _OPS[name](x, y)
        return
    z = _OPS[name](x, y)
    _assert_canonical(z)
    assert (z.re, z.im) == _model_op(name, x, y)
    assert (type(z.re), type(z.im)) == (Fraction, Fraction)


@given(wide_parts, wide_parts)
def test_construction_negation_and_conjugation_are_canonical(re, im):
    z = GaussianRational(re, im)
    for w, want in ((z, (re, im)), (-z, (-re, -im)), (z.conjugate(), (re, -im)),
                    (GaussianRational(re), (re, 0)), (GaussianRational(0, im), (0, im))):
        _assert_canonical(w)
        assert (w.re, w.im) == want
    assert z.is_zero == (not z) == (re == 0 and im == 0)


@given(wide_gaussians)
def test_to_complex_rounds_each_part_as_float_of_its_fraction(z):
    got = z.to_complex()
    want = complex(float(z.re), float(z.im))
    assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex())


@pytest.mark.parametrize("re, im", [
    (2**53 + 1, -(2**64 + 3)),
    (Fraction(2**80 + 1, 3), Fraction(-1, 10)),
    (Fraction(1, 2**64 + 1), Fraction(-(10**30) - 7, 7)),
])
def test_to_complex_beyond_double_precision(re, im):
    z = GaussianRational(re, im).to_complex()
    assert (z.real.hex(), z.imag.hex()) == (float(Fraction(re)).hex(), float(Fraction(im)).hex())


exact_reals = st.one_of(st.integers(-4, 4), st.fractions(min_value=-4, max_value=4,
                                                         max_denominator=4))
exact_values = st.one_of(exact_reals, st.builds(GaussianRational, exact_reals, exact_reals),
                         st.builds(GaussianRational, exact_reals))


@given(exact_values, exact_values)
def test_equal_values_hash_equal(x, y):
    if x == y:
        assert hash(x) == hash(y)
    assert (x == y) == (y == x)


@given(exact_reals)
def test_a_real_scalar_equals_and_hashes_as_its_real(r):
    z = GaussianRational(r)
    assert z == r and hash(z) == hash(r) == hash(Fraction(r))
    assert len({z, r}) == 1
    assert {r: "x"}.get(z) == "x" and {z: "x"}.get(r) == "x"


def test_hash_agrees_with_eq_on_the_reported_cases():
    assert len({GaussianRational(2), 2}) == 1
    assert {2: "x"}.get(GaussianRational(2)) == "x"
    assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
    assert GaussianRational(1, 1) != 1 and GaussianRational(1, 1) != (1 + 1j)


def test_exact_matrix_products_build_no_fraction(monkeypatch):
    """4x4 exact ``Matrix.apply`` and ``Matrix @ Matrix`` do integer arithmetic only.

    Every ``Fraction`` built while they run is counted: through
    ``Fraction.__new__``, and through ``Fraction._from_coprime_ints``
    where the interpreter's ``fractions`` builds arithmetic results there.
    """
    built = [0]
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built[0] += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    coprime = vars(Fraction).get("_from_coprime_ints")
    if coprime is not None:
        def counting_coprime(cls, *args):
            built[0] += 1
            return coprime.__func__(cls, *args)

        monkeypatch.setattr(Fraction, "_from_coprime_ints", classmethod(counting_coprime))
    assert Fraction(1, 3) * Fraction(3, 7) == Fraction(1, 7) and built[0] >= 2  # the count works
    a = Matrix(4, EXACT, tuple(GaussianRational(Fraction(k - 7, 3), Fraction(k, 7 + k))
                               for k in range(16)))
    b = Matrix(4, EXACT, tuple(GaussianRational(k % 5 - 2, Fraction(1, k + 2)) for k in range(16)))
    v = (I, GaussianRational(Fraction(-1, 2)), GaussianRational(3, Fraction(5, 6)), 2)
    built[0] = 0
    product, image = a @ b, a.apply(v)
    assert built[0] == 0
    assert product.apply(v) == a.apply(b.apply(v)) and image == a.apply(v)
    assert built[0] == 0
