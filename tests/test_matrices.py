"""Exact/float matrix layer: algebra and promotion."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from diracsplit.errors import BackendMismatch
from diracsplit.matrices import Matrix, commutator
from diracsplit.scalars import EXACT, FLOAT, GaussianRational
from field_helpers import max_abs_diff


def test_identity_and_zero():
    for n in (2, 4):
        ident = Matrix.identity(n)
        zero = Matrix.zero(n)
        assert (ident @ ident - ident).is_zero
        assert (ident + zero - ident).is_zero
        assert ident.trace() == GaussianRational(n)


def test_exact_matmul_oracle():
    a = Matrix.exact([[1, 2], [3, 4]])
    b = Matrix.exact([[5, 6], [7, 8]])
    want = Matrix.exact([[19, 22], [43, 50]])
    assert (a @ b - want).is_zero


def test_diag_and_transpose():
    for values in ((1, -2), (1, -2, 3, Fraction(1, 2))):
        d = Matrix.diag(values)
        assert d.transpose() == d
        assert d.entries[:: d.n + 1] == tuple(GaussianRational(v) for v in values)
    a = Matrix.exact([[0, 1], [0, 0]])
    assert a.transpose() == Matrix.exact([[0, 0], [1, 0]])


def test_adjoint_conjugates():
    i = GaussianRational(0, 1)
    a = Matrix.exact([[0, 0], [0, 0]]) + Matrix(2, EXACT, (i, i, i, i))
    adj = a.adjoint()
    assert adj.entries[0] == i.conjugate()


def test_backend_mismatch_rejected():
    a = Matrix.identity(2, EXACT)
    b = Matrix.identity(2, FLOAT)
    with pytest.raises(BackendMismatch):
        a @ b
    with pytest.raises(BackendMismatch):
        a + b


def test_an_exact_matrix_holds_gaussian_rationals_only():
    """The bare constructor refuses any other exact entry, so no product meets an int.

    ``Matrix.exact`` coerces ints and Fractions; float entries go unchecked.
    """
    with pytest.raises(TypeError, match="GaussianRational"):
        Matrix(2, EXACT, (1, 2, 3, 4))
    one = GaussianRational(1)
    with pytest.raises(TypeError, match="GaussianRational"):
        Matrix(2, EXACT, (one, Fraction(1, 2), one, one))
    coerced = Matrix(2, EXACT, tuple(map(GaussianRational, range(1, 5))))
    assert Matrix.exact([[1, 2], [3, 4]]) == coerced
    assert Matrix(2, FLOAT, (1, 2, 3, 4)).entries == (1, 2, 3, 4)


def test_to_float_matches_exact():
    a = Matrix.exact([[1, GaussianRational(0, 1)], [GaussianRational(1, 2), 0]])
    f = a.to_float()
    assert f.backend == FLOAT
    assert f.entries[1] == 1j
    assert f.entries[2] == 1 + 2j
    assert f.to_float() is f  # promotion is idempotent


complex_entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False
)


@settings(max_examples=50, deadline=None)
@given(st.lists(complex_entries, min_size=4, max_size=4))
def test_float_matmul_associates_with_vector(entries):
    a = Matrix(2, FLOAT, tuple(entries))
    ident = Matrix.identity(2, FLOAT)
    assert max_abs_diff(a @ ident, a) == 0.0
    assert max_abs_diff(ident @ a, a) == 0.0


def test_commutator_antisymmetric():
    a = Matrix.exact([[0, 1], [0, 0]])
    b = Matrix.exact([[0, 0], [1, 0]])
    assert (commutator(a, b) + commutator(b, a)).is_zero
    # [a, b] = diag(1, -1) for these ladder matrices
    assert (commutator(a, b) - Matrix.diag((1, -1))).is_zero


def test_apply_vector():
    a = Matrix.exact([[1, 2], [3, 4]])
    out = a.apply((GaussianRational(1), GaussianRational(1)))
    assert out == (GaussianRational(3), GaussianRational(7))
    with pytest.raises(ValueError):
        a.apply((GaussianRational(1),))


def test_max_abs_exact_and_float():
    a = Matrix.exact([[GaussianRational(3, 4), 0], [0, 1]])
    assert a.max_abs() == 5.0
    f = Matrix(2, FLOAT, (3 + 4j, 0j, 0j, 1 + 0j))
    assert f.max_abs() == 5.0


@pytest.mark.parametrize("roundtrip", (lambda x: pickle.loads(pickle.dumps(x)),
                                       copy.copy, copy.deepcopy),
                         ids=("pickle", "copy", "deepcopy"))
@pytest.mark.parametrize("backend", (EXACT, FLOAT))
def test_pickle_and_copy_rebuild_an_equal_matrix(roundtrip, backend):
    m = Matrix.exact([[1, GaussianRational(0, 2)], [Fraction(1, 3), -4]])
    if backend == FLOAT:
        m = m.to_float()
    again = roundtrip(m)
    assert again == m and hash(again) == hash(m)
    assert (again.n, again.backend) == (2, backend)
    assert [type(a) for a in again.entries] == [type(a) for a in m.entries]
    with pytest.raises(AttributeError, match="immutable"):
        again.n = 3
