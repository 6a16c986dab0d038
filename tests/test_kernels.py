"""Float kernels against hand-worked oracles."""

import math

import pytest

from diracsplit import kernels

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
