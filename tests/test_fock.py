"""The truncated Fock space of blockade.model, and the ladder operator the
dense test oracles build on it."""

import numpy as np
import pytest

from helpers import ladder

from blockade.model import FockSpace


def test_fockspace_validation():
    assert FockSpace(3).dim == 3
    with pytest.raises(ValueError):
        FockSpace(0)
    with pytest.raises(ValueError):
        FockSpace(-2)
    with pytest.raises(TypeError):
        FockSpace(3.0)


def test_annihilation_d3():
    a = ladder(3)
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2.0)
    np.testing.assert_array_equal(a, expected)


def test_annihilation_d2():
    a = ladder(2)
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 1] = 1.0
    np.testing.assert_array_equal(a, expected)


def test_annihilation_sqrt_entry():
    a = ladder(5)
    assert a[3, 4] == 2.0


def test_number_operator_diagonal():
    a = ladder(4)
    n_op = a.conj().T @ a
    np.testing.assert_allclose(n_op, np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex), atol=1e-15)


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_truncated_commutator(dim):
    a = ladder(dim)
    ad = a.conj().T
    comm = a @ ad - ad @ a
    expected = np.eye(dim, dtype=complex)
    expected[dim - 1, dim - 1] = 1 - dim
    # identity everywhere except the corner entry 1-D left by the truncation
    assert np.max(np.abs(comm - expected)) < 1e-12

