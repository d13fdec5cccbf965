import numpy as np
import pytest

from blockade.fock import FockSpace, annihilation, creation, expectation


def ketbra(dim, n):
    rho = np.zeros((dim, dim), dtype=complex)
    rho[n, n] = 1.0
    return rho


def test_fockspace_validation():
    assert FockSpace(3).dim == 3
    with pytest.raises(ValueError):
        FockSpace(0)
    with pytest.raises(ValueError):
        FockSpace(-2)
    with pytest.raises(TypeError):
        FockSpace(3.0)


def test_annihilation_d3():
    a = annihilation(FockSpace(3))
    expected = np.zeros((3, 3), dtype=complex)
    expected[0, 1] = 1.0
    expected[1, 2] = np.sqrt(2.0)
    np.testing.assert_array_equal(a, expected)


def test_annihilation_d2():
    a = annihilation(FockSpace(2))
    expected = np.zeros((2, 2), dtype=complex)
    expected[0, 1] = 1.0
    np.testing.assert_array_equal(a, expected)


def test_annihilation_sqrt_entry():
    a = annihilation(FockSpace(5))
    assert a[3, 4] == 2.0


def test_creation_is_adjoint_of_annihilation():
    ad = creation(FockSpace(3))
    assert ad[1, 0] == 1.0
    assert ad[2, 1] == pytest.approx(np.sqrt(2.0))
    np.testing.assert_array_equal(creation(FockSpace(6)).conj().T, annihilation(FockSpace(6)))


def test_number_operator_diagonal():
    space = FockSpace(4)
    n_op = creation(space) @ annihilation(space)
    np.testing.assert_allclose(n_op, np.diag([0.0, 1.0, 2.0, 3.0]).astype(complex), atol=1e-15)


def test_expectation_examples():
    dim = 4
    space = FockSpace(dim)
    n_op = creation(space) @ annihilation(space)
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    assert expectation(np.eye(dim, dtype=complex), rho) == pytest.approx(1.0)
    assert expectation(n_op, ketbra(dim, 1)) == pytest.approx(1.0)
    mixed = 0.5 * ketbra(dim, 0) + 0.5 * ketbra(dim, 2)
    assert expectation(n_op, mixed) == pytest.approx(1.0)


def test_expectation_dimension_mismatch():
    with pytest.raises(ValueError):
        expectation(np.eye(3, dtype=complex), np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        expectation(np.ones((2, 3), dtype=complex), np.eye(3, dtype=complex))


def test_expectation_linear_in_both_arguments():
    rng = np.random.default_rng(17)
    for _ in range(10):
        op1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        op2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho1 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho2 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        alpha = complex(rng.normal(), rng.normal())
        lhs = expectation(op1 + alpha * op2, rho1)
        rhs = expectation(op1, rho1) + alpha * expectation(op2, rho1)
        assert abs(lhs - rhs) < 1e-10
        lhs = expectation(op1, rho1 + alpha * rho2)
        rhs = expectation(op1, rho1) + alpha * expectation(op1, rho2)
        assert abs(lhs - rhs) < 1e-10


@pytest.mark.parametrize("dim", [2, 3, 5, 8])
def test_truncated_commutator(dim):
    space = FockSpace(dim)
    a = annihilation(space)
    ad = creation(space)
    comm = a @ ad - ad @ a
    expected = np.eye(dim, dtype=complex)
    expected[dim - 1, dim - 1] = 1 - dim
    # identity everywhere except the corner entry 1-D left by the truncation
    assert np.max(np.abs(comm - expected)) < 1e-12


def test_operators_are_readonly():
    a = annihilation(FockSpace(3))
    with pytest.raises(ValueError):
        a[0, 0] = 1.0
