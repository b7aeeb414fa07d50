import numpy as np
import pytest

from dipnet.qmat import (BadSubsystem, DensityMatrix, NotHermitian,
                         NotPositive, conjugate_pair_stack, density_matrix,
                         kron, partial_trace, partial_trace_stack,
                         partial_transpose, partial_transpose_stack,
                         trace_norm)
from dipnet.netmodel import x_state

from conftest import (SINGLET_PARAMS, charpoly_eigenvalues,
                      dipolar_hamiltonian,
                      ginibre_density, hermitian_eigenvalues,
                      matrix_exp_hermitian)

I2 = np.eye(2, dtype=complex)
SINGLET = x_state(SINGLET_PARAMS)


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), np.eye(4))


def test_kron_diagonal():
    out = kron(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert np.allclose(out, np.diag([3.0, 4.0, 6.0, 8.0]))


def test_kron_singlet_pair_trace():
    m = kron(SINGLET.mat, SINGLET.mat)
    assert m.shape == (16, 16)
    assert abs(m.trace() - 1.0) < 1e-14


def test_kron_associative(rng):
    for _ in range(5):
        a, b, c = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                   for _ in range(3))
        lhs = kron(kron(a, b), c)
        rhs = kron(a, kron(b, c))
        assert np.abs(lhs - rhs).max() < 1e-14


def test_eigenvalues_identity():
    assert np.allclose(hermitian_eigenvalues(np.eye(4)), np.ones(4))


def test_eigenvalues_diagonal_sorted():
    assert np.allclose(hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0])),
                       [1.0, 2.0, 3.0])


def test_eigenvalues_singlet_partial_transpose_oracle():
    pt = partial_transpose(SINGLET, (1,))
    got = hermitian_eigenvalues(pt)
    # frozen from the characteristic-polynomial oracle
    assert np.allclose(got, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)
    assert np.allclose(charpoly_eigenvalues(pt), got, atol=1e-8)


def test_eigenvalue_sum_matches_trace(rng):
    for _ in range(20):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        h = a + a.conj().T
        w = hermitian_eigenvalues(h)
        assert abs(w.sum() - h.trace().real) < 1e-9


def test_eigenvalues_reject_nonhermitian():
    with pytest.raises(NotHermitian):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_trace_norm_of_density_matrix_is_one(rng):
    for n in (1, 2, 3):
        rho = ginibre_density(rng, n)
        assert abs(trace_norm(rho.mat) - 1.0) < 1e-10


def test_trace_norm_singlet_partial_transpose():
    assert abs(trace_norm(partial_transpose(SINGLET, (1,))) - 2.0) < 1e-12


def test_trace_norm_zero():
    assert trace_norm(np.zeros((3, 3))) == 0.0


def test_partial_trace_product_factorization():
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    rho = density_matrix(kron(kron(SINGLET.mat, zero), zero))
    out = partial_trace(rho, (0, 1))
    assert np.abs(out.mat - SINGLET.mat).max() < 1e-14


def test_partial_trace_singlet_marginal():
    out = partial_trace(SINGLET, (0,))
    assert np.abs(out.mat - I2 / 2).max() < 1e-14


def test_partial_trace_of_kron_returns_factor(rng):
    for _ in range(5):
        a = ginibre_density(rng, 1)
        b = ginibre_density(rng, 2)
        rho = density_matrix(kron(a.mat, b.mat))
        out = partial_trace(rho, (0,))
        assert np.abs(out.mat - a.mat).max() < 1e-12
        out2 = partial_trace(rho, (1, 2))
        assert np.abs(out2.mat - b.mat).max() < 1e-12


def test_partial_trace_preserves_trace(rng):
    rho = ginibre_density(rng, 3)
    out = partial_trace(rho, (0, 2))
    assert abs(out.mat.trace() - 1.0) < 1e-12


# qubit selections the one index rule refuses on a two-qubit state: empty,
# repeated, out of order, out of range, not integers, not a sequence
# operator.index reads a bool as 0 or 1, so (False, True) would be (0, 1)
BAD_QUBITS = [(), (0, 0), (2, 0), (0, 5), (0.5, 1), (1, 0), (-1,),
              (np.float64(1.0),), ("0",), 1, (True,), (False, True)]


@pytest.mark.parametrize("keep", BAD_QUBITS[:5] + BAD_QUBITS[-2:])
def test_partial_trace_bad_subsystem(keep):
    rho = ginibre_density(np.random.default_rng(0), 2)
    with pytest.raises(BadSubsystem):
        partial_trace(rho, keep)


@pytest.mark.parametrize("qubits", BAD_QUBITS)
def test_every_kernel_applies_the_one_index_rule(qubits):
    mats = ginibre_density(np.random.default_rng(0), 2).mat[None]
    for kernel in (partial_trace_stack, partial_transpose_stack,
                   lambda m, q: conjugate_pair_stack(m, np.eye(4), q)):
        with pytest.raises(BadSubsystem):
            kernel(mats, qubits)


def test_numpy_integer_qubits_give_the_bits_of_int_qubits():
    rng = np.random.default_rng(3)
    rho = ginibre_density(rng, 3)
    u = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    for qubits in ((0, 2), (1,), (0, 1, 2)):
        as_numpy = tuple(np.int64(q) for q in qubits)
        assert np.array_equal(partial_trace(rho, as_numpy).mat,
                              partial_trace(rho, qubits).mat)
        assert np.array_equal(partial_transpose(rho, as_numpy),
                              partial_transpose(rho, qubits))
    assert np.array_equal(
        conjugate_pair_stack(rho.mat[None], u, np.array([0, 2])),
        conjugate_pair_stack(rho.mat[None], u, (0, 2)))


def test_qubit_count_comes_from_the_matrices():
    # a dimension that is not a power of two is refused by every kernel
    # and by the carrier, before any qubit index is read
    mats = np.array([np.eye(6) / 6.0] * 4)
    for call in (lambda: partial_trace_stack(mats, (0,)),
                 lambda: partial_transpose_stack(mats, (0,)),
                 lambda: conjugate_pair_stack(mats, np.eye(4), (0, 1)),
                 lambda: DensityMatrix(mats[0])):
        with pytest.raises(ValueError, match=r"2\*\*n") as err:
            call()
        assert type(err.value) is ValueError


def test_partial_transpose_product_state_stays_positive(rng):
    a = ginibre_density(rng, 1)
    b = ginibre_density(rng, 1)
    rho = density_matrix(kron(a.mat, b.mat))
    w = hermitian_eigenvalues(partial_transpose(rho, (1,)))
    assert w.min() > -1e-12


def test_partial_transpose_singlet_minimum_eigenvalue():
    w = charpoly_eigenvalues(partial_transpose(SINGLET, (1,)))
    assert abs(w.min() + 0.5) < 1e-8


def test_partial_transpose_involution(rng):
    # separable mixture: its partial transpose is again a valid state
    m = np.zeros((8, 8), dtype=complex)
    for _ in range(6):
        m += kron(ginibre_density(rng, 1).mat,
                  ginibre_density(rng, 2).mat) / 6.0
    rho = density_matrix(m)
    pt = partial_transpose(rho, (1, 2))
    back = partial_transpose(density_matrix(pt), (1, 2))
    assert np.abs(back - rho.mat).max() < 1e-12


def test_partial_transpose_preserves_trace_and_hermiticity(rng):
    rho = ginibre_density(rng, 2)
    pt = partial_transpose(rho, (0,))
    assert abs(pt.trace() - 1.0) < 1e-12
    assert np.abs(pt - pt.conj().T).max() < 1e-12


def test_matrix_exp_zero_time():
    h = dipolar_hamiltonian(1.3, -0.4)
    assert np.abs(matrix_exp_hermitian(h, 0.0) - np.eye(4)).max() < 1e-14


def test_matrix_exp_diagonal_phase():
    out = matrix_exp_hermitian(np.diag([np.pi, 0.0]), 1.0)
    assert np.allclose(out, np.diag([-1.0, 1.0]), atol=1e-14)


def test_matrix_exp_unitary_for_dipolar_hamiltonian():
    u = matrix_exp_hermitian(dipolar_hamiltonian(1.0, 0.3), 2.0)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


def test_matrix_exp_rejects_nonhermitian():
    with pytest.raises(NotHermitian):
        matrix_exp_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


def test_density_matrix_validation():
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(4) / 2.0)   # trace 2
    with pytest.raises(NotHermitian):
        DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))
    with pytest.raises(NotPositive):
        DensityMatrix(np.diag([1.5, -0.5]).astype(complex))
    with pytest.raises(ValueError):
        DensityMatrix(np.eye(3) / 3.0)   # dim not a power of two


def test_density_matrix_is_immutable():
    rho = density_matrix(np.eye(4) / 4.0)
    with pytest.raises(ValueError):
        rho.mat[0, 0] = 0.3
