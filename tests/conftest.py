import numpy as np
import pytest

from dipnet.qmat import DensityMatrix


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def ginibre_density(rng, nqubits: int) -> DensityMatrix:
    """Random full-rank density matrix (Ginibre construction)."""
    dim = 2 ** nqubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace(), nqubits)


def random_pure(rng, nqubits: int) -> DensityMatrix:
    dim = 2 ** nqubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()), nqubits)


def random_product_pure(rng, nqubits: int) -> DensityMatrix:
    m = np.array([[1.0]], dtype=complex)
    for _ in range(nqubits):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        m = np.kron(m, np.outer(v, v.conj()))
    return DensityMatrix(m, nqubits)


def charpoly_eigenvalues(m) -> np.ndarray:
    """Hermitian eigenvalues via the Faddeev-LeVerrier characteristic
    polynomial and a companion-matrix root solve. Deliberately independent
    of the Hermitian eigensolver used by the package."""
    a = np.asarray(m, dtype=complex)
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    mk = np.zeros_like(a)
    for k in range(1, n + 1):
        mk = a @ (mk + coeffs[-1] * np.eye(n))
        coeffs.append(-mk.trace() / k)
    roots = np.roots(np.array(coeffs))
    return np.sort(roots.real)
