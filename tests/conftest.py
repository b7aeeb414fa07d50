from dataclasses import dataclass

import numpy as np
import pytest

import dipnet.closedform as closedform
import dipnet.measures as measures
from dipnet.netmodel import channel_qubits, coupling_matrices, initial_network
from dipnet.qmat import (BadSubsystem, DensityMatrix, as_complex_matrix,
                         conjugate_pair_stack, kron, partial_trace_stack,
                         require_hermitian_stack)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# Pair presets as (a, b, c) triples; the library's one rule is
# NetworkConfig.pair_params.
SINGLET_PARAMS = (-1.0, -1.0, -1.0)


def werner_params(x: float) -> tuple:
    """Werner mixture x * singlet + (1 - x) * I/4."""
    return (-x, -x, -x)


def ginibre_density(rng, nqubits: int) -> DensityMatrix:
    """Random full-rank density matrix (Ginibre construction)."""
    dim = 2 ** nqubits
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return DensityMatrix(m / m.trace())


def random_pure(rng, nqubits: int) -> DensityMatrix:
    dim = 2 ** nqubits
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    v /= np.linalg.norm(v)
    return DensityMatrix(np.outer(v, v.conj()))


def random_product_pure(rng, nqubits: int) -> DensityMatrix:
    m = np.array([[1.0]], dtype=complex)
    for _ in range(nqubits):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v /= np.linalg.norm(v)
        m = np.kron(m, np.outer(v, v.conj()))
    return DensityMatrix(m)


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


# Reference helpers that the library itself never calls. The NAQC ones run
# the library's private kernels, so their tests still check its arithmetic.

def require_hermitian(m) -> np.ndarray:
    m = as_complex_matrix(m)
    require_hermitian_stack(m[None])
    return m


def hermitian_eigenvalues(a) -> np.ndarray:
    """Ascending real eigenvalues (`eigvalsh`) of a matrix that is Hermitian
    within TRACE_TOL; any other matrix raises NotHermitian."""
    return np.linalg.eigvalsh(require_hermitian(a))


def matrix_exp_hermitian(h, t: float) -> np.ndarray:
    """exp(-i h t) for Hermitian h via spectral decomposition; unitary."""
    h = require_hermitian(h)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * t)) @ v.conj().T


def dipolar_hamiltonian(delta: float, eps: float) -> np.ndarray:
    """Two-spin dipolar Hamiltonian in the {00,01,10,11} basis."""
    d6, e2 = delta / 6.0, eps / 2.0
    return np.array([[d6, 0, 0, e2],
                     [0, -d6, -d6, 0],
                     [0, -d6, -d6, 0],
                     [e2, 0, 0, d6]], dtype=complex)


def tau_to_time(tau: float, delta: float) -> float:
    """Physical time t such that exp(-i H(delta, eps) t) reproduces the
    (tau, eps_tilde = eps/delta) propagator: t = -12 tau / delta."""
    return -12.0 * tau / delta


class ZeroProbability(ValueError):
    """Measurement branch has (numerically) zero probability."""


@dataclass(frozen=True)
class MeasurementOutcome:
    axis: str
    outcome: int
    probability: float
    conditional: DensityMatrix


def _axis_basis(axis: str) -> np.ndarray:
    try:
        return measures._AXIS_BASIS[axis]
    except KeyError:
        raise ValueError(f"axis must be one of {measures.AXES}, "
                         f"got {axis!r}") from None


def l1_coherence(rho: DensityMatrix, axis: str) -> float:
    """Sum of |off-diagonal| entries in the eigenbasis of the named Pauli."""
    if rho.mat.shape != (2, 2):
        raise BadSubsystem(f"l1_coherence needs 1 qubit, got {rho.mat.shape}")
    return float(measures._l1_coherence_stack(rho.mat, _axis_basis(axis)))


def conditional_states(rho2: DensityMatrix, axis: str,
                       outcome: int) -> MeasurementOutcome:
    """Measure the named Pauli on qubit 0; return the branch probability and
    the conditional state of qubit 1."""
    if rho2.mat.shape != (4, 4):
        raise BadSubsystem(f"conditional_states needs 2 qubits, got "
                           f"{rho2.mat.shape}")
    if outcome not in (+1, -1):
        raise ValueError(f"outcome must be +1 or -1, got {outcome}")
    _axis_basis(axis)  # rejects an unknown axis
    p, cond, zero = measures._branch_conditionals(rho2.mat[None])
    b = measures._BRANCHES.index((axis, outcome))
    if zero[0, b]:
        raise ZeroProbability(
            f"axis {axis} outcome {outcome:+d} has p={p[0, b]:.2e}")
    return MeasurementOutcome(axis=axis, outcome=outcome,
                              probability=float(p[0, b]),
                              conditional=DensityMatrix(cond[0, b]))


def naqc_average(rho2: DensityMatrix) -> float:
    """Probability-weighted steered coherence, halved: for each measured
    axis i and outcome, the conditional's l1 coherence summed over the two
    axes j != i. Bell states give 3, the maximally mixed state 0."""
    return float(measures._naqc_average_stack(rho2.mat[None])[0])


def propagator_coeffs_reference(eps_tilde: float, tau: float) -> tuple:
    """r1..r4 at one (eps_tilde, tau), as the scalar `propagator_coeffs`
    formed them before the dense route built one stack per block."""
    kx, ky, kz = 1 - 3 * eps_tilde, 1 + 3 * eps_tilde, -2.0
    c1, c2, c3 = np.cos(kx * tau), np.cos(ky * tau), np.cos(kz * tau)
    s1, s2, s3 = np.sin(kx * tau), np.sin(ky * tau), np.sin(kz * tau)
    return (complex(c1 * c2 * c3, -s1 * s2 * s3),
            complex(c1 * s2 * s3, -c2 * c3 * s1),
            complex(c2 * s1 * s3, -c1 * c3 * s2),
            complex(c3 * s1 * s2, -c1 * c2 * s3))


def gammas_reference(eps_tilde: float, tau: float) -> tuple:
    """g1..g4 = (r2 - r3, r2 + r3, r1 - r4, r1 + r4) of the reference r."""
    r1, r2, r3, r4 = propagator_coeffs_reference(eps_tilde, tau)
    return r2 - r3, r2 + r3, r1 - r4, r1 + r4


def dense_unitaries_reference(eps_tilde: np.ndarray,
                              taus: np.ndarray) -> np.ndarray:
    """(N, 4, 4) propagators, one `coupling_matrices` call per tau on the
    reference g1..g4: the dense route's per-tau loop before its stack."""
    return np.array([coupling_matrices(np.reshape(gammas_reference(e, t),
                                                  (4, 1)))[0]
                     for e, t in zip(eps_tilde.tolist(), taus.tolist())])


def dense_channel_states_reference(cfg, channel: str, eps_tilde: np.ndarray,
                                   taus: np.ndarray,
                                   p_bridge=None) -> np.ndarray:
    """The dense route's states from the per-tau reference propagators: the
    hop stack as `netmodel` builds it, then the partial trace, or for
    channel 18, by brute force, per tau the 256x256 kron(hop, hop), the
    bridge on qubits (2, 4) and the trace to (0, 4); unvalidated, like
    `netmodel.network_channel_states`."""
    us = dense_unitaries_reference(eps_tilde, taus)
    hops = conjugate_pair_stack(np.broadcast_to(
        initial_network(cfg).mat, (len(us), 16, 16)), us, (1, 2))
    if channel != "18":
        return partial_trace_stack(hops, channel_qubits(channel))
    bridges = us if p_bridge is None else np.repeat(dense_unitaries_reference(
        np.array([p_bridge.eps_tilde]), np.array([p_bridge.tau])), len(us), 0)
    return np.array([partial_trace_stack(conjugate_pair_stack(
        kron(hop, hop)[None], bridge, (2, 4)), (0, 4))[0]
        for hop, bridge in zip(hops, bridges)])


def three_node_states_reference(channel: str, w1: np.ndarray, w2: np.ndarray,
                                gammas: np.ndarray) -> np.ndarray:
    """The three-node closed states as `closedform` assembled them before it
    conjugated only the Pauli words a channel reads: all 16 words
    conjugated for every channel, and channel 123's trace by `np.trace`."""
    u = coupling_matrices(gammas)[:, None, None]
    # conj[N, k, l, a, m, b, n]: coupled qubits (a, m) out, (b, n) in
    conj = (u @ closedform._WORDS @ u.conj().swapaxes(-1, -2)).reshape(
        -1, 4, 4, 2, 2, 2, 2)
    p = closedform._PAULI_STACK
    if channel == "124":  # pair 1 and both coupled qubits; qubit 3 traced
        m = np.einsum("k,kij,Nkambn->Niamjbn", w1, p, conj[:, :, 0]) / 8.0
    elif channel == "234":  # both coupled qubits and pair 2; qubit 0 traced
        m = np.einsum("l,Nlambn,lcd->Namcbnd", w2, conj[:, 0], p) / 8.0
    elif channel == "123":  # far nodes and the first coupled qubit
        psi = np.trace(conj, axis1=4, axis2=6)
        m = np.einsum("kl,kij,Nklab,lcd->Niacjbd", np.outer(w1, w2), p, psi,
                      p) / 16.0
    else:
        raise BadSubsystem(f"unknown channel {channel!r}")
    return m.reshape(-1, 8, 8)
