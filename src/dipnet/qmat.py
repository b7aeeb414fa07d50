"""Dense complex linear algebra for multi-qubit density matrices.

Everything here operates on small (dim <= 16) square complex numpy arrays.
Qubit 0 is the leftmost tensor factor, i.e. the most significant bit of the
computational-basis index. Two rules hold for every kernel and for the
`DensityMatrix` carrier: the qubit count n is read from the matrices
(`qubit_count`: a (..., 2**n, 2**n) array), and qubit indices are integers
(not bools), strictly increasing and below n. Every check here refuses
with ValueError.
"""

import operator
from dataclasses import dataclass

import numpy as np

# Centralized tolerances.
HERM_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
ORACLE_TOL = 1e-10

ComplexMatrix = np.ndarray


def as_complex_matrix(a) -> ComplexMatrix:
    """Coerce to a square complex array and check basic shape invariants."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return m


def qubit_count(mats: np.ndarray) -> int:
    """n of a (..., 2**n, 2**n) array, n >= 1; ValueError for any other
    shape."""
    n = mats.shape[-1].bit_length() - 1 if mats.ndim >= 2 else 0
    if n < 1 or mats.shape[-2:] != (2 ** n, 2 ** n):
        raise ValueError(f"expected (..., 2**n, 2**n) matrices, got shape "
                         f"{mats.shape}")
    return n


def _adjoint(mats: np.ndarray) -> np.ndarray:
    return mats.conj().swapaxes(-1, -2)


def require_hermitian_stack(mats: np.ndarray) -> np.ndarray:
    """Check every matrix of an (N, d, d) stack for Hermiticity within
    TRACE_TOL; the lowest-index offender raises, as does any other shape."""
    if mats.ndim != 3 or mats.shape[1] != mats.shape[2]:
        raise ValueError(f"expected an (N, d, d) stack, got shape "
                         f"{mats.shape}")
    dev = np.abs(mats - _adjoint(mats))
    if np.count_nonzero(dev > TRACE_TOL):
        dev = dev.max(axis=(-2, -1))
        i = int((dev > TRACE_TOL).argmax())
        raise ValueError(
            f"Hermitian deviation {dev[i]:.3e} exceeds {TRACE_TOL:.1e}")
    return mats


def require_density_stack(mats: np.ndarray) -> np.ndarray:
    """Check every matrix of an (N, 2**n, 2**n) stack as DensityMatrix
    checks one: Hermiticity within HERM_TOL, unit trace within TRACE_TOL,
    eigenvalues >= -PSD_TOL (one batched eigvalsh). As in a loop over the
    stack, the lowest-index failing matrix raises, with the first check it
    fails. Any other shape raises."""
    if mats.ndim != 3:
        raise ValueError(f"expected an (N, 2**n, 2**n) stack, got shape "
                         f"{mats.shape}")
    qubit_count(mats)  # refuses any other matrix shape
    adj = _adjoint(mats)
    dev = np.abs(mats - adj)
    tr = mats.diagonal(0, -2, -1).sum(axis=-1)
    lo = np.linalg.eigvalsh(0.5 * (mats + adj))[:, 0]
    if (np.count_nonzero(dev > HERM_TOL)
            or np.count_nonzero(np.abs(tr - 1.0) > TRACE_TOL)
            or np.count_nonzero(lo < -PSD_TOL)):
        dev = dev.max(axis=(-2, -1))
        bad = (dev > HERM_TOL) | (np.abs(tr - 1.0) > TRACE_TOL) | (lo < -PSD_TOL)
        i = int(bad.argmax())
        if dev[i] > HERM_TOL:
            raise ValueError(
                f"Hermitian deviation {dev[i]:.3e} exceeds {HERM_TOL:.1e}")
        if abs(tr[i] - 1.0) > TRACE_TOL:
            raise ValueError(
                f"trace {tr[i]} deviates from 1 by more than {TRACE_TOL:.1e}")
        raise ValueError(f"minimum eigenvalue {lo[i]:.3e} below -{PSD_TOL:.1e}")
    return mats


@dataclass(frozen=True)
class DensityMatrix:
    """A validated multi-qubit density matrix.

    Invariants checked on construction (`require_density_stack` on a
    1-stack): dim = 2**n, Hermiticity within HERM_TOL, unit trace within
    TRACE_TOL, eigenvalues >= -PSD_TOL.
    """

    mat: ComplexMatrix

    def __post_init__(self):
        m = as_complex_matrix(self.mat)
        require_density_stack(m[None])
        m = m.copy()
        m.flags.writeable = False
        object.__setattr__(self, "mat", m)


density_matrix = DensityMatrix


def kron(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    """Kronecker product of two square matrices."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def trace_norm_stack(mats: np.ndarray) -> np.ndarray:
    """Sum of |eigenvalues| of every Hermitian matrix of an (N, d, d) stack."""
    require_hermitian_stack(mats)
    return np.abs(np.linalg.eigvalsh(mats)).sum(axis=-1)


def trace_norm(a: ComplexMatrix) -> float:
    """Sum of |eigenvalues| of a Hermitian matrix (its trace norm)."""
    return float(trace_norm_stack(as_complex_matrix(a)[None])[0])


def _check_keep(indices, nqubits: int) -> tuple:
    """The one qubit-index rule: each index an integer (`operator.index`,
    so numpy integers pass and floats and bools do not), strictly
    increasing, in range(nqubits)."""
    try:
        # operator.index reads True as 1, so a bool goes in as None, which
        # it refuses
        idx = tuple(operator.index(None if isinstance(q, bool) else q)
                    for q in indices)
    except TypeError as exc:
        raise ValueError(f"bad qubit indices {indices!r}") from exc
    if not idx or idx != tuple(q for q in range(nqubits) if q in idx):
        raise ValueError(f"qubit indices {idx} must be strictly increasing "
                         f"in range({nqubits})")
    return idx


def partial_trace_stack(mats: np.ndarray, keep) -> np.ndarray:
    """Trace out, in every matrix of an (N, d, d) stack, all qubits not in
    `keep`; the result is not validated."""
    nqubits = qubit_count(mats)
    keep = _check_keep(keep, nqubits)
    t = mats.reshape((-1,) + (2,) * (2 * nqubits))
    for q in sorted((q for q in range(nqubits) if q not in keep), reverse=True):
        half = (t.ndim - 1) // 2
        t = np.trace(t, axis1=1 + q, axis2=1 + q + half)
    k = len(keep)
    return t.reshape(-1, 2 ** k, 2 ** k)


def conjugate_pair_stack(mats: np.ndarray, u: ComplexMatrix,
                         qubits) -> np.ndarray:
    """u rho u^+ for every rho of an (N, d, d) stack, with u a 4x4 (or one
    per rho, (N, 4, 4)) on the ordered qubit pair (i, j), i < j; a local
    contraction on the (2,)*2n tensor, no d x d operator. Ket side first."""
    nqubits = qubit_count(mats)
    pair = _check_keep(qubits, nqubits)
    u = np.asarray(u, dtype=complex)
    if len(pair) != 2 or u.shape[-2:] != (4, 4) or u.ndim not in (2, 3):
        raise ValueError(f"need 4x4 operators on a qubit pair, got "
                         f"shape {u.shape} on {pair}")
    t = mats.reshape((-1,) + (2,) * (2 * nqubits))
    rows = (-1, 4) if u.ndim == 2 else (len(t), -1, 4)
    for first, op in ((1, u.swapaxes(-1, -2)), (1 + nqubits, _adjoint(u))):
        axes = (first + pair[0], first + pair[1])
        t = np.moveaxis(t, axes, (-2, -1))
        t = np.moveaxis((t.reshape(rows) @ op).reshape(t.shape), (-2, -1), axes)
    return t.reshape(mats.shape)


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out all qubits not in `keep`."""
    return DensityMatrix(partial_trace_stack(rho.mat[None], keep)[0])


def partial_transpose_stack(mats: np.ndarray, subsystem) -> np.ndarray:
    """Transpose the named qubits' indices in every matrix of an (N, d, d)
    stack."""
    nqubits = qubit_count(mats)
    subsystem = _check_keep(subsystem, nqubits)
    t = mats.reshape((-1,) + (2,) * (2 * nqubits))
    perm = list(range(1 + 2 * nqubits))
    for q in subsystem:
        perm[1 + q], perm[1 + q + nqubits] = perm[1 + q + nqubits], perm[1 + q]
    return t.transpose(perm).reshape(mats.shape)


def partial_transpose(rho: DensityMatrix, subsystem) -> ComplexMatrix:
    """Transpose the named qubits' indices; returns a plain matrix (the
    result is Hermitian but usually not positive)."""
    return partial_transpose_stack(rho.mat[None], subsystem)[0]


def require_unitary(u: ComplexMatrix) -> ComplexMatrix:
    """ValueError unless u u^+ equals the identity within HERM_TOL, for one
    matrix or for every matrix of an (N, d, d) stack."""
    u = np.asarray(u, dtype=complex)
    dev = float(np.abs(u @ _adjoint(u) - np.eye(u.shape[-1])).max())
    if not dev <= HERM_TOL:  # NaN fails too
        raise ValueError(f"unitarity deviation {dev:.3e} exceeds {HERM_TOL:.1e}")
    return u
