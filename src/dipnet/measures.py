"""Correlation quantifiers: negativity, pi-tangle and NAQC (from the l1
coherence of the states steered by a Pauli measurement on qubit 0).

Conventions, fixed by test against independent oracles:
 - Two-qubit negativity follows the standard reading of the doubled-sum
   formula: 2 * sum of |negative eigenvalues| of the partial transpose on
   qubit 1, equal to max(0, trace_norm - 1); singlet -> 1, separable -> 0.
 - Global and pairwise negativities entering the pi-tangle both use the
   trace-norm convention ||rho^T|| - 1 (identical to 2*sum|neg| for unit
   trace inputs, so the doubled/undoubled distinction is vacuous there).

Each quantifier maps an (N, d, d) stack of states to its (N,) values
(`negativity_stack`, `naqc_degree_stack`, `pi_tangle_stack`); each scalar
function returns the float of its N = 1 case, so every route scores with
the same arithmetic. `global_negativity` and `pairwise_negativity` read the
pi-tangle's parts of one three-qubit state. Each function refuses, with
ValueError, a state of other than the qubit count it reads (two for
negativity and NAQC, three for the tangle and its parts).
"""

import math

import numpy as np

from .qmat import (DensityMatrix, partial_trace_stack, partial_transpose_stack,
                   qubit_count, require_density_stack, trace_norm_stack)
from .netmodel import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z

NAQC_CRITICAL = math.sqrt(6.0)
NAQC_MAX = 3.0
ZERO_PROBABILITY = 1e-14

_AXIS_MATRIX = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}
AXES = ("x", "y", "z")
# eigenbasis of each Pauli; eigh returns ascending eigenvalues, so column 0
# is the -1 eigenstate and column 1 the +1 eigenstate
_AXIS_BASIS = {axis: np.linalg.eigh(m)[1] for axis, m in _AXIS_MATRIX.items()}
# measurement branches on qubit 0, in the order _naqc_average_stack sums them
_BRANCHES = tuple((axis, outcome) for axis in AXES for outcome in (+1, -1))
_BRANCH_OPS = np.array([
    np.kron(np.outer(v, v.conj()), IDENTITY_2)
    for v in (_AXIS_BASIS[axis][:, 1 if outcome == +1 else 0]
              for axis, outcome in _BRANCHES)])
# per branch, the bases of the two axes j != i whose coherence it steers
_STEERED_BASES = np.array([[_AXIS_BASIS[j] for j in AXES if j != axis]
                           for axis, _ in _BRANCHES])


def _require_qubits(mats: np.ndarray, n: int, what: str) -> None:
    got = qubit_count(mats)
    if got != n:
        raise ValueError(f"{what} needs a {n}-qubit state, got {got}")


def negativity_stack(mats: np.ndarray) -> np.ndarray:
    """Negativity of every two-qubit state of an (N, 4, 4) stack."""
    _require_qubits(mats, 2, "negativity")
    pt = partial_transpose_stack(mats, (1,))
    w = np.linalg.eigvalsh(0.5 * (pt + pt.conj().swapaxes(-1, -2)))
    return 2.0 * -np.where(w < 0, w, 0.0).sum(axis=-1)


def negativity(rho: DensityMatrix) -> float:
    """Two-qubit negativity: 2 * sum |negative eigenvalues| of the partial
    transpose on qubit 1. Singlet -> 1, product states -> 0."""
    return float(negativity_stack(rho.mat[None])[0])


def _negativities(pts: np.ndarray, n: int) -> np.ndarray:
    """(n, k) negativities ||pt|| - 1, clipped at zero, of a flat stack of
    n * k partial transposes."""
    val = trace_norm_stack(pts) - 1.0
    return np.where(val < 0.0, 0.0, val).reshape(n, -1)


def _one_vs_rest_negativities(mats: np.ndarray, foci) -> np.ndarray:
    """(N, len(foci)) one-vs-rest negativities of a three-qubit stack, one
    batched trace norm for all foci."""
    pts = np.stack([partial_transpose_stack(mats, (f,)) for f in foci],
                   axis=1).reshape(-1, 8, 8)
    return _negativities(pts, len(mats))


def _pairwise_negativities(mats: np.ndarray, pairs) -> np.ndarray:
    """(N, len(pairs)) negativities of the validated two-qubit marginals of
    a three-qubit stack, transposed on each pair's second qubit."""
    marginals = np.stack([partial_trace_stack(mats, pair)
                          for pair in pairs], axis=1).reshape(-1, 4, 4)
    require_density_stack(marginals)
    return _negativities(partial_transpose_stack(marginals, (1,)), len(mats))


def global_negativity(rho: DensityMatrix, focus: int) -> float:
    """One-vs-rest negativity ||rho^{T_focus}|| - 1, clipped at zero."""
    _require_qubits(rho.mat, 3, "global_negativity")
    return float(_one_vs_rest_negativities(rho.mat[None], (focus,))[0, 0])


def pairwise_negativity(rho3: DensityMatrix, pair: tuple[int, int]) -> float:
    """Negativity of the two-qubit marginal, trace-norm convention with the
    transpose on the pair's second qubit."""
    _require_qubits(rho3.mat, 3, "pairwise_negativity")
    if len(pair) != 2 or not 0 <= pair[0] < pair[1] < 3:
        raise ValueError(f"need a pair 0 <= i < j < 3, got {pair}")
    return float(_pairwise_negativities(rho3.mat[None], (pair,))[0, 0])


def pi_tangle_stack(mats: np.ndarray) -> np.ndarray:
    """Pi-tangle of every state of an (N, 8, 8) stack: the mean over the three
    foci of the residuals N_a,bc^2 - N_ab^2 - N_ac^2 (and cyclic)."""
    _require_qubits(mats, 3, "pi_tangle")
    n_a, n_b, n_c = _one_vs_rest_negativities(mats, (0, 1, 2)).T
    n_ab, n_ac, n_bc = _pairwise_negativities(
        mats, ((0, 1), (0, 2), (1, 2))).T
    sq = lambda x: np.float_power(x, 2.0)  # libm pow, as float ** 2
    pi_a = sq(n_a) - sq(n_ab) - sq(n_ac)
    pi_b = sq(n_b) - sq(n_ab) - sq(n_bc)
    pi_c = sq(n_c) - sq(n_ac) - sq(n_bc)
    return (pi_a + pi_b + pi_c) / 3.0


def pi_tangle(rho3: DensityMatrix) -> float:
    """Residual tripartite entanglement from squared negativities."""
    return float(pi_tangle_stack(rho3.mat[None])[0])


def _l1_coherence_stack(mats: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Sum of |off-diagonal| entries of one-qubit states in `basis`."""
    m = basis.conj().swapaxes(-1, -2) @ mats @ basis
    return (np.hypot(m[..., 0, 1].real, m[..., 0, 1].imag)
            + np.hypot(m[..., 1, 0].real, m[..., 1, 0].imag))


def _branch_conditionals(mats: np.ndarray):
    """Measure each Pauli on qubit 0 of an (N, 4, 4) stack: probabilities
    (N, 6) and qubit-1 conditional states (N, 6, 2, 2) of every branch in
    _BRANCHES, plus the (N, 6) mask of zero-probability branches (their
    conditionals are not states)."""
    op = _BRANCH_OPS @ mats[:, None]
    p = op.diagonal(0, -2, -1).sum(axis=-1).real
    zero = p < ZERO_PROBABILITY
    t = op.reshape(op.shape[:2] + (2, 2, 2, 2))
    # zero-probability branches are divided by 1 instead; they are masked
    scale = np.where(zero, 1.0, p)[..., None, None]
    cond = np.trace(t, axis1=2, axis2=4) / scale
    cond = 0.5 * (cond + cond.conj().swapaxes(-1, -2))
    require_density_stack(cond[~zero])
    return p, cond, zero


def _naqc_average_stack(mats: np.ndarray) -> np.ndarray:
    _require_qubits(mats, 2, "naqc")
    p, cond, zero = _branch_conditionals(mats)
    l1 = _l1_coherence_stack(cond[:, :, None], _STEERED_BASES)
    terms = np.where(zero[..., None], 0.0, p[..., None] * l1)
    # the 12 terms summed strictly left to right, as a running sum
    total = np.add.accumulate(terms.reshape(len(mats), -1), axis=-1)[:, -1]
    return 0.5 * total


def naqc_degree_stack(mats: np.ndarray) -> np.ndarray:
    """Normalized NAQC degree of every state of an (N, 4, 4) stack;
    zero-probability branches are skipped per element."""
    x = (_naqc_average_stack(mats) - NAQC_CRITICAL) / (NAQC_MAX - NAQC_CRITICAL)
    return np.where(x > 0.0, x, 0.0)


def naqc_degree(rho2: DensityMatrix) -> float:
    """Normalized degree max(0, (avg - sqrt(6)) / (3 - sqrt(6))) in [0, 1]."""
    return float(naqc_degree_stack(rho2.mat[None])[0])
