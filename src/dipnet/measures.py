"""Correlation quantifiers: negativity, pi-tangle and NAQC (from the l1
coherence of the states steered by a Pauli measurement on qubit 0).

Conventions, fixed by test against independent oracles:
 - Two-qubit negativity follows the standard reading of the doubled-sum
   formula: 2 * sum of |negative eigenvalues| of the partial transpose on
   qubit 1, equal to max(0, trace_norm - 1); singlet -> 1, separable -> 0.
 - Global and pairwise negativities entering the pi-tangle both use the
   trace-norm convention ||rho^T|| - 1 (identical to 2*sum|neg| for unit
   trace inputs, so the doubled/undoubled distinction is vacuous there).

Each quantifier has a stack form over an (N, d, d) array of states
(`negativity_stack`, `naqc_degree_stack`, `pi_tangle_stack`); the scalar
functions are their N = 1 case, so the closed-form kernel and the dense and
validate routes score with the same arithmetic.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .qmat import (BadSubsystem, DensityMatrix, partial_trace_stack,
                   partial_transpose_stack, require_density_stack,
                   trace_norm_stack)
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


@dataclass(frozen=True)
class TangleBreakdown:
    """One-vs-rest and pairwise negativities with the three residuals; the
    fields are floats, or (N,) arrays from `pi_tangle_stack`."""

    n_a_bc: float
    n_b_ac: float
    n_c_ab: float
    n_ab: float
    n_ac: float
    n_bc: float
    pi_a: float
    pi_b: float
    pi_c: float
    pi: float


def _require_qubits(mats: np.ndarray, n: int, what: str) -> None:
    if mats.shape[-1] != 2 ** n:
        got = mats.shape[-1].bit_length() - 1
        raise BadSubsystem(f"{what} needs a {n}-qubit state, got {got}")


def negativity_stack(mats: np.ndarray) -> np.ndarray:
    """Negativity of every two-qubit state of an (N, 4, 4) stack."""
    _require_qubits(mats, 2, "negativity")
    pt = partial_transpose_stack(mats, 2, (1,))
    w = np.linalg.eigvalsh(0.5 * (pt + pt.conj().swapaxes(-1, -2)))
    return 2.0 * -np.where(w < 0, w, 0.0).sum(axis=-1)


def negativity(rho: DensityMatrix) -> float:
    """Two-qubit negativity: 2 * sum |negative eigenvalues| of the partial
    transpose on qubit 1. Singlet -> 1, product states -> 0."""
    return float(negativity_stack(rho.mat[None])[0])


def _clip_negative(val: np.ndarray) -> np.ndarray:
    return np.where(val < 0.0, 0.0, val)


def _one_vs_rest_negativities(mats: np.ndarray, foci) -> np.ndarray:
    """(N, len(foci)) one-vs-rest negativities of a three-qubit stack, one
    batched trace norm for all foci."""
    pts = np.stack([partial_transpose_stack(mats, 3, (f,)) for f in foci],
                   axis=1).reshape(-1, 8, 8)
    return _clip_negative(trace_norm_stack(pts) - 1.0).reshape(len(mats), -1)


def _pairwise_negativities(mats: np.ndarray, nqubits: int,
                           pairs) -> np.ndarray:
    """(N, len(pairs)) negativities of the two-qubit marginals, transposed
    on each pair's second qubit; every marginal is validated."""
    marginals = np.stack([partial_trace_stack(mats, nqubits, pair)
                          for pair in pairs], axis=1).reshape(-1, 4, 4)
    require_density_stack(marginals, 2)
    pts = partial_transpose_stack(marginals, 2, (1,))
    return _clip_negative(trace_norm_stack(pts) - 1.0).reshape(len(mats), -1)


def global_negativity(rho: DensityMatrix, focus: int) -> float:
    """One-vs-rest negativity ||rho^{T_focus}|| - 1, clipped at zero."""
    if rho.nqubits != 3:
        raise BadSubsystem(f"global_negativity needs 3 qubits, got {rho.nqubits}")
    if not 0 <= focus < 3:
        raise BadSubsystem(f"focus {focus} out of range")
    return float(_one_vs_rest_negativities(rho.mat[None], (focus,))[0, 0])


def pairwise_negativity(rho3: DensityMatrix, pair: tuple[int, int]) -> float:
    """Negativity of the two-qubit marginal, trace-norm convention with the
    transpose on the pair's second qubit."""
    i, j = pair
    if not 0 <= i < j < 3:
        raise BadSubsystem(f"need 0 <= i < j < 3, got {pair}")
    return float(_pairwise_negativities(rho3.mat[None], rho3.nqubits,
                                        (pair,))[0, 0])


def pi_tangle_stack(mats: np.ndarray) -> TangleBreakdown:
    """Residual tripartite entanglement of every state of an (N, 8, 8)
    stack, from squared negativities."""
    _require_qubits(mats, 3, "pi_tangle")
    n_a, n_b, n_c = _one_vs_rest_negativities(mats, (0, 1, 2)).T
    n_ab, n_ac, n_bc = _pairwise_negativities(
        mats, 3, ((0, 1), (0, 2), (1, 2))).T
    sq = lambda x: np.float_power(x, 2.0)  # libm pow, as float ** 2
    pi_a = sq(n_a) - sq(n_ab) - sq(n_ac)
    pi_b = sq(n_b) - sq(n_ab) - sq(n_bc)
    pi_c = sq(n_c) - sq(n_ac) - sq(n_bc)
    return TangleBreakdown(
        n_a_bc=n_a, n_b_ac=n_b, n_c_ab=n_c,
        n_ab=n_ab, n_ac=n_ac, n_bc=n_bc,
        pi_a=pi_a, pi_b=pi_b, pi_c=pi_c,
        pi=(pi_a + pi_b + pi_c) / 3.0)


def pi_tangle(rho3: DensityMatrix) -> TangleBreakdown:
    """Residual tripartite entanglement from squared negativities."""
    stack = pi_tangle_stack(rho3.mat[None])
    return TangleBreakdown(*(float(getattr(stack, f.name)[0])
                             for f in fields(TangleBreakdown)))


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
    require_density_stack(cond[~zero], 1)
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
