"""Closed-form channel states, cross-validated against the dense path.

The coupling conjugates Pauli words, so every reduced channel is an
assembly of a few damping factors built from the propagator entries
(g1..g4 = gammas):

    kept-pair damping   lam = (lx, ly, lz)   channels "12", "34"
    cross-pair damping  eta = (ex, ey, ez)   channels "14", "23", "18"

A Pauli-diagonal pair (a, b, c) reduces to (a*lx, b*ly, c*lz) on its own
qubits and transfers (a*ex, b*ey, c*ez) across the coupling. The terminal
channel "18" of the eight-node extension is pair 1 sent across the inner
coupling and then across the bridge: (a, b, c) * eta(inner) * eta(bridge).
Channels "13" and "24" stay maximally mixed for all parameters. The
three-node channels conjugate the Pauli words of the coupled qubits by the
4x4 coupling and trace out what the channel drops.

The closed form never builds the 16x16 or 256x256 network state; that is
the dense path's route (`netmodel.network_channel_state`), and
`validate_channel` compares the two.
"""

import numpy as np

from .qmat import BadSubsystem, DensityMatrix, ORACLE_TOL
from .netmodel import (PAULIS, DipolarParams, NetworkConfig, XStateParams,
                       network_channel_state, propagator_coeffs, x_state)


class OracleMismatch(AssertionError):
    """Closed-form value disagrees with the dense oracle."""

    def __init__(self, channel, coord, closed_value, dense_value, where=""):
        self.channel = channel
        self.coord = coord
        self.closed_value = closed_value
        self.dense_value = dense_value
        super().__init__(
            f"channel {channel} {where} coord {coord}: closed {closed_value} "
            f"vs dense {dense_value}")


def kept_pair_damping(gammas) -> tuple[float, float, float]:
    """Pauli damping (lx, ly, lz) seen by a pair that keeps both qubits."""
    g1, g2, g3, g4 = gammas
    lx = (g4 * np.conj(g3) + g1 * np.conj(g2)).real
    ly = (g4 * np.conj(g3) - g1 * np.conj(g2)).real
    lz = 0.5 * (abs(g4) ** 2 + abs(g3) ** 2 - abs(g1) ** 2 - abs(g2) ** 2)
    return lx, ly, lz


def cross_pair_damping(gammas) -> tuple[float, float, float]:
    """Pauli damping (ex, ey, ez) for correlations sent across the coupling."""
    g1, g2, g3, g4 = gammas
    ex = (g4 * np.conj(g2) + g1 * np.conj(g3)).real
    ey = (g4 * np.conj(g2) - g1 * np.conj(g3)).real
    ez = 0.5 * (abs(g4) ** 2 + abs(g2) ** 2 - abs(g1) ** 2 - abs(g3) ** 2)
    return ex, ey, ez


def _damped(params: XStateParams, damping) -> XStateParams:
    dx, dy, dz = damping
    return XStateParams(params.a * dx, params.b * dy, params.c * dz)


# two-node channel -> (index of the pair it carries, damping that pair sees)
TWO_NODE_DAMPING = {
    "12": (0, kept_pair_damping),
    "34": (1, kept_pair_damping),
    "14": (0, cross_pair_damping),
    "23": (1, cross_pair_damping),
}

# P_k (x) P_l on the coupled qubits, indexed [k, l]
_WORDS = np.array([[np.kron(pk, pl) for pl in PAULIS] for pk in PAULIS])
_PAULI_STACK = np.array(PAULIS)


def _coupling_matrix(gammas) -> np.ndarray:
    g1, g2, g3, g4 = gammas
    return np.array([[g4, 0, 0, g1],
                     [0, g3, g2, 0],
                     [0, g2, g3, 0],
                     [g1, 0, 0, g4]])


def _three_node_matrix(channel: str, w1: np.ndarray, w2: np.ndarray,
                       gammas) -> np.ndarray:
    """8x8 state of a three-node channel from the Pauli weights (1, a, b, c)
    of both pairs.

    The network state is 1/16 sum_kl w1[k] w2[l] P_k (x) u (P_k (x) P_l) u^+
    (x) P_l; each channel keeps one such sum with the dropped qubit traced.
    """
    u = _coupling_matrix(gammas)
    # conj[k, l, a, m, b, n]: coupled qubits (a, m) out, (b, n) in
    conj = (u @ _WORDS @ u.conj().T).reshape(4, 4, 2, 2, 2, 2)
    p = _PAULI_STACK
    if channel == "124":  # pair 1 and both coupled qubits; qubit 3 traced
        m = np.einsum("k,kij,kambn->iamjbn", w1, p, conj[:, 0]) / 8.0
    elif channel == "234":  # both coupled qubits and pair 2; qubit 0 traced
        m = np.einsum("l,lambn,lcd->amcbnd", w2, conj[0], p) / 8.0
    elif channel == "123":  # far nodes and the first coupled qubit
        psi = np.trace(conj, axis1=3, axis2=5)
        m = np.einsum("kl,kij,klab,lcd->iacjbd", np.outer(w1, w2), p, psi,
                      p) / 16.0
    else:
        raise BadSubsystem(f"unknown channel {channel!r}")
    return m.reshape(8, 8)


def _weights(params: XStateParams) -> np.ndarray:
    return np.array([1.0, params.a, params.b, params.c])


def channel_state(channel: str, pair1: XStateParams, pair2: XStateParams,
                  gammas, bridge_gammas=None) -> DensityMatrix:
    """Closed-form state of a channel for any two Pauli-diagonal pairs
    coupled through the propagator entries `gammas`; channel "18" crosses a
    bridge coupling with entries `bridge_gammas` (default: `gammas`)."""
    if channel == "18":
        hop = _damped(pair1, cross_pair_damping(gammas))
        bridge = gammas if bridge_gammas is None else bridge_gammas
        return x_state(_damped(hop, cross_pair_damping(bridge)))
    if channel in ("13", "24"):
        # no correlations are ever generated on these channels
        return DensityMatrix(np.eye(4, dtype=complex) / 4.0, 2)
    if channel in TWO_NODE_DAMPING:
        pair, damping = TWO_NODE_DAMPING[channel]
        return x_state(_damped((pair1, pair2)[pair], damping(gammas)))
    return DensityMatrix(
        _three_node_matrix(channel, _weights(pair1), _weights(pair2), gammas),
        3)


def closed_channel_state(cfg: NetworkConfig, p: DipolarParams, channel: str,
                         p_bridge: DipolarParams | None = None) -> DensityMatrix:
    """Closed-form reduced state of a named channel."""
    bridge_gammas = None
    if channel == "18" and p_bridge is not None:
        bridge_gammas = propagator_coeffs(p_bridge).gammas()
    return channel_state(channel, *cfg.pair_params(),
                         propagator_coeffs(p).gammas(), bridge_gammas)


def validate_channel(cfg: NetworkConfig, p: DipolarParams, channel: str,
                     p_bridge: DipolarParams | None = None,
                     tol: float = ORACLE_TOL) -> DensityMatrix:
    """Compute the closed form and assert elementwise agreement with the
    dense path; raises OracleMismatch at the first offending coordinate."""
    closed = closed_channel_state(cfg, p, channel, p_bridge)
    dense = network_channel_state(cfg, p, channel, p_bridge)
    diff = np.abs(closed.mat - dense.mat)
    if diff.max() > tol:
        r, c = np.unravel_index(int(diff.argmax()), diff.shape)
        raise OracleMismatch(channel, (int(r), int(c)),
                             closed.mat[r, c], dense.mat[r, c],
                             where=f"tau={p.tau} eps={p.eps_tilde}")
    return closed
