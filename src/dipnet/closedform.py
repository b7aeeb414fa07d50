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
4x4 coupling and trace out what the channel drops; channels "124" and
"234" conjugate only the four words their traced far qubit leaves.

The closed form never builds a 16x16 network or channel 18's slices; that is
the dense path's route (`netmodel.network_channel_states`), and
`require_oracle_agreement` compares the closed and dense stacks of each
block of a `series_values` vector (`validate_channel` is its one-point
case).

`channel_states` is array-first: it evaluates a whole vector of tau, with
one eps per tau, at once as a raw (N, d, d) stack (`closed_channel_states`
for a named network channel), which `series_values` validates once per
block; the one-point functions are its N = 1 case, each validated as one
`DensityMatrix`, whose qubit count is read from the state's dimension.
A sweep's CSV and events bytes must not depend on N, so every elementwise
formula here and in `measures` rounds exactly as the per-point scalar code
it replaced. Keep these rules when editing:

 - write Re(u conj(v)) as u.real*v.real + u.imag*v.imag; numpy's array
   complex multiply rounds differently from its scalar one;
 - write |z|^2 as np.float_power(np.hypot(z.real, z.imag), 2.0) and a
   square x**2 as np.float_power(x, 2.0): array np.abs on complex input is
   not hypot, and array x**2 is x*x, not libm pow;
 - array cos/sin, stacked eigvalsh and stacked matmul already round as
   their one-matrix forms; keep products in the same left-to-right order;
 - do not swap in the analytic Bell-diagonal quantifiers (2 w_max - 1,
   |a| + |b| + |c|): they agree to ~5e-15 but move 12-digit CSV text.
"""

import numpy as np

from .qmat import DensityMatrix, ORACLE_TOL
from .netmodel import (IDENTITY_4, PAULIS, DipolarParams, NetworkConfig,
                       coupling_matrices, network_channel_state,
                       propagator_gammas, x_states)


class OracleMismatch(AssertionError):
    """Closed-form value disagrees with the dense oracle."""


def _re_conj(u, v):
    """Re(u conj(v)), written out (see the module docstring)."""
    return u.real * v.real + u.imag * v.imag


def _abs2(z):
    """|z|^2 as libm pow(hypot(re, im), 2) (see the module docstring)."""
    return np.float_power(np.hypot(z.real, z.imag), 2.0)


def kept_pair_damping(gammas):
    """Pauli damping (lx, ly, lz) seen by a pair that keeps both qubits,
    elementwise in the entries g1..g4."""
    g1, g2, g3, g4 = g = np.asarray(gammas)
    s1, s2, s3, s4 = _abs2(g)
    p43, p12 = _re_conj(g4, g3), _re_conj(g1, g2)
    return p43 + p12, p43 - p12, 0.5 * (s4 + s3 - s1 - s2)


def cross_pair_damping(gammas):
    """Pauli damping (ex, ey, ez) for correlations sent across the coupling:
    the kept-pair damping with g2 and g3 exchanged."""
    return kept_pair_damping(np.asarray(gammas)[[0, 2, 1, 3]])


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
_MIXED_PAIR = IDENTITY_4 / 4.0


def _three_node_states(channel: str, pair1: np.ndarray, pair2: np.ndarray,
                       gammas: np.ndarray) -> np.ndarray:
    """(N, 8, 8) states of a three-node channel from the triples (a, b, c)
    of both pairs.

    With Pauli weights w = (1, a, b, c) per pair, the network state is
    1/16 sum_kl w1[k] w2[l] P_k (x) u (P_k (x) P_l) u^+ (x) P_l; each
    channel keeps one such sum with the dropped qubit traced.
    """
    w1, w2 = np.array([1.0, *pair1]), np.array([1.0, *pair2])
    # a traced far qubit keeps only the identity word of its pair
    words = {"124": _WORDS[:, :1], "234": _WORDS[:1]}.get(channel, _WORDS)
    u = coupling_matrices(gammas)[:, None, None]
    # conj[N, k, l, a, m, b, n]: coupled qubits (a, m) out, (b, n) in
    conj = (u @ words @ u.conj().swapaxes(-1, -2)).reshape(
        -1, *words.shape[:2], 2, 2, 2, 2)
    p = _PAULI_STACK
    if channel == "124":  # pair 1 and both coupled qubits; qubit 3 traced
        m = np.einsum("k,kij,Nkambn->Niamjbn", w1, p, conj[:, :, 0]) / 8.0
    elif channel == "234":  # both coupled qubits and pair 2; qubit 0 traced
        m = np.einsum("l,Nlambn,lcd->Namcbnd", w2, conj[:, 0], p) / 8.0
    elif channel == "123":  # far nodes and the first coupled qubit
        psi = conj[..., 0, :, 0] + conj[..., 1, :, 1]  # trace over (m, n)
        m = np.einsum("kl,kij,Nklab,lcd->Niacjbd", np.outer(w1, w2), p, psi,
                      p) / 16.0
    else:
        raise ValueError(f"unknown channel {channel!r}")
    return m.reshape(-1, 8, 8)


def channel_states(channel: str, pair1, pair2, gammas: np.ndarray,
                   bridge_gammas=None) -> np.ndarray:
    """(N, d, d) closed-form states of a channel, one per column of the
    (4, N) propagator entries `gammas`, for any two Pauli-diagonal pairs
    given as triples (a, b, c). A two-node channel is its pair's triple
    times one damping triple, elementwise; channel "18" is pair 1 times
    the cross-pair damping of `gammas` and of a bridge coupling with
    entries `bridge_gammas` (4, N) or (4, 1) (default: `gammas`). Channels
    "13" and "24" are the constant I/4. Only the Pauli pairs' Bell weights
    are checked here; the callers validate the assembled states."""
    pairs = np.asarray(pair1, dtype=float), np.asarray(pair2, dtype=float)
    if channel == "18":
        bridge = gammas if bridge_gammas is None else bridge_gammas
        return x_states(*(pairs[0][:, None] * cross_pair_damping(gammas)
                          * cross_pair_damping(bridge)))
    if channel in ("13", "24"):
        # no correlations are ever generated on these channels
        return np.broadcast_to(_MIXED_PAIR, (gammas.shape[1], 4, 4))
    if channel in TWO_NODE_DAMPING:
        pair, damping = TWO_NODE_DAMPING[channel]
        return x_states(*(pairs[pair][:, None] * damping(gammas)))
    return _three_node_states(channel, *pairs, gammas)


def closed_channel_states(cfg: NetworkConfig, channel: str,
                          eps_tilde: np.ndarray, taus: np.ndarray,
                          p_bridge: DipolarParams | None = None) -> np.ndarray:
    """(N, d, d) closed-form states of a named channel at every tau of the
    1-d array `taus`, with `eps_tilde` a 1-d array of one eps per tau,
    unvalidated; channel "18" crosses a bridge coupling at `p_bridge`
    (default: the inner coupling at each tau)."""
    bridge_gammas = None
    if channel == "18" and p_bridge is not None:
        bridge_gammas = propagator_gammas(np.array([p_bridge.eps_tilde]),
                                          np.array([p_bridge.tau]))
    return channel_states(channel, *cfg.pair_params(),
                          propagator_gammas(eps_tilde, taus), bridge_gammas)


def closed_channel_state(cfg: NetworkConfig, p: DipolarParams, channel: str,
                         p_bridge: DipolarParams | None = None) -> DensityMatrix:
    """Closed-form reduced state of a named channel at one point."""
    return DensityMatrix(closed_channel_states(
        cfg, channel, np.array([p.eps_tilde]), np.array([p.tau]), p_bridge)[0])


def require_oracle_agreement(channels: np.ndarray, closed: np.ndarray,
                             dense: np.ndarray, eps_tilde: np.ndarray,
                             taus: np.ndarray) -> None:
    """Assert elementwise agreement, within ORACLE_TOL, of the closed and
    dense (N, d, d) state stacks at `taus` and their channels and eps (1-d
    arrays); raises OracleMismatch at the first offending tau, naming its
    channel, its eps, its tau and its largest deviation."""
    diff = np.abs(closed - dense)
    bad = diff.max(axis=(-2, -1)) > ORACLE_TOL
    if np.count_nonzero(bad):
        i = int(bad.argmax())
        r, c = np.unravel_index(int(diff[i].argmax()), diff.shape[1:])
        raise OracleMismatch(
            f"channel {channels[i]} tau={float(taus[i])} "
            f"eps={float(eps_tilde[i])} coord {(int(r), int(c))}: "
            f"closed {closed[i, r, c]} vs dense {dense[i, r, c]}")


def validate_channel(cfg: NetworkConfig, p: DipolarParams, channel: str,
                     p_bridge: DipolarParams | None = None) -> DensityMatrix:
    """`require_oracle_agreement` at one point; returns the closed state."""
    closed = closed_channel_state(cfg, p, channel, p_bridge)
    dense = network_channel_state(cfg, p, channel, p_bridge)
    require_oracle_agreement(np.array([channel]), closed.mat[None],
                             dense.mat[None], np.array([p.eps_tilde]),
                             np.array([p.tau]))
    return closed
