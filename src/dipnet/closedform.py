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
`require_oracle_agreement` compares a series' closed and dense stacks
(`validate_channel` is its one-point case).

`channel_states` is array-first: it evaluates a whole vector of tau at
once as an (N, d, d) stack (`closed_channel_states` for a named network
channel), and the one-point functions are its N = 1 case.
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

from .qmat import (BadSubsystem, DensityMatrix, ORACLE_TOL, density_matrix,
                   require_density_stack)
from .netmodel import (IDENTITY_4, PAULIS, DipolarParams, NetworkConfig,
                       XStateParams, coupling_matrices, network_channel_state,
                       propagator_gammas, x_states)


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
    """Pauli damping (ex, ey, ez) for correlations sent across the coupling,
    elementwise in the entries g1..g4."""
    g1, g2, g3, g4 = g = np.asarray(gammas)
    s1, s2, s3, s4 = _abs2(g)
    p42, p13 = _re_conj(g4, g2), _re_conj(g1, g3)
    return p42 + p13, p42 - p13, 0.5 * (s4 + s2 - s1 - s3)


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


def _three_node_states(channel: str, w1: np.ndarray, w2: np.ndarray,
                       gammas: np.ndarray) -> np.ndarray:
    """(N, 8, 8) states of a three-node channel from the Pauli weights
    (1, a, b, c) of both pairs.

    The network state is 1/16 sum_kl w1[k] w2[l] P_k (x) u (P_k (x) P_l) u^+
    (x) P_l; each channel keeps one such sum with the dropped qubit traced.
    """
    u = coupling_matrices(gammas)[:, None, None]
    # conj[N, k, l, a, m, b, n]: coupled qubits (a, m) out, (b, n) in
    conj = (u @ _WORDS @ u.conj().swapaxes(-1, -2)).reshape(
        -1, 4, 4, 2, 2, 2, 2)
    p = _PAULI_STACK
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


def _weights(params: XStateParams) -> np.ndarray:
    return np.array([1.0, params.a, params.b, params.c])


def channel_states(channel: str, pair1: XStateParams, pair2: XStateParams,
                   gammas: np.ndarray, bridge_gammas=None) -> np.ndarray:
    """(N, d, d) closed-form states of a channel, one per column of the
    (4, N) propagator entries `gammas`, for any two Pauli-diagonal pairs;
    channel "18" crosses a bridge coupling with entries `bridge_gammas`
    (4, N) or (4, 1) (default: `gammas`). Every assembled state is
    validated; channels "13" and "24" are the constant I/4."""
    if channel == "18":
        ex, ey, ez = cross_pair_damping(gammas)
        bx, by, bz = cross_pair_damping(
            gammas if bridge_gammas is None else bridge_gammas)
        return x_states(pair1.a * ex * bx, pair1.b * ey * by,
                        pair1.c * ez * bz)
    if channel in ("13", "24"):
        # no correlations are ever generated on these channels
        return np.broadcast_to(_MIXED_PAIR, (gammas.shape[1], 4, 4))
    if channel in TWO_NODE_DAMPING:
        pair, damping = TWO_NODE_DAMPING[channel]
        params = (pair1, pair2)[pair]
        dx, dy, dz = damping(gammas)
        return x_states(params.a * dx, params.b * dy, params.c * dz)
    return require_density_stack(
        _three_node_states(channel, _weights(pair1), _weights(pair2), gammas),
        3)


def closed_channel_states(cfg: NetworkConfig, channel: str, eps_tilde: float,
                          taus: np.ndarray,
                          p_bridge: DipolarParams | None = None) -> np.ndarray:
    """(N, d, d) closed-form states of a named channel at every tau of the
    1-d array `taus`; channel "18" crosses a bridge coupling at `p_bridge`
    (default: the inner coupling at each tau)."""
    bridge_gammas = None
    if channel == "18" and p_bridge is not None:
        bridge_gammas = propagator_gammas(p_bridge.eps_tilde,
                                          np.array([p_bridge.tau]))
    return channel_states(channel, *cfg.pair_params(),
                          propagator_gammas(eps_tilde, taus), bridge_gammas)


def closed_channel_state(cfg: NetworkConfig, p: DipolarParams, channel: str,
                         p_bridge: DipolarParams | None = None) -> DensityMatrix:
    """Closed-form reduced state of a named channel at one point."""
    return density_matrix(closed_channel_states(
        cfg, channel, p.eps_tilde, np.array([p.tau]), p_bridge)[0])


def require_oracle_agreement(channel: str, closed: np.ndarray,
                             dense: np.ndarray, eps_tilde: float, taus,
                             tol: float = ORACLE_TOL) -> None:
    """Assert elementwise agreement of a series' closed and dense (N, d, d)
    state stacks; raises OracleMismatch at the first offending tau, naming
    its largest deviation."""
    diff = np.abs(closed - dense)
    bad = diff.max(axis=(-2, -1)) > tol
    if np.count_nonzero(bad):
        i = int(bad.argmax())
        r, c = np.unravel_index(int(diff[i].argmax()), diff.shape[1:])
        raise OracleMismatch(channel, (int(r), int(c)), closed[i, r, c],
                             dense[i, r, c], f"tau={float(taus[i])} eps={eps_tilde}")


def validate_channel(cfg: NetworkConfig, p: DipolarParams, channel: str,
                     p_bridge: DipolarParams | None = None,
                     tol: float = ORACLE_TOL) -> DensityMatrix:
    """`require_oracle_agreement` at one point; returns the closed state."""
    closed = closed_channel_state(cfg, p, channel, p_bridge)
    dense = network_channel_state(cfg, p, channel, p_bridge)
    require_oracle_agreement(channel, closed.mat[None], dense.mat[None],
                             p.eps_tilde, [p.tau], tol)
    return closed
