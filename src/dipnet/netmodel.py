"""Network construction and dipolar evolution.

A four-node network is two entangled pairs on qubits (0,1) and (2,3), each
a Pauli-diagonal triple (a, b, c) (`NetworkConfig.pair_params`); the
dipolar coupling acts on qubits (1,2). Channel names follow the node
numbering used throughout the result set, where the second pair's nodes are
numbered far-member-first (node 3 is qubit 3, node 4 is qubit 2):

    "12" -> (0, 1)   "34" -> (2, 3)      initially entangled pairs
    "14" -> (0, 2)   "23" -> (1, 3)      generated by the coupling
    "13" -> (0, 3)   "24" -> (1, 2)      never correlated
    "123" -> (0, 1, 3)  "234" -> (1, 2, 3)  "124" -> (0, 1, 2)
    "18"  -> terminal channel of the eight-node extension

The propagator is parameterized by the dimensionless (tau, eps_tilde); it
equals exp(-i H t) for the two-spin dipolar Hamiltonian H(delta, eps) at
eps_tilde = eps / delta and t = -12 tau / delta. The tests hold that
Hamiltonian and time map as an oracle (tests/conftest.py).
"""

import functools
import numbers
from dataclasses import dataclass

import numpy as np

from .qmat import (ComplexMatrix, DensityMatrix, conjugate_pair_stack, kron,
                   partial_trace_stack, require_density_stack,
                   require_unitary)

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
IDENTITY_4 = np.eye(4, dtype=complex)
XX = kron(SIGMA_X, SIGMA_X)
YY = kron(SIGMA_Y, SIGMA_Y)
ZZ = kron(SIGMA_Z, SIGMA_Z)

XSTATE_PSD_TOL = 1e-12
INITIAL_NETWORKS_KEPT = 16  # configs whose validated initial network is cached


class FieldError(ValueError):
    """An invalid dataclass field. `keys` names the fields to blame, most
    specific first; a field of a held part goes by its scenario key
    (`bridge_tau`, `channels`)."""

    def __init__(self, keys: tuple[str, ...], message: str):
        self.keys = keys
        super().__init__(message)


def require_numbers(key: str, *values) -> None:
    """FieldError naming `key` at the first value that is not a real number:
    numpy floats and integers pass, a bool, a string or None does not."""
    for value in values:
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise FieldError((key,), f"{key} must be a number, got {value!r}")


CHANNEL_QUBITS = {
    "12": (0, 1),
    "34": (2, 3),
    "14": (0, 2),
    "23": (1, 3),
    "13": (0, 3),
    "24": (1, 2),
    "123": (0, 1, 3),
    "234": (1, 2, 3),
    "124": (0, 1, 2),
}

TWO_NODE_CHANNELS = ("12", "34", "14", "23", "13", "24")
THREE_NODE_CHANNELS = ("123", "234", "124")
ALL_CHANNELS = TWO_NODE_CHANNELS + THREE_NODE_CHANNELS + ("18",)


def bell_weights(a, b, c) -> tuple:
    """Bell-basis weights of the Pauli-diagonal state (a, b, c), elementwise."""
    return ((1 + a - b + c) / 4, (1 - a + b + c) / 4,
            (1 + a + b - c) / 4, (1 - a - b - c) / 4)


def _require_bell_weights(a, b, c) -> None:
    """ValueError for the first element whose Bell weights dip below
    -XSTATE_PSD_TOL."""
    weights = np.array(bell_weights(a, b, c), dtype=float).reshape(4, -1)
    bad = weights < -XSTATE_PSD_TOL
    if np.count_nonzero(bad):
        i = int(bad.any(axis=0).argmax())
        params = tuple(float(np.ravel(x)[i]) for x in (a, b, c))
        raise ValueError(
            f"X-state params {params} give negative Bell weights "
            f"{tuple(weights[:, i].tolist())}")


def propagator_phases(eps_tilde: np.ndarray, taus: np.ndarray, eps_key: str,
                      tau_key: str) -> np.ndarray:
    """(3, N) phases kappa * tau of the propagator's three Pauli-pair terms,
    kappa = (1 - 3 eps_tilde, 1 + 3 eps_tilde, -2), at every (eps_tilde,
    tau) of two 1-d arrays: the one phase rule. FieldError at the first tau
    that is negative or NaN or whose phases are not finite; as kappa_z = -2
    for any eps_tilde, it blames `tau_key` when the tau is negative or 2 tau
    is not finite, else `eps_key`."""
    with np.errstate(over="ignore", invalid="ignore"):  # refused just below
        phases = np.array([(1 - 3 * eps_tilde) * taus,
                           (1 + 3 * eps_tilde) * taus, -2.0 * taus])
    bad_tau = ~((taus >= 0) & np.isfinite(phases[2]))  # NaN tau too
    bad = bad_tau | ~np.isfinite(phases[:2]).all(axis=0)
    if np.count_nonzero(bad):
        i = int(bad.argmax())
        raise FieldError((tau_key,) if bad_tau[i] else (eps_key,),
                         f"need tau >= 0 and finite phases kappa * tau, got "
                         f"eps_tilde = {eps_tilde[i]}, tau = {taus[i]}")
    return phases


@dataclass(frozen=True)
class DipolarParams:
    """Dimensionless coupling parameters that `propagator_phases` accepts."""

    eps_tilde: float
    tau: float

    def __post_init__(self):
        require_numbers("eps_tilde", self.eps_tilde)
        require_numbers("tau", self.tau)
        propagator_phases(np.array([self.eps_tilde], dtype=float),
                          np.array([self.tau], dtype=float), "eps_tilde", "tau")


@dataclass(frozen=True)
class NetworkConfig:
    """Initial network kind: MM, WW or MW with per-pair Werner parameters."""

    kind: str
    werner_x1: float = 0.7
    werner_x2: float = 0.7

    def __post_init__(self):
        if self.kind not in ("MM", "WW", "MW"):
            raise FieldError(("kind",), f"unknown network kind {self.kind!r}")
        for key in ("werner_x1", "werner_x2"):
            x = getattr(self, key)
            require_numbers(key, x)
            if not 0.0 <= x <= 1.0:
                raise FieldError((key,), f"werner parameter {x} outside [0, 1]")

    def pair_params(self) -> np.ndarray:
        """(2, 3) Pauli-diagonal triples (a, b, c), one row per pair, by the
        one Werner rule: x * singlet + (1 - x) * I/4 is (-x, -x, -x), with
        x = 1 (the singlet) for an M pair and its werner_x for a W pair."""
        xs = [x if k == "W" else 1.0
              for k, x in zip(self.kind, (self.werner_x1, self.werner_x2))]
        return -np.array([[x] * 3 for x in xs], dtype=float)


def _require_unit_norm(r: np.ndarray) -> np.ndarray:
    """The (4, N) coefficients r1..r4, once sum |r_k|^2 = 1 holds to 1e-12
    at every tau (NaN fails)."""
    norm = np.float_power(np.hypot(r.real, r.imag), 2.0).sum(axis=0)
    bad = ~(np.abs(norm - 1.0) <= 1e-12)
    if np.count_nonzero(bad):
        raise ValueError(f"sum |r_k|^2 = {norm[bad.argmax()]} deviates from 1")
    return r


# Factor indices into (c1, c2, c3, s1, s2, s3) of the products, taken left
# to right, that form Re r1..r4 and -Im r1..r4 in `propagator_coeff_stack`.
_R_FACTORS = np.array([[0, 1, 2], [0, 4, 5], [1, 3, 5], [2, 3, 4],
                       [3, 4, 5], [1, 2, 3], [0, 2, 4], [0, 1, 5]]).T


def propagator_coeff_stack(eps_tilde: np.ndarray,
                           taus: np.ndarray) -> np.ndarray:
    """(4, N) propagator coefficients r1..r4 at every tau of the 1-d array
    `taus`, with `eps_tilde` a 1-d array of one eps per tau, each a product
    of the phases' cosines c1..c3 and sines s1..s3 (`_R_FACTORS`): the one
    place both routes' propagators are formed, checked for unit norm."""
    phases = propagator_phases(eps_tilde, taus, "eps_tilde", "tau")
    f = np.concatenate([np.cos(phases), np.sin(phases)])[_R_FACTORS]
    prod = f[0] * f[1] * f[2]
    r = np.empty((4, len(taus)), dtype=complex)
    r.real = prod[:4]
    np.negative(prod[4:], out=r.imag)
    return _require_unit_norm(r)


def coeff_gammas(r: np.ndarray) -> np.ndarray:
    """Propagator entries g1..g4 = (r2 - r3, r2 + r3, r1 - r4, r1 + r4) of
    the coefficients r1..r4 stacked on the first axis."""
    return np.array([r[1] - r[2], r[1] + r[2], r[0] - r[3], r[0] + r[3]])


def propagator_coeffs(p: DipolarParams) -> np.ndarray:
    """(4,) r1..r4 at one point: `propagator_coeff_stack`'s N = 1 column."""
    return propagator_coeff_stack(np.array([p.eps_tilde]),
                                  np.array([p.tau]))[:, 0]


def propagator_gammas(eps_tilde: np.ndarray, taus: np.ndarray) -> np.ndarray:
    """(4, N) propagator entries g1..g4 of `propagator_coeff_stack`, as the
    closed-form kernel reads the one stack both routes share."""
    return coeff_gammas(propagator_coeff_stack(eps_tilde, taus))


# Entry of (g1, g2, g3, g4, 0) at each position of the 4x4 propagator.
_COUPLING_LAYOUT = np.array([[3, 4, 4, 0],
                             [4, 2, 1, 4],
                             [4, 1, 2, 4],
                             [0, 4, 4, 3]])


def coupling_matrices(gammas: np.ndarray) -> np.ndarray:
    """(N, 4, 4) propagators from (4, N) entries g1..g4.

    Outer diagonal g4 = r1+r4, inner diagonal g3 = r1-r4, corners
    g1 = r2-r3, inner off-diagonals g2 = r2+r3. This corner/inner placement
    is the unitary one and equals the matrix exponential of the Hamiltonian;
    swapping the two (as one reading of the source equations suggests)
    breaks unitarity.
    """
    entries = np.concatenate([gammas, np.zeros((1, gammas.shape[1]))])
    return np.ascontiguousarray(entries[_COUPLING_LAYOUT].transpose(2, 0, 1))


def propagator_matrix(p: DipolarParams) -> ComplexMatrix:
    """The two-qubit dipolar propagator (layout: `coupling_matrices`)."""
    return coupling_matrices(coeff_gammas(propagator_coeffs(p))[:, None])[0]


def x_states(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(N, 4, 4) stack of Pauli-diagonal states 1/4 (I + a XX + b YY + c ZZ)
    from 1-d coefficient arrays; every element's Bell weights are checked,
    the density invariants are left to the caller."""
    _require_bell_weights(a, b, c)
    return 0.25 * (IDENTITY_4
                   + a[:, None, None] * XX
                   + b[:, None, None] * YY
                   + c[:, None, None] * ZZ)


def x_state(pair) -> DensityMatrix:
    """Two-qubit Pauli-diagonal state 1/4 (I + a XX + b YY + c ZZ) of the
    triple `pair` = (a, b, c)."""
    return DensityMatrix(x_states(*np.array(pair, dtype=float)[:, None])[0])


@functools.lru_cache(maxsize=INITIAL_NETWORKS_KEPT)
def initial_network(cfg: NetworkConfig) -> DensityMatrix:
    p1, p2 = cfg.pair_params()
    return DensityMatrix(kron(x_state(p1).mat, x_state(p2).mat))


def evolved_network(cfg: NetworkConfig, p: DipolarParams) -> DensityMatrix:
    """Initial network evolved by the dipolar coupling on qubits (1, 2)."""
    u = require_unitary(propagator_matrix(p))
    return DensityMatrix(conjugate_pair_stack(initial_network(cfg).mat[None],
                                              u, (1, 2))[0])


def extend_to_eight(cfg: NetworkConfig, p_inner: DipolarParams,
                    p_bridge: DipolarParams) -> DensityMatrix:
    """Channel "18" at one point (see `network_channel_states`)."""
    return network_channel_state(cfg, p_inner, "18", p_bridge)


def channel_qubits(channel: str) -> tuple[int, ...]:
    """Qubits of a four-node channel ("18" lives on the extension)."""
    try:
        return CHANNEL_QUBITS[channel]
    except KeyError:
        raise ValueError(f"unknown channel {channel!r}") from None


def network_channel_states(cfg: NetworkConfig, channel: str,
                           eps_tilde: np.ndarray, taus: np.ndarray,
                           p_bridge: DipolarParams | None = None) -> np.ndarray:
    """(N, d, d) dense-path states of a named channel at every tau of the
    1-d array `taus` (a block of `scan.series_values`), with `eps_tilde` a
    1-d array of one eps per tau, in one pass: the initial network
    conjugated on qubits (1, 2) by the block's propagators (one
    `coupling_matrices` call on the `propagator_coeff_stack` the closed
    route reads too), then reduced.
    The unitaries and the evolved network stack are validated here, the
    reduced states by the caller.

    Channel "18" joins two such four-node hops (qubits 0-3 and 4-7) by a
    bridge coupling at `p_bridge` (default: the inner coupling at each tau)
    on hop 1's terminal node (qubit 2) and hop 2's first node (qubit 4),
    and keeps the terminal qubits (0, 4); it bridges only the 32 8x8 slices
    of kron(hop, hop) that trace reads (no 256x256 state, the same bits). A
    bridge on (3, 4) keeping (0, 7) instead provably returns I/4 for every
    parameter value, so this layout carries the extension's entanglement.
    """
    us = require_unitary(coupling_matrices(coeff_gammas(
        propagator_coeff_stack(eps_tilde, taus))))
    hops = require_density_stack(conjugate_pair_stack(np.broadcast_to(
        initial_network(cfg).mat, (len(us), 16, 16)), us, (1, 2)))
    if channel != "18":
        return partial_trace_stack(hops, channel_qubits(channel))
    bridge = (np.repeat(us, 32, axis=0) if p_bridge is None
              else require_unitary(propagator_matrix(p_bridge)))
    # kron(hop, hop) where the qubits the bridge leaves and the trace drops
    # (1, 3, 5, 6, 7) have equal ket and bra: (N, 32) 8x8s on (0, 2, 4)
    t = hops.reshape((-1,) + (2,) * 8)
    hop1 = np.einsum("napcqbpdq->npqacbd", t).reshape(-1, 2, 2, 1, 1, 1,
                                                       2, 2, 1, 2, 2, 1)
    hop2 = np.einsum("naxyzbxyz->nxyzab", t).reshape(-1, 1, 1, 2, 2, 2,
                                                      1, 1, 2, 1, 1, 2)
    slices = hop1 * hop2
    t = np.einsum("npqxyzacebcf->npcqxyzaebf", conjugate_pair_stack(
        slices.reshape(-1, 8, 8), bridge, (1, 2)).reshape(slices.shape))
    for _ in range(6):  # partial_trace_stack's order: qubit 7, 6, 5, 3, 2, 1
        t = t.sum(axis=-5)
    return t.reshape(-1, 4, 4)


def network_channel_state(cfg: NetworkConfig, p: DipolarParams, channel: str,
                          p_bridge: DipolarParams | None = None) -> DensityMatrix:
    """Dense-path reduced state of a named channel at one point."""
    return DensityMatrix(network_channel_states(
        cfg, channel, np.array([p.eps_tilde]), np.array([p.tau]), p_bridge)[0])
