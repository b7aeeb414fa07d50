"""Network construction and dipolar evolution.

A four-node network is two entangled pairs on qubits (0,1) and (2,3); the
dipolar coupling acts on qubits (1,2). Channel names follow the node
numbering used throughout the result set, where the second pair's nodes are
numbered far-member-first (node 3 is qubit 3, node 4 is qubit 2):

    "12" -> (0, 1)   "34" -> (2, 3)      initially entangled pairs
    "14" -> (0, 2)   "23" -> (1, 3)      generated by the coupling
    "13" -> (0, 3)   "24" -> (1, 2)      never correlated
    "123" -> (0, 1, 3)  "234" -> (1, 2, 3)  "124" -> (0, 1, 2)
    "18"  -> terminal channel of the eight-node extension

The propagator is parameterized by the dimensionless (tau, eps_tilde); it
equals exp(-i H t) for the Hamiltonian of dipolar_hamiltonian() at
t = -12 tau / delta (see tau_to_time).
"""

from dataclasses import dataclass

import numpy as np

from .qmat import (BadSubsystem, ComplexMatrix, DensityMatrix, HERM_TOL,
                   NotPositive, as_complex_matrix, kron, partial_trace,
                   partial_trace_stack, require_density_stack, require_unitary)

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
    """NotPositive for the first element whose Bell weights dip below
    -XSTATE_PSD_TOL."""
    weights = np.array(bell_weights(a, b, c), dtype=float).reshape(4, -1)
    bad = weights < -XSTATE_PSD_TOL
    if np.count_nonzero(bad):
        i = int(bad.any(axis=0).argmax())
        params = tuple(float(np.ravel(x)[i]) for x in (a, b, c))
        raise NotPositive(
            f"X-state params {params} give negative Bell weights "
            f"{tuple(weights[:, i].tolist())}")


@dataclass(frozen=True)
class XStateParams:
    """Correlation coefficients (a, b, c) of the Pauli-diagonal pair state."""

    a: float
    b: float
    c: float

    def bell_weights(self) -> tuple[float, float, float, float]:
        return bell_weights(self.a, self.b, self.c)


SINGLET_PARAMS = XStateParams(-1.0, -1.0, -1.0)


def werner_params(x: float) -> XStateParams:
    """Werner mixture x * singlet + (1 - x) * I/4."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"werner parameter {x} outside [0, 1]")
    return XStateParams(-x, -x, -x)


def kappas(eps_tilde: float) -> tuple[float, float, float]:
    """Phase rates of the propagator's three Pauli-pair terms."""
    return (1 - 3 * eps_tilde, 1 + 3 * eps_tilde, -2.0)


@dataclass(frozen=True)
class DipolarParams:
    """Dimensionless coupling parameters; the phase rates are always derived
    (`kappas`)."""

    eps_tilde: float
    tau: float

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")


@dataclass(frozen=True)
class PropagatorCoeffs:
    r1: complex
    r2: complex
    r3: complex
    r4: complex

    def __post_init__(self):
        norm = sum(abs(r) ** 2 for r in (self.r1, self.r2, self.r3, self.r4))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"sum |r_k|^2 = {norm} deviates from 1")

    def gammas(self) -> tuple[complex, complex, complex, complex]:
        """(r2 - r3, r2 + r3, r1 - r4, r1 + r4): the propagator's entries."""
        return (self.r2 - self.r3, self.r2 + self.r3,
                self.r1 - self.r4, self.r1 + self.r4)


@dataclass(frozen=True)
class NetworkConfig:
    """Initial network kind: MM, WW or MW with per-pair Werner parameters."""

    kind: str
    werner_x1: float = 0.7
    werner_x2: float = 0.7

    def __post_init__(self):
        if self.kind not in ("MM", "WW", "MW"):
            raise ValueError(f"unknown network kind {self.kind!r}")
        for x in (self.werner_x1, self.werner_x2):
            if not 0.0 <= x <= 1.0:
                raise ValueError(f"werner parameter {x} outside [0, 1]")

    def pair_params(self) -> tuple[XStateParams, XStateParams]:
        if self.kind == "MM":
            return SINGLET_PARAMS, SINGLET_PARAMS
        if self.kind == "WW":
            return werner_params(self.werner_x1), werner_params(self.werner_x2)
        return SINGLET_PARAMS, werner_params(self.werner_x2)


def dipolar_hamiltonian(delta: float, eps: float) -> ComplexMatrix:
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


def propagator_coeffs(p: DipolarParams) -> PropagatorCoeffs:
    kx, ky, kz = kappas(p.eps_tilde)
    c1, c2, c3 = np.cos(kx * p.tau), np.cos(ky * p.tau), np.cos(kz * p.tau)
    s1, s2, s3 = np.sin(kx * p.tau), np.sin(ky * p.tau), np.sin(kz * p.tau)
    return PropagatorCoeffs(
        r1=complex(c1 * c2 * c3, -s1 * s2 * s3),
        r2=complex(c1 * s2 * s3, -c2 * c3 * s1),
        r3=complex(c2 * s1 * s3, -c1 * c3 * s2),
        r4=complex(c3 * s1 * s2, -c1 * c2 * s3))


# Factor indices into (c1, c2, c3, s1, s2, s3) of the products, taken left
# to right, that form Re r1..r4 and -Im r1..r4 in `propagator_coeffs`.
_R_FACTORS = np.array([[0, 1, 2], [0, 4, 5], [1, 3, 5], [2, 3, 4],
                       [3, 4, 5], [1, 2, 3], [0, 2, 4], [0, 1, 5]]).T


def propagator_gammas(eps_tilde: float, taus: np.ndarray) -> np.ndarray:
    """(4, N) propagator entries g1..g4 = (r2 - r3, r2 + r3, r1 - r4,
    r1 + r4) at every tau of the 1-d array `taus`: the closed-form kernel's
    vectorised `propagator_coeffs(p).gammas()`, rounding as it does, with
    tau >= 0 and sum |r_k|^2 = 1 checked for every element. The dense path
    keeps the scalar `propagator_coeffs`, so each route computes the
    propagator's phases on its own."""
    if np.count_nonzero(taus < 0):
        raise ValueError(f"tau must be >= 0, got {taus.min()}")
    phases = np.multiply.outer(kappas(eps_tilde), taus)
    cs = np.concatenate([np.cos(phases), np.sin(phases)])
    f = cs[_R_FACTORS]
    prod = f[0] * f[1] * f[2]
    r = np.empty((4, len(taus)), dtype=complex)
    r.real = prod[:4]
    np.negative(prod[4:], out=r.imag)
    norm = np.float_power(np.hypot(r.real, r.imag), 2.0).sum(axis=0)
    bad = np.abs(norm - 1.0) > 1e-12
    if np.count_nonzero(bad):
        raise ValueError(f"sum |r_k|^2 = {norm[bad.argmax()]} deviates from 1")
    head, tail = r[[1, 0]], r[[2, 3]]
    return np.concatenate([head - tail, head + tail])[[0, 2, 1, 3]]


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
    return coupling_matrices(np.reshape(propagator_coeffs(p).gammas(),
                                        (4, 1)))[0]


def _x_matrices(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    _require_bell_weights(a, b, c)
    return 0.25 * (IDENTITY_4
                   + a[:, None, None] * XX
                   + b[:, None, None] * YY
                   + c[:, None, None] * ZZ)


def x_states(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """(N, 4, 4) stack of Pauli-diagonal states 1/4 (I + a XX + b YY + c ZZ)
    from 1-d coefficient arrays; every element's Bell weights and density
    invariants are checked."""
    return require_density_stack(_x_matrices(a, b, c), 2)


def x_state(params: XStateParams) -> DensityMatrix:
    """Two-qubit Pauli-diagonal state 1/4 (I + a XX + b YY + c ZZ)."""
    m = _x_matrices(*(np.array([x], dtype=float)
                      for x in (params.a, params.b, params.c)))
    return DensityMatrix(m[0], 2)


def initial_network(cfg: NetworkConfig) -> DensityMatrix:
    p1, p2 = cfg.pair_params()
    return DensityMatrix(kron(x_state(p1).mat, x_state(p2).mat), 4)


def _embed_two_qubit(u: ComplexMatrix, i: int, j: int, n: int) -> ComplexMatrix:
    """Embed a 4x4 operator on qubits (i, j) of an n-qubit register."""
    t = u.reshape(2, 2, 2, 2)
    op = np.eye(2 ** (n - 2), dtype=complex).reshape([2] * (2 * (n - 2)))
    full = np.tensordot(t, op, axes=0)
    # axes of `full`: (out_i, out_j, in_i, in_j, out_rest..., in_rest...)
    rest = [q for q in range(n) if q not in (i, j)]
    out_axes = [0] * n
    in_axes = [0] * n
    out_axes[i], out_axes[j] = 0, 1
    in_axes[i], in_axes[j] = 2, 3
    for k, q in enumerate(rest):
        out_axes[q] = 4 + k
        in_axes[q] = 4 + (n - 2) + k
    return full.transpose(out_axes + in_axes).reshape(2 ** n, 2 ** n)


def evolve_pair(rho: DensityMatrix, u: ComplexMatrix, qubits: tuple[int, int],
                check: bool = True) -> DensityMatrix:
    """Conjugate rho by u acting on the ordered qubit pair (i, j)."""
    i, j = qubits
    if not (0 <= i < j < rho.nqubits):
        raise BadSubsystem(f"need 0 <= i < j < {rho.nqubits}, got {(i, j)}")
    u = as_complex_matrix(u)
    if u.shape != (4, 4):
        raise BadSubsystem(f"expected a 4x4 unitary, got shape {u.shape}")
    if check:
        require_unitary(u, HERM_TOL)
    uf = _embed_two_qubit(u, i, j, rho.nqubits)
    return DensityMatrix(uf @ rho.mat @ uf.conj().T, rho.nqubits)


def evolved_network(cfg: NetworkConfig, p: DipolarParams) -> DensityMatrix:
    """Initial network evolved by the dipolar coupling on qubits (1, 2)."""
    return evolve_pair(initial_network(cfg), propagator_matrix(p), (1, 2),
                       check=False)


def extend_to_eight(cfg: NetworkConfig, p_inner: DipolarParams,
                    p_bridge: DipolarParams) -> DensityMatrix:
    """Terminal two-node channel of the eight-node network.

    Two identical four-node hops (qubits 0-3 and 4-7, each evolved on its
    (1,2) pair) are joined by a bridge coupling between hop 1's terminal
    node (qubit 2) and hop 2's first node (qubit 4); the 256x256 state is
    then traced to the terminal channel qubits (0, 4). Applying the bridge
    on (3, 4) and keeping (0, 7) instead provably returns I/4 for every
    parameter value, so this layout is the one that carries the extension's
    entanglement.
    """
    hop = evolved_network(cfg, p_inner)
    rho8 = kron(hop.mat, hop.mat)
    uf = _embed_two_qubit(propagator_matrix(p_bridge), 2, 4, 8)
    rho8 = uf @ rho8 @ uf.conj().T
    return DensityMatrix(partial_trace_stack(rho8[None], 8, (0, 4))[0], 2)


def channel_qubits(channel: str) -> tuple[int, ...]:
    if channel == "18":
        raise BadSubsystem("channel 18 lives on the extended network; "
                           "use extend_to_eight")
    try:
        return CHANNEL_QUBITS[channel]
    except KeyError:
        raise BadSubsystem(f"unknown channel {channel!r}") from None


def network_channel_state(cfg: NetworkConfig, p: DipolarParams, channel: str,
                          p_bridge: DipolarParams | None = None) -> DensityMatrix:
    """Dense-path reduced state of a named channel."""
    if channel == "18":
        return extend_to_eight(cfg, p, p_bridge if p_bridge is not None else p)
    return partial_trace(evolved_network(cfg, p), channel_qubits(channel))
