import itertools
import re

import numpy as np
import pytest

from dipnet.closedform import kept_pair_damping
from dipnet.measures import negativity
import dipnet.netmodel as netmodel
import dipnet.qmat as qmat
import dipnet.scan as scan
from dipnet.netmodel import (ALL_CHANNELS, DipolarParams, FieldError,
                             NetworkConfig, bell_weights, coeff_gammas,
                             evolved_network, extend_to_eight,
                             initial_network, network_channel_state,
                             network_channel_states, propagator_coeff_stack,
                             propagator_coeffs, propagator_gammas,
                             propagator_matrix, x_state)
from dipnet.qmat import (conjugate_pair_stack, kron, partial_trace,
                         partial_trace_stack, require_unitary)

from conftest import (SINGLET_PARAMS, charpoly_eigenvalues,
                      dense_channel_states_reference,
                      dipolar_hamiltonian, gammas_reference, ginibre_density,
                      hermitian_eigenvalues, matrix_exp_hermitian,
                      propagator_coeffs_reference, tau_to_time,
                      werner_params)

SINGLET_MAT = np.array([[0, 0, 0, 0],
                        [0, 0.5, -0.5, 0],
                        [0, -0.5, 0.5, 0],
                        [0, 0, 0, 0]], dtype=complex)

SWAP = np.array([[1, 0, 0, 0],
                 [0, 0, 1, 0],
                 [0, 1, 0, 0],
                 [0, 0, 0, 1]], dtype=complex)


def test_hamiltonian_zero_couplings():
    assert np.abs(dipolar_hamiltonian(0.0, 0.0)).max() == 0.0


def test_hamiltonian_direct_substitution():
    h = dipolar_hamiltonian(6.0, 2.0)
    expect = np.array([[1, 0, 0, 1],
                       [0, -1, -1, 0],
                       [0, -1, -1, 0],
                       [1, 0, 0, 1]], dtype=complex)
    assert np.abs(h - expect).max() == 0.0


def test_hamiltonian_eigenvalues_oracle():
    w = charpoly_eigenvalues(dipolar_hamiltonian(1.0, 0.0))
    assert np.allclose(w, [-1 / 3, 0.0, 1 / 6, 1 / 6], atol=1e-8)


@pytest.mark.parametrize("eps, tau, key", [
    (0.1, float("nan"), "tau"), (float("nan"), 1.0, "eps_tilde"),
    (0.1, float("inf"), "tau"), (0.1, 1e308, "tau"), (1e308, 0.0, "eps_tilde"),
    (0.1, -1.0, "tau"), (1 / 3, float("inf"), "tau")])
def test_coupling_refuses_non_finite_phases(eps, tau, key):
    # a phase kappa * tau that is not finite would reach the eigensolver
    with pytest.raises(FieldError) as err:
        DipolarParams(eps_tilde=eps, tau=tau)
    assert err.value.keys == (key,)
    # both routes' propagator stacks refuse the point too, with the same
    # keys, wherever it stands in the vector, before any cos, sin or
    # overflowing product
    for k in range(3):
        eps_tilde, taus = np.full(3, 0.2), np.full(3, 0.5)
        eps_tilde[k], taus[k] = eps, tau
        for stack in (propagator_gammas, propagator_coeff_stack):
            with pytest.raises(FieldError, match="need tau >= 0 and finite"
                               ) as err:
                stack(eps_tilde, taus)
            assert err.value.keys == (key,)


@pytest.mark.parametrize("coeffs", [(complex("nan"), 0, 0, 0),
                                    (1, complex(0, float("nan")), 0, 0),
                                    (float("inf"), 0, 0, 0)])
def test_propagator_coeffs_refuse_non_finite_entries(coeffs):
    # the one norm check of both stacks fails on NaN and inf, at any tau
    r = np.array([[1, 0, 0, 0], coeffs, [0, 1, 0, 0]], dtype=complex).T
    with pytest.raises(ValueError, match="deviates from 1"):
        netmodel._require_unit_norm(r)


def test_propagator_coeffs_tau_zero():
    r1, r2, r3, r4 = propagator_coeffs(DipolarParams(eps_tilde=0.4, tau=0.0))
    assert r1 == 1.0 and r2 == r3 == r4 == 0.0


def test_propagator_coeffs_tau_pi_eps_zero():
    r1, *rest = propagator_coeffs(DipolarParams(eps_tilde=0.0, tau=np.pi))
    assert abs(r1 - 1.0) < 1e-12
    assert max(abs(r) for r in rest) < 1e-12


def test_propagator_coeffs_normalization():
    pc = propagator_coeffs(DipolarParams(eps_tilde=0.3, tau=0.7))
    norm = sum(abs(r) ** 2 for r in pc)
    assert abs(norm - 1.0) < 1e-12


# (eps_tilde, tau) at the edges of the accepted range: subnormal taus, taus
# far past any sweep, |eps| = 1e10 near tau = 1e-5, kappa_x = 0 at
# eps = 1/3, and eps = 0 of either sign
EXTREME_PROPAGATOR_POINTS = [
    (0.2, 5e-324), (-0.3, 1e-320), (0.0, 5e-324),
    (0.1, 1e15), (-0.2, 1e100), (0.45, 1e15),
    (1e10, 1e-5), (-1e10, 3e-5), (1e10, 1.3e-5),
    (1 / 3, 2.0), (1 / 3, 1e100), (-1 / 3, 0.9),
    (0.0, 1e15), (-0.0, 1e100), (-0.0, 0.7), (0.0, 0.0), (-0.0, 0.0)]


def test_propagator_stacks_equal_the_scalar_reference():
    # the dense stack, its one-point column and matrix, and the closed
    # route's gammas keep the scalar formula's bits at every point: eps = 0
    # of either sign, tau = 0 and both signs of eps among them, and the
    # extreme points
    rng = np.random.default_rng(21)
    vectors = [np.array(EXTREME_PROPAGATOR_POINTS).T]
    for n in (1, 9, 300):
        eps = rng.uniform(-0.5, 0.5, size=n)
        taus = rng.uniform(0.0, 10.0, size=n)
        eps[:5] = [0.0, -0.0, 0.3, -0.3, 0.0][:n]
        taus[:5] = [0.0, 1.7, 0.0, 2.9, 1e6][:n]
        eps[rng.random(n) < 0.1] = 0.0
        taus[rng.random(n) < 0.1] = 0.0
        vectors.append((eps, taus))
    for eps, taus in vectors:
        points = list(zip(eps.tolist(), taus.tolist()))
        want = np.array([propagator_coeffs_reference(*pt) for pt in points]).T
        assert propagator_coeff_stack(eps, taus).tobytes() == want.tobytes()
        gammas = np.array([gammas_reference(*pt) for pt in points]).T
        assert coeff_gammas(want).tobytes() == gammas.tobytes()
        assert propagator_gammas(eps, taus).tobytes() == gammas.tobytes()
        for k, (e, t) in enumerate(points[:20]):
            p = DipolarParams(eps_tilde=e, tau=t)
            assert propagator_coeffs(p).tobytes() == want[:, k].tobytes()
            assert propagator_matrix(p).tobytes() == netmodel.coupling_matrices(
                gammas[:, k:k + 1])[0].tobytes()


@pytest.mark.parametrize("channel", ALL_CHANNELS[:-1])
def test_dense_states_equal_the_per_tau_reference(channel):
    # one propagator stack per call keeps the bits of a per-tau
    # coupling_matrices loop on any network and tau vector (channel 18:
    # test_channel_18_slices_equal_the_256_dim_route)
    rng = np.random.default_rng(len(channel) * 100 + int(channel))
    for i in range(6):
        cfg = NetworkConfig(("MM", "WW", "MW")[i % 3],
                            werner_x1=float(rng.uniform()),
                            werner_x2=float(rng.uniform()))
        n = int(rng.integers(1, 40))
        eps = rng.uniform(-0.5, 0.5, size=n)
        taus = rng.uniform(0.0, 10.0, size=n)
        eps[rng.random(n) < 0.2] = 0.0
        taus[rng.random(n) < 0.2] = 0.0
        got = network_channel_states(cfg, channel, eps, taus)
        want = dense_channel_states_reference(cfg, channel, eps, taus)
        assert got.tobytes() == want.tobytes(), (cfg, channel, n)


def test_propagator_identity_at_tau_zero():
    u = propagator_matrix(DipolarParams(eps_tilde=-0.2, tau=0.0))
    assert np.abs(u - np.eye(4)).max() < 1e-14


def test_propagator_commutes_with_swap():
    u = propagator_matrix(DipolarParams(eps_tilde=-0.2, tau=1.1))
    assert np.abs(u @ SWAP - SWAP @ u).max() < 1e-14


def test_propagator_matches_hamiltonian_exponential():
    # tau <-> t calibration: U(tau, eps/delta) = exp(-i H(delta, eps) t)
    # at t = -12 tau / delta, exact over a tau grid, for deltas other than 1,
    # eps of both signs and zero, and eps / delta > 1/3 (kappa_x < 0)
    for delta, eps in [(1.0, 0.3), (1.0, 0.5), (2.5, 0.9), (1.0, -0.2),
                       (0.4, -0.3), (1.0, 0.0), (3.0, -0.0), (1.0, 1 / 3)]:
        h = dipolar_hamiltonian(delta, eps)
        for tau in np.linspace(0.0, 6.0, 25):
            u = propagator_matrix(DipolarParams(eps_tilde=eps / delta,
                                                tau=tau))
            u_h = matrix_exp_hermitian(h, tau_to_time(tau, delta))
            assert np.abs(u - u_h).max() < 1e-12, (delta, eps, tau)


def test_propagator_group_property():
    for eps in (-0.2, 0.0, 0.1, 0.3):
        for t1, t2 in [(0.3, 0.9), (1.7, 2.4), (0.05, 5.0)]:
            u1 = propagator_matrix(DipolarParams(eps_tilde=eps, tau=t1))
            u2 = propagator_matrix(DipolarParams(eps_tilde=eps, tau=t2))
            u12 = propagator_matrix(DipolarParams(eps_tilde=eps, tau=t1 + t2))
            assert np.abs(u1 @ u2 - u12).max() < 1e-10


def test_x_state_singlet():
    assert np.abs(x_state(SINGLET_PARAMS).mat - SINGLET_MAT).max() < 1e-14


def test_x_state_maximally_mixed():
    assert np.abs(x_state((0, 0, 0)).mat - np.eye(4) / 4).max() < 1e-14


def test_x_state_werner_mixture():
    x = 0.6
    got = x_state(werner_params(x)).mat
    expect = x * SINGLET_MAT + (1 - x) * np.eye(4) / 4
    assert np.abs(got - expect).max() < 1e-14


def test_x_state_rejects_nonpositive_params():
    with pytest.raises(ValueError, match=r"^X-state params \(1\.0, 1\.0, 1\.0\)"
                       r" give negative Bell weights"
                       r" \(0\.5, 0\.5, 0\.5, -0\.5\)$"):
        x_state((1.0, 1.0, 1.0))


def test_xstate_psd_condition_matches_bell_weights(rng):
    for _ in range(50):
        a, b, c = rng.uniform(-1.2, 1.2, size=3)
        params = (a, b, c)
        ok = min(bell_weights(a, b, c)) >= -1e-12
        if ok:
            rho = x_state(params)
            assert hermitian_eigenvalues(rho.mat).min() > -1e-10
        else:
            weights = tuple(float(w) for w in bell_weights(a, b, c))
            message = (f"X-state params {tuple(map(float, params))} give "
                       f"negative Bell weights {weights}")
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                x_state(params)


def test_initial_network_kinds():
    mm = initial_network(NetworkConfig("MM"))
    assert np.abs(mm.mat - kron(SINGLET_MAT, SINGLET_MAT)).max() < 1e-14
    ww0 = initial_network(NetworkConfig("WW", werner_x1=0.0, werner_x2=0.0))
    assert np.abs(ww0.mat - np.eye(16) / 16).max() < 1e-14
    mw1 = initial_network(NetworkConfig("MW", werner_x2=1.0))
    assert np.abs(mw1.mat - mm.mat).max() < 1e-14


def test_pair_params_is_the_werner_rule():
    # one (a, b, c) row per pair, -x three times: x = 1 for an M pair, its
    # werner_x for a W pair
    cases = [(NetworkConfig("MM"), 1.0, 1.0),
             (NetworkConfig("MW", werner_x2=0.4), 1.0, 0.4),
             (NetworkConfig("WW", werner_x1=0.3, werner_x2=0.4), 0.3, 0.4)]
    for cfg, x1, x2 in cases:
        got = cfg.pair_params()
        assert got.shape == (2, 3) and got.dtype == float, cfg.kind
        assert (got == np.array([[-x1] * 3, [-x2] * 3])).all(), cfg.kind


def test_conjugate_pair_stack_identity():
    rho = initial_network(NetworkConfig("MM"))
    out = conjugate_pair_stack(rho.mat[None], np.eye(4, dtype=complex),
                               (1, 2))[0]
    assert np.abs(out - rho.mat).max() < 1e-14


def _embedded(u, i, j, n):
    """Reference 2**n x 2**n embedding of a 4x4 u on qubits (i, j), from its
    entrywise definition: <o|E|c> = u[o_i o_j, c_i c_j] if o and c agree on
    every other qubit, else 0."""
    bits = (np.arange(2 ** n)[:, None] >> (n - 1 - np.arange(n))) & 1
    rest = [q for q in range(n) if q not in (i, j)]
    same = (bits[:, None, rest] == bits[None, :, rest]).all(axis=-1)
    pair = 2 * bits[:, i] + bits[:, j]
    return np.where(same, u[pair[:, None], pair[None, :]], 0)


def _unitarity(dev: str) -> str:
    """Full-message pattern of require_unitary's refusal at deviation `dev`
    (a pattern)."""
    return rf"^unitarity deviation {dev} exceeds 1\.0e-12$"


def _out_of_order(pair) -> str:
    """Full-message pattern of the index rule's refusal of `pair` on the
    four-qubit network."""
    return "^" + re.escape(f"qubit indices {pair} must be strictly "
                           f"increasing in range(4)") + "$"


def _random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return q * (r.diagonal() / np.abs(r.diagonal()))


def test_conjugate_pair_stack_embedding_adjacent():
    rng = np.random.default_rng(4)
    u = propagator_matrix(DipolarParams(eps_tilde=0.1, tau=0.9))
    full = _embedded(u, 1, 2, 4)
    assert np.array_equal(full, kron(kron(np.eye(2), u), np.eye(2)))
    rho = ginibre_density(rng, 4)
    expect = full @ rho.mat @ full.conj().T
    assert np.array_equal(conjugate_pair_stack(rho.mat[None], u, (1, 2))[0],
                          expect)
    # one unitary per state, as the dense route passes them
    assert np.array_equal(conjugate_pair_stack(
        rho.mat[None], require_unitary(u[None]), (1, 2))[0], expect)


def test_conjugate_pair_stack_embedding_nonadjacent():
    # embed on (0, 2) of 3 qubits, checked entrywise against the definition
    rng = np.random.default_rng(5)
    u = propagator_matrix(DipolarParams(eps_tilde=-0.15, tau=1.3))
    full = _embedded(u, 0, 2, 3)
    t = u.reshape(2, 2, 2, 2)
    for o in range(8):
        for i in range(8):
            o0, o1, o2 = (o >> 2) & 1, (o >> 1) & 1, o & 1
            i0, i1, i2 = (i >> 2) & 1, (i >> 1) & 1, i & 1
            expect = t[o0, o2, i0, i2] if o1 == i1 else 0.0
            assert full[o, i] == expect
    rho = ginibre_density(rng, 3)
    assert np.array_equal(conjugate_pair_stack(rho.mat[None], u, (0, 2))[0],
                          full @ rho.mat @ full.conj().T)


def test_conjugate_pair_stack_equals_embedded_conjugation():
    # bit for bit, on every ordered pair of 3 and 4 qubits and on the
    # eight-node bridge pair (2, 4)
    rng = np.random.default_rng(6)
    cases = [(n, pair) for n in (3, 4)
             for pair in itertools.combinations(range(n), 2)] + [(8, (2, 4))]
    for n, (i, j) in cases:
        u = _random_unitary(rng)
        full = _embedded(u, i, j, n)
        mats = np.array([ginibre_density(rng, n).mat
                         for _ in range(3 if n < 8 else 1)])
        out = conjugate_pair_stack(mats, u, (i, j))
        for rho, got in zip(mats, out):
            assert np.array_equal(got, full @ rho @ full.conj().T), (n, i, j)


def test_conjugate_pair_stack_one_unitary_per_state_equals_single_calls():
    rng = np.random.default_rng(9)
    for n, pair, count in ((4, (1, 2), 5), (4, (0, 3), 5), (8, (2, 4), 2)):
        us = np.array([_random_unitary(rng) for _ in range(count)])
        mats = np.array([ginibre_density(rng, n).mat for _ in range(count)])
        out = conjugate_pair_stack(mats, us, pair)
        for rho, u, got in zip(mats, us, out):
            one = conjugate_pair_stack(rho[None], u, pair)[0]
            assert np.array_equal(got, one), (n, pair)


def test_require_unitary_checks_every_member_of_a_stack():
    rng = np.random.default_rng(10)
    us = np.array([_random_unitary(rng) for _ in range(4)])
    assert np.array_equal(require_unitary(us), us)
    for k in range(len(us)):
        bad = us.copy()
        bad[k] *= 1.0 + 1e-9
        with pytest.raises(ValueError, match=_unitarity(r"2\.000e-09")):
            require_unitary(bad)


@pytest.mark.parametrize("channel", ["18", "99", ""])
def test_channel_qubits_knows_only_the_four_node_channels(channel):
    # channel 18 lives on the eight-node extension, so it is unknown here
    with pytest.raises(ValueError, match=f"^unknown channel {channel!r}$"):
        netmodel.channel_qubits(channel)


def test_conjugate_pair_stack_refuses_other_pairs():
    mats = initial_network(NetworkConfig("MM")).mat[None]
    for pair in [(2, 1), (1, 1), (0, 4)]:
        with pytest.raises(ValueError, match=_out_of_order(pair)):
            conjugate_pair_stack(mats, np.eye(4), pair)


def test_evolved_network_preserves_spectrum():
    cfg = NetworkConfig("WW", werner_x1=0.8, werner_x2=0.5)
    rho = initial_network(cfg)
    out = evolved_network(cfg, DipolarParams(eps_tilde=0.25, tau=2.1))
    w0 = hermitian_eigenvalues(rho.mat)
    w1 = hermitian_eigenvalues(out.mat)
    assert np.abs(w0 - w1).max() < 1e-10
    assert abs(out.mat.trace() - 1.0) < 1e-12


def test_conjugate_pair_stack_and_require_unitary_reject_bad_input():
    mats = initial_network(NetworkConfig("MM")).mat[None]
    with pytest.raises(ValueError, match=_out_of_order((2, 1))):
        conjugate_pair_stack(mats, np.eye(4), (2, 1))
    with pytest.raises(ValueError, match=_out_of_order((1, 4))):
        conjugate_pair_stack(mats, np.eye(4), (1, 4))
    with pytest.raises(ValueError, match=_unitarity(r"3\.000e\+00")):
        require_unitary(np.eye(4) * 2.0)
    # NaN compares false with the tolerance, so it must fail the check
    with pytest.raises(ValueError, match=_unitarity("nan")):
        require_unitary(np.full((4, 4), np.nan))
    us = np.array([np.eye(4, dtype=complex)] * 3)
    us[1, 2, 3] = complex("nan")
    with pytest.raises(ValueError, match=_unitarity("nan")):
        require_unitary(us)


def test_evolved_network_matches_pair_closed_form():
    # evolving on (1,2) and keeping (0,1) reproduces the closed form of the
    # first pair's channel: the singlet damped by the kept-pair damping
    cfg = NetworkConfig("MM")
    for tau, eps in [(0.5, 0.1), (1.4, -0.2), (3.3, 0.3)]:
        p = DipolarParams(eps_tilde=eps, tau=tau)
        dense = partial_trace(evolved_network(cfg, p), (0, 1))
        lx, ly, lz = kept_pair_damping(coeff_gammas(propagator_coeffs(p)))
        closed = x_state((-lx, -ly, -lz))
        assert np.abs(dense.mat - closed.mat).max() < 1e-12


def test_pair_negativity_symmetry():
    for cfg in (NetworkConfig("MM"), NetworkConfig("WW", werner_x1=0.7,
                                                   werner_x2=0.7)):
        for tau in (0.4, 1.1, 2.9):
            p = DipolarParams(eps_tilde=0.1, tau=tau)
            rho = evolved_network(cfg, p)
            n12 = negativity(partial_trace(rho, (0, 1)))
            n34 = negativity(partial_trace(rho, (2, 3)))
            assert abs(n12 - n34) < 1e-10


def test_extend_to_eight_no_interaction():
    cfg = NetworkConfig("MM")
    p0 = DipolarParams(eps_tilde=0.0, tau=0.0)
    rho = extend_to_eight(cfg, p0, p0)
    assert np.abs(rho.mat - np.eye(4) / 4).max() < 1e-12
    assert negativity(rho) == 0.0


def test_channel_18_fixed_bridge_equals_embedded_reference():
    # no output pin covers a fixed bridge: hold it bit for bit to the two
    # hops' kron, the embedded bridge matmul and the partial trace
    rng = np.random.default_rng(8)
    for kind in ("MM", "WW", "MW"):
        cfg = NetworkConfig(kind, werner_x1=float(rng.uniform()),
                            werner_x2=float(rng.uniform()))
        p = DipolarParams(eps_tilde=float(rng.uniform(-0.5, 0.5)),
                          tau=float(rng.uniform(0.0, 10.0)))
        bridge = DipolarParams(eps_tilde=float(rng.uniform(-0.5, 0.5)),
                               tau=float(rng.uniform(0.0, 10.0)))
        hop = evolved_network(cfg, p).mat
        full = _embedded(propagator_matrix(bridge), 2, 4, 8)
        rho8 = full @ kron(hop, hop) @ full.conj().T
        expect = partial_trace_stack(rho8[None], (0, 4))[0]
        got = network_channel_state(cfg, p, "18", bridge).mat
        assert np.array_equal(got, expect), kind


@pytest.mark.parametrize("bridge", ["track", "fixed"])
def test_channel_18_slices_equal_the_256_dim_route(bridge):
    # the 32 bridged slices must give the brute-force route's bits, not
    # merely close values: a slip in the slices' axis order or in the order
    # of the trace's sums shows here as a moved bit
    rng = np.random.default_rng(18)
    edge = np.array([0.0, np.pi / 4, np.pi / 2])
    for i in range(30):
        cfg = NetworkConfig(("MM", "WW", "MW")[i % 3],
                            werner_x1=float(rng.uniform()),
                            werner_x2=float(rng.uniform()))
        eps = 0.0 if i == 0 else float(rng.uniform(-0.5, 0.5))
        taus = edge if i == 0 else rng.uniform(0.0, 10.0, size=3)
        p_bridge = None if bridge == "track" else DipolarParams(
            eps_tilde=float(rng.uniform(-0.5, 0.5)),
            tau=float(rng.uniform(0.0, 10.0)))
        want = dense_channel_states_reference(
            cfg, "18", np.full(taus.shape, eps), taus, p_bridge)
        got = network_channel_states(cfg, "18", np.full(taus.shape, eps),
                                     taus, p_bridge)
        assert np.array_equal(got, want), (cfg, eps, taus, p_bridge)
        p = DipolarParams(eps_tilde=eps, tau=float(taus[-1]))
        one = network_channel_state(cfg, p, "18", p_bridge).mat
        assert np.array_equal(one, want[-1]), (cfg, p, p_bridge)
        if p_bridge is not None:
            eight = extend_to_eight(cfg, p, p_bridge).mat
            assert np.array_equal(eight, want[-1]), (cfg, p, p_bridge)


def test_channel_18_refuses_a_non_unitary_fixed_bridge(monkeypatch):
    # the inner propagators are checked as a stack; a fixed bridge is
    # checked once, before it acts
    cfg = NetworkConfig("MM")
    p = DipolarParams(eps_tilde=0.1, tau=0.7)
    bridge = DipolarParams(eps_tilde=0.2, tau=1.3)
    unitary = netmodel.propagator_matrix

    def leaky(q):
        return 1.01 * unitary(q) if q == bridge else unitary(q)

    monkeypatch.setattr(netmodel, "propagator_matrix", leaky)
    network_channel_state(cfg, p, "18", p)  # a track bridge still runs
    with pytest.raises(ValueError, match=_unitarity(r"2\.010e-02")):
        network_channel_state(cfg, p, "18", bridge)
    with pytest.raises(ValueError, match=_unitarity(r"2\.010e-02")):
        network_channel_states(cfg, "18", np.full(2, 0.1),
                               np.array([0.2, 0.7]), bridge)


@pytest.mark.parametrize("channel", ["12", "14", "18", "123", "234"])
def test_dense_states_are_validated_once(monkeypatch, channel):
    # the initial network's two pairs and the network itself on the first
    # call for a config only, then one validation of the evolved 16x16
    # networks per call; the reduced states once at one point (by
    # density_matrix), never in the builder, and once per block of each
    # route in series_values, before the validate-mode oracle check
    calls = []
    validate = qmat.require_density_stack
    oracle = scan.require_oracle_agreement

    def spy(mats):
        calls.append(qmat.qubit_count(mats))
        return validate(mats)

    def oracle_spy(*args):
        calls.append("oracle")
        return oracle(*args)

    for module in (qmat, netmodel, scan):
        monkeypatch.setattr(module, "require_density_stack", spy)
    monkeypatch.setattr(scan, "require_oracle_agreement", oracle_spy)
    monkeypatch.setattr(scan, "BLOCK_TAUS", 2)
    cfg = NetworkConfig("WW", werner_x1=0.7, werner_x2=0.7)
    p = DipolarParams(eps_tilde=0.17, tau=0.83)
    reduced = len(channel) if channel != "18" else 2
    netmodel.initial_network.cache_clear()
    network_channel_state(cfg, p, channel, p)
    assert calls == [2, 2, 4, 4, reduced]
    taus, eps = np.array([0.1, p.tau, 1.7]), np.full(3, p.eps_tilde)
    calls.clear()
    network_channel_states(cfg, channel, eps, taus, p)
    assert calls == [4]
    quantifier = "tangle" if reduced == 3 else "negativity"
    for mode, block in (("dense", [4, reduced]),
                        ("validate", [reduced, 4, reduced, "oracle"])):
        calls.clear()
        scan.series_values(cfg, (quantifier,), np.full(3, channel), eps, taus,
                           mode, scan.ExtensionSpec("fixed", p))[0]
        assert calls == 2 * block, mode  # blocks of 2 and 1 taus


def test_extend_to_eight_trace_and_weakness():
    cfg = NetworkConfig("MM")
    taus = np.linspace(0.0, 4.0, 81)
    n14 = []
    for tau in taus:
        p = DipolarParams(eps_tilde=0.1, tau=float(tau))
        n14.append(negativity(network_channel_state(cfg, p, "14")))
    peak_tau = float(taus[int(np.argmax(n14))])
    p = DipolarParams(eps_tilde=0.1, tau=peak_tau)
    rho18 = extend_to_eight(cfg, p, p)
    assert abs(rho18.mat.trace() - 1.0) < 1e-10
    n18 = negativity(rho18)
    assert 0.0 < n18 < max(n14)
