import numpy as np
import pytest

from dipnet.closedform import kept_pair_damping
from dipnet.measures import negativity
from dipnet.netmodel import (SINGLET_PARAMS, DipolarParams, NetworkConfig,
                             XStateParams, _embed_two_qubit,
                             dipolar_hamiltonian, evolve_pair,
                             evolved_network, extend_to_eight,
                             initial_network, network_channel_state,
                             propagator_coeffs, propagator_matrix,
                             tau_to_time, werner_params, x_state)
from dipnet.qmat import (BadSubsystem, NotPositive, NotUnitary,
                         hermitian_eigenvalues, kron, matrix_exp_hermitian,
                         partial_trace)

from conftest import charpoly_eigenvalues

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


def test_propagator_coeffs_tau_zero():
    pc = propagator_coeffs(DipolarParams(eps_tilde=0.4, tau=0.0))
    assert pc.r1 == 1.0 and pc.r2 == pc.r3 == pc.r4 == 0.0


def test_propagator_coeffs_tau_pi_eps_zero():
    pc = propagator_coeffs(DipolarParams(eps_tilde=0.0, tau=np.pi))
    assert abs(pc.r1 - 1.0) < 1e-12
    assert max(abs(pc.r2), abs(pc.r3), abs(pc.r4)) < 1e-12
    assert abs(pc.c1 + 1) < 1e-12 and abs(pc.c2 + 1) < 1e-12
    assert abs(pc.c3 - 1) < 1e-12


def test_propagator_coeffs_normalization():
    pc = propagator_coeffs(DipolarParams(eps_tilde=0.3, tau=0.7))
    norm = sum(abs(r) ** 2 for r in (pc.r1, pc.r2, pc.r3, pc.r4))
    assert abs(norm - 1.0) < 1e-12


def test_propagator_identity_at_tau_zero():
    u = propagator_matrix(DipolarParams(eps_tilde=-0.2, tau=0.0))
    assert np.abs(u - np.eye(4)).max() < 1e-14


def test_propagator_commutes_with_swap():
    u = propagator_matrix(DipolarParams(eps_tilde=-0.2, tau=1.1))
    assert np.abs(u @ SWAP - SWAP @ u).max() < 1e-14


def test_propagator_matches_hamiltonian_exponential():
    # tau <-> t calibration: U(tau, eps/delta) = exp(-i H(delta, eps) t)
    # at t = -12 tau / delta, exact over a tau grid
    delta, eps = 1.0, 0.3
    h = dipolar_hamiltonian(delta, eps)
    for tau in np.linspace(0.0, 6.0, 25):
        u = propagator_matrix(DipolarParams(eps_tilde=eps / delta, tau=tau))
        u_h = matrix_exp_hermitian(h, tau_to_time(tau, delta))
        assert np.abs(u - u_h).max() < 1e-12


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
    assert np.abs(x_state(XStateParams(0, 0, 0)).mat - np.eye(4) / 4).max() < 1e-14


def test_x_state_werner_mixture():
    x = 0.6
    got = x_state(werner_params(x)).mat
    expect = x * SINGLET_MAT + (1 - x) * np.eye(4) / 4
    assert np.abs(got - expect).max() < 1e-14


def test_x_state_rejects_nonpositive_params():
    with pytest.raises(NotPositive):
        x_state(XStateParams(1.0, 1.0, 1.0))


def test_xstate_psd_condition_matches_bell_weights(rng):
    for _ in range(50):
        a, b, c = rng.uniform(-1.2, 1.2, size=3)
        params = XStateParams(a, b, c)
        ok = min(params.bell_weights()) >= -1e-12
        if ok:
            rho = x_state(params)
            assert hermitian_eigenvalues(rho.mat).min() > -1e-10
        else:
            with pytest.raises(NotPositive):
                x_state(params)


def test_initial_network_kinds():
    mm = initial_network(NetworkConfig("MM"))
    assert np.abs(mm.mat - kron(SINGLET_MAT, SINGLET_MAT)).max() < 1e-14
    ww0 = initial_network(NetworkConfig("WW", werner_x1=0.0, werner_x2=0.0))
    assert np.abs(ww0.mat - np.eye(16) / 16).max() < 1e-14
    mw1 = initial_network(NetworkConfig("MW", werner_x2=1.0))
    assert np.abs(mw1.mat - mm.mat).max() < 1e-14


def test_evolve_pair_identity():
    rho = initial_network(NetworkConfig("MM"))
    out = evolve_pair(rho, np.eye(4, dtype=complex), (1, 2))
    assert np.abs(out.mat - rho.mat).max() < 1e-14


def test_evolve_pair_embedding_adjacent():
    u = propagator_matrix(DipolarParams(eps_tilde=0.1, tau=0.9))
    full = _embed_two_qubit(u, 1, 2, 4)
    expect = kron(kron(np.eye(2), u), np.eye(2))
    assert np.abs(full - expect).max() < 1e-14


def test_evolve_pair_embedding_nonadjacent():
    # embed on (0, 2) of 3 qubits, checked entrywise against the definition
    rng = np.random.default_rng(5)
    u = propagator_matrix(DipolarParams(eps_tilde=-0.15, tau=1.3))
    full = _embed_two_qubit(u, 0, 2, 3)
    t = u.reshape(2, 2, 2, 2)
    for o in range(8):
        for i in range(8):
            o0, o1, o2 = (o >> 2) & 1, (o >> 1) & 1, o & 1
            i0, i1, i2 = (i >> 2) & 1, (i >> 1) & 1, i & 1
            expect = t[o0, o2, i0, i2] if o1 == i1 else 0.0
            assert abs(full[o, i] - expect) < 1e-14


def test_evolve_pair_preserves_spectrum():
    rho = initial_network(NetworkConfig("WW", werner_x1=0.8, werner_x2=0.5))
    u = propagator_matrix(DipolarParams(eps_tilde=0.25, tau=2.1))
    out = evolve_pair(rho, u, (1, 2))
    w0 = hermitian_eigenvalues(rho.mat)
    w1 = hermitian_eigenvalues(out.mat)
    assert np.abs(w0 - w1).max() < 1e-10
    assert abs(out.mat.trace() - 1.0) < 1e-12


def test_evolve_pair_rejects_bad_input():
    rho = initial_network(NetworkConfig("MM"))
    with pytest.raises(BadSubsystem):
        evolve_pair(rho, np.eye(4), (2, 1))
    with pytest.raises(BadSubsystem):
        evolve_pair(rho, np.eye(4), (1, 4))
    with pytest.raises(NotUnitary):
        evolve_pair(rho, np.eye(4) * 2.0, (1, 2))


def test_evolved_network_matches_pair_closed_form():
    # evolving on (1,2) and keeping (0,1) reproduces the closed form of the
    # first pair's channel: the singlet damped by the kept-pair damping
    cfg = NetworkConfig("MM")
    for tau, eps in [(0.5, 0.1), (1.4, -0.2), (3.3, 0.3)]:
        p = DipolarParams(eps_tilde=eps, tau=tau)
        dense = partial_trace(evolved_network(cfg, p), (0, 1))
        lx, ly, lz = kept_pair_damping(propagator_coeffs(p).gammas())
        closed = x_state(XStateParams(-lx, -ly, -lz))
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
