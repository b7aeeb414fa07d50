import numpy as np
import pytest

import dipnet.closedform
import dipnet.netmodel
import dipnet.qmat
import dipnet.scan
from dipnet.closedform import (OracleMismatch, channel_states,
                               closed_channel_state, closed_channel_states,
                               cross_pair_damping, kept_pair_damping,
                               require_oracle_agreement, validate_channel)
from dipnet.ledger import (CAUSE_DUPLICATED_COEFF, CAUSE_MALFORMED_KETBRA,
                           render_typo_report, typo_ledger)
from dipnet.measures import pi_tangle
from dipnet.netmodel import (PAULIS, DipolarParams, NetworkConfig,
                             channel_qubits,
                             extend_to_eight, network_channel_state,
                             THREE_NODE_CHANNELS, coeff_gammas,
                             propagator_coeffs,
                             propagator_gammas, propagator_matrix, x_state)
from dipnet.qmat import (ORACLE_TOL, DensityMatrix, conjugate_pair_stack,
                         kron, partial_trace, require_unitary)
from dipnet.scan import ExtensionSpec, series_values

from conftest import three_node_states_reference

MM = NetworkConfig("MM")
WW = NetworkConfig("WW", werner_x1=0.7, werner_x2=0.7)
MW = NetworkConfig("MW", werner_x2=0.7)
KINDS = (MM, WW, MW)

CLOSED_CHANNELS = ("12", "34", "14", "23", "123", "234", "124")


def _closed(cfg, tau, eps, channel):
    return closed_channel_state(cfg, DipolarParams(eps_tilde=eps, tau=tau),
                                channel)


def _pauli_coeffs(rho):
    """(a, b, c) = (<XX>, <YY>, <ZZ>) of a two-qubit state."""
    return np.array([np.trace(rho.mat @ kron(s, s)).real for s in PAULIS[1:]])


def test_coeffs_singlet_pairs():
    # singlet pairs carry (a, b, c) = (-1, -1, -1); each two-node channel
    # holds it damped elementwise by its pair's damping
    gammas = coeff_gammas(propagator_coeffs(DipolarParams(eps_tilde=0.2,
                                                          tau=0.9)))
    lam = np.array(kept_pair_damping(gammas))
    eta = np.array(cross_pair_damping(gammas))
    for channel, damping in (("12", lam), ("34", lam), ("14", eta),
                             ("23", eta)):
        got = _pauli_coeffs(_closed(MM, 0.9, 0.2, channel))
        assert np.abs(got + damping).max() < 1e-14, channel


def test_coeffs_gammas_at_tau_zero():
    gammas = coeff_gammas(propagator_coeffs(DipolarParams(eps_tilde=0.35,
                                                          tau=0.0)))
    assert gammas.tolist() == [0.0, 0.0, 1.0, 1.0]
    # no evolution: kept pairs are untouched and nothing crosses
    assert kept_pair_damping(gammas) == (1.0, 1.0, 1.0)
    assert cross_pair_damping(gammas) == (0.0, 0.0, 0.0)


def test_coeffs_maximally_mixed_pairs():
    mixed = (0.0, 0.0, 0.0)
    gammas = coeff_gammas(propagator_coeffs(DipolarParams(eps_tilde=0.1,
                                                          tau=0.4)))
    for channel in CLOSED_CHANNELS + ("13", "24", "18"):
        rho = channel_states(channel, mixed, mixed,
                             np.reshape(gammas, (4, 1)))[0]
        assert np.abs(rho - np.eye(len(rho)) / len(rho)).max() < 1e-14


def test_rho12_closed_no_evolution_is_singlet():
    rho = _closed(MM, 0.0, 0.1, "12")
    singlet = np.array([[0, 0, 0, 0], [0, .5, -.5, 0],
                        [0, -.5, .5, 0], [0, 0, 0, 0]])
    assert np.abs(rho.mat - singlet).max() < 1e-14


def test_rho12_closed_matches_dense():
    p = DipolarParams(eps_tilde=0.1, tau=0.5)
    closed = closed_channel_state(MM, p, "12")
    dense = network_channel_state(MM, p, "12")
    assert np.abs(closed.mat - dense.mat).max() < 1e-12
    assert abs(closed.mat.trace() - 1.0) < 1e-14


def test_rho14_rho23_uncorrelated_at_tau_zero():
    for channel in ("14", "23"):
        rho = _closed(MM, 0.0, 0.2, channel)
        assert np.abs(rho.mat - np.eye(4) / 4).max() < 1e-14


def test_rho14_rho23_match_dense():
    p = DipolarParams(eps_tilde=-0.2, tau=1.0)
    for channel in ("14", "23"):
        closed = closed_channel_state(MM, p, channel)
        dense = network_channel_state(MM, p, channel)
        assert np.abs(closed.mat - dense.mat).max() < 1e-10


def test_three_node_product_structure_at_tau_zero():
    singlet = _closed(MM, 0.0, 0.1, "12").mat
    expect = np.kron(singlet, np.eye(2) / 2)
    # both channels keeping pair 1 plus one second-pair node factorize
    for channel in ("124", "123"):
        rho = _closed(MM, 0.0, 0.1, channel)
        assert np.abs(rho.mat - expect).max() < 1e-14


def test_three_node_hermitian_and_traced():
    for channel in ("123", "234", "124"):
        m = _closed(MW, 0.5, 0.1, channel).mat
        assert np.abs(m - m.conj().T).max() < 1e-12
        assert abs(m.trace() - 1.0) < 1e-12


def test_tangle_of_124_vanishes_at_tau_zero():
    assert abs(pi_tangle(_closed(MM, 0.0, 0.1, "124"))) < 1e-10


@pytest.mark.parametrize("cfg", KINDS, ids=lambda c: c.kind)
@pytest.mark.parametrize("channel", CLOSED_CHANNELS)
def test_closed_forms_match_dense_all_kinds(cfg, channel):
    for tau, eps in [(0.5, 0.1), (1.0, -0.2), (2.7, 0.3), (5.9, 0.0)]:
        p = DipolarParams(eps_tilde=eps, tau=tau)
        closed = closed_channel_state(cfg, p, channel)
        dense = network_channel_state(cfg, p, channel)
        assert np.abs(closed.mat - dense.mat).max() < 1e-10


def _random_pair(rng):
    # the closed forms hold for every valid pair, not just the MM/WW/MW
    # presets: sample Bell weights from the simplex and map back to (a,b,c)
    w = rng.dirichlet([1.0, 1.0, 1.0, 1.0])
    return (w[0] - w[1] + w[2] - w[3], -w[0] + w[1] + w[2] - w[3],
            w[0] + w[1] - w[2] - w[3])


def test_closed_forms_match_dense_random_params(rng):
    for _ in range(20):
        p1, p2 = _random_pair(rng), _random_pair(rng)
        p = DipolarParams(eps_tilde=float(rng.uniform(-0.4, 0.5)),
                          tau=float(rng.uniform(0.0, 8.0)))
        gammas = coeff_gammas(propagator_coeffs(p))
        net = kron(x_state(p1).mat, x_state(p2).mat)
        u = require_unitary(propagator_matrix(p))
        net = DensityMatrix(conjugate_pair_stack(net[None], u, (1, 2))[0])
        for channel in CLOSED_CHANNELS + ("13", "24"):
            dense = partial_trace(net, channel_qubits(channel))
            closed = channel_states(channel, p1, p2,
                                    np.reshape(gammas, (4, 1)))[0]
            assert np.abs(closed - dense.mat).max() < 1e-12, channel


def test_three_node_states_equal_the_all_words_reference():
    # conjugating only the Pauli words a channel reads, and channel 123's
    # two-slice trace, must keep the bits of the all-words assembly on any
    # network and any tau vector, eps = 0 and tau = 0 included
    rng = np.random.default_rng(124)
    for i in range(45):
        cfg = NetworkConfig(("MM", "WW", "MW")[i % 3],
                            werner_x1=float(rng.uniform()),
                            werner_x2=float(rng.uniform()))
        n = int(rng.integers(1, 301))
        eps = rng.uniform(-0.5, 0.5, size=n)
        taus = rng.uniform(0.0, 10.0, size=n)
        eps[rng.random(n) < 0.1] = 0.0
        taus[rng.random(n) < 0.1] = 0.0
        weights = [np.array([1.0, *q]) for q in cfg.pair_params()]
        gammas = propagator_gammas(eps, taus)
        for channel in THREE_NODE_CHANNELS:
            got = closed_channel_states(cfg, channel, eps, taus)
            want = three_node_states_reference(channel, *weights, gammas)
            assert got.tobytes() == want.tobytes(), (cfg, channel, n)


def test_dead_channels_are_maximally_mixed():
    p = DipolarParams(eps_tilde=0.17, tau=0.83)
    for channel in ("13", "24"):
        closed = closed_channel_state(MM, p, channel)
        dense = network_channel_state(MM, p, channel)
        assert np.abs(closed.mat - np.eye(4) / 4).max() < 1e-14
        assert np.abs(dense.mat - np.eye(4) / 4).max() < 1e-12


def test_rho18_closed_matches_extend_to_eight_random(rng):
    # unequal Werner pairs and a bridge independent of the inner coupling
    for i in range(12):
        x1, x2 = rng.uniform(0.0, 1.0, size=2)
        cfg = NetworkConfig("WW" if i % 2 else "MW", werner_x1=float(x1),
                            werner_x2=float(x2))
        p_inner, p_bridge = (
            DipolarParams(eps_tilde=float(rng.uniform(-0.4, 0.5)),
                          tau=float(rng.uniform(0.0, 8.0)))
            for _ in range(2))
        closed = closed_channel_state(cfg, p_inner, "18", p_bridge)
        dense = extend_to_eight(cfg, p_inner, p_bridge)
        assert np.abs(closed.mat - dense.mat).max() < 1e-12


def test_rho18_closed_identity_couplings():
    p0 = DipolarParams(eps_tilde=0.0, tau=0.0)
    rho = closed_channel_state(MM, p0, "18", p0)
    assert np.abs(rho.mat - np.eye(4) / 4).max() < 1e-14


@pytest.mark.parametrize("cfg", KINDS, ids=lambda c: c.kind)
def test_rho18_closed_matches_dense(cfg):
    for (ti, ei, tb, eb) in [(0.83, 0.17, 0.83, 0.17), (1.7, -0.2, 0.6, 0.1)]:
        p_i = DipolarParams(eps_tilde=ei, tau=ti)
        p_b = DipolarParams(eps_tilde=eb, tau=tb)
        closed = closed_channel_state(cfg, p_i, "18", p_b)
        dense = network_channel_state(cfg, p_i, "18", p_b)
        assert np.abs(closed.mat - dense.mat).max() < 1e-10


def test_validate_channel_passes_and_raises():
    p = DipolarParams(eps_tilde=0.3, tau=0.7)
    closed = validate_channel(MM, p, "12")
    dense = network_channel_state(MM, p, "12").mat.copy()
    dense[1, 2] += 2 * ORACLE_TOL
    with pytest.raises(OracleMismatch) as err:
        require_oracle_agreement(np.array(["12"]), closed.mat[None],
                                 dense[None], np.array([p.eps_tilde]),
                                 np.array([p.tau]))
    assert str(err.value).startswith(
        "channel 12 tau=0.7 eps=0.3 coord (1, 2): closed ")


@pytest.mark.parametrize("channel", ["12", "14", "18", "123", "234"])
def test_closed_states_are_validated_once(monkeypatch, channel):
    # the one-point state is validated once, by DensityMatrix; the builder
    # returns its stack raw; series_values validates each block of each
    # route once, before the validate-mode oracle check
    calls = []
    validate = dipnet.qmat.require_density_stack
    oracle = dipnet.scan.require_oracle_agreement

    def spy(mats):
        calls.append(dipnet.qmat.qubit_count(mats))
        return validate(mats)

    def oracle_spy(*args):
        calls.append("oracle")
        return oracle(*args)

    for module in (dipnet.qmat, dipnet.netmodel, dipnet.closedform,
                   dipnet.scan):
        monkeypatch.setattr(module, "require_density_stack", spy,
                            raising=False)
    monkeypatch.setattr(dipnet.scan, "require_oracle_agreement", oracle_spy)
    monkeypatch.setattr(dipnet.scan, "BLOCK_TAUS", 2)
    p = DipolarParams(eps_tilde=0.17, tau=0.83)
    n = 2 if channel == "18" else len(channel)
    closed_channel_state(WW, p, channel, p)
    assert calls == [n]
    taus, eps = np.array([0.1, p.tau, 1.7]), np.full(3, p.eps_tilde)
    closed_channel_states(WW, channel, eps, taus, p)
    assert calls == [n]
    dipnet.netmodel.initial_network(WW)  # validated on its first call only
    quantifier = "tangle" if n == 3 else "negativity"
    for mode, block in (("closed_form", [n]),
                        ("validate", [n, 4, n, "oracle"])):
        calls.clear()
        series_values(WW, (quantifier,), np.full(3, channel), eps, taus, mode,
                      ExtensionSpec("fixed", p))[0]
        assert calls == 2 * block, mode  # blocks of 2 and 1 taus


def test_typo_ledger_contents():
    entries = typo_ledger()
    assert entries, "ledger must be nonempty"
    causes = {e.cause for e in entries}
    assert causes == {CAUSE_DUPLICATED_COEFF, CAUSE_MALFORMED_KETBRA}
    ch12 = [(e.row, e.col) for e in entries if e.channel == "12"]
    assert sorted(ch12) == [(0, 3), (1, 2), (2, 1), (3, 0)]
    ch124 = [(e.row, e.col) for e in entries if e.channel == "124"]
    assert ch124 == [(7, 7)]
    for e in entries:
        assert abs(e.printed_value - e.oracle_value) > 1e-10


def test_typo_report_renders():
    text = render_typo_report()
    assert "channel row col printed oracle cause" in text
    assert CAUSE_DUPLICATED_COEFF in text and CAUSE_MALFORMED_KETBRA in text
