import re

import numpy as np
import pytest

from dipnet.measures import (NAQC_CRITICAL, global_negativity, naqc_degree,
                             naqc_degree_stack, negativity, negativity_stack,
                             pairwise_negativity, pi_tangle, pi_tangle_stack)
from dipnet.netmodel import (DipolarParams, NetworkConfig, evolved_network,
                             x_state)
from dipnet.qmat import density_matrix, kron, partial_transpose, trace_norm

from conftest import (SINGLET_PARAMS, ZeroProbability, charpoly_eigenvalues,
                      conditional_states, ginibre_density, l1_coherence,
                      naqc_average, random_product_pure, random_pure,
                      werner_params)

SINGLET = x_state(SINGLET_PARAMS)
I2 = np.eye(2, dtype=complex)


def _pure(vec):
    v = np.asarray(vec, dtype=complex)
    v = v / np.linalg.norm(v)
    return density_matrix(np.outer(v, v.conj()))


GHZ = _pure([1, 0, 0, 0, 0, 0, 0, 1])
W_STATE = _pure([0, 1, 1, 0, 1, 0, 0, 0])
BELL_PHI_PLUS = _pure([1, 0, 0, 1])


def test_negativity_singlet():
    assert abs(negativity(SINGLET) - 1.0) < 1e-12


def test_negativity_product():
    assert negativity(_pure([1, 0, 0, 0])) == 0.0


def test_negativity_werner_half():
    # partial-transpose eigenvalues {(1+x)/4 (x3), (1-3x)/4}, checked with
    # the characteristic-polynomial oracle
    rho = x_state(werner_params(0.5))
    w = charpoly_eigenvalues(partial_transpose(rho, (1,)))
    assert np.allclose(sorted(w), [-0.125, 0.375, 0.375, 0.375], atol=1e-8)
    assert abs(negativity(rho) - 0.25) < 1e-12


def test_negativity_dual_path_identity(rng):
    for _ in range(200):
        rho = ginibre_density(rng, 2)
        direct = negativity(rho)
        via_norm = max(0.0, trace_norm(partial_transpose(rho, (1,))) - 1.0)
        assert abs(direct - via_norm) < 1e-10


def test_negativity_transpose_side_equivalence(rng):
    for _ in range(50):
        rho = ginibre_density(rng, 2)
        n1 = max(0.0, trace_norm(partial_transpose(rho, (1,))) - 1.0)
        n0 = max(0.0, trace_norm(partial_transpose(rho, (0,))) - 1.0)
        assert abs(n1 - n0) < 1e-10


def test_global_negativity_product_state():
    rho = _pure([1, 0, 0, 0, 0, 0, 0, 0])
    for focus in range(3):
        assert global_negativity(rho, focus) == 0.0


def test_global_negativity_ghz():
    w = charpoly_eigenvalues(partial_transpose(GHZ, (0,)))
    assert abs(-w[w < 0].sum() * 2 - 1.0) < 1e-8
    assert abs(global_negativity(GHZ, 0) - 1.0) < 1e-10


def test_global_negativity_w_state():
    # frozen from the independent eigen-oracle; equals 2*sqrt(2)/3
    got = global_negativity(W_STATE, 0)
    assert abs(got - 0.942809041582) < 1e-9
    # the polynomial-root oracle is weak on the fourfold zero eigenvalue
    # (multiple roots split at ~1e-5), so the cross-check is coarse
    oracle = charpoly_eigenvalues(partial_transpose(W_STATE, (0,)))
    assert abs(np.abs(oracle).sum() - 1.0 - got) < 1e-3


def test_pairwise_negativity_ghz_and_products():
    for pair in [(0, 1), (0, 2), (1, 2)]:
        assert pairwise_negativity(GHZ, pair) == 0.0
        assert pairwise_negativity(_pure([1, 0, 0, 0, 0, 0, 0, 0]), pair) == 0.0


def test_pairwise_negativity_embedded_singlet():
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    rho = density_matrix(kron(SINGLET.mat, zero))
    assert abs(pairwise_negativity(rho, (0, 1)) - 1.0) < 1e-12


@pytest.mark.parametrize("rho, got", [
    (evolved_network(NetworkConfig("MM"), DipolarParams(0.1, 0.7)), 4),
    (SINGLET, 2)], ids=["four_qubit_network", "two_qubit_singlet"])
def test_tangle_parts_refuse_a_state_of_other_than_three_qubits(rho, got):
    # one qubit rule for the tangle and both of its parts
    calls = {"pairwise_negativity": lambda: pairwise_negativity(rho, (0, 1)),
             "global_negativity": lambda: global_negativity(rho, 0),
             "pi_tangle": lambda: pi_tangle(rho)}
    for what, call in calls.items():
        with pytest.raises(ValueError,
                           match=f"^{what} needs a 3-qubit state, got {got}$"):
            call()


@pytest.mark.parametrize("pair", [(0, 1, 2), (1,), (), (1, 0), (1, 1),
                                  (0, 3), (-1, 2)])
def test_pairwise_negativity_refuses_what_is_not_a_pair(pair):
    message = f"need a pair 0 <= i < j < 3, got {pair}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pairwise_negativity(W_STATE, pair)


_OUT_OF_RANGE = "qubit indices {} must be strictly increasing in range(3)"


@pytest.mark.parametrize("call, message", [
    (lambda: global_negativity(W_STATE, 1.5), "bad qubit indices (1.5,)"),
    (lambda: global_negativity(W_STATE, np.float64(1.0)),
     f"bad qubit indices {(np.float64(1.0),)!r}"),
    (lambda: global_negativity(W_STATE, 3), _OUT_OF_RANGE.format((3,))),
    (lambda: global_negativity(W_STATE, -1), _OUT_OF_RANGE.format((-1,))),
    (lambda: global_negativity(W_STATE, True), "bad qubit indices (True,)"),
    (lambda: pairwise_negativity(W_STATE, (0.5, 1)),
     "bad qubit indices (0.5, 1)"),
    (lambda: pairwise_negativity(W_STATE, (0, 1.5)),
     "bad qubit indices (0, 1.5)")],
    ids=["focus_1.5", "focus_float_1", "focus_3", "focus_-1", "focus_True",
         "pair_0.5_1", "pair_0_1.5"])
def test_tangle_parts_refuse_a_qubit_that_is_not_an_index(call, message):
    # one index rule: a float or a bool is not read as a qubit, and a focus
    # out of range is refused by the same rule
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_scorers_read_the_qubit_count_from_the_matrices():
    # a 6x6 stack is no qubit state: refused as a shape, not as a state of
    # some other qubit count
    mats = np.array([np.eye(6) / 6.0] * 4)
    for score in (negativity_stack, naqc_degree_stack, pi_tangle_stack):
        with pytest.raises(ValueError, match=r"2\*\*n") as err:
            score(mats)
        assert type(err.value) is ValueError


def test_pi_tangle_ghz():
    assert abs(pi_tangle(GHZ) - 1.0) < 1e-10
    assert abs(global_negativity(GHZ, 0) - 1.0) < 1e-10
    assert pairwise_negativity(GHZ, (0, 1)) == 0.0


def test_pi_tangle_w_state_frozen():
    # value frozen from the dense oracle before the build: 4(sqrt5 - 1)/9
    assert abs(pi_tangle(W_STATE) - 0.549363545555) < 1e-9


def test_pi_tangle_product_states(rng):
    for _ in range(20):
        rho = random_product_pure(rng, 3)
        assert abs(pi_tangle(rho)) < 1e-10


def test_pi_tangle_breakdown_mean(rng):
    # the tangle is the mean of the three residuals, each formed from the
    # public parts and squared and subtracted in the library's order; the
    # bits must match, not only the value
    for rho in [W_STATE, GHZ] + [random_pure(rng, 3) for _ in range(20)]:
        n_a, n_b, n_c = (global_negativity(rho, focus) for focus in range(3))
        n_ab, n_ac, n_bc = (pairwise_negativity(rho, pair)
                            for pair in ((0, 1), (0, 2), (1, 2)))
        pi_a = n_a ** 2 - n_ab ** 2 - n_ac ** 2
        pi_b = n_b ** 2 - n_ab ** 2 - n_bc ** 2
        pi_c = n_c ** 2 - n_ac ** 2 - n_bc ** 2
        assert pi_tangle(rho) == (pi_a + pi_b + pi_c) / 3.0


def test_monogamy_random_pure(rng):
    for _ in range(200):
        rho = random_pure(rng, 3)
        n_a = global_negativity(rho, 0)
        n_ab = pairwise_negativity(rho, (0, 1))
        n_ac = pairwise_negativity(rho, (0, 2))
        assert n_ab ** 2 + n_ac ** 2 <= n_a ** 2 + 1e-9


def test_l1_coherence_maximally_mixed():
    rho = density_matrix(I2 / 2)
    for axis in "xyz":
        assert l1_coherence(rho, axis) < 1e-14


def test_l1_coherence_pole_state():
    rho = _pure([1, 0])
    assert l1_coherence(rho, "z") < 1e-14
    assert abs(l1_coherence(rho, "x") - 1.0) < 1e-12


def test_l1_coherence_bloch_x_in_y_basis():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    rho = density_matrix((I2 + 0.6 * sx) / 2)
    assert abs(l1_coherence(rho, "y") - 0.6) < 1e-12


def test_conditional_states_singlet_anticorrelated():
    mo = conditional_states(SINGLET, "z", +1)
    assert abs(mo.probability - 0.5) < 1e-12
    assert np.abs(mo.conditional.mat - np.diag([0.0, 1.0])).max() < 1e-12


def test_conditional_states_product_no_backaction(rng):
    a = ginibre_density(rng, 1)
    b = ginibre_density(rng, 1)
    rho = density_matrix(kron(a.mat, b.mat))
    for axis in "xyz":
        for outcome in (+1, -1):
            mo = conditional_states(rho, axis, outcome)
            assert np.abs(mo.conditional.mat - b.mat).max() < 1e-10


def test_conditional_states_maximally_mixed():
    rho = density_matrix(np.eye(4) / 4)
    mo = conditional_states(rho, "x", -1)
    assert abs(mo.probability - 0.5) < 1e-12
    assert np.abs(mo.conditional.mat - I2 / 2).max() < 1e-12


def test_conditional_states_zero_probability():
    rho = density_matrix(np.diag([1.0, 0, 0, 0]).astype(complex))
    with pytest.raises(ZeroProbability):
        conditional_states(rho, "z", -1)


def test_conditional_probabilities_sum_to_one(rng):
    rho = ginibre_density(rng, 2)
    for axis in "xyz":
        total = sum(conditional_states(rho, axis, o).probability
                    for o in (+1, -1))
        assert abs(total - 1.0) < 1e-12


def test_naqc_average_bell_states():
    for vec in ([1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]):
        assert abs(naqc_average(_pure(vec)) - 3.0) < 1e-12


def test_naqc_average_maximally_mixed():
    assert naqc_average(density_matrix(np.eye(4) / 4)) < 1e-12


def test_naqc_average_werner_half():
    # direct summation oracle gives 3x for the Werner family
    got = naqc_average(x_state(werner_params(0.5)))
    assert abs(got - 1.5) < 1e-12
    assert got < NAQC_CRITICAL


def test_naqc_degree_values():
    assert abs(naqc_degree(BELL_PHI_PLUS) - 1.0) < 1e-12
    assert naqc_degree(density_matrix(np.eye(4) / 4)) == 0.0
    assert naqc_degree(x_state(werner_params(0.5))) == 0.0


def test_naqc_degree_bounds_and_threshold(rng):
    for _ in range(50):
        rho = ginibre_density(rng, 2)
        deg = naqc_degree(rho)
        assert 0.0 <= deg <= 1.0
        if naqc_average(rho) <= NAQC_CRITICAL + 1e-12:
            assert deg == 0.0


def test_naqc_degree_axis_permutation_invariance(rng):
    hadamard = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
    u = kron(hadamard, hadamard)
    for _ in range(20):
        rho = ginibre_density(rng, 2)
        rotated = density_matrix(u @ rho.mat @ u.conj().T)
        assert abs(naqc_degree(rho) - naqc_degree(rotated)) < 1e-10
