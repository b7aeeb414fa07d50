"""Property tests of the array-first closed-form kernel on random networks
(any kind, x1 != x2), couplings and tau vectors.

 - A sweep's stack evaluation equals `evaluate_point` (its N = 1 case)
   exactly, on every two- and three-node channel and both bridge modes.
 - The stack quantifiers on a stack of dense states equal the scalar ones.
 - The analytic Bell-diagonal negativity and NAQC of the dense state agree
   with the kernel to 1e-12 (an oracle independent of both its state
   assembly and its quantifiers).
 - The stack validator raises what DensityMatrix raises for a bad matrix.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipnet.measures import (NAQC_CRITICAL, NAQC_MAX, naqc_degree,
                             naqc_degree_stack, negativity, negativity_stack,
                             pi_tangle, pi_tangle_stack)
from dipnet.netmodel import (XX, YY, ZZ, DipolarParams, NetworkConfig,
                             bell_weights, network_channel_state)
from dipnet.qmat import (DensityMatrix, NotHermitian, NotPositive,
                         require_density_stack)
from dipnet.scan import (ExtensionSpec, ScanGrid, closed_form_values,
                         evaluate_point, sweep)

from conftest import ginibre_density

PROPERTY = settings(max_examples=50, deadline=None, derandomize=True,
                    database=None)

TWO_NODE = ("12", "34", "14", "23", "13", "24", "18")
THREE_NODE = ("123", "124", "234")

unit = st.floats(0.0, 1.0)
eps_tilde = st.floats(-0.6, 0.6)
tau = st.floats(0.0, 15.0)


@st.composite
def networks(draw):
    x1 = draw(unit)
    return NetworkConfig(draw(st.sampled_from(("MM", "WW", "MW"))), x1,
                         draw(unit.filter(lambda x: x != x1)))


@st.composite
def extensions(draw):
    if draw(st.booleans()):
        return ExtensionSpec("track")
    return ExtensionSpec("fixed", DipolarParams(eps_tilde=draw(eps_tilde),
                                                tau=draw(tau)))


series_kinds = st.one_of(
    st.tuples(st.sampled_from(TWO_NODE), st.sampled_from(("negativity", "naqc"))),
    st.tuples(st.sampled_from(THREE_NODE), st.just("tangle")))


@PROPERTY
@given(cfg=networks(), kind=series_kinds, ext=extensions(),
       tau_min=st.floats(0.0, 10.0), span=st.floats(1e-3, 10.0),
       steps=st.integers(3, 12), eps=st.lists(eps_tilde, min_size=1, max_size=2))
def test_sweep_equals_evaluate_point(cfg, kind, ext, tau_min, span, steps, eps):
    channel, quantifier = kind
    grid = ScanGrid(tau_min=tau_min, tau_max=tau_min + span, tau_steps=steps,
                    eps_values=tuple(eps), channels=(channel,),
                    quantifiers=(quantifier,))
    for series in sweep(cfg, grid, extension=ext):
        for t, value in series.points:
            p = DipolarParams(eps_tilde=series.eps_tilde, tau=t)
            assert value == evaluate_point(cfg, p, channel, quantifier,
                                           extension=ext), (t, value)


@PROPERTY
@given(cfg=networks(), kind=series_kinds, ext=extensions(), eps=eps_tilde,
       taus=st.lists(tau, min_size=1, max_size=10))
def test_kernel_on_any_tau_vector_equals_points(cfg, kind, ext, eps, taus):
    # unsorted and repeated taus included
    channel, quantifier = kind
    values = closed_form_values(cfg, channel, quantifier, eps, np.array(taus),
                                ext)
    points = [evaluate_point(cfg, DipolarParams(eps_tilde=eps, tau=t), channel,
                             quantifier, extension=ext) for t in taus]
    assert values.tolist() == points


@PROPERTY
@given(cfg=networks(), channel=st.sampled_from(TWO_NODE[:-1] + THREE_NODE),
       points=st.lists(st.tuples(eps_tilde, tau), min_size=1, max_size=3))
def test_stack_quantifiers_equal_scalar_on_dense_states(cfg, channel, points):
    states = [network_channel_state(cfg, DipolarParams(eps_tilde=e, tau=t),
                                    channel) for e, t in points]
    stack = np.array([rho.mat for rho in states])
    if channel in THREE_NODE:
        tangles = pi_tangle_stack(stack)
        for k, rho in enumerate(states):
            one = pi_tangle(rho)
            for field, values in vars(tangles).items():
                assert values[k] == getattr(one, field)
        return
    for stack_fn, scalar_fn in ((negativity_stack, negativity),
                                (naqc_degree_stack, naqc_degree)):
        values = stack_fn(stack)
        for k, rho in enumerate(states):
            assert values[k] == scalar_fn(rho)


def _bell_diagonal_oracle(rho: DensityMatrix, quantifier: str) -> float:
    a, b, c = (np.trace(rho.mat @ op).real for op in (XX, YY, ZZ))
    if quantifier == "negativity":
        return max(0.0, 2.0 * max(bell_weights(a, b, c)) - 1.0)
    steered = abs(a) + abs(b) + abs(c)
    return max(0.0, (steered - NAQC_CRITICAL) / (NAQC_MAX - NAQC_CRITICAL))


@PROPERTY
@given(cfg=networks(), channel=st.sampled_from(TWO_NODE),
       quantifier=st.sampled_from(("negativity", "naqc")), ext=extensions(),
       eps=eps_tilde, t=tau)
def test_analytic_bell_diagonal_oracle(cfg, channel, quantifier, ext, eps, t):
    p = DipolarParams(eps_tilde=eps, tau=t)
    bridge = ext.bridge_for(p) if channel == "18" else None
    dense = network_channel_state(cfg, p, channel, bridge)
    kernel = closed_form_values(cfg, channel, quantifier, eps, np.array([t]),
                                ext)[0]
    assert math.isclose(kernel, _bell_diagonal_oracle(dense, quantifier),
                        rel_tol=0.0, abs_tol=1e-12)


def _corrupt(m: np.ndarray, defect: str) -> np.ndarray:
    if defect == "hermitian":
        m = m.copy()
        m[0, -1] += 1e-6
        return m
    if defect == "trace":
        return m * (1.0 + 1e-6)
    w, v = np.linalg.eigh(m)
    w[1] += w[0] + 1e-6
    w[0] = -1e-6
    m = (v * w) @ v.conj().T
    return 0.5 * (m + m.conj().T)


EXPECTED = {"hermitian": NotHermitian, "trace": ValueError,
            "negative": NotPositive}


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), nqubits=st.integers(1, 3),
       size=st.integers(1, 5), data=st.data(),
       defect=st.sampled_from(sorted(EXPECTED)))
def test_stack_validator_matches_density_matrix(seed, nqubits, size, data,
                                                defect):
    rng = np.random.default_rng(seed)
    stack = np.array([ginibre_density(rng, nqubits).mat for _ in range(size)])
    require_density_stack(stack, nqubits)
    k = data.draw(st.integers(0, size - 1))
    stack[k] = _corrupt(stack[k], defect)
    with pytest.raises(ValueError) as single:
        DensityMatrix(stack[k], nqubits)
    with pytest.raises(ValueError) as stacked:
        require_density_stack(stack, nqubits)
    assert type(single.value) is EXPECTED[defect]
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == str(single.value)
