"""Property tests of the array-first closed-form kernel on random networks
(any kind, x1 != x2), couplings and tau vectors.

 - A sweep's stack evaluation equals `evaluate_point` (its N = 1 case)
   exactly, in every mode, on every two- and three-node channel and both
   bridge modes.
 - The stack quantifiers on a stack of dense states equal the scalar ones.
 - The analytic Bell-diagonal negativity and NAQC of the dense state agree
   with the kernel to 1e-12 (an oracle independent of both its state
   assembly and its quantifiers).
 - The stack validator raises what DensityMatrix raises for a bad matrix.
 - Any scenario text (tiny grids) gives exit 0 or 2 from `dipnet run`:
   every invalid input is a parse error, never a compute error.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dipnet.cli import _KNOWN_KEYS, main
from dipnet.measures import (NAQC_CRITICAL, NAQC_MAX, naqc_degree,
                             naqc_degree_stack, negativity, negativity_stack,
                             pi_tangle, pi_tangle_stack)
from dipnet.netmodel import (ALL_CHANNELS, XX, YY, ZZ, DipolarParams,
                             NetworkConfig, bell_weights,
                             network_channel_state)
from dipnet.qmat import (DensityMatrix, NotHermitian, NotPositive,
                         require_density_stack)
from dipnet.scan import (MODES, QUANTIFIERS, ExtensionSpec, ScanGrid,
                         evaluate_point, series_values, sweep)

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


def _assert_sweep_equals_points(cfg, grid, mode, ext):
    for series in sweep(cfg, grid, mode, ext):
        for t, value in series.points:
            p = DipolarParams(eps_tilde=series.eps_tilde, tau=t)
            assert value == evaluate_point(cfg, p, series.channel,
                                           series.quantifier, mode,
                                           ext), (t, value)


@PROPERTY
@given(cfg=networks(), kind=series_kinds, ext=extensions(),
       tau_min=st.floats(0.0, 10.0), span=st.floats(1e-3, 10.0),
       steps=st.integers(3, 12), eps=st.lists(eps_tilde, min_size=1, max_size=2))
def test_sweep_equals_evaluate_point(cfg, kind, ext, tau_min, span, steps, eps):
    channel, quantifier = kind
    grid = ScanGrid(tau_min=tau_min, tau_max=tau_min + span, tau_steps=steps,
                    eps_values=tuple(eps), channels=(channel,),
                    quantifiers=(quantifier,))
    _assert_sweep_equals_points(cfg, grid, "closed_form", ext)


@pytest.mark.parametrize("mode", ["dense", "validate"])
@PROPERTY
@given(cfg=networks(), kind=series_kinds, ext=extensions(),
       tau_min=st.floats(0.0, 10.0), span=st.floats(1e-3, 10.0),
       steps=st.integers(3, 4), eps=st.lists(eps_tilde, min_size=1, max_size=2))
def test_oracle_sweep_equals_evaluate_point(mode, cfg, kind, ext, tau_min,
                                            span, steps, eps):
    # the dense route costs up to 20 ms a point on channel 18: small grids
    channel, quantifier = kind
    grid = ScanGrid(tau_min=tau_min, tau_max=tau_min + span, tau_steps=steps,
                    eps_values=tuple(eps), channels=(channel,),
                    quantifiers=(quantifier,))
    _assert_sweep_equals_points(cfg, grid, mode, ext)


@PROPERTY
@given(cfg=networks(), kind=series_kinds, ext=extensions(), eps=eps_tilde,
       taus=st.lists(tau, min_size=1, max_size=10))
def test_kernel_on_any_tau_vector_equals_points(cfg, kind, ext, eps, taus):
    # unsorted and repeated taus included
    channel, quantifier = kind
    values = series_values(cfg, channel, quantifier, eps, np.array(taus),
                           extension=ext)
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
    dense = network_channel_state(cfg, p, channel, ext.bridge)
    kernel = series_values(cfg, channel, quantifier, eps, np.array([t]),
                           extension=ext)[0]
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


# scenario values: extremes the float parser accepts, and junk
NUMBERS = ("0", "0.1", "-0.2", "1", "10", "1e10", "1e16",
           "1.0000000000000002e16", "1e300", "1e308", "-1e308", "5e-324")
JUNK = ("nan", "inf", "-inf", "-1", ",", "bogus")


def _listed(words):
    return st.lists(st.sampled_from(words), min_size=1,
                    max_size=2).map(",".join)


VALUES = {
    "name": st.sampled_from(("fz", "nan")),
    "network": st.sampled_from(("MM", "WW", "MW")),
    "tau_steps": st.sampled_from(("3", "5", "7")),
    "eps_values": _listed(NUMBERS),
    "channels": _listed(ALL_CHANNELS),
    "quantifiers": _listed(QUANTIFIERS),
    "mode": st.sampled_from(MODES),
    "extension": st.sampled_from(("none", "track", "fixed")),
    "emit_plot_script": st.sampled_from(("yes", "no")),
}


@st.composite
def scenario_texts(draw):
    # tau_steps and eps_values are always set, so every grid stays tiny
    keys = draw(st.sets(st.sampled_from(sorted(_KNOWN_KEYS))))
    keys |= {"tau_steps", "eps_values"}
    if draw(st.integers(0, 3)):
        keys |= {"name", "network"}
    lines = []
    for key in draw(st.permutations(sorted(keys))):
        value = draw(st.one_of(VALUES.get(key, st.sampled_from(NUMBERS)),
                               st.sampled_from(JUNK)))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(PROPERTY, max_examples=300)
@given(text=scenario_texts())
def test_any_scenario_text_exits_0_or_2(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.scn"
        path.write_text(text)
        code = main(["run", str(path), "--output-dir", str(Path(tmp) / "out")])
    assert code in (0, 2), text
