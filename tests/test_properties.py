"""Property tests of the array-first closed-form kernel on random networks
(any kind, x1 != x2), couplings and tau vectors.

 - A sweep's stack evaluation equals `evaluate_point` (its N = 1 case)
   exactly, in every mode, on every two- and three-node channel and both
   bridge modes; so does a vector that mixes eps and tau, in blocks that
   straddle an eps change.
 - The stack quantifiers on a stack of dense states equal the scalar ones.
 - The analytic Bell-diagonal negativity and NAQC of the dense state agree
   with the kernel to 1e-12 (an oracle independent of both its state
   assembly and its quantifiers).
 - Each row of the dense route's stack equals its one-point dense state
   and a point-by-point reference bit for bit, and the stack agrees with
   the closed-form one within ORACLE_TOL, on every channel and both bridge
   modes.
 - The stack validator raises what DensityMatrix raises for a bad matrix.
 - The propagator obeys the group law U(t1) U(t2) = U(t1 + t2) and is
   unitary, on the dense route and the closed (vectorised) one.
 - Every grid `ScanGrid` accepts has strictly increasing taus, at tau
   bounds from subnormal to 1e300 and at any tau_steps in range.
 - Any scenario text (tiny grids) gives exit 0 or 2 from `dipnet run`:
   every invalid input is a parse error, never a compute error, and names
   its line unless `name` or `network` is missing.
"""

import io
import math
import re
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import dipnet.scan
from dipnet.cli import _KNOWN_KEYS, main
from dipnet.closedform import closed_channel_states
from dipnet.measures import (NAQC_CRITICAL, NAQC_MAX, naqc_degree,
                             naqc_degree_stack, negativity, negativity_stack,
                             pi_tangle, pi_tangle_stack)
from dipnet.netmodel import (ALL_CHANNELS, XX, YY, ZZ, DipolarParams,
                             FieldError, NetworkConfig, bell_weights,
                             channel_qubits, coupling_matrices, evolved_network,
                             network_channel_state, network_channel_states,
                             propagator_gammas, propagator_matrix)
from dipnet.qmat import (ORACLE_TOL, DensityMatrix, conjugate_pair_stack,
                         kron, partial_trace_stack, require_density_stack)
from dipnet.scan import (MAX_TAU_STEPS, MIN_TAU_STEPS, MODES, QUANTIFIERS,
                         ExtensionSpec, ScanGrid, evaluate_point,
                         series_values, sweep)

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
        for t, value in zip(series.taus.tolist(), series.values.tolist()):
            p = DipolarParams(eps_tilde=series.eps_tilde, tau=t)
            assert value == evaluate_point(cfg, p, series.channel,
                                           series.quantifier, mode,
                                           ext), (t, value)


@PROPERTY
@given(cfg=networks(), kind=series_kinds, ext=extensions(),
       tau_min=st.floats(0.0, 10.0), span=st.floats(1e-3, 10.0),
       steps=st.integers(3, 12),
       eps=st.lists(eps_tilde, min_size=1, max_size=2, unique=True))
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
       steps=st.integers(3, 4),
       eps=st.lists(eps_tilde, min_size=1, max_size=2, unique=True))
def test_oracle_sweep_equals_evaluate_point(mode, cfg, kind, ext, tau_min,
                                            span, steps, eps):
    # the dense route costs up to 20 ms a point on channel 18: small grids
    channel, quantifier = kind
    grid = ScanGrid(tau_min=tau_min, tau_max=tau_min + span, tau_steps=steps,
                    eps_values=tuple(eps), channels=(channel,),
                    quantifiers=(quantifier,))
    _assert_sweep_equals_points(cfg, grid, mode, ext)


@PROPERTY
@given(mode=st.sampled_from(MODES), cfg=networks(), kind=series_kinds,
       ext=extensions(), eps=eps_tilde,
       taus=st.lists(tau, min_size=1, max_size=10))
def test_kernel_on_any_tau_vector_equals_points(mode, cfg, kind, ext, eps, taus):
    # unsorted and repeated taus included; event refinement sends such
    # vectors in every mode
    channel, quantifier = kind
    values = series_values(cfg, (quantifier,), np.full(len(taus), channel),
                           np.full(len(taus), eps), np.array(taus), mode,
                           ext)[0]
    points = [evaluate_point(cfg, DipolarParams(eps_tilde=eps, tau=t), channel,
                             quantifier, mode, ext) for t in taus]
    assert values.tolist() == points


mixed_kinds = st.sampled_from((("12", "negativity"), ("14", "naqc"),
                               ("123", "tangle"), ("18", "negativity"),
                               ("18", "naqc")))


@PROPERTY
@given(mode=st.sampled_from(MODES), cfg=networks(), kind=mixed_kinds,
       ext=extensions(), block=st.sampled_from((3, dipnet.scan.BLOCK_TAUS)),
       points=st.lists(st.tuples(eps_tilde, tau), min_size=1, max_size=10))
def test_kernel_on_mixed_eps_vector_equals_points(mode, cfg, kind, ext, block,
                                                  points):
    # a sweep or a grouped refinement sends one vector across several eps,
    # cut into blocks that may straddle an eps change
    channel, quantifier = kind
    eps, taus = (np.array(v) for v in zip(*points))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dipnet.scan, "BLOCK_TAUS", block)
        values = series_values(cfg, (quantifier,), np.full(len(taus), channel),
                               eps, taus, mode, ext)[0]
    assert values.tolist() == [
        evaluate_point(cfg, DipolarParams(eps_tilde=e, tau=t), channel,
                       quantifier, mode, ext) for e, t in points]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("channel, quantifier, bridge", [
    ("12", "negativity", None), ("14", "naqc", None), ("123", "tangle", None),
    ("18", "negativity", None),
    ("18", "naqc", DipolarParams(eps_tilde=-0.1, tau=2.5))])
def test_blocks_straddling_an_eps_change_equal_points(monkeypatch, mode,
                                                      channel, quantifier,
                                                      bridge):
    # blocks of 3 over runs of 2, 3 and 2 eps: no block holds one eps only
    monkeypatch.setattr(dipnet.scan, "BLOCK_TAUS", 3)
    cfg = NetworkConfig("MW", werner_x2=0.8)
    ext = ExtensionSpec("track" if bridge is None else "fixed", bridge)
    eps = np.array([-0.2, -0.2, 0.1, 0.1, 0.1, 0.3, 0.3])
    taus = np.array([0.4, 2.1, 0.4, 1.3, 7.9, 0.0, 2.1])
    values = series_values(cfg, (quantifier,), np.full(len(taus), channel),
                           eps, taus, mode, ext)[0]
    assert values.tolist() == [
        evaluate_point(cfg, DipolarParams(eps_tilde=e, tau=t), channel,
                       quantifier, mode, ext)
        for e, t in zip(eps.tolist(), taus.tolist())]


@PROPERTY
@given(cfg=networks(), channel=st.sampled_from(TWO_NODE[:-1] + THREE_NODE),
       points=st.lists(st.tuples(eps_tilde, tau), min_size=1, max_size=3))
def test_stack_quantifiers_equal_scalar_on_dense_states(cfg, channel, points):
    states = [network_channel_state(cfg, DipolarParams(eps_tilde=e, tau=t),
                                    channel) for e, t in points]
    stack = np.array([rho.mat for rho in states])
    scorers = (((pi_tangle_stack, pi_tangle),) if channel in THREE_NODE
               else ((negativity_stack, negativity),
                     (naqc_degree_stack, naqc_degree)))
    for stack_fn, scalar_fn in scorers:
        values = stack_fn(stack)
        for k, rho in enumerate(states):
            assert values[k] == scalar_fn(rho)


def _dense_point_by_point(cfg, p, channel, bridge):
    """Reference dense state at one point, one 4x4 unitary per conjugation:
    the evolved network reduced to the channel or, for channel 18, two
    hops joined by the bridge and reduced to the terminal qubits."""
    hop = evolved_network(cfg, p).mat
    if channel != "18":
        return partial_trace_stack(hop[None], channel_qubits(channel))[0]
    u = propagator_matrix(p if bridge is None else bridge)
    rho8 = conjugate_pair_stack(kron(hop, hop)[None], u, (2, 4))
    return partial_trace_stack(rho8, (0, 4))[0]


@settings(PROPERTY, max_examples=200)
@given(cfg=networks(), channel=st.sampled_from(ALL_CHANNELS), ext=extensions(),
       eps=st.floats(-1.0, 1.0),
       taus=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=8).map(sorted))
def test_dense_stack_rows_equal_points_and_agree_with_closed_form(
        cfg, channel, ext, eps, taus):
    bridge = ext.bridge if channel == "18" else None
    taus = np.array(taus)
    eps_per_tau = np.full(taus.shape, eps)
    dense = network_channel_states(cfg, channel, eps_per_tau, taus, bridge)
    for t, row in zip(taus.tolist(), dense):
        p = DipolarParams(eps_tilde=eps, tau=t)
        one = network_channel_state(cfg, p, channel, bridge)
        assert np.array_equal(row, one.mat), t
        assert np.array_equal(row, _dense_point_by_point(cfg, p, channel,
                                                         bridge)), t
    closed = closed_channel_states(cfg, channel, eps_per_tau, taus, bridge)
    assert np.abs(dense - closed).max() <= ORACLE_TOL


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
    kernel = series_values(cfg, (quantifier,), np.array([channel]),
                           np.array([eps]), np.array([t]), extension=ext)[0, 0]
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


# the start of the message of the check each defect fails
EXPECTED = {"hermitian": "Hermitian deviation ", "trace": "trace ",
            "negative": "minimum eigenvalue "}


@PROPERTY
@given(seed=st.integers(0, 2 ** 32 - 1), nqubits=st.integers(1, 3),
       size=st.integers(1, 5), data=st.data(),
       defect=st.sampled_from(sorted(EXPECTED)))
def test_stack_validator_matches_density_matrix(seed, nqubits, size, data,
                                                defect):
    rng = np.random.default_rng(seed)
    stack = np.array([ginibre_density(rng, nqubits).mat for _ in range(size)])
    require_density_stack(stack)
    k = data.draw(st.integers(0, size - 1))
    stack[k] = _corrupt(stack[k], defect)
    with pytest.raises(ValueError) as single:
        DensityMatrix(stack[k])
    with pytest.raises(ValueError) as stacked:
        require_density_stack(stack)
    assert type(single.value) is ValueError
    assert str(single.value).startswith(EXPECTED[defect])
    assert type(stacked.value) is type(single.value)
    assert str(stacked.value) == str(single.value)


@PROPERTY
@given(eps=st.floats(-1.0, 1.0), t1=st.floats(0.0, 10.0),
       t2=st.floats(0.0, 10.0))
def test_propagator_group_law(eps, t1, t2):
    taus = (t1, t2, t1 + t2)
    dense = [propagator_matrix(DipolarParams(eps_tilde=eps, tau=t))
             for t in taus]
    closed = coupling_matrices(propagator_gammas(np.full(3, eps),
                                                 np.array(taus)))
    for u1, u2, u12 in (dense, closed):
        assert np.abs(u1 @ u2 - u12).max() < 1e-10
        for u in (u1, u2, u12):
            assert np.abs(u @ u.conj().T - np.eye(4)).max() < 1e-12


# tau bounds at the ends of the float range, where linspace may repeat a tau
EXTREME_TAUS = st.sampled_from((0.0, 5e-324, 1e-320, 2.2250738585072014e-308,
                                1.0, 1e16, 1e300)) | st.floats(0.0, 1e300)


@settings(PROPERTY)
@given(tau_min=EXTREME_TAUS, tau_max=EXTREME_TAUS, ulps=st.integers(0, 64),
       steps=st.integers(MIN_TAU_STEPS, MAX_TAU_STEPS))
@example(tau_min=1e16, tau_max=1.0000000000000002e16, ulps=0, steps=5)
@example(tau_min=0.0, tau_max=5e-324, ulps=0, steps=12)
# a subnormal step: linspace's fifth tau, 2e-323, passes tau_max
@example(tau_min=0.0, tau_max=1.5e-323, ulps=0, steps=6)
def test_every_accepted_grid_strictly_increases(tau_min, tau_max, ulps, steps):
    # ulps > 0 puts tau_max that many ulps above tau_min, closer than the
    # taus can be spaced
    if ulps:
        tau_max = tau_min + ulps * math.ulp(tau_min)
    try:
        grid = ScanGrid(tau_min=tau_min, tau_max=tau_max, tau_steps=steps)
    except FieldError:
        return
    assert (np.diff(grid.taus()) > 0).all(), (tau_min, tau_max, steps)


# scenario values: extremes the float parser accepts, and junk (the last
# two are digit-group underscores and an Arabic-Indic three)
NUMBERS = ("0", "0.1", "-0.2", "1", "10", "1e10", "1e16",
           "1.0000000000000002e16", "1e300", "1e308", "-1e308", "5e-324")
JUNK = ("nan", "inf", "-inf", "-1", ",", "bogus", "1_0", "\u0663")


def _listed(words):
    return st.lists(st.sampled_from(words), min_size=1,
                    max_size=2).map(",".join)


VALUES = {
    # the last four escape the output directory or break CSV/gnuplot text
    "name": st.sampled_from(("fz", "nan", "a/b", "../escaped", "a,b",
                             "it's")),
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
        # junk one key in eight, so most texts reach the rules that
        # relate keys (a channel 18 with no extension, a tangle pairing)
        junk = draw(st.integers(0, 7)) == 7
        value = draw(st.sampled_from(JUNK) if junk
                     else VALUES.get(key, st.sampled_from(NUMBERS)))
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


@settings(PROPERTY, max_examples=300)
@given(text=scenario_texts())
@example(text="name = fz\nnetwork = MM\ntau_steps = 3\neps_values = 0\n"
              "channels = 18\n")  # a rule between keys, too rare to draw
def test_any_scenario_text_exits_0_or_2(text):
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(err):
        path = Path(tmp) / "fuzz.scn"
        path.write_text(text)
        code = main(["run", str(path), "--output-dir", str(Path(tmp) / "out")])
    assert code in (0, 2), text
    if code == 2 and "missing required key" not in err.getvalue():
        # every other refusal names a line of the file
        line = re.search(r"line (\d+):", err.getvalue())
        assert line and 1 <= int(line[1]) <= len(text.splitlines()), (
            text, err.getvalue())
