import inspect
from dataclasses import replace
from functools import partial
from itertools import product
from pathlib import Path
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import dipnet.closedform
import dipnet.netmodel
import dipnet.scan
from dipnet.cli import EXIT_ORACLE, main, parse_scenario
from dipnet.closedform import OracleMismatch, closed_channel_state
from dipnet.netmodel import (ALL_CHANNELS, THREE_NODE_CHANNELS,
                             DipolarParams, FieldError, NetworkConfig,
                             network_channel_state, propagator_coeff_stack,
                             propagator_gammas)
from dipnet.qmat import NotPositive, conjugate_pair_stack
from dipnet.scan import (BISECTION_MAX_ITER, BISECTION_RESOLUTION,
                         PEAK_PROMINENCE_FRACTION, ZERO_TOL, EventRecord,
                         ExtensionSpec, MeasureSeries, ScanGrid, _uneven,
                         count_peaks, detect_sudden_changes,
                         detect_zero_intervals, evaluate_point,
                         pair_zero_intervals,
                         series_evaluator, series_values, sweep)

MM = NetworkConfig("MM")


def _series(taus, vals, channel="12", quantifier="negativity", eps=0.0):
    return MeasureSeries(channel=channel, quantifier=quantifier, eps_tilde=eps,
                         taus=taus, values=vals)


def test_grid_validation():
    with pytest.raises(ValueError):
        ScanGrid(tau_min=1.0, tau_max=0.5)
    with pytest.raises(ValueError):
        ScanGrid(tau_steps=2)
    with pytest.raises(ValueError):  # refused before any tau is allocated
        ScanGrid(tau_steps=1000000000000000)
    with pytest.raises(ValueError):
        ScanGrid(tau_min=-1.0)
    with pytest.raises(ValueError):
        ScanGrid(eps_values=(0.0, float("nan")))
    with pytest.raises(ValueError):
        ScanGrid(tau_max=float("inf"))
    with pytest.raises(ValueError):
        ScanGrid(channels=())
    with pytest.raises(ValueError):
        ScanGrid(quantifiers=())
    with pytest.raises(ValueError):
        ScanGrid(channels=("99",))
    with pytest.raises(ValueError):
        ScanGrid(channels=("12",), quantifiers=("tangle",))
    with pytest.raises(ValueError):
        ScanGrid(channels=("123",), quantifiers=("negativity",))
    with pytest.raises(ValueError):  # float resolution: repeated taus
        ScanGrid(tau_min=1e16, tau_max=1.0000000000000002e16, tau_steps=5)
    with pytest.raises(ValueError):  # tau phases overflow
        ScanGrid(tau_max=1e308)
    with pytest.raises(ValueError):  # uneven steps, which tangle refuses
        ScanGrid(tau_min=9.999, tau_max=10.0, channels=("123",),
                 quantifiers=("tangle",))
    ScanGrid(channels=("123",), quantifiers=("tangle",))
    ScanGrid(channels=("18",), quantifiers=("naqc",))
    ScanGrid(tau_min=9.999, tau_max=10.0)  # uneven, strictly increasing


@pytest.mark.parametrize("key, entries", [
    ("eps_values", (0.1, 0.3, 0.1)), ("eps_values", (-0.0, 0.0)),
    ("channels", ("12", "14", "12")),
    ("quantifiers", ("negativity", "naqc", "negativity"))],
    ids=lambda v: ",".join(map(str, v)) if isinstance(v, tuple) else v)
def test_grid_refuses_repeated_entries(key, entries):
    # two series under one (channel, quantifier, eps) key would make the
    # CSV's key columns ambiguous
    with pytest.raises(FieldError) as err:
        ScanGrid(**{key: entries})
    assert err.value.keys == (key,)


def test_series_validation():
    with pytest.raises(ValueError):
        _series([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        _series([0.0, 1.0, 0.5], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        _series([0.0, 1.0], [1.0, -0.5])
    with pytest.raises(ValueError):
        _series([0.0, 1.0], [1.0, -2e-10])
    with pytest.raises(ValueError):  # mismatched lengths
        _series([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):  # 2-d arrays
        _series([[0.0, 1.0]], [[1.0, 1.0]])
    with pytest.raises(ValueError):  # empty
        _series([], [])
    nan, inf = float("nan"), float("inf")
    for taus, vals, eps in [([0.0, nan, 2.0], [inf, nan, 0.0], 0.1),
                            ([0.0, inf], [1.0, 1.0], 0.0),
                            ([0.0, 1.0], [1.0, nan], 0.0),
                            ([0.0, 1.0], [inf, 1.0], 0.0),
                            ([0.0, 1.0], [1.0, 1.0], nan),
                            ([0.0, 1.0], [1.0, 1.0], -inf)]:
        with pytest.raises(ValueError, match="finite"):
            _series(taus, vals, eps=eps)
    series = _series([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):  # read-only
        series.values[0] = 0.5


@pytest.mark.parametrize("mode", dipnet.scan.MODES)
@pytest.mark.parametrize("channel, quantifier", [
    ("12", "negativity"), ("123", "tangle"), ("18", "negativity")])
def test_series_values_refuses_empty_taus(mode, channel, quantifier):
    with pytest.raises(ValueError, match="at least one tau"):
        series_values(MM, quantifier, np.full(0, channel), np.array([]),
                      np.array([]), mode, ExtensionSpec("track"))


@pytest.mark.parametrize("eps", [0.1, np.array(0.1), np.array([0.1]),
                                 np.full(3, 0.1), [0.1, 0.1]],
                         ids=["float", "0-d", "short", "long", "list"])
def test_series_values_refuses_eps_not_one_per_tau(eps):
    with pytest.raises(ValueError, match="one eps per tau"):
        series_values(MM, "negativity", np.full(2, "12"), eps,
                      np.array([0.3, 0.6]))


@pytest.mark.parametrize("channels", ["12", np.array("12"), np.array(["12"]),
                                      np.full(3, "12"), ["12", "12"]],
                         ids=["str", "0-d", "short", "long", "list"])
def test_series_values_refuses_channels_not_one_per_tau(channels):
    with pytest.raises(ValueError, match="one channel per tau"):
        series_values(MM, "negativity", channels, np.full(2, 0.1),
                      np.array([0.3, 0.6]))


@pytest.mark.parametrize("mode", dipnet.scan.MODES)
@pytest.mark.parametrize("channels", [("12", "123"), ("124", "14", "124"),
                                      ("234", "18")], ids="|".join)
def test_series_values_refuses_mixed_state_shapes(mode, channels):
    # one call scores one stack, so its channels' states share one shape
    with pytest.raises(ValueError, match="cannot be evaluated on channel"):
        series_values(MM, "negativity", np.array(channels),
                      np.full(len(channels), 0.1),
                      np.linspace(0.3, 0.9, len(channels)), mode,
                      ExtensionSpec("track"))


@pytest.mark.parametrize("mode", dipnet.scan.MODES)
def test_scan_grid_and_series_values_refuse_the_same_pairs(mode):
    # one rule: the pi-tangle reads the three-node channels and only those;
    # a grid refuses a pair exactly when series_values refuses its vector
    taus, eps = np.array([0.3, 0.9]), np.full(2, 0.1)
    refused = set()
    for q, ch in product(dipnet.scan.QUANTIFIERS, ALL_CHANNELS):
        try:
            ScanGrid(channels=(ch,), quantifiers=(q,))
        except FieldError:
            refused.add((q, ch))
        ext = ExtensionSpec("track") if ch == "18" else None
        try:
            series_values(MM, q, np.full(2, ch), eps, taus, mode, ext)
        except ValueError:
            assert (q, ch) in refused, (q, ch)
        else:
            assert (q, ch) not in refused, (q, ch)
    assert refused == {(q, ch) for q, ch in product(dipnet.scan.QUANTIFIERS,
                                                    ALL_CHANNELS)
                       if (q == "tangle") != (ch in THREE_NODE_CHANNELS)}


@pytest.mark.parametrize("mode", dipnet.scan.MODES)
@pytest.mark.parametrize("quantifier", ["negativity", "naqc"])
def test_series_values_refuses_channel_18_without_an_extension(mode,
                                                               quantifier):
    with pytest.raises(ValueError, match="requires an ExtensionSpec"):
        series_values(MM, quantifier, np.array(["12", "18"]),
                      np.full(2, 0.1), np.array([0.3, 0.9]), mode)


PHASE_REFUSAL = r"^need tau >= 0 and finite phases kappa \* tau, got "


@pytest.mark.parametrize("mode", dipnet.scan.MODES)
@pytest.mark.parametrize("channel, quantifier, ext", [
    ("12", "negativity", None), ("123", "tangle", None),
    ("18", "naqc", ExtensionSpec("track"))], ids=["12", "123", "18"])
@pytest.mark.parametrize("eps, tau", [
    (0.1, float("nan")), (float("nan"), 1.0), (0.1, float("inf")),
    (0.1, 1e308), (1e308, 0.0), (0.1, -1.0)])
def test_series_values_refuses_what_dipolar_params_refuses(
        mode, channel, quantifier, ext, eps, tau):
    # one phase rule: both routes' propagator stacks and series_values
    # refuse a point DipolarParams refuses with its FieldError, keys and
    # message, before any cos, sin or overflow warns; the bad point is not
    # the first
    with pytest.raises(FieldError) as want:
        DipolarParams(eps_tilde=eps, tau=tau)
    eps_tilde, taus = np.array([0.2, eps, 0.2]), np.array([0.5, tau, 0.7])
    for refuse in (propagator_gammas, propagator_coeff_stack,
                   partial(series_values, MM, quantifier, np.full(3, channel),
                           mode=mode, extension=ext)):
        with pytest.raises(FieldError, match=PHASE_REFUSAL) as got:
            refuse(eps_tilde, taus)
        assert got.value.keys == want.value.keys, refuse
        assert str(got.value) == str(want.value), refuse


@pytest.mark.parametrize("mode", dipnet.scan.MODES)
def test_series_values_refuses_an_unknown_quantifier(monkeypatch, mode):
    # refused as an unknown mode is, before any state is built
    def forbidden(*args):
        raise AssertionError("a state was built")

    for route in ("closed_channel_states", "network_channel_states"):
        monkeypatch.setattr(dipnet.scan, route, forbidden)
    with pytest.raises(ValueError, match="unknown quantifier 'concurrence'"):
        series_values(MM, "concurrence", np.array(["12"]), np.array([0.1]),
                      np.array([0.5]), mode)


@pytest.mark.parametrize("mode", dipnet.scan.MODES)
@pytest.mark.parametrize("quantifier, channels, ext", [
    ("tangle", ("123", "124", "234"), None),
    ("negativity", ("12", "34", "14", "23"), None),
    ("naqc", ("12", "34", "14", "23"), None),
    ("negativity", ("12", "18", "23"), ExtensionSpec("track")),
    ("naqc", ("18", "34", "14"),
     ExtensionSpec("fixed", DipolarParams(eps_tilde=-0.1, tau=2.5)))],
    ids=lambda v: "|".join(v) if isinstance(v, tuple) else None)
def test_mixed_channel_vector_equals_each_channel_alone(monkeypatch, mode,
                                                        quantifier, channels,
                                                        ext):
    # a sweep or a refinement step of one quantifier sends one vector across
    # several channels and eps, in blocks that straddle channel changes and
    # hold runs of one point; each channel's values are its own vector's,
    # bit for bit
    monkeypatch.setattr(dipnet.scan, "BLOCK_TAUS", 3)
    rng = np.random.default_rng(len(channels))
    cfg = NetworkConfig("WW", 0.9, 0.75)
    chs = rng.permutation(np.repeat(channels, 4))
    eps = rng.choice([-0.2, 0.1, 0.3], size=chs.size)
    taus = rng.uniform(0.0, 6.0, size=chs.size)
    got = series_values(cfg, quantifier, chs, eps, taus, mode, ext)
    assert (chs[1:] == chs[:-1]).any() and (chs[1:] != chs[:-1]).sum() > 3
    for ch in channels:
        own = chs == ch
        alone = series_values(cfg, quantifier, chs[own], eps[own], taus[own],
                              mode, ext)
        assert got[own].tobytes() == alone.tobytes(), ch


def test_sweep_starts_at_maximum():
    grid = ScanGrid(tau_max=2.0, tau_steps=21, eps_values=(0.0,),
                    channels=("12",), quantifiers=("negativity",))
    series = sweep(MM, grid)
    assert len(series) == 1
    assert (series[0].taus[0], series[0].values[0]) == (0.0, 1.0)


def test_sweep_dead_channels_are_zero():
    grid = ScanGrid(tau_max=6.0, tau_steps=61, eps_values=(0.1, 0.3),
                    channels=("13", "24"), quantifiers=("negativity",))
    for s in sweep(MM, grid, mode="dense"):
        assert s.values.max() < 1e-10


def test_sweep_series_order_and_determinism():
    grid = ScanGrid(tau_max=1.0, tau_steps=5, eps_values=(0.0, 0.1),
                    channels=("12", "14"), quantifiers=("negativity", "naqc"))
    out1 = sweep(MM, grid)
    out2 = sweep(MM, grid)
    keys = [(s.channel, s.quantifier, s.eps_tilde) for s in out1]
    assert keys == [("12", "negativity", 0.0), ("12", "negativity", 0.1),
                    ("12", "naqc", 0.0), ("12", "naqc", 0.1),
                    ("14", "negativity", 0.0), ("14", "negativity", 0.1),
                    ("14", "naqc", 0.0), ("14", "naqc", 0.1)]
    assert ([(s.channel, s.quantifier, s.eps_tilde, s.taus.tolist(),
              s.values.tolist()) for s in out1]
            == [(s.channel, s.quantifier, s.eps_tilde, s.taus.tolist(),
                 s.values.tolist()) for s in out2])


def test_sweep_validate_mode_small_grid():
    grid = ScanGrid(tau_max=3.0, tau_steps=7, eps_values=(0.1,),
                    channels=("12", "14", "23"), quantifiers=("negativity",))
    sweep(MM, grid, mode="validate")
    grid3 = ScanGrid(tau_max=3.0, tau_steps=7, eps_values=(0.1,),
                     channels=("123", "234", "124"), quantifiers=("tangle",))
    sweep(MM, grid3, mode="validate")


def test_sweep_channel_18_needs_extension():
    grid = ScanGrid(tau_max=1.0, tau_steps=3, eps_values=(0.0,),
                    channels=("18",), quantifiers=("negativity",))
    with pytest.raises(ValueError):
        sweep(MM, grid)
    out = sweep(MM, grid, extension=ExtensionSpec(mode="track"))
    assert out[0].values[0] == 0.0


def test_track_extension_refuses_a_bridge():
    # track mode couples the bridge to the swept parameters; a given bridge
    # would be ignored
    with pytest.raises(ValueError, match="track"):
        ExtensionSpec("track", bridge=DipolarParams(eps_tilde=0.1, tau=0.5))


class ClosedFormCalled(RuntimeError):
    pass


def test_dense_route_is_independent_of_the_closed_form(monkeypatch):
    # the dense oracle must not lean on the closed-form kernel: with every
    # public closedform function and the vectorised propagator made to
    # raise, wherever a module holds them, dense series still come out
    cfg = NetworkConfig("WW", 0.9, 0.8)
    taus = np.array([0.0, 0.7, 2.5])
    cases = [("12", "negativity", None), ("123", "tangle", None),
             ("18", "naqc", ExtensionSpec("track")),
             ("18", "negativity",
              ExtensionSpec("fixed", DipolarParams(eps_tilde=0.1, tau=0.5)))]
    eps = np.full(taus.shape, 0.1)
    expected = [series_values(cfg, q, np.full(taus.shape, ch), eps, taus,
                              "dense", ext)
                for ch, q, ext in cases]

    def forbidden(*args, **kwargs):
        raise ClosedFormCalled

    closedform = dipnet.closedform
    guarded = [obj for name, obj in vars(closedform).items()
               if inspect.isfunction(obj) and not name.startswith("_")
               and obj.__module__ == closedform.__name__]
    guarded.append(dipnet.netmodel.propagator_gammas)
    for module in (closedform, dipnet.netmodel, dipnet.scan):
        for name, obj in list(vars(module).items()):
            if any(obj is g for g in guarded):
                monkeypatch.setattr(module, name, forbidden)
    with pytest.raises(ClosedFormCalled):  # the guard is live
        series_values(cfg, "negativity", np.full(taus.shape, "12"), eps, taus,
                      "closed_form")
    for (ch, q, ext), want in zip(cases, expected):
        got = series_values(cfg, q, np.full(taus.shape, ch), eps, taus,
                            "dense", ext)
        assert np.array_equal(got, want), (ch, ext)


def test_sweep_matches_single_point_evaluation():
    grid = ScanGrid(tau_max=2.0, tau_steps=9, eps_values=(0.1,),
                    channels=("14",), quantifiers=("negativity",))
    series = sweep(MM, grid)[0]
    for tau, value in zip(series.taus[::3].tolist(),
                          series.values[::3].tolist()):
        direct = evaluate_point(MM, DipolarParams(eps_tilde=0.1, tau=tau),
                                "14", "negativity")
        assert value == direct


def _recorded(monkeypatch, name, taus_arg):
    """Wrap `dipnet.scan.<name>`; returns the list of (taus, result) of its
    calls, the taus read from positional argument `taus_arg`."""
    calls = []
    fn = getattr(dipnet.scan, name)

    def recording(*args):
        out = fn(*args)
        calls.append((args[taus_arg].tolist(), out))
        return out

    monkeypatch.setattr(dipnet.scan, name, recording)
    return calls


def test_series_is_built_in_bounded_blocks(monkeypatch):
    # a long grid must not hold its whole (N, 16, 16) dense stack at once;
    # the blocks, the last one partial, join to the one-point states and
    # values exactly
    sizes = []

    def recording(mats, *args):
        sizes.append(len(mats))
        return conjugate_pair_stack(mats, *args)

    monkeypatch.setattr(dipnet.netmodel, "conjugate_pair_stack", recording)
    dense = _recorded(monkeypatch, "network_channel_states", 3)
    cfg = NetworkConfig("WW", werner_x1=0.9, werner_x2=0.6)
    n = dipnet.scan.BLOCK_TAUS
    taus = np.linspace(0.0, 10.0, n + 2)
    got = series_values(cfg, "negativity", np.full(taus.shape, "14"),
                        np.full(taus.shape, 0.2), taus, "dense")
    assert sizes == [n, 2]
    assert [block for block, _ in dense] == [taus[:n].tolist(),
                                             taus[n:].tolist()]
    states = np.concatenate([stack for _, stack in dense])
    for tau, row, value in zip(taus.tolist(), states, got.tolist()):
        p = DipolarParams(eps_tilde=0.2, tau=tau)
        assert np.array_equal(row, network_channel_state(cfg, p, "14").mat)
        assert value == evaluate_point(cfg, p, "14", "negativity", "dense")


@pytest.mark.parametrize("mode", dipnet.scan.MODES)
@pytest.mark.parametrize("channel, quantifier, bridge", [
    ("12", "negativity", None), ("123", "tangle", None), ("18", "naqc", None),
    ("18", "negativity", DipolarParams(eps_tilde=-0.1, tau=2.5))])
def test_series_blocks_join_to_the_one_point_values(monkeypatch, mode,
                                                    channel, quantifier,
                                                    bridge):
    # every route and the oracle check see the same blocks of at most
    # BLOCK_TAUS taus, the last one partial; states and values join to the
    # one-point ones bit for bit
    monkeypatch.setattr(dipnet.scan, "BLOCK_TAUS", 3)
    closed = _recorded(monkeypatch, "closed_channel_states", 3)
    dense = _recorded(monkeypatch, "network_channel_states", 3)
    oracle = _recorded(monkeypatch, "require_oracle_agreement", 4)
    cfg = NetworkConfig("MW", werner_x2=0.8)
    ext = None
    if channel == "18":
        ext = ExtensionSpec("track" if bridge is None else "fixed", bridge)
    taus = np.linspace(0.0, 6.0, 7)
    got = series_values(cfg, quantifier, np.full(taus.shape, channel),
                        np.full(taus.shape, 0.15), taus, mode, ext)
    blocks = [taus[:3].tolist(), taus[3:6].tolist(), taus[6:].tolist()]
    for calls, used in ((closed, mode != "dense"),
                        (dense, mode != "closed_form"),
                        (oracle, mode == "validate")):
        assert [block for block, _ in calls] == (blocks if used else [])
    for calls, one_point in ((closed, closed_channel_state),
                             (dense, network_channel_state)):
        rows = [row for _, stack in calls for row in stack]
        for tau, row in zip(taus.tolist(), rows):
            p = DipolarParams(eps_tilde=0.15, tau=tau)
            assert np.array_equal(
                row, one_point(cfg, p, channel, bridge).mat)
    for tau, value in zip(taus.tolist(), got.tolist()):
        p = DipolarParams(eps_tilde=0.15, tau=tau)
        assert value == evaluate_point(cfg, p, channel, quantifier, mode, ext)


def test_validate_raises_at_the_earliest_failing_tau(monkeypatch):
    # a series is built and checked block by block in tau order, so an
    # oracle mismatch in block 0 wins over a state that fails validation in
    # block 1; block 0's dense states are valid, but at a shifted eps
    monkeypatch.setattr(dipnet.scan, "BLOCK_TAUS", 2)
    route = dipnet.scan.network_channel_states

    def faulty(cfg, channel, eps_tilde, taus, p_bridge):
        if taus.max() > 1.0:
            raise NotPositive("a block-1 state fails validation")
        return route(cfg, channel, eps_tilde + 0.05, taus, p_bridge)

    monkeypatch.setattr(dipnet.scan, "network_channel_states", faulty)
    taus = np.array([0.3, 0.6, 1.2, 1.5])
    with pytest.raises(OracleMismatch) as err:
        series_values(MM, "negativity", np.full(taus.shape, "12"),
                      np.full(taus.shape, 0.1), taus, "validate")
    assert "tau=0.3 eps=0.1 " in str(err.value)


def test_validate_names_the_failing_channel_of_a_mixed_block(monkeypatch):
    # one block holds three channels; only channel 14's dense states are
    # wrong (valid, but at a shifted eps), and only at tau 0.6: the
    # mismatch names that channel, that tau and its eps
    route = dipnet.scan.network_channel_states

    def faulty(cfg, channel, eps_tilde, taus, p_bridge):
        hit = (taus == 0.6) if channel == "14" else np.zeros(taus.shape, bool)
        return route(cfg, channel, np.where(hit, eps_tilde + 0.05, eps_tilde),
                     taus, p_bridge)

    monkeypatch.setattr(dipnet.scan, "network_channel_states", faulty)
    channels = np.array(["12", "12", "14", "14", "23", "23"])
    taus = np.array([0.6, 0.9, 0.3, 0.6, 0.6, 0.9])
    with pytest.raises(OracleMismatch) as err:
        series_values(MM, "negativity", channels, np.full(taus.shape, 0.1),
                      taus, "validate")
    assert err.value.channel == "14"
    assert str(err.value).startswith("channel 14 tau=0.6 eps=0.1 ")


def test_zero_intervals_constant_series():
    s = _series(np.linspace(0, 1, 11), np.zeros(11))
    events = detect_zero_intervals(s, 1e-6)
    assert len(events) == 1
    assert events[0].kind == "death"
    assert events[0].tau == 0.0 and events[0].interval_end == 1.0
    s1 = _series(np.linspace(0, 1, 11), np.ones(11))
    assert detect_zero_intervals(s1, 1e-6) == []


def test_zero_intervals_death_then_birth():
    taus = np.linspace(0, 1, 11)
    vals = [1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 1]
    events = detect_zero_intervals(_series(taus, vals), 1e-6)
    kinds = [e.kind for e in events]
    assert kinds == ["death", "birth"]
    assert events[0].tau == pytest.approx(0.3)
    assert events[0].interval_end == pytest.approx(0.5)
    assert events[1].tau == pytest.approx(0.6)


def test_zero_intervals_bisection_refinement():
    # quantifier max(0, sin(pi tau)) dies exactly on [1, 2]; edges found to
    # the bisection resolution
    fn = lambda taus: np.maximum(0.0, np.sin(np.pi * taus))
    taus = np.linspace(0.5, 2.5, 21)
    s = _series(taus, fn(taus))
    events = detect_zero_intervals(s, 1e-9, quantifier=fn)
    deaths = [e for e in events if e.kind == "death"]
    assert len(deaths) == 1
    assert abs(deaths[0].tau - 1.0) < 2e-4
    assert abs(deaths[0].interval_end - 2.0) < 2e-4


def test_refinement_never_evaluates_a_grid_tau():
    # the series already holds the value at each bracket's grid end; every
    # edge advances in lockstep, one call per bisection step: 0.1 spacing
    # halves to <= 1e-4 in 10 steps
    grid = ScanGrid(tau_steps=101, eps_values=(0.3,), channels=("12",),
                    quantifiers=("negativity",))
    series = sweep(MM, grid)[0]
    fn = series_evaluator(MM, series)
    calls = []

    def spy(taus):
        calls.append(taus.tolist())
        return fn(taus)

    events = detect_zero_intervals(series, ZERO_TOL, spy)
    assert [e.kind for e in events].count("birth") >= 2
    assert len(calls) == 10
    called = {tau for step in calls for tau in step}
    assert called
    assert not called & set(series.taus.tolist())


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.mark.parametrize("name", [f"fig{k}" for k in range(2, 9)])
def test_grouped_refinement_equals_per_series(name):
    # the bundled two-node surfaces and line cuts (MM, WW and MW) at a small
    # grid, on all four correlated two-node channels: refining every
    # (channel, eps) series of a quantifier together finds every series'
    # events
    scenario = parse_scenario((SCENARIOS / f"{name}.scn").read_text())
    cfg = scenario.network
    grid = replace(scenario.grid, tau_steps=41,
                   channels=("12", "34", "14", "23"))
    series = sweep(cfg, grid)
    for quantifier in grid.quantifiers:
        group = [s for s in series if s.quantifier == quantifier]
        grouped = pair_zero_intervals(group, scenario.zero_tol, partial(
            series_values, cfg, quantifier))
        assert grouped == [detect_zero_intervals(s, scenario.zero_tol,
                                                 series_evaluator(cfg, s))
                           for s in group]


def test_grouped_refinement_calls_as_often_as_its_slowest_series():
    # every edge of every eps advances in one lockstep: a group makes as
    # many calls as its slowest series, not their sum, each bracket visits
    # the midpoints it visits alone, and no call runs at a grid tau
    grid = ScanGrid(tau_steps=41, eps_values=(-0.2, 0.0, 0.1, 0.3),
                    channels=("12",), quantifiers=("naqc",))
    group = sweep(MM, grid)
    alone = []
    for s in group:
        fn = series_evaluator(MM, s)
        calls = []
        detect_zero_intervals(s, ZERO_TOL,
                              lambda taus: calls.append(taus.tolist()) or fn(taus))
        alone.append(calls)
    pair = partial(series_values, MM, "naqc")
    together = []

    def spy(channels, eps, taus):
        assert channels.tolist() == ["12"] * len(taus)
        together.append((eps.tolist(), taus.tolist()))
        return pair(channels, eps, taus)

    pair_zero_intervals(group, ZERO_TOL, spy)
    counts = [len(calls) for calls in alone]
    assert sorted(counts)[-2] > 0  # at least two series refine
    assert len(together) == max(counts) < sum(counts)
    for s, calls in zip(group, alone):
        visited = [t for eps, taus in together
                   for e, t in zip(eps, taus) if e == s.eps_tilde]
        assert visited == [t for taus in calls for t in taus]
    called = {t for _, taus in together for t in taus}
    assert called and not called & set(grid.taus().tolist())


def _mismatch_off_grid(monkeypatch, eps_bad, grid_taus):
    """Make the dense route disagree with the closed form at every tau of
    eps `eps_bad` that is not a grid tau: only refinement reaches those.
    There it returns valid states, but at a shifted eps."""
    route = dipnet.scan.network_channel_states

    def faulty(cfg, channel, eps_tilde, taus, p_bridge):
        hit = (eps_tilde == eps_bad) & ~np.isin(taus, grid_taus)
        return route(cfg, channel, np.where(hit, eps_tilde + 0.05, eps_tilde),
                     taus, p_bridge)

    monkeypatch.setattr(dipnet.scan, "network_channel_states", faulty)


def test_grouped_refinement_names_the_failing_eps(monkeypatch, tmp_path,
                                                  capsys):
    # validate mode checks the oracle at every refined midpoint; the group's
    # first call already holds the second eps's first midpoint, so the
    # mismatch there is raised before the first eps finishes refining
    grid = ScanGrid(tau_steps=41, eps_values=(-0.2, 0.1, 0.3),
                    channels=("12",), quantifiers=("negativity",))
    group = sweep(MM, grid, "validate")
    _mismatch_off_grid(monkeypatch, 0.1, grid.taus())
    calls = []
    pair = partial(series_values, MM, "negativity", mode="validate")

    def spy(channels, eps, taus):
        calls.append((eps.tolist(), taus.tolist()))
        return pair(channels, eps, taus)

    with pytest.raises(OracleMismatch) as err:
        pair_zero_intervals(group, ZERO_TOL, spy)
    (eps, taus), = calls
    first = taus[eps.index(0.1)]
    assert f"tau={first} eps=0.1 " in str(err.value)
    assert first not in grid.taus().tolist()

    scn = tmp_path / "bad.scn"
    scn.write_text("name = bad\nnetwork = MM\nchannels = 12\n"
                   "quantifiers = negativity\ntau_steps = 41\n"
                   "eps_values = -0.2,0.1,0.3\n")
    assert main(["validate", str(scn), "--output-dir",
                 str(tmp_path / "out")]) == EXIT_ORACLE
    assert f"tau={first} eps=0.1 " in capsys.readouterr().err


def test_negativity_death_and_birth_measured_network():
    grid = ScanGrid(tau_steps=1001, eps_values=(0.3,), channels=("12",),
                    quantifiers=("negativity",))
    series = sweep(MM, grid)[0]
    events = detect_zero_intervals(series, 1e-6)
    kinds = [e.kind for e in events]
    assert "death" in kinds and "birth" in kinds
    assert kinds.index("death") < kinds.index("birth")


def test_count_peaks_monotone_and_sine():
    taus = np.linspace(0, 1, 50)
    assert count_peaks(_series(taus, taus)) == []
    taus = np.linspace(0, 4 * np.pi, 201)
    vals = np.sin(taus) + 1.0
    peaks = count_peaks(_series(taus, vals), prominence=0.5)
    assert len(peaks) == 2


def test_count_peaks_plateau_rule():
    # a flat top counts once, at its left edge; one that rises on its right
    # is no peak, even at zero prominence
    taus = np.arange(7.0)
    peaks = count_peaks(_series(taus, [0, 1, 1, 0, 2, 2, 0]), prominence=0.0)
    assert [e.tau for e in peaks] == [1.0, 4.0]
    peaks = count_peaks(_series(taus, [0, 1, 1, 2, 0, 0, 0]), prominence=0.0)
    assert [e.tau for e in peaks] == [3.0]
    # the higher point that ends the flat top may be the last one
    assert count_peaks(_series(taus[:4], [0, 1, 1, 2]), prominence=0.0) == []


def test_count_peaks_channel_14_vs_12():
    grid = ScanGrid(tau_steps=1001, eps_values=(0.1,), channels=("12", "14"),
                    quantifiers=("negativity",))
    s12, s14 = sweep(MM, grid)
    n12 = len(count_peaks(s12))
    n14 = len(count_peaks(s14))
    assert n14 >= n12


def test_sudden_changes_linear_vs_triangle():
    taus = np.linspace(0, 1, 21)
    assert detect_sudden_changes(_series(taus, 2 * taus + 0.5), 0.01) == []
    tri = 1.0 - np.abs((taus * 4) % 2 - 1)
    events = detect_sudden_changes(_series(taus, tri), 0.1)
    assert events
    for e in events:
        assert e.kind == "sudden_change"


def test_sudden_changes_sum_left_to_right():
    # |0.2 - 2 * 0.7 + 0.7| is 0.5, one ulp above the range 0.7 - 0.2;
    # np.diff(vals, 2) rounds it down onto the range and finds no change
    events = detect_sudden_changes(_series([0.0, 1.0, 2.0], [0.7, 0.7, 0.2]),
                                   1.0)
    assert [(e.kind, e.tau) for e in events] == [("sudden_change", 1.0)]


def test_sudden_changes_requires_uniform_spacing():
    s = _series([0.0, 0.1, 0.35], [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        detect_sudden_changes(s, 0.1)


def test_death_intervals_and_peaks_disjoint():
    grid = ScanGrid(tau_steps=1001, eps_values=(0.1, 0.3), channels=("12",),
                    quantifiers=("negativity",))
    for series in sweep(MM, grid):
        deaths = [e for e in detect_zero_intervals(series, 1e-6)
                  if e.kind == "death"]
        peaks = count_peaks(series)
        for peak in peaks:
            for d in deaths:
                assert not d.tau <= peak.tau <= d.interval_end


def test_series_evaluator_matches_series():
    grid = ScanGrid(tau_max=2.0, tau_steps=5, eps_values=(0.1,),
                    channels=("12",), quantifiers=("negativity",))
    series = sweep(MM, grid)[0]
    fn = series_evaluator(MM, series)
    assert fn(series.taus).tolist() == series.values.tolist()
    for tau, value in zip(series.taus.tolist(), series.values.tolist()):
        assert fn(np.array([tau])).tolist() == [value]


SERIES_BITS = Path(__file__).resolve().parent / "data" / "series_bits.txt"
BIT_NETWORKS = {"MM": MM, "WW": NetworkConfig("WW", 0.9, 0.8),
                "MW": NetworkConfig("MW", werner_x2=0.85)}
BIT_SERIES = [(ch, q) for ch in ("12", "34", "14", "23", "18")
              for q in ("negativity", "naqc")] + [
                  (ch, "tangle") for ch in ("123", "124", "234")]


def test_series_values_match_pinned_bits():
    # every value of a fixed grid, as float.hex: the 12-digit CSV pins miss
    # a drift in the last bits of the kernel's rounding. Closed form on 41
    # taus over [0, 10]; dense and validate on every fifth of them.
    taus = np.linspace(0.0, 10.0, 41)
    lines = []
    for mode, mode_taus in (("closed_form", taus), ("dense", taus[::5]),
                            ("validate", taus[::5])):
        for net, cfg in BIT_NETWORKS.items():
            for channel, quantifier in BIT_SERIES:
                for eps in (-0.2, 0.1):
                    values = series_values(cfg, quantifier,
                                           np.full(mode_taus.shape, channel),
                                           np.full(mode_taus.shape, eps),
                                           mode_taus, mode,
                                           ExtensionSpec("track"))
                    lines.append(" ".join(
                        [mode, net, channel, quantifier, repr(eps)]
                        + [float.hex(v) for v in values.tolist()]))
    pinned = SERIES_BITS.read_text().splitlines()
    assert len(lines) == len(pinned)
    for got, want in zip(lines, pinned):
        assert got == want


# The scalar event detectors as they were before the array rewrite, kept
# verbatim (names prefixed) as the reference the array code must match
# event for event.

def _reference_bisect_crossing(fn: Callable[[float], float], lo: float,
                               f_lo: float, hi: float, tol: float) -> float:
    """tau where fn crosses `tol` inside (lo, hi), to BISECTION_RESOLUTION;
    f_lo is the known value fn(lo) - tol."""
    for _ in range(BISECTION_MAX_ITER):
        if hi - lo <= BISECTION_RESOLUTION:
            break
        mid = 0.5 * (lo + hi)
        f_mid = fn(mid) - tol
        if (f_mid > 0) == (f_lo > 0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _reference_detect_zero_intervals(series: MeasureSeries,
                                     zero_tol: float = ZERO_TOL,
                                     quantifier: Optional[Callable[[float], float]] = None
                                     ) -> list[EventRecord]:
    """Maximal runs of values <= zero_tol become death intervals; the first
    point above zero_tol after a run is a birth. With a quantifier callable
    the interval edges are refined by bisection. The callable must equal
    the series at its taus (as `series_evaluator` does): each bracket's grid
    end is read from the series, so the callable never runs at a grid tau."""
    taus = series.taus
    vals = series.values
    dead = vals <= zero_tol
    events: list[EventRecord] = []
    i = 0
    n = len(vals)
    while i < n:
        if not dead[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and dead[j + 1]:
            j += 1
        start, end = float(taus[i]), float(taus[j])
        if quantifier is not None and i > 0:
            start = _reference_bisect_crossing(quantifier, float(taus[i - 1]),
                                               vals[i - 1] - zero_tol, start,
                                               zero_tol)
        if quantifier is not None and j + 1 < n:
            end = _reference_bisect_crossing(quantifier, end, vals[j] - zero_tol,
                                             float(taus[j + 1]), zero_tol)
        events.append(EventRecord(kind="death", tau=start, value=float(vals[i]),
                                  interval_end=end))
        if j + 1 < n:
            birth_tau = end if quantifier is not None else float(taus[j + 1])
            events.append(EventRecord(kind="birth", tau=birth_tau,
                                      value=float(vals[j + 1])))
        i = j + 1
    return events


def _reference_count_peaks(series: MeasureSeries,
                           prominence: Optional[float] = None
                           ) -> list[EventRecord]:
    """Local maxima whose height above the higher flanking minimum reaches
    the prominence threshold (default 0.05 * series max)."""
    vals = series.values
    taus = series.taus
    if len(vals) < 3:
        raise ValueError("need at least 3 points to detect peaks")
    if prominence is None:
        prominence = PEAK_PROMINENCE_FRACTION * float(vals.max())
    events = []
    for i in range(1, len(vals) - 1):
        if not (vals[i] > vals[i - 1] and vals[i] >= vals[i + 1]):
            continue
        if vals[i] == vals[i + 1]:  # plateau: attribute the peak to its left edge
            k = i + 1
            while k < len(vals) and vals[k] == vals[i]:
                k += 1
            if k < len(vals) and vals[k] > vals[i]:
                continue
        left = vals[:i][::-1]
        right = vals[i + 1:]
        left_min = vals[i]
        for v in left:
            if v > vals[i]:
                break
            left_min = min(left_min, v)
        right_min = vals[i]
        for v in right:
            if v > vals[i]:
                break
            right_min = min(right_min, v)
        if vals[i] - max(left_min, right_min) >= prominence:
            events.append(EventRecord(kind="peak", tau=float(taus[i]),
                                      value=float(vals[i])))
    return events


def _reference_detect_sudden_changes(series: MeasureSeries,
                                     slope_jump_tol: float) -> list[EventRecord]:
    """Points where the discrete second difference exceeds
    slope_jump_tol * (series range); requires uniform tau spacing."""
    taus = series.taus
    vals = series.values
    if _uneven(np.diff(taus)):
        raise ValueError("detect_sudden_changes requires uniform tau spacing")
    rng = float(vals.max() - vals.min())
    if rng == 0.0:
        return []
    events = []
    for i in range(1, len(vals) - 1):
        d2 = abs(vals[i + 1] - 2 * vals[i] + vals[i - 1])
        if d2 > slope_jump_tol * rng:
            events.append(EventRecord(kind="sudden_change", tau=float(taus[i]),
                                      value=float(vals[i])))
    return events


EVENTS_PROPERTY = settings(max_examples=400, deadline=None, derandomize=True,
                           database=None)
# a few discrete levels give plateaus, ties and exact zeros; ZERO_TOL itself
# sits on the `<=` edge of the dead mask
level_sets = st.lists(st.one_of(st.just(0.0), st.just(ZERO_TOL),
                                st.floats(0.0, 2.0)), min_size=1, max_size=5)
zero_tols = st.one_of(st.just(ZERO_TOL), st.floats(0.0, 1.0))


@EVENTS_PROPERTY
@given(levels=level_sets,
       picks=st.lists(st.integers(0, 4), min_size=3, max_size=80),
       tau_min=st.floats(0.0, 10.0), step=st.floats(1e-3, 1.0),
       zero_tol=zero_tols,
       prominence=st.one_of(st.none(), st.just(0.0), st.floats(0.0, 1.0)),
       slope_jump_tol=st.floats(0.0, 3.0))
def test_event_detectors_equal_scalar_reference(levels, picks, tau_min, step,
                                                zero_tol, prominence,
                                                slope_jump_tol):
    vals = [levels[k % len(levels)] for k in picks]
    s = _series(tau_min + step * np.arange(len(vals)), vals)
    assert (detect_zero_intervals(s, zero_tol)
            == _reference_detect_zero_intervals(s, zero_tol))
    assert count_peaks(s, prominence) == _reference_count_peaks(s, prominence)
    assert (detect_sudden_changes(s, slope_jump_tol)
            == _reference_detect_sudden_changes(s, slope_jump_tol))


@EVENTS_PROPERTY
@given(a=st.floats(0.5, 5.0), b=st.floats(0.0, 2 * np.pi),
       tau_min=st.floats(0.0, 10.0), span=st.floats(1.0, 10.0),
       steps=st.integers(3, 60), zero_tol=st.one_of(st.just(ZERO_TOL),
                                                    st.floats(0.0, 0.5)))
def test_lockstep_refinement_equals_scalar_reference(a, b, tau_min, span, steps,
                                                     zero_tol):
    fn = lambda taus: np.maximum(0.0, np.sin(a * taus + b))
    taus = np.linspace(tau_min, tau_min + span, steps)
    s = _series(taus, fn(taus))
    scalar = lambda tau: float(fn(np.array([tau]))[0])
    assert (detect_zero_intervals(s, zero_tol, fn)
            == _reference_detect_zero_intervals(s, zero_tol, scalar))


@EVENTS_PROPERTY
@given(shifts=st.lists(st.floats(0.0, 2 * np.pi), min_size=1, max_size=4,
                       unique=True),
       steps=st.lists(st.integers(3, 60), min_size=4, max_size=4),
       zero_tol=st.one_of(st.just(ZERO_TOL), st.floats(0.0, 0.5)))
def test_grouped_refinement_equals_each_series_alone(shifts, steps, zero_tol):
    # series of unequal spacing narrow their brackets at unequal steps, so
    # each call carries only the still-wide brackets and their own eps
    fn = lambda eps, taus: np.maximum(0.0, np.sin(2.0 * taus + eps))
    group = [_series(taus, fn(eps, taus), eps=eps)
             for eps, n in zip(shifts, steps)
             for taus in [np.linspace(0.0, 6.0, n)]]
    calls = []
    grouped = pair_zero_intervals(
        group, zero_tol,
        lambda channels, eps, taus: calls.append(eps) or fn(eps, taus))
    alone, counts = [], []
    for s in group:
        n = []
        alone.append(detect_zero_intervals(
            s, zero_tol, lambda taus: n.append(taus) or fn(s.eps_tilde, taus)))
        counts.append(len(n))
    assert grouped == alone
    assert len(calls) == max(counts)
