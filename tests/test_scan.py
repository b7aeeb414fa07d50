import inspect
from pathlib import Path

import numpy as np
import pytest

import dipnet.closedform
import dipnet.netmodel
import dipnet.scan
from dipnet.netmodel import DipolarParams, NetworkConfig
from dipnet.scan import (ZERO_TOL, ExtensionSpec, MeasureSeries, ScanGrid,
                         count_peaks, detect_sudden_changes,
                         detect_zero_intervals, evaluate_point,
                         series_evaluator, series_values, sweep)

MM = NetworkConfig("MM")


def _series(taus, vals, channel="12", quantifier="negativity", eps=0.0):
    return MeasureSeries(channel=channel, quantifier=quantifier, eps_tilde=eps,
                         points=tuple(zip([float(t) for t in taus],
                                          [float(v) for v in vals])))


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


def test_series_validation():
    with pytest.raises(ValueError):
        _series([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        _series([0.0, 1.0], [1.0, -0.5])


def test_sweep_starts_at_maximum():
    grid = ScanGrid(tau_max=2.0, tau_steps=21, eps_values=(0.0,),
                    channels=("12",), quantifiers=("negativity",))
    series = sweep(MM, grid)
    assert len(series) == 1
    assert series[0].points[0] == (0.0, 1.0)


def test_sweep_dead_channels_are_zero():
    grid = ScanGrid(tau_max=6.0, tau_steps=61, eps_values=(0.1, 0.3),
                    channels=("13", "24"), quantifiers=("negativity",))
    for s in sweep(MM, grid, mode="dense"):
        assert s.values().max() < 1e-10


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
    assert out1 == out2


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
    assert out[0].points[0][1] == 0.0


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
    expected = [series_values(cfg, ch, q, 0.1, taus, "dense", ext)
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
        series_values(cfg, "12", "negativity", 0.1, taus, "closed_form")
    for (ch, q, ext), want in zip(cases, expected):
        got = series_values(cfg, ch, q, 0.1, taus, "dense", ext)
        assert np.array_equal(got, want), (ch, ext)


def test_sweep_matches_single_point_evaluation():
    grid = ScanGrid(tau_max=2.0, tau_steps=9, eps_values=(0.1,),
                    channels=("14",), quantifiers=("negativity",))
    series = sweep(MM, grid)[0]
    for tau, value in series.points[::3]:
        direct = evaluate_point(MM, DipolarParams(eps_tilde=0.1, tau=tau),
                                "14", "negativity")
        assert value == direct


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
    fn = lambda tau: max(0.0, float(np.sin(np.pi * tau)))
    taus = np.linspace(0.5, 2.5, 21)
    s = _series(taus, [fn(t) for t in taus])
    events = detect_zero_intervals(s, 1e-9, quantifier=fn)
    deaths = [e for e in events if e.kind == "death"]
    assert len(deaths) == 1
    assert abs(deaths[0].tau - 1.0) < 2e-4
    assert abs(deaths[0].interval_end - 2.0) < 2e-4


def test_refinement_never_evaluates_a_grid_tau():
    # the series already holds the value at each bracket's grid end
    grid = ScanGrid(tau_steps=101, eps_values=(0.3,), channels=("12",),
                    quantifiers=("negativity",))
    series = sweep(MM, grid)[0]
    fn = series_evaluator(MM, series)
    calls = []

    def spy(tau):
        calls.append(tau)
        return fn(tau)

    events = detect_zero_intervals(series, ZERO_TOL, spy)
    assert [e.kind for e in events].count("birth") >= 2
    assert calls
    assert not set(calls) & set(series.tau_array().tolist())


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
    for tau, value in series.points:
        assert fn(tau) == value


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
                    values = series_values(cfg, channel, quantifier, eps,
                                           mode_taus, mode,
                                           ExtensionSpec("track"))
                    lines.append(" ".join(
                        [mode, net, channel, quantifier, repr(eps)]
                        + [float.hex(v) for v in values.tolist()]))
    pinned = SERIES_BITS.read_text().splitlines()
    assert len(lines) == len(pinned)
    for got, want in zip(lines, pinned):
        assert got == want
