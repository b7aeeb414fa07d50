"""Parameter sweeps over (tau, eps_tilde) and series post-processing:
sudden death/birth intervals, peaks, sudden slope changes. In every mode a
series is one (N, d, d) state stack, built and scored by `series_values`."""

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closedform import closed_channel_states, require_oracle_agreement
from .measures import naqc_degree_stack, negativity_stack, pi_tangle_stack
from .netmodel import (ALL_CHANNELS, THREE_NODE_CHANNELS, DipolarParams,
                       NetworkConfig, kappas, network_channel_state)

ZERO_TOL = 1e-6
PEAK_PROMINENCE_FRACTION = 0.05
BISECTION_RESOLUTION = 1e-4
BISECTION_MAX_ITER = 40
MIN_TAU_STEPS = 3  # count_peaks needs both neighbours of a point
SPACING_TOL = 1e-9  # relative spread of tau steps that still counts as uniform

MODES = ("closed_form", "dense", "validate")
QUANTIFIERS = ("negativity", "naqc", "tangle")


class GridError(ValueError):
    """An invalid ScanGrid or ExtensionSpec field; `keys` names the fields
    to blame, most specific first."""

    def __init__(self, keys: tuple[str, ...], message: str):
        self.keys = keys
        super().__init__(message)


def _require_finite_phases(eps_tilde: float, tau: float, eps_key: str,
                           tau_key: str) -> None:
    """GridError unless every propagator phase kappa * tau is finite. As
    kappa_z = -2 for any eps_tilde, an overflow there is the tau's fault."""
    tau = float(tau)
    if all(math.isfinite(k * tau) for k in kappas(float(eps_tilde))):
        return
    raise GridError((tau_key,) if not math.isfinite(2.0 * tau) else (eps_key,),
                    f"propagator phase kappa * tau is not finite at "
                    f"eps_tilde = {eps_tilde}, tau = {tau}")


def _uneven(steps: np.ndarray) -> bool:
    return steps.size > 0 and steps.max() - steps.min() > SPACING_TOL * steps.max()


@dataclass(frozen=True)
class ScanGrid:
    tau_min: float = 0.0
    tau_max: float = 10.0
    tau_steps: int = 1001
    eps_values: tuple[float, ...] = (-0.2, 0.0, 0.1, 0.3)
    channels: tuple[str, ...] = ("12",)
    quantifiers: tuple[str, ...] = ("negativity",)

    def __post_init__(self):
        for key in ("tau_min", "tau_max", "eps_values"):
            if not np.isfinite(getattr(self, key)).all():
                raise GridError((key,), "tau range and eps_values must be finite")
        if not 0.0 <= self.tau_min < self.tau_max:
            keys = ("tau_min",) if self.tau_min < 0 else ("tau_max", "tau_min")
            raise GridError(keys, "need 0 <= tau_min < tau_max")
        if self.tau_steps < MIN_TAU_STEPS:
            raise GridError(("tau_steps",),
                            f"tau_steps must be >= {MIN_TAU_STEPS}")
        for key in ("eps_values", "channels", "quantifiers"):
            if not getattr(self, key):
                raise GridError((key,), f"{key} must be nonempty")
        for eps in self.eps_values:
            _require_finite_phases(eps, self.tau_max, "eps_values", "tau_max")
        steps = np.diff(self.taus())
        # tangle series are scanned for sudden changes, which need even steps
        if (steps <= 0).any() or ("tangle" in self.quantifiers
                                  and _uneven(steps)):
            raise GridError(("tau_steps", "tau_max", "tau_min"),
                            f"{self.tau_steps} tau points over [tau_min, "
                            f"tau_max] are not strictly increasing (evenly, "
                            f"for tangle) at float resolution")
        for ch in self.channels:
            if ch not in ALL_CHANNELS:
                raise GridError(("channels",), f"unknown channel {ch!r}")
        for q in self.quantifiers:
            if q not in QUANTIFIERS:
                raise GridError(("quantifiers",), f"unknown quantifier {q!r}")
        for ch in self.channels:
            for q in self.quantifiers:
                # tangle is the three-node quantifier, and the only one
                if (q == "tangle") != (ch in THREE_NODE_CHANNELS):
                    raise GridError(
                        ("channels", "quantifiers"),
                        f"quantifier {q!r} cannot be evaluated on channel {ch!r}")

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_min, self.tau_max, self.tau_steps)


@dataclass(frozen=True)
class MeasureSeries:
    channel: str
    quantifier: str
    eps_tilde: float
    points: tuple[tuple[float, float], ...]

    def __post_init__(self):
        taus = [t for t, _ in self.points]
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValueError("series taus must be strictly increasing")
        if any(v < -1e-10 for _, v in self.points):
            raise ValueError("series values must be >= -1e-10")

    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.points])

    def tau_array(self) -> np.ndarray:
        return np.array([t for t, _ in self.points])


@dataclass(frozen=True)
class EventRecord:
    kind: str  # death | birth | peak | sudden_change
    tau: float
    value: float
    interval_end: Optional[float] = None


@dataclass(frozen=True)
class ExtensionSpec:
    """Bridge coupling for channel "18": either tracking the swept inner
    parameters or fixed at an explicit (tau, eps_tilde)."""

    mode: str = "track"
    bridge: Optional[DipolarParams] = None

    def __post_init__(self):
        if self.mode not in ("track", "fixed"):
            raise ValueError(f"extension mode must be track or fixed, got {self.mode!r}")
        if self.mode == "fixed":
            if self.bridge is None:
                raise ValueError("fixed extension mode needs explicit bridge parameters")
            _require_finite_phases(self.bridge.eps_tilde, self.bridge.tau,
                                   "bridge_eps_tilde", "bridge_tau")


_QUANTIFIER_STACK = {
    "negativity": negativity_stack,
    "naqc": naqc_degree_stack,
    "tangle": lambda mats: pi_tangle_stack(mats).pi,
}


def _clamped(values: np.ndarray) -> np.ndarray:
    """Round values in (-1e-10, 0] up to +0.0; keep every other value."""
    return np.where((values > -1e-10) & (values <= 0.0), 0.0, values)


def series_values(cfg: NetworkConfig, channel: str, quantifier: str,
                  eps_tilde: float, taus: np.ndarray, mode: str = "closed_form",
                  extension: Optional[ExtensionSpec] = None) -> np.ndarray:
    """Quantifier values of one (channel, quantifier, eps_tilde) series at
    every tau of the 1-d array `taus`, scored once as an (N, d, d) stack of
    states: closed-form, dense, or (validate) both, required to agree, with
    the closed one scored. `sweep` and `evaluate_point` (N = 1) evaluate
    through here only."""
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    p_bridge = None
    if channel == "18":
        if extension is None:
            raise ValueError("channel 18 requires an ExtensionSpec")
        if extension.mode == "fixed":
            p_bridge = extension.bridge
    if mode != "dense":
        closed = closed_channel_states(cfg, channel, eps_tilde, taus, p_bridge)
    if mode != "closed_form":
        dense = np.array([network_channel_state(
            cfg, DipolarParams(eps_tilde=eps_tilde, tau=tau), channel,
            p_bridge).mat for tau in taus.tolist()])
    if mode == "validate":
        require_oracle_agreement(channel, closed, dense, eps_tilde, taus)
    states = dense if mode == "dense" else closed
    return _clamped(_QUANTIFIER_STACK[quantifier](states))


def evaluate_point(cfg: NetworkConfig, p: DipolarParams, channel: str,
                   quantifier: str, mode: str = "closed_form",
                   extension: Optional[ExtensionSpec] = None) -> float:
    """Single quantifier value at one parameter point."""
    return float(series_values(cfg, channel, quantifier, p.eps_tilde,
                               np.array([p.tau]), mode, extension)[0])


def sweep(cfg: NetworkConfig, grid: ScanGrid, mode: str = "closed_form",
          extension: Optional[ExtensionSpec] = None) -> list[MeasureSeries]:
    """One series per (channel, quantifier, eps) triple, grid order, each
    evaluated as one stack."""
    taus = grid.taus()
    out = []
    for channel in grid.channels:
        for quantifier in grid.quantifiers:
            for eps in grid.eps_values:
                values = series_values(cfg, channel, quantifier, eps, taus,
                                       mode, extension)
                out.append(MeasureSeries(
                    channel=channel, quantifier=quantifier, eps_tilde=eps,
                    points=tuple(zip(taus.tolist(), values.tolist()))))
    return out


def series_evaluator(cfg: NetworkConfig, series: MeasureSeries,
                     mode: str = "closed_form",
                     extension: Optional[ExtensionSpec] = None) -> Callable[[float], float]:
    """tau -> value callable matching a swept series, for event refinement."""
    def fn(tau: float) -> float:
        p = DipolarParams(eps_tilde=series.eps_tilde, tau=tau)
        return evaluate_point(cfg, p, series.channel, series.quantifier,
                              mode, extension)
    return fn


def _bisect_crossing(fn: Callable[[float], float], lo: float, hi: float,
                     tol: float) -> float:
    """tau where fn crosses `tol` inside (lo, hi), to BISECTION_RESOLUTION."""
    f_lo = fn(lo) - tol
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


def detect_zero_intervals(series: MeasureSeries, zero_tol: float = ZERO_TOL,
                          quantifier: Optional[Callable[[float], float]] = None
                          ) -> list[EventRecord]:
    """Maximal runs of values <= zero_tol become death intervals; the first
    point above zero_tol after a run is a birth. With a quantifier callable
    the interval edges are refined by bisection."""
    if not series.points:
        raise ValueError("series is empty")
    taus = series.tau_array()
    vals = series.values()
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
            start = _bisect_crossing(quantifier, float(taus[i - 1]), start, zero_tol)
        if quantifier is not None and j + 1 < n:
            end = _bisect_crossing(quantifier, end, float(taus[j + 1]), zero_tol)
        events.append(EventRecord(kind="death", tau=start, value=float(vals[i]),
                                  interval_end=end))
        if j + 1 < n:
            birth_tau = end if quantifier is not None else float(taus[j + 1])
            events.append(EventRecord(kind="birth", tau=birth_tau,
                                      value=float(vals[j + 1])))
        i = j + 1
    return events


def count_peaks(series: MeasureSeries, prominence: Optional[float] = None
                ) -> list[EventRecord]:
    """Local maxima whose height above the higher flanking minimum reaches
    the prominence threshold (default 0.05 * series max)."""
    vals = series.values()
    taus = series.tau_array()
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


def detect_sudden_changes(series: MeasureSeries,
                          slope_jump_tol: float) -> list[EventRecord]:
    """Points where the discrete second difference exceeds
    slope_jump_tol * (series range); requires uniform tau spacing."""
    taus = series.tau_array()
    vals = series.values()
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
