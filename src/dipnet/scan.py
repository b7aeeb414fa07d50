"""Parameter sweeps over (tau, eps_tilde) and series post-processing:
sudden death/birth intervals, peaks, sudden slope changes. In every mode
`series_values` builds the series of a tuple of quantifiers in blocks of
(channel, eps, tau) points, every channel and eps in one call, from one
channel and one eps per tau. Its block loop is the one place where each
run of channels is checked against `QUANTIFIER_TABLE` and each route's
stack of states is validated, oracle-checked in validate mode and scored
by every quantifier. The table names no qubit count: the validation reads
it from the stack, and each scorer refuses a state of another count."""

import operator
from dataclasses import dataclass
from itertools import groupby, product
from typing import Callable, Optional

import numpy as np

from .closedform import closed_channel_states, require_oracle_agreement
from .measures import naqc_degree_stack, negativity_stack, pi_tangle_stack
from .netmodel import (ALL_CHANNELS, THREE_NODE_CHANNELS, TWO_NODE_CHANNELS,
                       DipolarParams, FieldError, NetworkConfig,
                       network_channel_states, propagator_phases)
from .qmat import require_density_stack

ZERO_TOL = 1e-6
PEAK_PROMINENCE_FRACTION = 0.05
BISECTION_RESOLUTION = 1e-4
BISECTION_MAX_ITER = 40
MIN_TAU_STEPS = 3  # count_peaks needs both neighbours of a point
# taus per block of a series: a (block, 16, 16) dense stack is about 1 MB
BLOCK_TAUS = 256
# built in blocks, fig9's four tangle series peak near 70 MB at this bound
MAX_TAU_STEPS = 100_000
SPACING_TOL = 1e-9  # relative spread of tau steps that still counts as uniform

MODES = ("closed_form", "dense", "validate")
# quantifier -> (the channels it reads, its scorer, from a validated
# (n, d, d) stack to its (n,) values, which refuses a state of another qubit
# count); ScanGrid and series_values obey it
QUANTIFIER_TABLE = {
    "negativity": (TWO_NODE_CHANNELS + ("18",), negativity_stack),
    "naqc": (TWO_NODE_CHANNELS + ("18",), naqc_degree_stack),
    "tangle": (THREE_NODE_CHANNELS, pi_tangle_stack),
}
QUANTIFIERS = tuple(QUANTIFIER_TABLE)


def _require_readable(q: str, ch: str) -> None:
    if ch not in QUANTIFIER_TABLE[q][0]:
        raise FieldError(("channels", "quantifiers"), f"quantifier {q!r} "
                         f"cannot be evaluated on channel {ch!r}")


def _uneven(steps: np.ndarray) -> bool:
    return steps.size > 0 and steps.max() - steps.min() > SPACING_TOL * steps.max()


def fmt(value: float) -> str:
    """How the CSV, the events headers and the plot filters print a number."""
    return f"{value:.12g}"


@dataclass(frozen=True)
class ScanGrid:
    """The grid of a sweep. Every grid rule is here, the print rules (`fmt`)
    too, so a grid whose eps or taus print alike never reaches `sweep`."""

    tau_min: float = 0.0
    tau_max: float = 10.0
    tau_steps: int = 1001
    eps_values: tuple[float, ...] = (-0.2, 0.0, 0.1, 0.3)
    channels: tuple[str, ...] = ("12",)
    quantifiers: tuple[str, ...] = ("negativity",)

    def __post_init__(self):
        for key in ("tau_min", "tau_max", "eps_values"):
            if not np.isfinite(getattr(self, key)).all():
                raise FieldError((key,), "tau range and eps_values must be finite")
        if not 0.0 <= self.tau_min < self.tau_max:
            keys = ("tau_min",) if self.tau_min < 0 else ("tau_max", "tau_min")
            raise FieldError(keys, "need 0 <= tau_min < tau_max")
        try:  # numpy integers pass, floats and strings do not
            operator.index(self.tau_steps)
        except TypeError:
            raise FieldError(("tau_steps",), f"tau_steps must be an integer, "
                             f"got {self.tau_steps!r}") from None
        if not MIN_TAU_STEPS <= self.tau_steps <= MAX_TAU_STEPS:
            raise FieldError(("tau_steps",), f"tau_steps must be in "
                             f"[{MIN_TAU_STEPS}, {MAX_TAU_STEPS}]")
        for key, known in (("channels", ALL_CHANNELS), ("quantifiers", QUANTIFIERS)):
            for entry in getattr(self, key):
                if entry not in known:
                    raise FieldError((key,), f"unknown {key[:-1]} {entry!r}")
        for key in ("eps_values", "channels", "quantifiers"):
            entries = getattr(self, key)
            if not entries:
                raise FieldError((key,), f"{key} must be nonempty")
            # a repeat would key two series alike; -0 equals 0 here
            if len(set(entries)) < len(entries):
                raise FieldError((key,), f"{key} repeats an entry")
        propagator_phases(np.array(self.eps_values, dtype=float),
                          np.full(len(self.eps_values), float(self.tau_max)),
                          "eps_values", "tau_max")
        taus = self.taus()
        # the outputs print each eps and tau, so two eps that print alike
        # key one series. fmt is monotone and taus() never decreases, so
        # equal prints are neighbours, and taus that print apart increase
        tau_keys = ("tau_steps", "tau_max", "tau_min")
        for keys, values, what in (
                (("eps_values",), sorted(self.eps_values),
                 "eps_values has two entries that"),
                (tau_keys, taus.tolist(), f"two of the {self.tau_steps} taus")):
            printed = [fmt(value) for value in values]
            for text, after in zip(printed, printed[1:]):
                if text == after:
                    raise FieldError(keys, f"{what} print as {text}")
        # tangle series are scanned for sudden changes, which need even steps
        if "tangle" in self.quantifiers and _uneven(np.diff(taus)):
            raise FieldError(tau_keys, f"the {self.tau_steps} taus are not evenly "
                             f"spaced at float resolution, as tangle needs")
        for ch, q in product(self.channels, self.quantifiers):
            _require_readable(q, ch)

    def taus(self) -> np.ndarray:
        # a subnormal step can carry linspace past tau_max before its last
        # point; clipped, the taus never decrease (on a valid grid, a no-op)
        return np.minimum(np.linspace(self.tau_min, self.tau_max,
                                      self.tau_steps), self.tau_max)


@dataclass(frozen=True, eq=False)
class MeasureSeries:
    """One (channel, quantifier, eps_tilde) series: `values` at strictly
    increasing `taus`, two read-only 1-d arrays of finite floats, at a
    finite eps_tilde. Series compare by identity, since arrays have no
    single truth value."""
    channel: str
    quantifier: str
    eps_tilde: float
    taus: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        taus = np.array(self.taus, dtype=float)
        values = np.array(self.values, dtype=float)
        if taus.ndim != 1 or not taus.size or taus.shape != values.shape:
            raise ValueError("series taus and values must be nonempty 1-d "
                             "arrays of equal length")
        if not np.isfinite(np.concatenate((taus, values, [self.eps_tilde]))).all():
            raise ValueError("series taus, values and eps_tilde must be finite")
        if (np.diff(taus) <= 0).any():
            raise ValueError("series taus must be strictly increasing")
        if (values < -1e-10).any():
            raise ValueError("series values must be >= -1e-10")
        for name, arr in (("taus", taus), ("values", values)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class EventRecord:
    kind: str  # death | birth | peak | sudden_change
    tau: float
    value: float
    interval_end: Optional[float] = None


@dataclass(frozen=True)
class ExtensionSpec:
    """Bridge coupling for channel "18": either tracking the swept inner
    parameters (no `bridge` given) or fixed at an explicit (tau,
    eps_tilde)."""

    mode: str = "track"
    bridge: Optional[DipolarParams] = None

    def __post_init__(self):
        if self.mode not in ("track", "fixed"):
            raise FieldError(("mode",), f"extension mode must be track or "
                                        f"fixed, got {self.mode!r}")
        if self.mode == "fixed" and self.bridge is None:
            raise FieldError(("mode",), "fixed extension mode needs "
                                        "bridge_tau and bridge_eps_tilde")
        if self.mode == "track" and self.bridge is not None:
            raise FieldError(("bridge_tau", "bridge_eps_tilde"),
                             "track extension mode couples the "
                             "bridge to the swept parameters and takes no "
                             "bridge parameters")


def _clamped(values: np.ndarray) -> np.ndarray:
    """Round values in (-1e-10, 0] up to +0.0; keep every other value."""
    return np.where((values > -1e-10) & (values <= 0.0), 0.0, values)


def series_values(cfg: NetworkConfig, quantifiers: tuple[str, ...],
                  channels: np.ndarray, eps_tilde: np.ndarray,
                  taus: np.ndarray, mode: str = "closed_form",
                  extension: Optional[ExtensionSpec] = None) -> np.ndarray:
    """(len(quantifiers), N) values at the N taus of the 1-d array `taus`,
    with `channels` and `eps_tilde` 1-d arrays of one channel and one eps
    per tau. Per block of BLOCK_TAUS taus each run of equal channels is
    checked against `QUANTIFIER_TABLE` for every quantifier (channel 18 also
    needs an extension), and each route joins the runs' states into one
    (n, d, d) stack, closed-form, dense, or (validate) both; this loop is
    the one place each stack is validated, once, before the validate-mode
    oracle check, and every quantifier scores the first. The first failing
    block raises: a refused channel before any state is built, else the
    earliest failing tau. `sweep`, refinement and `evaluate_point` use it."""
    if not len(taus) or not quantifiers:
        raise ValueError("series_values needs at least one tau and one "
                         "quantifier")
    for name, noun, arr in (("channels", "channel", channels),
                            ("eps_tilde", "eps", eps_tilde)):
        if not isinstance(arr, np.ndarray) or arr.shape != taus.shape:
            raise ValueError(f"{name} must be an array of one {noun} per tau")
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    for q in quantifiers:
        if q not in QUANTIFIER_TABLE:
            raise ValueError(f"unknown quantifier {q!r}")
    routes = {"closed_form": [closed_channel_states],
              "dense": [network_channel_states],
              "validate": [closed_channel_states, network_channel_states]}[mode]
    # both routes read the bridge only for channel 18; None tracks the inner
    p_bridge = None if extension is None else extension.bridge
    values = []
    for i in range(0, len(taus), BLOCK_TAUS):
        block, eps = taus[i:i + BLOCK_TAUS], eps_tilde[i:i + BLOCK_TAUS]
        chs = channels[i:i + BLOCK_TAUS]
        runs, stop = [], 0  # (channel, slice) of each run of equal channels
        for ch, run in groupby(chs.tolist()):
            for q in quantifiers:
                _require_readable(q, ch)
            if ch == "18" and extension is None:
                raise ValueError("channel 18 requires an ExtensionSpec")
            start, stop = stop, stop + len(list(run))
            runs.append((ch, slice(start, stop)))
        stacks = []
        for route in routes:
            parts = [route(cfg, ch, eps[run], block[run], p_bridge)
                     for ch, run in runs]
            stacks.append(require_density_stack(
                np.concatenate(parts) if len(parts) > 1 else parts[0]))
        if mode == "validate":
            require_oracle_agreement(chs, *stacks, eps, block)
        values.append([QUANTIFIER_TABLE[q][1](stacks[0]) for q in quantifiers])
    return _clamped(np.concatenate(values, axis=1))


def evaluate_point(cfg: NetworkConfig, p: DipolarParams, channel: str,
                   quantifier: str, mode: str = "closed_form",
                   extension: Optional[ExtensionSpec] = None) -> float:
    """One quantifier's value at one point: `series_values` at N = 1."""
    return float(series_values(cfg, (quantifier,), np.array([channel]),
                               np.array([p.eps_tilde]), np.array([p.tau]),
                               mode, extension)[0, 0])


def sweep(cfg: NetworkConfig, grid: ScanGrid, mode: str = "closed_form",
          extension: Optional[ExtensionSpec] = None) -> list[MeasureSeries]:
    """One series per (channel, quantifier, eps), grid order: one
    `series_values` call of every quantifier of the grid on every (channel,
    eps) series' taus end to end, split back by quantifier and series."""
    taus = grid.taus()
    keys = list(product(grid.channels, grid.eps_values))  # one per series
    all_channels, all_eps = (np.repeat(col, len(taus)) for col in zip(*keys))
    values = series_values(cfg, grid.quantifiers, all_channels, all_eps,
                           np.tile(taus, len(keys)), mode, extension)
    # quantifier -> (channel, eps) -> the values of that series
    split = {q: dict(zip(keys, np.split(row, len(keys))))
             for q, row in zip(grid.quantifiers, values)}
    return [MeasureSeries(ch, q, eps, taus, split[q][ch, eps])
            for ch, q in product(grid.channels, grid.quantifiers)
            for eps in grid.eps_values]


def series_evaluator(cfg: NetworkConfig, series: MeasureSeries,
                     mode: str = "closed_form",
                     extension: Optional[ExtensionSpec] = None
                     ) -> Callable[[np.ndarray], np.ndarray]:
    """taus -> values callable matching a swept series, for event refinement:
    row 0 of `series_values` of its quantifier at its channel and eps."""
    return lambda taus: series_values(
        cfg, (series.quantifier,), np.full(len(taus), series.channel),
        np.full(len(taus), series.eps_tilde), taus, mode, extension)[0]


# (channels, eps, taus) -> values, one channel and one eps per tau
Refiner = Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray]


def _bisect_crossings(fn: Refiner, channels: np.ndarray, eps: np.ndarray,
                      lo: np.ndarray, f_lo: np.ndarray, hi: np.ndarray,
                      tol: float) -> np.ndarray:
    """taus where fn(channel, eps, .) crosses `tol` inside each bracket (lo,
    hi), to BISECTION_RESOLUTION; f_lo holds the known values fn(channel,
    eps, lo) - tol. All brackets advance together, in place: one fn call
    per step, on the midpoints of the brackets still wider than the
    resolution, in bracket order, and their channels and eps."""
    for _ in range(BISECTION_MAX_ITER):
        wide = np.flatnonzero(hi - lo > BISECTION_RESOLUTION)
        if not wide.size:
            break
        mid = 0.5 * (lo[wide] + hi[wide])
        f_mid = fn(channels[wide], eps[wide], mid) - tol
        same = (f_mid > 0) == (f_lo[wide] > 0)
        lo[wide[same]], f_lo[wide[same]] = mid[same], f_mid[same]
        hi[wide[~same]] = mid[~same]
    return 0.5 * (lo + hi)


def pair_zero_intervals(group: list[MeasureSeries], zero_tol: float = ZERO_TOL,
                        refine: Optional[Refiner] = None
                        ) -> list[list[EventRecord]]:
    """`detect_zero_intervals` of each series of a group, such as every
    (channel, eps) series of one quantifier, in one pass over the series
    laid end to end. With a `refine` callable ((channels, eps, taus) ->
    values: row 0 of `series_values` of the one quantifier) every interval
    edge of the group is refined in one lockstep bisection, so the group
    makes as many calls as its slowest series; a call gives one channel and one
    eps per midpoint and lists the series in group order, each one's left
    edges first. The callable must equal each series at its taus, channel
    and eps: each bracket's grid end is read from the series, so the
    callable never runs at a grid tau."""
    if not group:
        return []
    # each series is followed by a pad point that is never dead, so no dead
    # run spans two series
    pads = np.cumsum([s.values.size + 1 for s in group]) - 1
    taus = np.concatenate([np.append(s.taus, np.inf) for s in group])
    vals = np.concatenate([np.append(s.values, np.inf) for s in group])
    is_pad = np.zeros(vals.size, dtype=bool)
    is_pad[pads] = True
    # each run's first dead point and the live point after it
    first, after = np.flatnonzero(np.diff(is_pad | (vals > zero_tol),
                                          prepend=True)).reshape(-1, 2).T
    owner = pads.searchsorted(first)  # the series of each run
    left, right = ~is_pad[first - 1], ~is_pad[after]  # [-1] is the last pad
    starts, ends, births = taus[first], taus[after - 1], taus[after]
    if refine is not None:
        edge_owner = np.concatenate((owner[left], owner[right]))
        order = np.argsort(edge_owner, kind="stable")
        lo = np.concatenate((first[left], after[right]))[order] - 1
        owners = edge_owner[order]
        channels = np.array([s.channel for s in group])[owners]
        eps = np.array([s.eps_tilde for s in group])[owners]
        edges = np.empty(lo.size)
        edges[order] = _bisect_crossings(
            refine, channels, eps, taus[lo], vals[lo] - zero_tol,
            taus[lo + 1], zero_tol)
        starts[left], ends[right] = np.split(edges, [left.sum()])
        births = ends
    events = [[] for _ in group]
    for k, start, end, birth, i, j in zip(owner.tolist(), starts.tolist(),
                                          ends.tolist(), births.tolist(),
                                          first.tolist(), after.tolist()):
        events[k].append(EventRecord("death", start, float(vals[i]), end))
        if not is_pad[j]:
            events[k].append(EventRecord("birth", birth, float(vals[j])))
    return events


def detect_zero_intervals(series: MeasureSeries, zero_tol: float = ZERO_TOL,
                          refine: Optional[Callable[[np.ndarray], np.ndarray]] = None
                          ) -> list[EventRecord]:
    """Maximal runs of values <= zero_tol become death intervals; the first
    point above zero_tol after a run is a birth. With a `refine` callable
    (taus -> values, as `series_evaluator` returns) every interval edge of
    the series is refined in one lockstep bisection, never at a grid tau:
    `pair_zero_intervals` on a group of one."""
    pair = (None if refine is None
            else lambda channels, eps, taus: refine(taus))
    return pair_zero_intervals([series], zero_tol, pair)[0]


def count_peaks(series: MeasureSeries, prominence: Optional[float] = None
                ) -> list[EventRecord]:
    """Local maxima whose height above the higher flanking minimum reaches
    the prominence threshold (default 0.05 * series max). Each flank runs
    to the nearest strictly higher point. A flat top counts once, at its
    left edge, and is no peak if it rises on its right."""
    taus, vals = series.taus, series.values
    if len(vals) < 3:
        raise ValueError("need at least 3 points to detect peaks")
    if prominence is None:
        prominence = PEAK_PROMINENCE_FRACTION * float(vals.max())
    n = len(vals)
    candidates = np.flatnonzero((vals[1:-1] > vals[:-2])
                                & (vals[1:-1] >= vals[2:])) + 1
    events = []
    for i in candidates.tolist():
        v = vals[i]
        higher = np.flatnonzero(vals > v)
        k = higher.searchsorted(i)
        left = higher[k - 1] + 1 if k > 0 else 0
        right = higher[k] if k < higher.size else n
        right_min = vals[i:right].min()
        if right < n and right_min == v:  # a flat top rising on its right
            continue
        if v - max(vals[left:i + 1].min(), right_min) >= prominence:
            events.append(EventRecord(kind="peak", tau=float(taus[i]),
                                      value=float(v)))
    return events


def detect_sudden_changes(series: MeasureSeries,
                          slope_jump_tol: float) -> list[EventRecord]:
    """Points where the discrete second difference exceeds
    slope_jump_tol * (series range); requires uniform tau spacing."""
    taus, vals = series.taus, series.values
    if _uneven(np.diff(taus)):
        raise ValueError("detect_sudden_changes requires uniform tau spacing")
    rng = float(vals.max() - vals.min())
    if rng == 0.0:
        return []
    # summed left to right as written; np.diff(vals, 2) rounds differently
    d2 = np.abs(vals[2:] - 2 * vals[1:-1] + vals[:-2])
    return [EventRecord(kind="sudden_change", tau=float(taus[i]),
                        value=float(vals[i]))
            for i in (np.flatnonzero(d2 > slope_jump_tol * rng) + 1).tolist()]
