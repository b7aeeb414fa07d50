"""Scenario-driven runner: parse a flat key = value scenario file, run the
sweep, and emit a CSV, an events report and (optionally) a gnuplot script.

Exit codes: 0 success, 2 parse/validation error, 3 compute error,
4 oracle mismatch in validate mode.
"""

import argparse
import math
import re
import sys
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from typing import Callable, Iterator, Optional

from .closedform import OracleMismatch
from .ledger import render_typo_report
from .netmodel import DipolarParams, FieldError, NetworkConfig
from .scan import (MODES, ExtensionSpec, MeasureSeries, ScanGrid, ZERO_TOL,
                   count_peaks, detect_sudden_changes, pair_zero_intervals,
                   series_values, sweep)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3
EXIT_ORACLE = 4


class ScenarioError(Exception):
    """A scenario file that cannot be parsed or validated; the message
    names the line when there is one."""

    def __init__(self, message: str, line: Optional[int] = None):
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


# a name becomes file names in the output directory, the CSV's first column
# and quoted gnuplot strings: no separators, commas, quotes or leading dots
_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.+-]*")


@dataclass(frozen=True)
class Scenario:
    """What a scenario file means. Its defaults and range rules, with those
    of the parts it holds, are the only ones: a hand-built or `replace`d
    Scenario is refused exactly as `parse_scenario` refuses the text."""

    name: str
    network: NetworkConfig
    grid: ScanGrid
    mode: str = "closed_form"
    output_dir: Path = Path("out")
    emit_plot_script: bool = True
    extension: Optional[ExtensionSpec] = None
    zero_tol: float = ZERO_TOL
    peak_prominence: Optional[float] = None
    slope_jump_tol: float = 0.01

    def __post_init__(self):
        if not _NAME.fullmatch(self.name):
            raise FieldError(("name",), f"{self.name!r} does not match "
                                        f"{_NAME.pattern}")
        if self.mode not in MODES:
            raise FieldError(("mode",), f"unknown mode {self.mode!r}")
        has_18 = "18" in self.grid.channels
        if has_18 and self.extension is None:
            raise FieldError(("channels", "extension"),
                             "channel 18 needs an extension")
        if not has_18 and self.extension is not None:
            raise FieldError(("extension",), "only channel 18 reads an "
                                             "extension")
        for key in ("zero_tol", "peak_prominence", "slope_jump_tol"):
            value = getattr(self, key)
            if value is not None and not 0.0 <= value < math.inf:
                raise FieldError((key,), f"{key} must be finite and >= 0, "
                                         f"got {value}")


def _number(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {raw!r}")
    return value


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"not an integer: {raw!r}") from None


def _listed(convert: Callable[[str], object]) -> Callable[[str], tuple]:
    return lambda raw: tuple(convert(s.strip()) for s in raw.split(","))


_BOOL_WORDS = {"yes": True, "true": True, "1": True,
               "no": False, "false": False, "0": False}


def _yes_no(raw: str) -> bool:
    try:
        return _BOOL_WORDS[raw.lower()]
    except KeyError:
        raise ValueError(f"expected yes/no, got {raw!r}") from None


# text -> value per key; defaults and range rules belong to the dataclasses
_CONVERTERS: dict[str, Callable[[str], object]] = {
    "name": str, "network": str, "werner_x1": _number, "werner_x2": _number,
    "tau_min": _number, "tau_max": _number, "tau_steps": _integer,
    "eps_values": _listed(_number), "channels": _listed(str),
    "quantifiers": _listed(str), "mode": str, "output_dir": Path,
    "emit_plot_script": _yes_no,
    "extension": lambda raw: None if raw == "none" else raw,
    "bridge_tau": _number, "bridge_eps_tilde": _number,
    "zero_tol": _number, "peak_prominence": _number,
    "slope_jump_tol": _number,
}
_KNOWN_KEYS = frozenset(_CONVERTERS)

# scenario key -> field, for each dataclass the parser builds
_NETWORK = {"network": "kind", "werner_x1": "werner_x1",
            "werner_x2": "werner_x2"}
_GRID = {k: k for k in ("tau_min", "tau_max", "tau_steps", "eps_values",
                        "channels", "quantifiers")}
_BRIDGE = {"bridge_eps_tilde": "eps_tilde", "bridge_tau": "tau"}
_EXTENSION = {"extension": "mode"}
_SCENARIO = {k: k for k in ("name", "mode", "output_dir", "emit_plot_script",
                            "zero_tol", "peak_prominence", "slope_jump_tol")}


def parse_scenario(text: str) -> Scenario:
    """Parse flat `key = value` lines; `#` starts a comment, lists are
    comma-separated. Only the keys the file sets reach the dataclasses,
    which supply every default; their FieldError is reported on the line
    of the first blamed key the file sets."""
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ScenarioError(f"expected 'key = value', got {stripped!r}",
                                lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ScenarioError(f"malformed assignment {stripped!r}", lineno)
        if key not in _KNOWN_KEYS:
            raise ScenarioError(f"unknown key {key!r}", lineno)
        if key in lines:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        try:
            values[key] = _CONVERTERS[key](value)
        except ValueError as exc:
            raise ScenarioError(f"key {key}: {exc}", lineno) from None
        lines[key] = lineno

    for key in ("name", "network"):
        if key not in values:
            raise ScenarioError(f"missing required key {key!r}")

    def build(cls, fields: dict[str, str], **given):
        try:
            return cls(**given, **{field: values[key]
                                   for key, field in fields.items()
                                   if key in values})
        except FieldError as exc:
            key_of = {field: key for key, field in fields.items()}
            keys = [key_of.get(k, k) for k in exc.keys]
            key = next((k for k in keys if k in lines), keys[0])
            raise ScenarioError(f"key {key}: {exc}", lines.get(key)) from None

    network = build(NetworkConfig, _NETWORK)
    grid = build(ScanGrid, _GRID)
    extension = None
    if values.get("extension") is not None:
        bridge = None
        if _BRIDGE.keys() <= values.keys():
            bridge = build(DipolarParams, _BRIDGE)
        extension = build(ExtensionSpec, _EXTENSION, bridge=bridge)
    for key in _BRIDGE:
        if key in values and (extension is None or extension.bridge is None):
            raise ScenarioError(f"key {key}: only extension = fixed takes "
                                  f"bridge parameters", lines[key])
    return build(Scenario, _SCENARIO, network=network, grid=grid,
                 extension=extension)


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _csv_blocks(scenario_name: str,
                series_list: list[MeasureSeries]) -> Iterator[str]:
    """The CSV's header, then one string per series, not one per row."""
    yield "scenario,channel,quantifier,eps_tilde,tau,value\n"
    for s in series_list:
        prefix = (f"{scenario_name},{s.channel},{s.quantifier},"
                  f"{_fmt(s.eps_tilde)},")
        yield "".join(f"{prefix}{_fmt(tau)},{_fmt(value)}\n"
                      for tau, value in zip(s.taus.tolist(), s.values.tolist()))


def render_csv(scenario_name: str, series_list: list[MeasureSeries]) -> str:
    return "".join(_csv_blocks(scenario_name, series_list))


def render_events(scenario: Scenario, series_list: list[MeasureSeries]) -> str:
    """Events of each series, in list order: death/birth intervals refined
    in one `pair_zero_intervals` call per quantifier, over its series in
    list order, then peaks and (tangle) sudden changes."""
    intervals = {}  # series -> its death/birth events
    for quantifier in dict.fromkeys(s.quantifier for s in series_list):
        group = [s for s in series_list if s.quantifier == quantifier]
        refine = partial(series_values, scenario.network, quantifier,
                         mode=scenario.mode, extension=scenario.extension)
        intervals.update(zip(group, pair_zero_intervals(
            group, scenario.zero_tol, refine)))
    lines = []
    for s in series_list:
        events = intervals[s] + count_peaks(s, scenario.peak_prominence)
        if s.quantifier == "tangle":
            events += detect_sudden_changes(s, scenario.slope_jump_tol)
        lines.append(f"# channel={s.channel} quantifier={s.quantifier} "
                     f"eps_tilde={_fmt(s.eps_tilde)}")
        for e in events:
            line = f"{e.kind} tau={e.tau:.4f} value={e.value:.6f}"
            if e.interval_end is not None:
                line += f" interval_end={e.interval_end:.4f}"
            lines.append(line)
    return "\n".join(lines) + "\n"


def render_plot_script(scenario: Scenario, csv_name: str) -> str:
    lines = [
        "# gnuplot script; reads the sweep CSV and renders one PNG per",
        "# (channel, quantifier) with one line per eps_tilde.",
        "set datafile separator comma",
        "set key outside",
        "set xlabel 'tau'",
        "set terminal pngcairo size 900,600",
    ]
    for channel in scenario.grid.channels:
        for quant in scenario.grid.quantifiers:
            png = f"{scenario.name}_{channel}_{quant}.png"
            lines.append(f"set output '{png}'")
            lines.append(f"set ylabel '{quant}'")
            lines.append(f"set title 'channel {channel}'")
            plots = []
            for eps in scenario.grid.eps_values:
                cond = (f"(strcol(2) eq '{channel}' && strcol(3) eq '{quant}' "
                        f"&& strcol(4) eq '{_fmt(eps)}')")
                plots.append(f"'{csv_name}' using ({cond} ? $5 : NaN):6 "
                             f"with lines title 'eps={_fmt(eps)}'")
            lines.append("plot \\\n    " + ", \\\n    ".join(plots))
    return "\n".join(lines) + "\n"


def run(scenario: Scenario) -> int:
    """Run the sweep and write the CSV, events report and plot script."""
    try:
        scenario.output_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: cannot create output dir: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    try:
        series_list = sweep(scenario.network, scenario.grid, scenario.mode,
                            scenario.extension)
        events_text = render_events(scenario, series_list)
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except Exception as exc:  # compute failure
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    csv_path = scenario.output_dir / f"{scenario.name}.csv"
    outputs = {scenario.output_dir / f"{scenario.name}_events.txt": events_text}
    if scenario.emit_plot_script:
        outputs[scenario.output_dir / f"{scenario.name}_plots.gp"] = (
            render_plot_script(scenario, csv_path.name))
    try:
        with csv_path.open("w") as csv_file:  # written as it is formed
            csv_file.writelines(_csv_blocks(scenario.name, series_list))
        for path, text in outputs.items():
            path.write_text(text)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return EXIT_OK


def _load_scenario(path: str, output_dir: Optional[str],
                   force_mode: Optional[str] = None) -> Scenario:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file is not UTF-8 text: {exc.reason}",
                            data[:exc.start].count(b"\n") + 1) from None
    scenario = parse_scenario(text)
    if output_dir is not None:
        scenario = replace(scenario, output_dir=Path(output_dir))
    if force_mode is not None:
        scenario = replace(scenario, mode=force_mode)
    return scenario


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dipnet",
        description="Entangled-network simulator: sweeps, events, reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, help_ in [("run", "run a scenario file"),
                       ("validate", "run with closed-vs-dense validation forced")]:
        sp = sub.add_parser(cmd, help=help_)
        sp.add_argument("scenario", help="path to the scenario file")
        sp.add_argument("--output-dir", default=None)
    sub.add_parser("typo-ledger", help="print the closed-form repair report")

    args = parser.parse_args(argv)
    if args.command == "typo-ledger":
        print(render_typo_report(), end="")
        return EXIT_OK
    try:
        scenario = _load_scenario(
            args.scenario, args.output_dir,
            force_mode="validate" if args.command == "validate" else None)
    except ScenarioError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return run(scenario)


if __name__ == "__main__":
    sys.exit(main())
