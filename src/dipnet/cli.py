"""Scenario-driven runner: parse a flat key = value scenario file, run the
sweep, and emit a CSV, an events report and (optionally) a gnuplot script.

Exit codes: 0 success, 2 parse/validation error, 3 compute error,
4 oracle mismatch in validate mode.
"""

import argparse
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from .closedform import OracleMismatch
from .ledger import render_typo_report
from .netmodel import DipolarParams, NetworkConfig
from .scan import (MIN_TAU_STEPS, MODES, ExtensionSpec, GridError,
                   MeasureSeries, ScanGrid, ZERO_TOL, count_peaks,
                   detect_sudden_changes, detect_zero_intervals,
                   series_evaluator, sweep)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3
EXIT_ORACLE = 4


class ScenarioError(Exception):
    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


class ParseError(ScenarioError):
    pass


class ValidationError(ScenarioError):
    pass


class UnknownKey(ScenarioError):
    pass


@dataclass(frozen=True)
class Scenario:
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


_KNOWN_KEYS = {
    "name", "network", "werner_x1", "werner_x2",
    "tau_min", "tau_max", "tau_steps", "eps_values",
    "channels", "quantifiers", "mode", "output_dir", "emit_plot_script",
    "extension", "bridge_tau", "bridge_eps_tilde",
    "zero_tol", "peak_prominence", "slope_jump_tol",
}

_BOOL_WORDS = {"yes": True, "true": True, "1": True,
               "no": False, "false": False, "0": False}


def _parse_float(raw: str, key: str, line: int,
                 minimum: Optional[float] = None) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValidationError(f"key {key}: not a number: {raw!r}", line) from None
    if not math.isfinite(value):
        raise ValidationError(f"key {key}: not a finite number: {raw!r}", line)
    if minimum is not None and value < minimum:
        raise ValidationError(f"key {key}: must be >= {minimum:g}, got {raw!r}",
                              line)
    return value


def _parse_int(raw: str, key: str, line: int, minimum: int) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"key {key}: not an integer: {raw!r}", line) from None
    if value < minimum:
        raise ValidationError(f"key {key}: must be >= {minimum}, got {raw!r}",
                              line)
    return value


def parse_scenario(text: str) -> Scenario:
    """Parse flat `key = value` lines; `#` starts a comment, lists are
    comma-separated."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ParseError(f"expected 'key = value', got {stripped!r}", lineno)
        key, _, value = stripped.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ParseError(f"malformed assignment {stripped!r}", lineno)
        if key not in _KNOWN_KEYS:
            raise UnknownKey(f"unknown key {key!r}", lineno)
        if key in raw:
            raise ParseError(f"duplicate key {key!r}", lineno)
        raw[key] = (value, lineno)

    def get(key: str, default: Optional[str] = None) -> tuple[Optional[str], int]:
        if key in raw:
            return raw[key]
        return default, 0

    name, line = get("name")
    if name is None or not name:
        raise ValidationError("missing required key 'name'")

    kind, line = get("network")
    if kind is None:
        raise ValidationError("missing required key 'network'")
    x1_raw, x1_line = get("werner_x1", "0.7")
    x2_raw, x2_line = get("werner_x2", "0.7")
    x1 = _parse_float(x1_raw, "werner_x1", x1_line)
    x2 = _parse_float(x2_raw, "werner_x2", x2_line)
    try:
        network = NetworkConfig(kind=kind, werner_x1=x1, werner_x2=x2)
    except ValueError as exc:
        key = "network" if "kind" in str(exc) else "werner_x1/werner_x2"
        raise ValidationError(f"key {key}: {exc}", line) from None

    mode, mode_line = get("mode", "closed_form")
    if mode not in MODES:
        raise ValidationError(f"key mode: unknown mode {mode!r}", mode_line)

    tau_min_raw, l1 = get("tau_min", "0.0")
    tau_max_raw, l2 = get("tau_max", "10.0")
    steps_raw, l3 = get("tau_steps", "1001")
    eps_raw, l4 = get("eps_values", "-0.2,0,0.1,0.3")
    channels_raw, l5 = get("channels", "12")
    quant_raw, l6 = get("quantifiers", "negativity")
    ext_raw, ext_line = get("extension", "none")
    bt_raw, bt_line = get("bridge_tau")
    be_raw, be_line = get("bridge_eps_tilde")
    extension: Optional[ExtensionSpec] = None
    try:
        grid = ScanGrid(
            tau_min=_parse_float(tau_min_raw, "tau_min", l1, minimum=0.0),
            tau_max=_parse_float(tau_max_raw, "tau_max", l2),
            tau_steps=_parse_int(steps_raw, "tau_steps", l3,
                                 minimum=MIN_TAU_STEPS),
            eps_values=tuple(_parse_float(s.strip(), "eps_values", l4)
                             for s in eps_raw.split(",") if s.strip()),
            channels=tuple(s.strip() for s in channels_raw.split(",") if s.strip()),
            quantifiers=tuple(s.strip() for s in quant_raw.split(",") if s.strip()),
        )
        if ext_raw == "track":
            extension = ExtensionSpec(mode="track")
        elif ext_raw == "fixed":
            if bt_raw is None or be_raw is None:
                raise ValidationError("extension = fixed requires bridge_tau "
                                      "and bridge_eps_tilde", ext_line)
            extension = ExtensionSpec(
                mode="fixed",
                bridge=DipolarParams(
                    eps_tilde=_parse_float(be_raw, "bridge_eps_tilde", be_line),
                    tau=_parse_float(bt_raw, "bridge_tau", bt_line, minimum=0.0)))
        elif ext_raw != "none":
            raise ValidationError(f"key extension: expected none|track|fixed, "
                                  f"got {ext_raw!r}", ext_line)
    except GridError as exc:
        # blame the first of the named keys the file sets
        key = next((k for k in exc.keys if k in raw), exc.keys[0])
        line = raw[key][1] if key in raw else None
        raise ValidationError(f"key {key}: {exc}", line) from None

    if "18" in grid.channels and extension is None:
        raise ValidationError("channels include 18 but no extension block given")

    plot_raw, plot_line = get("emit_plot_script", "yes")
    if plot_raw.lower() not in _BOOL_WORDS:
        raise ValidationError(
            f"key emit_plot_script: expected yes/no, got {plot_raw!r}", plot_line)

    prom_raw, prom_line = get("peak_prominence")
    zero_raw, zero_line = get("zero_tol", str(ZERO_TOL))
    jump_raw, jump_line = get("slope_jump_tol", "0.01")
    return Scenario(
        name=name,
        network=network,
        grid=grid,
        mode=mode,
        output_dir=Path(get("output_dir", "out")[0]),
        emit_plot_script=_BOOL_WORDS[plot_raw.lower()],
        extension=extension,
        zero_tol=_parse_float(zero_raw, "zero_tol", zero_line, minimum=0.0),
        peak_prominence=None if prom_raw is None
        else _parse_float(prom_raw, "peak_prominence", prom_line, minimum=0.0),
        slope_jump_tol=_parse_float(jump_raw, "slope_jump_tol", jump_line,
                                    minimum=0.0),
    )


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def render_csv(scenario_name: str, series_list: list[MeasureSeries]) -> str:
    lines = ["scenario,channel,quantifier,eps_tilde,tau,value"]
    for s in series_list:
        for tau, value in s.points:
            lines.append(f"{scenario_name},{s.channel},{s.quantifier},"
                         f"{_fmt(s.eps_tilde)},{_fmt(tau)},{_fmt(value)}")
    return "\n".join(lines) + "\n"


def _series_events(scenario: Scenario, series: MeasureSeries) -> list:
    refine = series_evaluator(scenario.network, series, scenario.mode,
                              scenario.extension)
    events = detect_zero_intervals(series, scenario.zero_tol, refine)
    events.extend(count_peaks(series, scenario.peak_prominence))
    if series.quantifier == "tangle":
        events.extend(detect_sudden_changes(series, scenario.slope_jump_tol))
    return events


def render_events(scenario: Scenario, series_list: list[MeasureSeries]) -> str:
    lines = []
    for s in series_list:
        lines.append(f"# channel={s.channel} quantifier={s.quantifier} "
                     f"eps_tilde={_fmt(s.eps_tilde)}")
        for e in _series_events(scenario, s):
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
        csv_text = render_csv(scenario.name, series_list)
        events_text = render_events(scenario, series_list)
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except Exception as exc:  # compute failure
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    csv_path = scenario.output_dir / f"{scenario.name}.csv"
    csv_path.write_text(csv_text)
    (scenario.output_dir / f"{scenario.name}_events.txt").write_text(events_text)
    if scenario.emit_plot_script:
        script = render_plot_script(scenario, csv_path.name)
        (scenario.output_dir / f"{scenario.name}_plots.gp").write_text(script)
    return EXIT_OK


def _load_scenario(path: str, output_dir: Optional[str],
                   force_mode: Optional[str] = None) -> Scenario:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
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
