"""Spans recorded around the calls the CLI makes, from outside the library.

A traced pass runs the same stages as ``dipnet run`` -- parse_scenario,
sweep, render_csv, render_events and the file write -- one call at a time,
each inside a span. The event detectors are then called once more on the
same series with the refinement callable wrapped in a counter, which gives
the bisection call count and its time. Spans stay in memory until the run
ends and are written out once.
"""

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional

from checks import Tally, check_outputs, output_files
from workloads import ScenarioSpec


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    start: float
    end: float = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        rec = Span(len(self.spans), name, parent, time.perf_counter())
        self.spans.append(rec)
        self._open.append(rec.id)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the children's."""
        out: dict[str, float] = {}
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        for s in self.spans:
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start) - child_time[s.id]
        return out

    def total(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps(
            [{"id": s.id, "name": s.name, "parent": s.parent,
              "start": s.start, "end": s.end} for s in self.spans]) + "\n")


class CountingCallable:
    """Wraps the tau -> value refinement callable; counts calls and time."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, tau: float) -> float:
        t0 = time.perf_counter()
        try:
            return self.fn(tau)
        finally:
            self.seconds += time.perf_counter() - t0
            self.calls += 1


@dataclass
class TraceCounts:
    points: int = 0
    refine_calls: int = 0
    refine_seconds: float = 0.0
    output_bytes: int = 0


def _run_scenario(dip, tracer: Tracer, spec: ScenarioSpec, scn: Path, out: Path):
    cli = dip.cli
    text = scn.read_text()
    with tracer.span("parse_scenario"):
        scenario = cli.parse_scenario(text)
    scenario = replace(scenario, output_dir=out)
    if spec.command == "validate":
        scenario = replace(scenario, mode="validate")
    with tracer.span("sweep"):
        series = dip.scan.sweep(scenario.network, scenario.grid, scenario.mode,
                                scenario.extension)
    with tracer.span("render_csv"):
        csv_text = cli.render_csv(scenario.name, series)
    with tracer.span("render_events"):
        events_text = cli.render_events(scenario, series)
    with tracer.span("write"):
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{scenario.name}.csv"
        csv_path.write_text(csv_text)
        (out / f"{scenario.name}_events.txt").write_text(events_text)
        if scenario.emit_plot_script:
            (out / f"{scenario.name}_plots.gp").write_text(
                cli.render_plot_script(scenario, csv_path.name))
    return scenario, series


def _audit_events(dip, tracer: Tracer, scenario, series_list, counts: TraceCounts) -> list[int]:
    """Call the detectors directly on the swept series, with a counting
    refinement callable; returns the number of events per series."""
    scan = dip.scan
    per_series = []
    with tracer.span("events"):
        for s in series_list:
            refine = CountingCallable(scan.series_evaluator(
                scenario.network, s, scenario.mode, scenario.extension))
            events = scan.detect_zero_intervals(s, scenario.zero_tol, refine)
            events.extend(scan.count_peaks(s, scenario.peak_prominence))
            if s.quantifier == "tangle":
                events.extend(scan.detect_sudden_changes(s, scenario.slope_jump_tol))
            counts.refine_calls += refine.calls
            counts.refine_seconds += refine.seconds
            per_series.append(len(events))
    return per_series


def traced_pass(dip, tracer: Tracer, specs: list[ScenarioSpec], pass_dir: Path,
                counts: TraceCounts, tally: Tally) -> Path:
    """Run one pass stage by stage under spans; check its outputs and the
    directly detected event counts. Returns the output directory."""
    out = pass_dir / "traced"
    done = []
    with tracer.span("pass"):
        for spec in specs:
            with tracer.span("scenario"):
                try:
                    done.append((spec, *_run_scenario(
                        dip, tracer, spec, pass_dir / f"{spec.name}.scn", out)))
                except Exception as exc:  # counted as a failed scenario run
                    tally.record(False, f"traced {spec.name}: raised {exc!r}")
    for spec, scenario, series in done:
        problems, _, event_counts = check_outputs(spec, out)
        counts.points += spec.points
        counts.output_bytes += sum(p.stat().st_size for p in output_files(spec, out)
                                   if p.is_file())
        try:
            audited = _audit_events(dip, tracer, scenario, series, counts)
        except Exception as exc:  # counted as a failed scenario run
            problems.append(f"event detectors raised {exc!r}")
        else:
            if not problems and audited != event_counts:
                problems.append(f"events per series {event_counts}, "
                                f"detectors give {audited}")
        tally.record(not problems, f"traced {spec.name}: " + "; ".join(problems))
    return out
