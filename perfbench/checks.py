"""Correctness checks on the files a benchmark pass leaves behind.

Every check is one operation in the tally: a scenario run (its exit code
and the shape of its CSV, events report and plot script), one spot check
of a CSV row against the dense route, one pinned-digest rerun of a bundled
scenario, or one comparison of traced and untraced outputs.
"""

import hashlib
import json
import math
import random
import re
from pathlib import Path

from workloads import ScenarioSpec

CSV_HEADER = "scenario,channel,quantifier,eps_tilde,tau,value"
EVENT_LINE = re.compile(
    r"(death|birth|peak|sudden_change) tau=(-?\d+\.\d{4}) value=-?\d+\.\d{6}"
    r"( interval_end=(-?\d+\.\d{4}))?")
# quantifier values live in [0, 1]; the library clips at -1e-10
VALUE_RANGE = (-1e-10, 1.0 + 1e-9)
# the CSV prints 12 significant digits: half a unit in the 12th digit
CSV_REL_ROUNDING = 5e-12
MAX_REPORTED_FAILURES = 20


class Tally:
    """Attempted and failed operations, with the first failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < MAX_REPORTED_FAILURES:
                self.failures.append(what)
        return ok


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _series(spec: ScenarioSpec):
    for channel in spec.channels:
        for quantifier in spec.quantifiers:
            for eps in spec.eps_values:
                yield channel, quantifier, eps


def _check_csv(spec: ScenarioSpec, path: Path, problems: list[str]) -> list[float]:
    lines = path.read_text().split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        problems.append(f"{path.name}: bad header or missing final newline")
        return []
    rows = lines[1:-1]
    if len(rows) != spec.points:
        problems.append(f"{path.name}: {len(rows)} rows, expected {spec.points}")
        return []
    taus = spec.taus()
    values = []
    k = 0
    for channel, quantifier, eps in _series(spec):
        prefix = f"{spec.name},{channel},{quantifier},{_fmt(eps)},"
        for tau in taus:
            row = rows[k]
            head, _, value = row.rpartition(",")
            if head != prefix + _fmt(tau):
                problems.append(f"{path.name} row {k + 1}: {row!r} out of grid order")
                return []
            try:
                v = float(value)
            except ValueError:
                v = math.nan
            if not VALUE_RANGE[0] <= v <= VALUE_RANGE[1]:
                problems.append(f"{path.name} row {k + 1}: value {value!r} out of range")
                return []
            values.append(v)
            k += 1
    return values


def _check_events(spec: ScenarioSpec, path: Path, problems: list[str]) -> list[int]:
    """Event lines per series, after checking headers and line syntax."""
    lines = path.read_text().split("\n")
    if lines[-1] != "":
        problems.append(f"{path.name}: missing final newline")
        return []
    headers = [f"# channel={ch} quantifier={q} eps_tilde={_fmt(eps)}"
               for ch, q, eps in _series(spec)]
    counts: list[int] = []
    lo, hi = spec.tau_min - 1e-4, spec.tau_max + 1e-4
    for line in lines[:-1]:
        if line.startswith("#"):
            if len(counts) == len(headers) or line != headers[len(counts)]:
                problems.append(f"{path.name}: unexpected header {line!r}")
                return []
            counts.append(0)
            continue
        m = EVENT_LINE.fullmatch(line)
        if not counts or m is None:
            problems.append(f"{path.name}: malformed event line {line!r}")
            return []
        taus = [float(m.group(2))] + ([float(m.group(4))] if m.group(4) else [])
        if not all(lo <= t <= hi for t in taus):
            problems.append(f"{path.name}: event outside the tau window: {line!r}")
            return []
        counts[-1] += 1
    if len(counts) != len(headers):
        problems.append(f"{path.name}: {len(counts)} series, expected {len(headers)}")
    return counts


def output_files(spec: ScenarioSpec, out: Path) -> list[Path]:
    return [out / f"{spec.name}.csv", out / f"{spec.name}_events.txt",
            out / f"{spec.name}_plots.gp"]


def check_outputs(spec: ScenarioSpec, out: Path) -> tuple[list[str], list[float], list[int]]:
    """Problems found, the CSV values in grid order, and the event count of
    each series."""
    problems: list[str] = []
    csv_path, events_path, plot_path = output_files(spec, out)
    for path in (csv_path, events_path, plot_path):
        if not path.is_file():
            problems.append(f"{path.name} missing")
    if problems:
        return problems, [], []
    values = _check_csv(spec, csv_path, problems)
    counts = _check_events(spec, events_path, problems)
    if not plot_path.read_text().startswith("# gnuplot script"):
        problems.append(f"{plot_path.name}: not a gnuplot script")
    return problems, values, counts


def spot_check(dip, spec: ScenarioSpec, values: list[float], rng: random.Random,
               rows: int, tally: Tally) -> None:
    """Re-evaluate a seeded sample of CSV rows on the dense route; each row
    must agree within ORACLE_TOL plus the CSV's rounding."""
    DipolarParams = dip.netmodel.DipolarParams
    cfg = dip.netmodel.NetworkConfig(spec.kind, spec.werner_x1, spec.werner_x2)
    ext = None
    if spec.extension is not None:
        bridge = None
        if spec.extension[0] == "fixed":
            bridge = DipolarParams(eps_tilde=spec.extension[2], tau=spec.extension[1])
        ext = dip.scan.ExtensionSpec(mode=spec.extension[0], bridge=bridge)
    series = list(_series(spec))
    taus = spec.taus()
    for k in rng.sample(range(len(values)), min(rows, len(values))):
        channel, quantifier, eps = series[k // spec.tau_steps]
        tau = float(taus[k % spec.tau_steps])
        try:
            dense = dip.scan.evaluate_point(
                cfg, DipolarParams(eps_tilde=eps, tau=tau), channel, quantifier,
                mode="dense", extension=ext)
        except Exception as exc:  # an operation that fails is counted, not fatal
            tally.record(False, f"{spec.name} row {k + 1}: dense route raised {exc!r}")
            continue
        tol = dip.qmat.ORACLE_TOL + CSV_REL_ROUNDING * abs(dense)
        tally.record(abs(values[k] - dense) <= tol,
                     f"{spec.name} row {k + 1}: csv {values[k]!r} vs dense {dense!r}")


def digest_files(paths: list[Path]) -> str:
    """SHA-256 over each file's name and bytes, in the order given."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


def load_pinned(path: Path) -> dict:
    return json.loads(path.read_text())["scenarios"]


def pinned_digests(cli, scenario_path: Path, out: Path) -> dict:
    """Run a bundled scenario through the CLI and hash its two outputs."""
    code = cli.main(["run", str(scenario_path), "--output-dir", str(out)])
    name = scenario_path.stem
    digests = {"exit": code}
    for key, filename in (("csv", f"{name}.csv"), ("events", f"{name}_events.txt")):
        path = out / filename
        digests[key] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
    return digests


def check_pinned(cli, scenario_path: Path, out: Path, pinned: dict,
                 tally: Tally) -> bool:
    name = scenario_path.stem
    try:
        got = pinned_digests(cli, scenario_path, out)
    except Exception as exc:  # an operation that fails is counted, not fatal
        return tally.record(False, f"pinned {name}: raised {exc!r}")
    want = pinned.get(name)
    ok = want is not None and got == {"exit": 0, **want}
    return tally.record(ok, f"pinned {name}: got {got}, pinned {want}")
