"""dipnet benchmark: seeded scenario workloads driven through the public CLI.

    python3 perfbench/run.py --workload two_node_closed --seed 1 --seconds 30 --trace 0

Run from the repository root; the library is imported from ``src/`` next to
this directory, never from an installed copy. The seed generates one pass:
a fixed-size set of scenario files. One process runs the pass in a closed
loop -- each scenario handed to
``dipnet.cli.main(["run" | "validate", file, "--output-dir", dir])`` in turn
-- until ``--seconds`` have gone by. The benchmark starts no threads of its
own; numpy's BLAS keeps its default.

With ``--trace 0`` it reports the end-to-end metrics: the median pass wall
time ``run_wall_s``, ``points_per_s``, the fresh-interpreter ``setup_s`` and
``peak_rss_mb``. With ``--trace 1`` it runs the pass once more stage by stage
under spans and times each layer on a seeded point set. Either way it
checks every output (exit codes, CSV and events structure, dense-route spot
checks of CSV rows, byte-identical reruns, the pinned digest of one bundled
scenario), prints a human-readable summary with the error rate, a
``detail`` line (environment, output digest, failures) and, last, one JSON
result line. The exit code is 0 when every check passed, 1 when one failed,
2 when the library or the bundled scenarios are not there.
"""

import argparse
import importlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import layers
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
PINNED = HERE / "pinned_digests.json"
WORK = ROOT / ".perfbench"


MODULES = ("qmat", "netmodel", "closedform", "measures", "scan", "cli")
SETUP_RUNS = 9   # fresh interpreters timed for setup_s; the first also runs the pass
MIN_RUNS = 3     # timed runs of the pass, however short the time
SPOT_ROWS = 2    # CSV rows per scenario re-evaluated on the dense route


class SetupError(Exception):
    """The checkout lacks what the benchmark needs; no result is printed."""


def load_dipnet():
    if not (SRC / "dipnet" / "__init__.py").is_file():
        raise SetupError(f"no dipnet package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    dipnet = importlib.import_module("dipnet")
    if not Path(dipnet.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported dipnet from {dipnet.__file__}, not from {SRC}")
    for name in MODULES:
        importlib.import_module(f"dipnet.{name}")
    return dipnet


def environment(seed: int) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count(),
        "cpu": cpu,
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def tail(samples: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it, its
    value and the sample count; None with fewer than eleven samples."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 11
    return {"percentile": 100.0 * (k + 1) / n, "value": sorted(samples)[k],
            "samples": n}


class Runner:
    """One benchmark run of one workload and seed."""

    def __init__(self, dip, workload: str, seed: int, work: Path,
                 sizes: workloads.Sizes = workloads.FULL):
        self.dip = dip
        self.workload = workload
        self.seed = seed
        self.work = work
        self.specs = workloads.make_pass(workload, seed, sizes)
        self.tally = checks.Tally()
        self.digest: str | None = None
        self.walls: list[float] = []
        self.setups: list[float] = []
        self.rss_mb = float("nan")

    def scenario_dir(self, name: str, specs) -> Path:
        d = self.work / name
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        for spec in specs:
            (d / f"{spec.name}.scn").write_text(spec.text())
        return d

    def run_pass(self, specs=None) -> float:
        """One timed CLI pass, then its checks (untimed); returns the wall
        time. The first run of the pass gets every check and a rerun must
        reproduce its output bytes; `specs` runs other scenarios (the
        warm-up) instead, with every check."""
        warmup = specs is not None
        specs = specs if warmup else self.specs
        d = self.scenario_dir("pass", specs)
        out = d / "out"
        argvs = [[s.command, str(d / f"{s.name}.scn"), "--output-dir", str(out)]
                 for s in specs]
        codes = []
        t0 = time.perf_counter()
        for argv in argvs:
            try:
                codes.append(self.dip.cli.main(argv))
            except Exception as exc:  # counted as a failed scenario run
                codes.append(repr(exc))
        wall = time.perf_counter() - t0
        if warmup or self.digest is None:
            digest = self.check_outputs(specs, codes, out)
            if not warmup:
                self.digest = digest
        else:
            files = [f for s in specs for f in checks.output_files(s, out)]
            self.tally.record(codes == [0] * len(specs)
                              and checks.digest_files(files) == self.digest,
                              f"rerun: exit codes {codes} or output bytes differ")
        shutil.rmtree(d)
        return wall

    def check_outputs(self, specs, codes, out: Path) -> str:
        """Check every scenario's outputs and spot-check seeded CSV rows;
        returns the digest of all output files."""
        rng = random.Random(f"spot/{self.workload}/{self.seed}")
        files = []
        for spec, code in zip(specs, codes):
            problems, values, _ = (checks.check_outputs(spec, out) if code == 0
                                   else ([f"exit {code}"], [], []))
            if self.tally.record(not problems, f"{spec.name}: " + "; ".join(problems)):
                checks.spot_check(self.dip, spec, values, rng, SPOT_ROWS, self.tally)
            files += checks.output_files(spec, out)
        return checks.digest_files(files)

    def probe(self, i: int) -> None:
        """One fresh interpreter: it imports dipnet and parses the pass's
        scenarios (a setup_s sample) and, for the first probe, runs them
        through the CLI (the peak_rss_mb sample)."""
        d = self.work / "probe"
        if not d.is_dir():
            d = self.scenario_dir("probe", self.specs)
        jobs = [f"{s.command}:{d / f'{s.name}.scn'}" for s in self.specs]
        out = str(d / "out") if i == 0 else "-"
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "fresh.py"), str(SRC), out, *jobs],
                capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            self.tally.record(False, "fresh interpreter: timed out")
            return
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
            ok = proc.returncode == 0 and all(c == 0 for c in report["codes"])
        except (IndexError, ValueError, KeyError):
            report, ok = None, False
        if self.tally.record(ok, f"fresh interpreter: exit {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}"):
            self.setups.append(report["setup_s"])
            if i == 0:
                self.rss_mb = report["maxrss_kb"] / 1024.0

    def check_pinned(self) -> str:
        names = workloads.PINNED_FOR[self.workload]
        name = names[self.seed % len(names)]
        out = self.work / "pinned"
        shutil.rmtree(out, ignore_errors=True)
        checks.check_pinned(self.dip.cli, SCENARIOS / f"{name}.scn", out,
                            checks.load_pinned(PINNED), self.tally)
        return name

    def warm_up(self) -> None:
        self.run_pass(workloads.make_part(self.workload, self.seed, -1, workloads.TINY))

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """Untraced run: the pass runs again and again until `seconds` have
        gone by, with the fresh-interpreter probes spread over the time."""
        self.warm_up()
        start = time.perf_counter()
        probes = 0
        while True:
            elapsed = time.perf_counter() - start
            if probes < SETUP_RUNS and elapsed >= probes * seconds / SETUP_RUNS:
                self.probe(probes)
                probes += 1
            elif len(self.walls) < MIN_RUNS or elapsed < seconds:
                self.walls.append(self.run_pass())
            else:
                break
        run_wall = statistics.median(self.walls)
        points = sum(s.points for s in self.specs)
        metrics = {
            "run_wall_s": {"value": run_wall, "unit": "s"},
            "points_per_s": {"value": points / run_wall, "unit": "1/s"},
            "setup_s": {"value": statistics.median(self.setups) if self.setups
                        else float("nan"), "unit": "s"},
            "peak_rss_mb": {"value": self.rss_mb, "unit": "MB"},
        }
        detail = {"runs": len(self.walls), "scenarios_per_pass": len(self.specs),
                  "points_per_pass": points, "run_wall_s_tail": tail(self.walls),
                  "walls_s": self.walls,
                  "setup_probes": len(self.setups)}
        return metrics, detail

    def measure_traced(self, seconds: float) -> tuple[dict, dict]:
        """Traced run: the pass twice untraced (the second, warm run is the
        reference for the tracing overhead), then once stage by stage under
        spans, then per-function timings for the rest of `seconds`."""
        start = time.perf_counter()
        self.warm_up()
        self.run_pass()
        untraced = self.run_pass()
        tracer = tracing.Tracer()
        counts = tracing.TraceCounts()
        d = self.scenario_dir("traced", self.specs)
        out = tracing.traced_pass(self.dip, tracer, self.specs, d, counts, self.tally)
        files = [f for s in self.specs for f in checks.output_files(s, out)]
        self.tally.record(checks.digest_files(files) == self.digest,
                          "traced outputs differ from the CLI's")
        shutil.rmtree(d)
        points = layers.point_set(self.dip, self.workload, self.seed)
        budget = max(0.0, seconds - (time.perf_counter() - start))
        per_fn = layers.layer_metrics(self.dip, points, budget)

        selfs = tracer.self_times()
        traced = tracer.total("pass")
        metrics = {name: {"value": v, "unit": "ms" if name.endswith("_ms") else "us"}
                   for name, v in per_fn.items()}
        stage = {
            "scan.sweep_s": selfs.get("sweep", 0.0),
            "scan.events_s": selfs.get("events", 0.0),
            "cli.parse_s": selfs.get("parse_scenario", 0.0),
            "cli.render_csv_s": selfs.get("render_csv", 0.0),
            "cli.render_events_s": selfs.get("render_events", 0.0),
            "cli.write_s": selfs.get("write", 0.0),
            "trace.overhead_s": traced - untraced,
        }
        metrics.update({k: {"value": v, "unit": "s"} for k, v in stage.items()})
        metrics.update({
            "scan.sweep_us_per_point": {
                "value": 1e6 * stage["scan.sweep_s"] / max(counts.points, 1),
                "unit": "us"},
            "scan.points": {"value": counts.points, "unit": "count"},
            "scan.refine_calls": {"value": counts.refine_calls, "unit": "count"},
            "scan.refine_us_per_call": {
                "value": 1e6 * counts.refine_seconds / max(counts.refine_calls, 1),
                "unit": "us"},
            "cli.output_bytes": {"value": counts.output_bytes, "unit": "bytes"},
        })
        spans_path = WORK / f"trace-{self.workload}-{self.seed}.json"
        tracer.dump(spans_path)
        detail = {"spans": len(tracer.spans),
                  "spans_file": str(spans_path.relative_to(ROOT)),
                  "traced_s": traced, "untraced_s": untraced,
                  "points_per_pass": counts.points}
        return metrics, detail


def run_benchmark(dip, workload: str, seed: int, seconds: float, trace: bool,
                  sizes: workloads.Sizes = workloads.FULL, pinned: bool = True) -> dict:
    """One run; returns the result and its details (not yet printed).
    `sizes` and `pinned` let the smoke test run a tiny grid and skip the
    bundled-scenario rerun."""
    WORK.mkdir(exist_ok=True)
    work = WORK / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        runner = Runner(dip, workload, seed, work, sizes)
        if trace:
            metrics, detail = runner.measure_traced(seconds)
        else:
            metrics, detail = runner.measure(seconds)
        detail["pinned"] = runner.check_pinned() if pinned else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tally = runner.tally
    detail.update({
        "workload": workload, "trace": int(trace),
        "environment": environment(seed),
        "output_sha256": runner.digest,
        "error_rate": tally.failed / tally.attempted,
        "failures": tally.failures,
    })
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed, "metrics": metrics, "detail": detail}


def summary(result: dict) -> list[str]:
    d = result["detail"]
    lines = [f"perfbench {d['workload']} seed={d['environment']['seed']} "
             f"trace={d['trace']}"]
    for name, m in result["metrics"].items():
        lines.append(f"  {name:36s} {m['value']:14.6g} {m['unit']}")
    if "runs" in d:
        t = d["run_wall_s_tail"]
        lines.append(f"  run_wall_s: median of {d['runs']} runs of the pass "
                     f"({d['scenarios_per_pass']} scenarios, {d['points_per_pass']} "
                     "points); " + (f"p{t['percentile']:.0f} {t['value']:.6g} s"
                                    if t else "too few runs for a tail percentile"))
    lines.append(f"  error_rate {d['error_rate']:.6g} "
                 f"({result['failed']} failed of {result['attempted']} operations)")
    lines.append(f"  output_sha256 {d['output_sha256']}")
    lines += [f"  FAILED: {f}" for f in d["failures"]]
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        dip = load_dipnet()
        if not PINNED.is_file() or not SCENARIOS.is_dir():
            raise SetupError("pinned digests or bundled scenarios missing")
    except (SetupError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    result = run_benchmark(dip, args.workload, args.seed, args.seconds,
                           bool(args.trace))
    print("\n".join(summary(result)))
    print(json.dumps({"detail": result["detail"]}))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed",
                                              "metrics")}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
