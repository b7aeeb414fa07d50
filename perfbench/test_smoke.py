"""Smoke test of the benchmark itself, on a tiny grid: every metric named in
BENCHMARK.json is emitted, clean outputs pass the checks and corrupted ones
fail them. No timing is asserted.

    python3 -m pytest perfbench/test_smoke.py
"""

import json

import pytest

import checks
import run
import workloads

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def dip():
    return run.load_dipnet()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace, key", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_emitted(dip, workload, trace, key):
    result = run.run_benchmark(dip, workload, seed=3, seconds=0.0, trace=trace,
                               sizes=workloads.TINY, pinned=False)
    assert result["correct"], result["detail"]["failures"]
    assert result["attempted"] > 0 and result["failed"] == 0
    want = {m["name"]: m["unit"] for m in BENCH[key]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == want
    assert len(result["detail"]["output_sha256"]) == 64
    assert "\n".join(run.summary(result))


def test_same_seed_same_scenarios():
    for name in workloads.WORKLOADS:
        a = [s.text() for s in workloads.make_pass(name, 7)]
        assert a == [s.text() for s in workloads.make_pass(name, 7)]
        assert a != [s.text() for s in workloads.make_pass(name, 8)]
        assert len({s.name for s in workloads.make_pass(name, 7)}) == len(a)


def _clean_pass(dip, tmp_path):
    runner = run.Runner(dip, "two_node_closed", 5, tmp_path, workloads.TINY)
    specs = runner.specs
    d = runner.scenario_dir("pass", specs)
    out = d / "out"
    for s in specs:
        assert dip.cli.main([s.command, str(d / f"{s.name}.scn"),
                             "--output-dir", str(out)]) == 0
    return runner, specs, out


def test_clean_outputs_pass(dip, tmp_path):
    runner, specs, out = _clean_pass(dip, tmp_path)
    runner.check_outputs(specs, [0] * len(specs), out)
    assert runner.tally.failed == 0
    assert runner.tally.attempted == len(specs) * (1 + run.SPOT_ROWS)


def _nudge_values(text):
    lines = text.split("\n")
    for i in range(1, len(lines) - 1):
        head, _, value = lines[i].rpartition(",")
        lines[i] = f"{head},{float(value) + 1e-6:.12g}"
    return "\n".join(lines)


def _drop_row(text):
    lines = text.split("\n")
    return "\n".join(lines[:2] + lines[3:])


CORRUPTIONS = {
    "csv values nudged": (".csv", _nudge_values),
    "csv row dropped": (".csv", _drop_row),
    "csv value out of range": (".csv", lambda t: t[:-1].rsplit(",", 1)[0] + ",1.5\n"),
    "events header changed": ("_events.txt", lambda t: t.replace("eps_tilde=", "eps_tilde=9", 1)),
    "events line garbled": ("_events.txt", lambda t: t + "peak tau=oops\n"),
    "plot script emptied": ("_plots.gp", lambda t: ""),
}


@pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
def test_corrupted_output_fails(dip, tmp_path, corruption):
    runner, specs, out = _clean_pass(dip, tmp_path)
    suffix, corrupt = CORRUPTIONS[corruption]
    path = out / f"{specs[0].name}{suffix}"
    path.write_text(corrupt(path.read_text()))
    runner.check_outputs(specs, [0] * len(specs), out)
    assert runner.tally.failed > 0


def test_failed_exit_code_fails(dip, tmp_path):
    runner, specs, out = _clean_pass(dip, tmp_path)
    runner.check_outputs(specs, [3] + [0] * (len(specs) - 1), out)
    assert runner.tally.failed == 1


def test_pinned_digest(dip, tmp_path):
    pinned = checks.load_pinned(run.PINNED)
    assert sorted(pinned) == sorted(p.stem for p in run.SCENARIOS.glob("*.scn"))
    fig5 = run.SCENARIOS / "fig5.scn"
    tally = checks.Tally()
    assert checks.check_pinned(dip.cli, fig5, tmp_path / "a", pinned, tally)
    wrong = {"fig5": {**pinned["fig5"], "csv": "0" * 64}}
    assert not checks.check_pinned(dip.cli, fig5, tmp_path / "b", wrong, tally)
    assert (tally.attempted, tally.failed) == (2, 1)
