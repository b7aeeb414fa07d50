import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import dipnet.scan
from dipnet.cli import (EXIT_OK, EXIT_ORACLE, EXIT_USAGE, ParseError,
                        Scenario, UnknownKey, ValidationError, main,
                        parse_scenario, render_csv, run)
from dipnet.closedform import OracleMismatch

REPO = Path(__file__).resolve().parent.parent
SCENARIOS_DIR = REPO / "scenarios"
TYPO_LEDGER_GOLDEN = Path(__file__).resolve().parent / "data" / "typo_ledger.txt"

MINIMAL = """
name = tiny
network = MM
tau_max = 1.0
tau_steps = 5
eps_values = 0,0.1
channels = 12
quantifiers = negativity,naqc
"""


def test_parse_minimal_defaults():
    s = parse_scenario("name = t\nnetwork = MM\n")
    assert s.name == "t"
    assert s.grid.tau_steps == 1001
    assert s.grid.eps_values == (-0.2, 0.0, 0.1, 0.3)
    assert s.mode == "closed_form"
    assert s.extension is None


def test_parse_comments_and_lists():
    s = parse_scenario("# header\nname = x  # trailing\nnetwork = WW\n"
                       "eps_values = -0.2, 0 , 0.3\n")
    assert s.grid.eps_values == (-0.2, 0.0, 0.3)


def test_parse_rejects_bad_werner():
    with pytest.raises(ValidationError) as err:
        parse_scenario("name = x\nnetwork = WW\nwerner_x1 = 1.5\n")
    assert "werner_x1" in str(err.value)


def test_parse_rejects_channel_18_without_extension():
    with pytest.raises(ValidationError):
        parse_scenario("name = x\nnetwork = MM\nchannels = 18\n"
                       "quantifiers = negativity\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(UnknownKey) as err:
        parse_scenario("name = x\nnetwork = MM\nbogus = 1\n")
    assert "line 3" in str(err.value)


def test_parse_rejects_malformed_line():
    with pytest.raises(ParseError):
        parse_scenario("name = x\nnetwork MM\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ParseError):
        parse_scenario("name = x\nname = y\nnetwork = MM\n")


def test_parse_fixed_extension():
    s = parse_scenario("name = x\nnetwork = MM\nchannels = 18\n"
                       "quantifiers = negativity\nextension = fixed\n"
                       "bridge_tau = 0.5\nbridge_eps_tilde = 0.1\n")
    assert s.extension.mode == "fixed"
    assert s.extension.bridge.tau == 0.5


def test_run_writes_outputs(tmp_path):
    s = parse_scenario(MINIMAL + f"output_dir = {tmp_path}\n")
    assert run(s) == EXIT_OK
    csv = (tmp_path / "tiny.csv").read_text()
    lines = csv.splitlines()
    assert lines[0] == "scenario,channel,quantifier,eps_tilde,tau,value"
    assert len(lines) == 1 + 5 * 2 * 2  # taus x eps x quantifiers
    # tau = 0 rows carry the maximal values for both quantifiers
    zero_rows = [ln for ln in lines[1:] if ln.split(",")[4] == "0"]
    assert zero_rows and all(ln.split(",")[5] == "1" for ln in zero_rows)
    assert (tmp_path / "tiny_events.txt").exists()
    assert (tmp_path / "tiny_plots.gp").exists()


def test_run_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        s = parse_scenario(MINIMAL + f"output_dir = {out}\n")
        assert run(s) == EXIT_OK
    assert (a / "tiny.csv").read_bytes() == (b / "tiny.csv").read_bytes()


def test_events_report_format(tmp_path):
    text = (MINIMAL.replace("quantifiers = negativity,naqc",
                            "quantifiers = negativity")
            .replace("tau_max = 1.0", "tau_max = 4.0")
            .replace("tau_steps = 5", "tau_steps = 201")
            .replace("eps_values = 0,0.1", "eps_values = 0.3"))
    s = parse_scenario(text + f"output_dir = {tmp_path}\n")
    assert run(s) == EXIT_OK
    report = (tmp_path / "tiny_events.txt").read_text().splitlines()
    assert report[0].startswith("# channel=12 quantifier=negativity")
    import re
    pat = re.compile(r"^(death|birth|peak|sudden_change) tau=\d+\.\d{4} "
                     r"value=\d+\.\d{6}( interval_end=\d+\.\d{4})?$")
    body = [ln for ln in report if not ln.startswith("#")]
    assert body, "expected events for the eps=0.3 negativity series"
    for ln in body:
        assert pat.match(ln), ln


def test_no_plot_script_when_disabled(tmp_path):
    s = parse_scenario(MINIMAL + f"output_dir = {tmp_path}\n"
                       "emit_plot_script = no\n")
    assert run(s) == EXIT_OK
    assert not (tmp_path / "tiny_plots.gp").exists()


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("network MM\n")
    assert main(["run", str(bad)]) == EXIT_USAGE
    assert main(["run", str(tmp_path / "missing.scn")]) == EXIT_USAGE
    good = tmp_path / "good.scn"
    good.write_text(MINIMAL)
    assert main(["run", str(good),
                 "--output-dir", str(tmp_path / "out")]) == EXIT_OK
    assert (tmp_path / "out" / "tiny.csv").exists()


def test_main_typo_ledger(capsys):
    assert main(["typo-ledger"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "channel row col printed oracle cause" in out
    assert out == TYPO_LEDGER_GOLDEN.read_text()


@pytest.mark.parametrize("module", ["dipnet", "dipnet.cli"])
def test_python_m_entry_points(module):
    src = str(Path(dipnet.scan.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", module, "typo-ledger"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout.startswith("# Closed-form repair report.")
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("line", [
    "tau_steps = 2", "eps_values = 0,nan", "eps_values = inf",
    "tau_max = inf", "tau_min = -1", "zero_tol = nan",
    "peak_prominence = -1", "slope_jump_tol = -0.5",
    "extension = fixed\nbridge_eps_tilde = 0.1\nbridge_tau = -1",
    "extension = fixed\nbridge_tau = 1\nbridge_eps_tilde = nan",
    "extension = fixed\nbridge_eps_tilde = 0.1\nbridge_tau = 1e308",
    "extension = fixed\nbridge_tau = 1\nbridge_eps_tilde = 1e308",
], ids=lambda line: line.rsplit("\n", 1)[-1])
def test_main_rejects_bad_values_with_line(tmp_path, capsys, line):
    # the offending assignment is always the last line of the file
    text = "name = bad\nnetwork = MM\n" + line + "\n"
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert main(["run", str(bad), "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert f"line {len(text.splitlines())}:" in capsys.readouterr().err


@pytest.mark.parametrize("lines, bad_line", [
    (["tau_min = 5", "tau_max = 1"], 4),
    (["tau_max = 1", "tau_min = 5"], 3),
    (["tau_min = 20"], 3),  # tau_max left at its default: blame tau_min
    (["channels = 12,99"], 3),
    (["channels = 123", "quantifiers = negativity"], 3),
    (["quantifiers = negativity", "channels = 14,124"], 4),
    (["quantifiers = negativity,bogus"], 3),
    (["eps_values = ,"], 3),
    (["channels = ,"], 3),
    (["quantifiers = ,", "tau_max = 2"], 3),
    # propagator phases kappa * tau_max that overflow
    (["tau_max = 1e308"], 3),
    (["tau_max = 1e10", "eps_values = 1e300"], 4),
    # tau points that float resolution cannot space evenly
    (["tau_min = 1e16", "tau_max = 1.0000000000000002e16", "tau_steps = 5"],
     5),
    (["tau_max = 5e-324", "tau_steps = 12"], 4),
    (["channels = 123", "quantifiers = tangle", "tau_min = 1e16",
      "tau_max = 1.00000000000001e16", "tau_steps = 7"], 7),
], ids=lambda v: "|".join(v) if isinstance(v, list) else str(v))
def test_main_reports_grid_errors_with_line(tmp_path, capsys, lines, bad_line):
    text = "name = bad\nnetwork = MM\n" + "\n".join(lines) + "\n"
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert main(["run", str(bad), "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert f"line {bad_line}:" in capsys.readouterr().err


def test_main_accepts_two_node_zoom_grid(tmp_path):
    # the 1000 steps of this zoom differ by one ulp of 10, a relative
    # spread of 1.8e-9: strictly increasing, and only tangle series (for
    # their sudden changes) need even steps
    zoom = tmp_path / "zoom.scn"
    zoom.write_text("name = zoom\nnetwork = MM\ntau_min = 9.999\n"
                    "tau_max = 10\ntau_steps = 1001\nchannels = 12\n")
    assert main(["run", str(zoom), "--output-dir", str(tmp_path)]) == EXIT_OK


def test_validate_subcommand_forces_mode(tmp_path):
    good = tmp_path / "good.scn"
    good.write_text(MINIMAL)
    assert main(["validate", str(good),
                 "--output-dir", str(tmp_path / "v")]) == EXIT_OK


def test_oracle_mismatch_exit_code(tmp_path, monkeypatch):
    def boom(*args, **kwargs):
        raise OracleMismatch("12", (0, 0), 1.0, 0.0)

    monkeypatch.setattr(dipnet.scan, "require_oracle_agreement", boom)
    s = parse_scenario(MINIMAL + f"output_dir = {tmp_path}\nmode = validate\n")
    assert run(s) == EXIT_ORACLE


def test_render_csv_significant_digits():
    from dipnet.scan import MeasureSeries
    s = MeasureSeries(channel="12", quantifier="negativity", eps_tilde=0.1,
                      points=((0.123456789012345, 0.987654321098765),))
    text = render_csv("x", [s])
    assert "0.123456789012" in text and "0.987654321099" in text


@pytest.mark.parametrize("name", [f"fig{k}" for k in range(2, 11)])
def test_bundled_scenarios_match_pinned_digests(tmp_path, name):
    # fig2-fig8 cover the two-node negativity/NAQC surfaces, fig9 the
    # three-node assembly and fig10 the extension's channel 18
    pins = json.loads((REPO / "perfbench" / "pinned_digests.json").read_text())
    assert main(["run", str(SCENARIOS_DIR / f"{name}.scn"),
                 "--output-dir", str(tmp_path)]) == EXIT_OK
    for kind, path in (("csv", tmp_path / f"{name}.csv"),
                       ("events", tmp_path / f"{name}_events.txt")):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == pins["scenarios"][name][kind], kind


@pytest.mark.parametrize("path", sorted(SCENARIOS_DIR.glob("fig*.scn")),
                         ids=lambda p: p.stem)
def test_bundled_scenarios_parse(path):
    s = parse_scenario(path.read_text())
    assert s.name == path.stem
    if "18" in s.grid.channels:
        assert s.extension is not None


def test_bundled_fig9_is_tangle_scenario():
    s = parse_scenario((SCENARIOS_DIR / "fig9.scn").read_text())
    assert s.network.kind == "MM"
    assert s.grid.channels == ("123",)
    assert s.grid.quantifiers == ("tangle",)


def test_bundled_fig2_starts_at_maximum(tmp_path):
    from dataclasses import replace
    s = parse_scenario((SCENARIOS_DIR / "fig2.scn").read_text())
    # thin the tau grid; the tau = 0 anchor is what the scenario must show
    s = replace(s, grid=replace(s.grid, tau_steps=11),
                output_dir=tmp_path, emit_plot_script=False)
    assert run(s) == EXIT_OK
    rows = (tmp_path / "fig2.csv").read_text().splitlines()[1:]
    zero_rows = [r for r in rows if r.split(",")[4] == "0"]
    assert len(zero_rows) == 2 * len(s.grid.eps_values)
    assert all(r.split(",")[5] == "1" for r in zero_rows)


def test_bundled_fig9_death_locations(tmp_path):
    # the tangle vanishes exactly at tau = 0 and, for eps = 0, at the full
    # revivals tau = k*pi; no other death intervals appear
    from dataclasses import replace
    s = parse_scenario((SCENARIOS_DIR / "fig9.scn").read_text())
    s = replace(s, output_dir=tmp_path, emit_plot_script=False)
    assert run(s) == EXIT_OK
    report = (tmp_path / "fig9_events.txt").read_text().splitlines()
    eps = None
    for line in report:
        if line.startswith("#"):
            eps = float(line.rsplit("eps_tilde=", 1)[1])
            continue
        if not line.startswith("death"):
            continue
        tau = float(line.split()[1].split("=")[1])
        near_revival = abs(tau - np.pi * round(tau / np.pi)) < 0.05
        assert tau < 0.05 or (eps == 0.0 and near_revival), (eps, line)
