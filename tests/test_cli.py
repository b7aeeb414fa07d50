import dataclasses
import hashlib
import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dipnet.cli
import dipnet.scan
from dipnet.cli import (_KNOWN_KEYS, _PARTS, _RENAMED, EXIT_COMPUTE, EXIT_OK,
                        EXIT_ORACLE, EXIT_USAGE, Scenario, ScenarioError,
                        main, parse_scenario, render_csv, render_events, run)
from dipnet.closedform import OracleMismatch
from dipnet.netmodel import DipolarParams, FieldError, NetworkConfig
from dipnet.scan import (MODES, QUANTIFIER_TABLE, ExtensionSpec, ScanGrid,
                         sweep)

REPO = Path(__file__).resolve().parent.parent
SCENARIOS_DIR = REPO / "scenarios"
TYPO_LEDGER_GOLDEN = Path(__file__).resolve().parent / "data" / "typo_ledger.txt"
THREE_MODE_PINS = (Path(__file__).resolve().parent / "data"
                   / "three_mode_outputs.sha256")

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
    # the dataclasses are the one source of defaults
    assert s == Scenario(name="t", network=NetworkConfig("MM"), grid=ScanGrid())


def test_readme_key_table_matches_the_dataclasses():
    # every key is listed, and each listed default is the one a file that
    # leaves the key out gets
    rows = re.findall(r"^\| `(\w+)` \|[^|]*\| ([^|]*) \|",
                      (REPO / "README.md").read_text(), re.MULTILINE)
    assert {key for key, _ in rows} == _KNOWN_KEYS
    base = "name = t\nnetwork = MM\n"
    for key, default in rows:
        if default.startswith("`"):
            text = f"{base}{key} = {default.strip('`')}\n"
            assert parse_scenario(text) == parse_scenario(base), key
    # and every key of the parser's one table sets a field of its part
    for cls, keys in _PARTS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        for key in keys:
            assert _RENAMED.get(key, key) in fields, (cls.__name__, key)


def test_readme_library_example_runs():
    # the python block under README's "## Library" documents the top-level
    # API; run it as a reader would, in a fresh interpreter
    readme = (REPO / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```$", library,
                     re.MULTILINE | re.DOTALL)[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr


def test_parse_comments_and_lists():
    s = parse_scenario("# header\nname = x  # trailing\nnetwork = WW\n"
                       "eps_values = -0.2, 0 , 0.3\n")
    assert s.grid.eps_values == (-0.2, 0.0, 0.3)


def test_parse_rejects_bad_werner():
    with pytest.raises(ScenarioError, match=r"^line 3: key werner_x1: werner "
                       r"parameter 1\.5 outside \[0, 1\]$"):
        parse_scenario("name = x\nnetwork = WW\nwerner_x1 = 1.5\n")


def test_parse_rejects_channel_18_without_extension():
    with pytest.raises(ScenarioError, match=r"^line 3: key channels: "
                       r"channel 18 needs an extension$"):
        parse_scenario("name = x\nnetwork = MM\nchannels = 18\n"
                       "quantifiers = negativity\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ScenarioError, match=r"^line 3: unknown key 'bogus'$"):
        parse_scenario("name = x\nnetwork = MM\nbogus = 1\n")


def test_parse_rejects_malformed_line():
    with pytest.raises(ScenarioError, match=r"^line 2: expected 'key = "
                       r"value', got 'network MM'$"):
        parse_scenario("name = x\nnetwork MM\n")


def test_parse_rejects_duplicate_key():
    with pytest.raises(ScenarioError, match=r"^line 2: duplicate key 'name'$"):
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


def test_main_undecodable_scenario_exits_usage_with_line(tmp_path, capsys):
    # a byte that is not UTF-8 is a scenario error on its line, not a crash
    bad = tmp_path / "bad.scn"
    bad.write_bytes(MINIMAL.encode() + b"# caf\xff\n")
    bad_line = MINIMAL.count("\n") + 1
    assert main(["run", str(bad), "--output-dir", str(tmp_path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert f"line {bad_line}:" in err
    assert "UTF-8" in err
    assert list(tmp_path.iterdir()) == [bad]


def test_main_reads_scenario_with_byte_order_mark(tmp_path):
    # some editors save UTF-8 with a leading byte-order mark
    text = MINIMAL.lstrip()
    plain, marked = tmp_path / "plain.scn", tmp_path / "marked.scn"
    plain.write_text(text)
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
    for path in (plain, marked):
        assert main(["run", str(path),
                     "--output-dir", str(tmp_path / path.stem)]) == EXIT_OK
    assert ((tmp_path / "marked" / "tiny.csv").read_bytes()
            == (tmp_path / "plain" / "tiny.csv").read_bytes())


def test_main_write_failure_exits_compute(tmp_path, capsys):
    # an output path taken by a directory is a write failure, not a crash
    good = tmp_path / "good.scn"
    good.write_text(MINIMAL)
    (tmp_path / "out" / "tiny.csv").mkdir(parents=True)
    assert main(["run", str(good),
                 "--output-dir", str(tmp_path / "out")]) == EXIT_COMPUTE
    assert "cannot write output" in capsys.readouterr().err


def test_main_typo_ledger(capsys):
    assert main(["typo-ledger"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "channel row col printed oracle cause" in out
    assert out == TYPO_LEDGER_GOLDEN.read_text()


def console_script_args() -> list[str]:
    """Interpreter arguments that call the `dipnet` console script's target,
    `module:function` under pyproject.toml's [project.scripts], as the
    installed script does: sys.exit(function())."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with open(REPO / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["dipnet"]
    module, function = target.split(":")
    return ["-c", f"import importlib, sys; sys.exit(getattr("
                  f"importlib.import_module({module!r}), {function!r})())"]


@pytest.mark.parametrize("module", ["dipnet", "dipnet.cli", "console_script"])
def test_python_m_entry_points(module):
    src = str(Path(dipnet.scan.__file__).resolve().parents[1])
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    args = (console_script_args() if module == "console_script"
            else ["-m", module])
    proc = subprocess.run([sys.executable, *args, "typo-ledger"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == TYPO_LEDGER_GOLDEN.read_text()
    assert "RuntimeWarning" not in proc.stderr


@pytest.mark.parametrize("line", [
    "tau_steps = 2", "tau_steps = 1000000000000000",
    "eps_values = 0,nan", "eps_values = inf",
    "tau_max = inf", "tau_min = -1", "zero_tol = nan",
    "peak_prominence = -1", "slope_jump_tol = -0.5",
    "extension = fixed\nbridge_eps_tilde = 0.1\nbridge_tau = -1",
    "extension = fixed\nbridge_tau = 1\nbridge_eps_tilde = nan",
    "extension = fixed\nbridge_eps_tilde = 0.1\nbridge_tau = 1e308",
    "extension = fixed\nbridge_tau = 1\nbridge_eps_tilde = 1e308",
    # only extension = fixed reads the bridge keys; elsewhere they are inert
    "extension = track\nbridge_tau = bogus", "bridge_eps_tilde = 0.1",
    "channels = 18\nquantifiers = naqc\nextension = track\nbridge_tau = 0.5",
    # each Werner parameter on its own line, whatever the network kind
    "werner_x2 = 1.5", "werner_x1 = -0.1",
    # channel 18 without an extension is the channels line's fault
    "quantifiers = naqc\nchannels = 18",
    # an extension without channel 18 is never read
    "extension = track",
    "channels = 12\nbridge_tau = 1\nbridge_eps_tilde = 0.1\nextension = fixed",
], ids=lambda line: line.rsplit("\n", 1)[-1])
def test_main_rejects_bad_values_with_line(tmp_path, capsys, line):
    # the offending assignment is always the last line of the file
    text = "name = bad\nnetwork = MM\n" + line + "\n"
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert main(["run", str(bad), "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert f"line {len(text.splitlines())}:" in capsys.readouterr().err


FIXED_18 = "channels = 18\nextension = fixed\n"
# each numeric key, the lines it needs before it, and its part built by hand
# with the same value
NUMERIC_KEYS = {
    "werner_x1": ("", lambda v: NetworkConfig("MM", werner_x1=v)),
    "werner_x2": ("", lambda v: NetworkConfig("MM", werner_x2=v)),
    "tau_min": ("", lambda v: ScanGrid(tau_min=v)),
    "tau_max": ("", lambda v: ScanGrid(tau_max=v)),
    "eps_values": ("", lambda v: ScanGrid(eps_values=(v,))),
    "bridge_tau": (f"{FIXED_18}bridge_eps_tilde = 0.1\n",
                   lambda v: DipolarParams(eps_tilde=0.1, tau=v)),
    "bridge_eps_tilde": (f"{FIXED_18}bridge_tau = 0.5\n",
                         lambda v: DipolarParams(eps_tilde=v, tau=0.5)),
    **{key: ("", lambda v, key=key: Scenario(
        name="bad", network=NetworkConfig("MM"), grid=ScanGrid(), **{key: v}))
       for key in ("zero_tol", "peak_prominence", "slope_jump_tol")},
}


@pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", NUMERIC_KEYS)
def test_main_refuses_non_finite_numbers_as_the_parts_do(tmp_path, capsys,
                                                         key, raw):
    # the parser only converts: a non-finite number reaches the part that
    # owns the key, so the file is refused with the hand-built part's message
    before, build = NUMERIC_KEYS[key]
    with pytest.raises(FieldError) as built:
        build(float(raw))
    text = f"name = bad\nnetwork = MM\n{before}{key} = {raw}\n"
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert main(["run", str(bad), "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"scenario error: line {len(text.splitlines())}: key {key}: "
        f"{built.value}\n")


@pytest.mark.parametrize("lines, bad_line, reason", [
    pytest.param(lines, bad_line, reason, id=f"{'|'.join(lines)}-{bad_line}")
    for lines, bad_line, reason in [
        (["tau_min = 5", "tau_max = 1"], 4,
         "key tau_max: need 0 <= tau_min < tau_max"),
        (["tau_max = 1", "tau_min = 5"], 3,
         "key tau_max: need 0 <= tau_min < tau_max"),
        # tau_max left at its default: blame tau_min
        (["tau_min = 20"], 3, "key tau_min: need 0 <= tau_min < tau_max"),
        (["channels = 12,99"], 3, "key channels: unknown channel '99'"),
        (["channels = 123", "quantifiers = negativity"], 3,
         "key channels: quantifier 'negativity' cannot be evaluated on "
         "channel '123'"),
        (["quantifiers = negativity", "channels = 14,124"], 4,
         "key channels: quantifier 'negativity' cannot be evaluated on "
         "channel '124'"),
        (["quantifiers = negativity,bogus"], 3,
         "key quantifiers: unknown quantifier 'bogus'"),
        (["eps_values = ,"], 3, "key eps_values: not a number: ''"),
        # an empty entry is an unknown name, not a repeat
        (["channels = ,"], 3, "key channels: unknown channel ''"),
        (["quantifiers = ,", "tau_max = 2"], 3,
         "key quantifiers: unknown quantifier ''"),
        # an empty entry is refused, not dropped
        (["channels = 12,,14", "tau_max = 2"], 3,
         "key channels: unknown channel ''"),
        (["eps_values = 0.1,,0.2", "tau_max = 2"], 3,
         "key eps_values: not a number: ''"),
        # a repeated entry would write two series under one key
        (["eps_values = 0.1,0.1", "tau_max = 2"], 3,
         "key eps_values: eps_values repeats an entry"),
        (["eps_values = -0,0"], 3,
         "key eps_values: eps_values repeats an entry"),
        # two eps that the CSV, the events headers and the plot filters
        # print alike, at 12 significant digits
        (["eps_values = 0.1,0.1000000000001"], 3,
         "key eps_values: eps_values has two entries that print as 0.1"),
        (["channels = 12,12", "quantifiers = naqc"], 3,
         "key channels: channels repeats an entry"),
        (["quantifiers = negativity,negativity"], 3,
         "key quantifiers: quantifiers repeats an entry"),
        # propagator phases kappa * tau_max that overflow
        (["tau_max = 1e308"], 3,
         "key tau_max: need tau >= 0 and finite phases kappa * tau, got "
         "eps_tilde = -0.2, tau = 1e+308"),
        (["tau_max = 1e10", "eps_values = 1e300"], 4,
         "key eps_values: need tau >= 0 and finite phases kappa * tau, got "
         "eps_tilde = 1e+300, tau = 10000000000.0"),
        # taus that the CSV's tau column prints alike: float resolution
        # repeats them, or they are distinct but agree to 12 significant
        # digits
        (["tau_min = 1e16", "tau_max = 1.0000000000000002e16",
          "tau_steps = 5"], 5,
         "key tau_steps: two of the 5 taus print as 1e+16"),
        (["tau_max = 5e-324", "tau_steps = 12"], 4,
         "key tau_steps: two of the 12 taus print as 0"),
        (["channels = 123", "quantifiers = tangle", "tau_min = 1e16",
          "tau_max = 1.00000000000001e16", "tau_steps = 7"], 7,
         "key tau_steps: two of the 7 taus print as 1e+16"),
        (["tau_min = 1", "tau_max = 1.00000000001", "tau_steps = 3"], 5,
         "key tau_steps: two of the 3 taus print as 1.00000000001"),
        # taus that print apart but that float resolution cannot space
        # evenly, as the tangle's sudden-change scan needs
        (["channels = 123", "quantifiers = tangle", "tau_min = 9.999",
          "tau_max = 10"], 6,
         "key tau_max: the 1001 taus are not evenly spaced at float "
         "resolution, as tangle needs"),
    ]])
def test_main_reports_grid_errors_with_line(tmp_path, capsys, lines, bad_line,
                                            reason):
    text = "name = bad\nnetwork = MM\n" + "\n".join(lines) + "\n"
    bad = tmp_path / "bad.scn"
    bad.write_text(text)
    assert main(["run", str(bad), "--output-dir", str(tmp_path)]) == EXIT_USAGE
    assert (capsys.readouterr().err
            == f"scenario error: line {bad_line}: {reason}\n")


@pytest.mark.parametrize("line, message", [
    pytest.param("tau_steps = 1_0_1", "not an integer: '1_0_1'",
                 id="int_underscores"),
    pytest.param("tau_steps = \uff15", "not an integer: '\uff15'",
                 id="int_full_width_five"),
    pytest.param("tau_max = \u0663", "not a number: '\u0663'",
                 id="float_arabic_indic_three"),
    pytest.param("tau_max = 1_0.5", "not a number: '1_0.5'",
                 id="float_underscores"),
    pytest.param("eps_values = 0,\u0663", "not a number: '\u0663'",
                 id="list_arabic_indic_three")])
def test_main_reads_numbers_only_in_the_key_tables_ascii(tmp_path, capsys,
                                                        line, message):
    # int() and float() also read digit-group underscores and any Unicode
    # decimal digit; README's number and integer are ASCII text without them
    text = f"name = bad\nnetwork = MM\n{line}\n"
    bad = tmp_path / "bad.scn"
    bad.write_text(text, encoding="utf-8")
    assert main(["run", str(bad), "--output-dir", str(tmp_path)]) == EXIT_USAGE
    key = line.split(" = ")[0]
    assert (capsys.readouterr().err
            == f"scenario error: line 3: key {key}: {message}\n")


@pytest.mark.parametrize("name", [
    "a/b", "../escaped", "a,b", "it's",
    # <name>_12_negativity.png, which the plot script names, would be longer
    # than a file name may be (255 bytes)
    pytest.param("n" * 238, id="238_chars"),
    pytest.param("n" * 245, id="245_chars"),
    pytest.param("n" * 300, id="300_chars")])
def test_main_refuses_unsafe_names(tmp_path, capsys, name):
    # the name becomes file names, the CSV's first column and gnuplot quotes
    scenario = tmp_path / "bad.scn"
    scenario.write_text(MINIMAL.replace("name = tiny", f"name = {name}"))
    out = tmp_path / "out" / "sub"
    assert main(["run", str(scenario), "--output-dir", str(out)]) == EXIT_USAGE
    assert "line 2: key name:" in capsys.readouterr().err
    assert [p for p in tmp_path.rglob("*") if p.is_file()] == [scenario]


def test_main_writes_every_output_of_the_longest_name(tmp_path):
    # every file a run writes, and every PNG its plot script names, fits a
    # 255-byte file name, the longest being <name>_12_negativity.png
    name = "n" * 237
    longest_suffix = max(len(f"_{channel}_{quant}.png".encode())
                         for quant, (channels, _) in QUANTIFIER_TABLE.items()
                         for channel in channels)
    assert len(name) + longest_suffix <= 255
    scenario = tmp_path / "long.scn"
    scenario.write_text(MINIMAL.replace("name = tiny", f"name = {name}"))
    out = tmp_path / "out"
    assert main(["run", str(scenario), "--output-dir", str(out)]) == EXIT_OK
    assert sorted(p.name for p in out.iterdir()) == [
        f"{name}.csv", f"{name}_events.txt", f"{name}_plots.gp"]
    pngs = re.findall(r"^set output '(.*)'$",
                      (out / f"{name}_plots.gp").read_text(), re.M)
    assert pngs == [f"{name}_12_negativity.png", f"{name}_12_naqc.png"]
    assert all(len(png.encode()) <= 255 for png in pngs)


@pytest.mark.parametrize("change", [
    {"name": "../escaped"}, {"mode": "bogus"}, {"zero_tol": -1.0},
    pytest.param({"zero_tol": math.inf}, id="zero_tol_inf"),
    {"grid": ScanGrid(channels=("18",)), "extension": None},
    {"extension": ExtensionSpec("track")},
    # only peak_prominence may be None
    pytest.param({"zero_tol": None}, id="zero_tol_none"),
    pytest.param({"slope_jump_tol": None}, id="slope_jump_tol_none"),
    # ScanGrid refuses these grids itself, so they are built in the test
    pytest.param({"grid": lambda: ScanGrid(eps_values=(0.1, 0.1000000000001))},
                 id="eps_printed_alike"),
    pytest.param({"grid": lambda: ScanGrid(tau_min=1.0, tau_max=1.00000000001,
                                           tau_steps=3)},
                 id="taus_printed_alike"),
], ids=lambda change: next(iter(change)))
def test_hand_built_scenarios_are_refused(tmp_path, change):
    # Scenario owns the rules parse_scenario applies to its own fields, and
    # ScanGrid those of the grid (test_scan.py's test_grid_validation), so a
    # hand-built or replaced scenario is refused at construction and run
    # never writes
    base = parse_scenario(MINIMAL)

    def fields():
        built = {key: value() if callable(value) else value
                 for key, value in change.items()}
        return dict(vars(base), output_dir=tmp_path / "out" / "sub", **built)

    with pytest.raises(ValueError):
        run(Scenario(**fields()))
    with pytest.raises(ValueError):
        run(replace(base, **fields()))
    assert not any(tmp_path.iterdir())


def test_main_accepts_two_node_zoom_grid(tmp_path):
    # the 1000 steps of this zoom differ by one ulp of 10, a relative
    # spread of 1.8e-9: strictly increasing, and only tangle series (for
    # their sudden changes) need even steps
    zoom = tmp_path / "zoom.scn"
    zoom.write_text("name = zoom\nnetwork = MM\ntau_min = 9.999\n"
                    "tau_max = 10\ntau_steps = 1001\nchannels = 12\n")
    assert main(["run", str(zoom), "--output-dir", str(tmp_path)]) == EXIT_OK


def test_validate_prints_the_taus_once(tmp_path, monkeypatch):
    # ScanGrid prints every tau to check it; the Scenario builds (the parse,
    # --output-dir and the forced mode) reuse the grid and print none
    calls = []
    taus, sweep_ = ScanGrid.taus, dipnet.cli.sweep
    monkeypatch.setattr(ScanGrid, "taus",
                        lambda grid: calls.append("taus") or taus(grid))
    monkeypatch.setattr(dipnet.cli, "sweep",
                        lambda *args: calls.append("sweep") or sweep_(*args))
    scenario = tmp_path / "tiny.scn"
    scenario.write_text(MINIMAL)
    assert main(["validate", str(scenario),
                 "--output-dir", str(tmp_path / "out")]) == EXIT_OK
    assert calls == ["taus", "sweep", "taus"]


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
    # a failure in the sweep or in the events refinement writes no file
    monkeypatch.undo()
    monkeypatch.setattr(dipnet.cli, "pair_zero_intervals", boom)
    assert run(s) == EXIT_ORACLE
    assert not any(tmp_path.iterdir())


def test_render_csv_significant_digits():
    from dipnet.scan import MeasureSeries
    s = MeasureSeries(channel="12", quantifier="negativity", eps_tilde=0.1,
                      taus=np.array([0.123456789012345]),
                      values=np.array([0.987654321098765]))
    text = render_csv("x", [s])
    assert "0.123456789012" in text and "0.987654321099" in text


PAIRS = """
name = pairs
network = MM
tau_steps = 41
eps_values = -0.2,0,0.1,0.3
channels = 12
quantifiers = negativity,naqc
"""


CHANNEL_PAIRS = PAIRS.replace("channels = 12", "channels = 12,14")


def test_render_events_refines_each_quantifier_in_one_group(monkeypatch):
    # one pair_zero_intervals call per quantifier, over its (channel, eps)
    # series in list order; each bisection step gives one channel and one
    # eps per midpoint and lists the series in group order, a series' left
    # edges before its right edges
    scenario = parse_scenario(CHANNEL_PAIRS)
    series = sweep(scenario.network, scenario.grid)
    grouped = dipnet.cli.pair_zero_intervals
    groups = []

    def spy(group, zero_tol, refine):
        steps = []
        groups.append((group, steps))
        return grouped(group, zero_tol, lambda channels, eps, taus: steps.append(
            list(zip(channels.tolist(), eps.tolist(), taus.tolist())))
            or refine(channels, eps, taus))

    monkeypatch.setattr(dipnet.cli, "pair_zero_intervals", spy)
    render_events(scenario, series)
    assert [group for group, _ in groups] == [series[:4] + series[8:12],
                                              series[4:8] + series[12:]]
    for group, steps in groups:
        keys = [(s.channel, s.eps_tilde) for s in group]
        first_step = []
        for s in group:
            t, dead = s.taus.tolist(), (s.values <= scenario.zero_tol).tolist()
            first_step += [(s.channel, s.eps_tilde, 0.5 * (t[i - 1] + t[i]))
                           for i in range(1, len(t)) if dead[i] > dead[i - 1]]
            first_step += [(s.channel, s.eps_tilde, 0.5 * (t[i] + t[i + 1]))
                           for i in range(len(t) - 1) if dead[i] > dead[i + 1]]
        assert len(steps) > 1 and steps[0] == first_step
        for step in steps:
            owners = [keys.index((ch, eps)) for ch, eps, _ in step]
            assert owners == sorted(owners)
    # NAQC never lives on channel 14 of this network; negativity refines
    # both channels in one step
    (_, negativity_steps), _ = groups
    assert {ch for ch, _, _ in negativity_steps[0]} == {"12", "14"}


def test_render_events_of_interleaved_pairs_equals_sweep_order():
    # the series of a quantifier need not be adjacent: each series still
    # gets the block of lines it gets in sweep order
    scenario = parse_scenario(PAIRS)
    series = sweep(scenario.network, scenario.grid)
    interleaved = [s for pair in zip(series[:4], series[4:]) for s in pair]
    blocks = lambda text: re.split(r"^(?=# )", text, flags=re.M)[1:]
    in_order = blocks(render_events(scenario, series))
    mixed = blocks(render_events(scenario, interleaved))
    assert len(mixed) == 8 and mixed != in_order
    assert mixed == [in_order[i] for pair in zip(range(4), range(4, 8))
                     for i in pair]


@pytest.mark.parametrize("command, name", [
    pytest.param(command, f"fig{k}",
                 id=f"fig{k}" if command == "run" else f"fig{k}-validate")
    for command in ("run", "validate") for k in range(2, 11)])
def test_bundled_scenarios_match_pinned_digests(tmp_path, command, name):
    # fig2-fig8 cover the two-node negativity/NAQC surfaces, fig9 the
    # three-node assembly and fig10 the extension's channel 18. A validate
    # run checks every point against the dense oracle (any mismatch exits
    # 4) and scores the closed states, so it must write the same pinned
    # bytes as the closed-form run; this pins validate-mode refinement.
    pins = json.loads((REPO / "perfbench" / "pinned_digests.json").read_text())
    assert main([command, str(SCENARIOS_DIR / f"{name}.scn"),
                 "--output-dir", str(tmp_path)]) == EXIT_OK
    for kind, path in (("csv", tmp_path / f"{name}.csv"),
                       ("events", tmp_path / f"{name}_events.txt")):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == pins["scenarios"][name][kind], kind


@pytest.mark.parametrize("mode, name", [
    (mode, f"fig{k}") for mode in MODES for k in range(2, 11)])
def test_bundled_scenarios_match_three_mode_digests(tmp_path, mode, name):
    # each bundled scenario at tau_steps = 121 in each mode (27 runs) must
    # write the CSV and events bytes pinned, as `sha256sum` lines of
    # ./<mode>/<file>, in tests/data/three_mode_outputs.sha256. The pins
    # are regenerated by hand, at the commit whose bytes they should hold
    # and with single-threaded BLAS (OPENBLAS_NUM_THREADS=1): write the 27
    # runs to OUT/<mode>/ as this test does, then write
    # `sha256sum ./*/*.csv ./*/*_events.txt`, taken in OUT, to the pins file.
    lines = [line for line in
             (SCENARIOS_DIR / f"{name}.scn").read_text().splitlines()
             if not re.match(r"(tau_steps|mode)\s*=", line)]
    scn = tmp_path / f"{name}.scn"
    scn.write_text("\n".join(lines + ["tau_steps = 121", f"mode = {mode}"])
                   + "\n")
    assert main(["run", str(scn), "--output-dir",
                 str(tmp_path / mode)]) == EXIT_OK
    pins = dict(reversed(line.split()) for line in
                THREE_MODE_PINS.read_text().splitlines())
    for path in (f"{mode}/{name}.csv", f"{mode}/{name}_events.txt"):
        digest = hashlib.sha256((tmp_path / path).read_bytes()).hexdigest()
        assert digest == pins[f"./{path}"], path


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
