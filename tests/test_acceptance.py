"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. Criterion 7's death-free
tangle floor is mathematically unattainable for the implemented residual
tangle (see the expected-failure test and its companion report).
"""

import numpy as np
import pytest

from dipnet.cli import EXIT_OK, parse_scenario, run
from dipnet.closedform import closed_channel_states
from dipnet.ledger import (CAUSE_DUPLICATED_COEFF, CAUSE_MALFORMED_KETBRA,
                           typo_ledger)
from dipnet.measures import (global_negativity, naqc_degree, negativity,
                             negativity_stack, pairwise_negativity, pi_tangle)
from dipnet.netmodel import (DipolarParams, NetworkConfig,
                             network_channel_state, network_channel_states,
                             propagator_matrix, x_state)
from dipnet.qmat import density_matrix, require_density_stack
from dipnet.scan import (ZERO_TOL, ExtensionSpec, ScanGrid,
                         detect_zero_intervals, sweep)

from conftest import SINGLET_PARAMS, random_pure, werner_params

MM = NetworkConfig("MM")
WW = NetworkConfig("WW", werner_x1=0.7, werner_x2=0.7)
MW = NetworkConfig("MW", werner_x2=0.7)
EPS_SET = (-0.2, 0.0, 0.1, 0.3)


def _report(num: int, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_unitarity_and_group_property():
    taus = np.arange(0.0, 10.0 + 1e-12, 0.01)
    worst_u = 0.0
    for eps in EPS_SET:
        for tau in taus:
            u = propagator_matrix(DipolarParams(eps_tilde=eps, tau=float(tau)))
            worst_u = max(worst_u, float(np.abs(u @ u.conj().T - np.eye(4)).max()))
    worst_g = 0.0
    sub = np.arange(0.0, 10.0 + 1e-12, 0.5)
    for eps in EPS_SET:
        us = {t: propagator_matrix(DipolarParams(eps_tilde=eps, tau=float(t)))
              for t in np.arange(0.0, 20.0 + 1e-12, 0.5)}
        for t1 in sub:
            for t2 in sub:
                dev = np.abs(us[t1] @ us[t2] - us[round(t1 + t2, 10)]).max()
                worst_g = max(worst_g, float(dev))
    ok = worst_u < 1e-12 and worst_g < 1e-10
    _report(1, ok, f"unitarity dev {worst_u:.2e} (<1e-12), "
                   f"group-property dev {worst_g:.2e} (<1e-10)")


def test_criterion_02_oracle_equivalence():
    channels = ("12", "34", "14", "23", "123", "234", "124", "18")
    taus = np.linspace(0.0, 10.0, 101)
    worst = 0.0
    for cfg in (MM, WW, MW):
        for eps in EPS_SET:
            eps_tilde = np.full(taus.shape, eps)
            for ch in channels:  # channel 18 with the tracking bridge
                n = 2 if ch == "18" else len(ch)
                closed, dense = (require_density_stack(
                    states(cfg, ch, eps_tilde, taus), n) for states in
                    (closed_channel_states, network_channel_states))
                worst = max(worst, float(np.abs(closed - dense).max()))
    entries = typo_ledger()
    causes = {e.cause for e in entries}
    ok = (worst < 1e-10 and len(entries) > 0
          and causes <= {CAUSE_DUPLICATED_COEFF, CAUSE_MALFORMED_KETBRA})
    _report(2, ok, f"max |closed - dense| {worst:.2e} (<1e-10) over 101x4 grid, "
                   f"3 network kinds, {len(channels)} channels; typo ledger has "
                   f"{len(entries)} entries with causes {sorted(causes)}")


def test_criterion_03_tau_zero_anchors():
    p0 = DipolarParams(eps_tilde=0.0, tau=0.0)
    rho12 = network_channel_state(MM, p0, "12")
    neg = negativity(rho12)
    deg = naqc_degree(rho12)
    dev14 = np.abs(network_channel_state(MM, p0, "14").mat - np.eye(4) / 4).max()
    dev23 = np.abs(network_channel_state(MM, p0, "23").mat - np.eye(4) / 4).max()
    ok = (abs(neg - 1) < 1e-9 and abs(deg - 1) < 1e-9
          and dev14 < 1e-12 and dev23 < 1e-12)
    _report(3, ok, f"negativity(rho12)={neg:.12f}, naqc_degree={deg:.12f}, "
                   f"|rho14 - I/4|={dev14:.2e}, |rho23 - I/4|={dev23:.2e}")


def _mm_series(channel: str, quantifier: str):
    grid = ScanGrid(channels=(channel,), quantifiers=(quantifier,),
                    eps_values=EPS_SET)
    ext = ExtensionSpec(mode="track") if channel == "18" else None
    return sweep(MM, grid, extension=ext)


def test_criterion_04_sudden_death_and_rebirth():
    details = []
    ok = True
    for series in _mm_series("12", "negativity"):
        events = detect_zero_intervals(series, ZERO_TOL)
        kinds = [e.kind for e in events]
        has_cycle = "death" in kinds and "birth" in kinds and (
            kinds.index("death") < kinds.index("birth"))
        vals = series.values
        dead_idx = np.where(vals <= ZERO_TOL)[0]
        reattain = float(vals[dead_idx[0]:].max()) if dead_idx.size else 0.0
        ok = ok and has_cycle and reattain > 0.9
        details.append(f"eps={series.eps_tilde:+.1f}: deaths="
                       f"{kinds.count('death')}, reattain={reattain:.4f}")
    _report(4, ok, "rho12 negativity death/birth with reattainment > 0.9 -- "
                   + "; ".join(details))


def test_criterion_05_naqc_dies_longer_than_negativity():
    neg_series = _mm_series("12", "negativity")
    naqc_series = _mm_series("12", "naqc")
    details = []
    ok = True
    for sn, sq in zip(neg_series, naqc_series):
        dtau = sn.taus[1] - sn.taus[0]
        neg_dead = float((sn.values <= ZERO_TOL).sum()) * dtau
        naqc_dead = float((sq.values <= ZERO_TOL).sum()) * dtau
        ok = ok and naqc_dead >= neg_dead
        details.append(f"eps={sn.eps_tilde:+.1f}: naqc-dead {naqc_dead:.2f} "
                       f">= neg-dead {neg_dead:.2f}")
    _report(5, ok, "total dead measure over tau in [0,10] -- " + "; ".join(details))


def test_criterion_06_absent_channels():
    taus = np.linspace(0.0, 10.0, 1001)
    worst = 0.0
    for cfg in (MM, WW, MW):
        for eps in EPS_SET:
            for ch in ("13", "24"):
                states = require_density_stack(network_channel_states(
                    cfg, ch, np.full(taus.shape, eps), taus), 2)
                worst = max(worst, float(negativity_stack(states).max()))
    ok = worst < 1e-10
    _report(6, ok, f"max negativity over channels 13/24, full grid, all "
                   f"kinds: {worst:.2e} (<1e-10)")


def _tangle_series():
    return _mm_series("123", "tangle")


def _criterion_07_data():
    rows = []
    for series in _tangle_series():
        vals = series.values
        deaths = [e for e in detect_zero_intervals(series, ZERO_TOL)
                  if e.kind == "death"]
        rows.append((series.eps_tilde, float(vals.min()),
                     float(vals[1:].min()), len(deaths)))
    return rows


def test_criterion_07_tangle_floor_report():
    rows = _criterion_07_data()
    details = "; ".join(
        f"eps={eps:+.1f}: min={mn:.4f}, min(tau>0)={mnp:.4f}, deaths={nd}"
        for eps, mn, mnp, nd in rows)
    floor = min(mn for _, mn, _, _ in rows)
    print(f"[FAIL (expected, documented)] criterion  7: tangle floor "
          f"{floor:.4f} vs stated 0.65 (warning: below 0.65) -- {details}")
    print("    analysis: the residual tangle of a network built from two "
          "product pairs is exactly zero at tau=0, and the eps=0 series "
          "returns to zero at every full revival (tau = k*pi) where the "
          "coupling equals the identity; a death-interval-free series with "
          "floor > 0.5 is therefore unattainable for this quantifier. The "
          "nonzero couplings stay strictly positive for tau > 0 but with "
          "deep dips (floors ~2e-4..2e-3 on the default grid).")
    assert rows


@pytest.mark.xfail(strict=True,
                   reason="tangle is exactly 0 at tau=0 and at eps=0 "
                          "revivals; the stated death-free floor cannot hold")
def test_criterion_07_tangle_floor_strict():
    rows = _criterion_07_data()
    assert all(nd == 0 for _, _, _, nd in rows), "death intervals found"
    assert min(mn for _, mn, _, _ in rows) > 0.5


def test_criterion_08_three_channel_similarity():
    series = {ch: _mm_series(ch, "tangle") for ch in ("123", "234", "124")}
    worst = 0.0
    for s123, s234, s124 in zip(series["123"], series["234"], series["124"]):
        v123 = s123.values
        rng = float(v123.max() - v123.min())
        worst = max(worst,
                    float(np.abs(v123 - s234.values).max()) / rng,
                    float(np.abs(v123 - s124.values).max()) / rng)
    ok = worst < 0.1
    _report(8, ok, f"max relative tangle difference across the three "
                   f"three-node channels: {worst:.2e} (<0.1)")


def test_criterion_09_initial_condition_ordering():
    maxima = {}
    for name, cfg in (("MM", MM), ("MW", MW), ("WW", WW)):
        grid = ScanGrid(channels=("14",), quantifiers=("negativity",),
                        eps_values=EPS_SET)
        maxima[name] = max(float(s.values.max()) for s in sweep(cfg, grid))
    ok = maxima["MM"] >= maxima["MW"] >= maxima["WW"]
    _report(9, ok, f"max negativity(rho14): MM {maxima['MM']:.4f} >= "
                   f"MW {maxima['MW']:.4f} >= WW {maxima['WW']:.4f}")


def test_criterion_10_extension_weakness():
    n18 = max(float(s.values.max()) for s in _mm_series("18", "negativity"))
    n14 = max(float(s.values.max()) for s in _mm_series("14", "negativity"))
    ok = n18 < n14
    _report(10, ok, f"max negativity rho18 {n18:.4f} < rho14 {n14:.4f} "
                    f"(matched parameters)")


def test_criterion_11_measure_unit_values(rng):
    singlet = x_state(SINGLET_PARAMS)
    werner = x_state(werner_params(0.5))
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / np.sqrt(2)
    ghz_rho = density_matrix(np.outer(ghz, ghz.conj()))
    bell = density_matrix(np.array([[.5, 0, 0, .5], [0, 0, 0, 0],
                                    [0, 0, 0, 0], [.5, 0, 0, .5]]))
    mixed = density_matrix(np.eye(4) / 4)
    checks = {
        "singlet negativity = 1": abs(negativity(singlet) - 1) < 1e-12,
        "werner(0.5) negativity = 0.25": abs(negativity(werner) - 0.25) < 1e-12,
        "GHZ pi-tangle = 1": abs(pi_tangle(ghz_rho) - 1) < 1e-10,
        "bell naqc_degree = 1": abs(naqc_degree(bell) - 1) < 1e-9,
        "mixed naqc_degree = 0": naqc_degree(mixed) == 0.0,
    }
    worst_slack = 0.0
    for _ in range(1000):
        rho = random_pure(rng, 3)
        for focus, pairs in ((0, ((0, 1), (0, 2))), (1, ((0, 1), (1, 2))),
                             (2, ((0, 2), (1, 2)))):
            lhs = sum(pairwise_negativity(rho, pr) ** 2 for pr in pairs)
            rhs = global_negativity(rho, focus) ** 2
            worst_slack = max(worst_slack, lhs - rhs)
    checks["monogamy slack <= 1e-9 (1000 random pure states)"] = worst_slack <= 1e-9
    ok = all(checks.values())
    failed = [k for k, v in checks.items() if not v]
    _report(11, ok, f"measure unit values; monogamy worst slack "
                    f"{worst_slack:.2e}" + (f"; failed: {failed}" if failed else ""))


def test_criterion_12_determinism(tmp_path):
    text = ("name = determinism\nnetwork = MM\ntau_max = 3\ntau_steps = 61\n"
            "eps_values = -0.2,0.1\nchannels = 12,14\n"
            "quantifiers = negativity,naqc\n")
    blobs = []
    for sub in ("a", "b"):
        scenario = parse_scenario(text + f"output_dir = {tmp_path / sub}\n")
        assert run(scenario) == EXIT_OK
        blobs.append((tmp_path / sub / "determinism.csv").read_bytes())
    ok = blobs[0] == blobs[1]
    _report(12, ok, f"rerun produced byte-identical CSV "
                    f"({len(blobs[0])} bytes)")
