"""Per-function timings of the library's layers on a seeded point set.

Each entry calls one public function once per point; a round is one sweep
over the point set and the reported figure is the median over rounds of the
time per call.
"""

import random
import statistics
import time
from dataclasses import dataclass

from workloads import EPS_RANGE, KINDS, WERNER_RANGE

POINTS = 8
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Point:
    cfg: object
    p: object
    bridge: object
    m2: object
    m3: object
    m4: object
    rho2: object
    rho3: object
    rho4: object
    pt3: object


def point_set(dip, workload: str, seed: int) -> list[Point]:
    rng = random.Random(f"layers/{workload}/{seed}")
    DipolarParams = dip.netmodel.DipolarParams
    points = []
    for i in range(POINTS):
        x1, x2 = rng.uniform(*WERNER_RANGE), rng.uniform(*WERNER_RANGE)
        cfg = dip.netmodel.NetworkConfig(KINDS[i % len(KINDS)], x1, x2)
        p = DipolarParams(eps_tilde=rng.uniform(*EPS_RANGE), tau=rng.uniform(0.0, 10.0))
        bridge = DipolarParams(eps_tilde=rng.uniform(*EPS_RANGE),
                               tau=rng.uniform(0.0, 10.0))
        closed = dip.closedform.closed_channel_state
        rho2 = closed(cfg, p, "14")
        rho3 = closed(cfg, p, "123")
        rho4 = dip.netmodel.evolved_network(cfg, p)
        points.append(Point(cfg, p, bridge, closed(cfg, p, "12").mat, rho3.mat,
                            rho4.mat, rho2, rho3, rho4,
                            dip.qmat.partial_transpose(rho3, (0,))))
    return points


def benches(dip):
    """(metric name, scale to the metric's unit, call on one point)."""
    q, n, c, m = dip.qmat, dip.netmodel, dip.closedform, dip.measures
    us, ms = 1e6, 1e3
    table = [
        ("qmat.density_matrix_us.2q", us, lambda t: q.density_matrix(t.m2)),
        ("qmat.density_matrix_us.3q", us, lambda t: q.density_matrix(t.m3)),
        ("qmat.density_matrix_us.4q", us, lambda t: q.density_matrix(t.m4)),
        ("qmat.partial_trace_us.4to2", us, lambda t: q.partial_trace(t.rho4, (0, 2))),
        ("qmat.partial_transpose_us.3q", us,
         lambda t: q.partial_transpose(t.rho3, (0,))),
        ("qmat.trace_norm_us.8", us, lambda t: q.trace_norm(t.pt3)),
        ("netmodel.propagator_coeffs_us", us, lambda t: n.propagator_coeffs(t.p)),
        ("netmodel.propagator_matrix_us", us, lambda t: n.propagator_matrix(t.p)),
        ("netmodel.evolved_network_us", us, lambda t: n.evolved_network(t.cfg, t.p)),
        ("netmodel.extend_to_eight_ms", ms,
         lambda t: n.extend_to_eight(t.cfg, t.p, t.bridge)),
    ]
    for ch in ("12", "14", "123"):
        table.append((f"netmodel.channel_state_us.{ch}", us,
                      lambda t, ch=ch: n.network_channel_state(t.cfg, t.p, ch)))
    for ch in ("12", "34", "14", "23", "123", "124", "234", "18"):
        table.append((f"closedform.channel_state_us.{ch}", us,
                      lambda t, ch=ch: c.closed_channel_state(t.cfg, t.p, ch, t.bridge)))
    for ch in ("12", "123", "18"):
        table.append((f"closedform.validate_us.{ch}", us,
                      lambda t, ch=ch: c.validate_channel(t.cfg, t.p, ch, t.bridge)))
    table += [
        ("measures.negativity_us", us, lambda t: m.negativity(t.rho2)),
        ("measures.naqc_degree_us", us, lambda t: m.naqc_degree(t.rho2)),
        ("measures.pi_tangle_us", us, lambda t: m.pi_tangle(t.rho3)),
    ]
    return table


def layer_metrics(dip, points: list[Point], budget_s: float) -> dict[str, float]:
    """Median time per call of every bench, sharing `budget_s` between
    them (each runs at least MIN_ROUNDS rounds)."""
    table = benches(dip)
    per_bench = budget_s / len(table)
    out = {}
    for name, scale, fn in table:
        rounds = []
        start = time.perf_counter()
        while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < per_bench:
            t0 = time.perf_counter()
            for pt in points:
                fn(pt)
            rounds.append((time.perf_counter() - t0) / len(points))
        out[name] = statistics.median(rounds) * scale
    return out
