"""Seeded scenario generators for the three benchmark workloads.

A pass of workload ``w`` under seed ``s`` is a few parts; part ``i`` is a
list of scenarios drawn from ``random.Random(f"{w}/{s}/{i}")``, so the same
seed always gives the same scenario text. Grid sizes are fixed
per workload, so the number of swept points per pass does not depend on the
seed; the seed draws the couplings, the Werner parameters, the network kind,
the tau window and the bridge parameters, from the ranges the bundled
scenarios use (the Werner parameters are drawn around the bundled 0.7, one
from each half of the range, so x1 != x2).
"""

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

KINDS = ("MM", "WW", "MW")
TWO_NODE_CHANNELS = ("12", "34", "14", "23")
THREE_NODE_CHANNELS = ("123", "124", "234")
VALIDATE_CHANNELS = ("12", "14", "23")
EPS_RANGE = (-0.3, 0.3)
WERNER_RANGE = (0.6, 0.9)
TAU_MIN_RANGE = (0.0, 0.5)
TAU_MAX_RANGE = (9.0, 10.0)
BRIDGE_TAU_RANGE = (0.0, 10.0)
# steps of the four-dimensional Kronecker sequence: 1 / g**k, where g is
# the real root of g**5 = g + 1 (positions of eps, Werner x, bridge tau and
# bridge eps)
_G = 1.1673039782614187
ALPHA = tuple(_G ** -k for k in range(1, 5))


@dataclass(frozen=True)
class Sizes:
    """Grid sizes of one pass; fixed per workload, never drawn."""

    surface_eps: int = 4
    surface_taus: int = 11
    line_taus: int = 1001
    tangle_taus: int = 41
    validate_taus: int = 21
    validate_18_taus: int = 7


FULL = Sizes()
# the untimed warm-up pass and the smoke test: every code path, few points
TINY = Sizes(surface_eps=2, surface_taus=3, line_taus=5, tangle_taus=3,
             validate_taus=3, validate_18_taus=3)


@dataclass(frozen=True)
class ScenarioSpec:
    """One generated scenario: its text, the CLI command that runs it, and
    the parameters the output checks need to rebuild the grid."""

    name: str
    command: str  # "run" or "validate"
    kind: str
    werner_x1: float
    werner_x2: float
    channels: tuple[str, ...]
    quantifiers: tuple[str, ...]
    eps_values: tuple[float, ...]
    tau_min: float
    tau_max: float
    tau_steps: int
    extension: Optional[tuple] = None  # ("track",) or ("fixed", tau, eps)

    @property
    def points(self) -> int:
        return (len(self.channels) * len(self.quantifiers)
                * len(self.eps_values) * self.tau_steps)

    def taus(self) -> np.ndarray:
        return np.linspace(self.tau_min, self.tau_max, self.tau_steps)

    def text(self) -> str:
        lines = [
            f"# generated benchmark scenario ({self.command})",
            f"name = {self.name}",
            f"network = {self.kind}",
            f"werner_x1 = {self.werner_x1!r}",
            f"werner_x2 = {self.werner_x2!r}",
            f"channels = {','.join(self.channels)}",
            f"quantifiers = {','.join(self.quantifiers)}",
            f"tau_min = {self.tau_min!r}",
            f"tau_max = {self.tau_max!r}",
            f"tau_steps = {self.tau_steps}",
            f"eps_values = {','.join(repr(e) for e in self.eps_values)}",
            "mode = closed_form",
        ]
        if self.extension is not None:
            lines.append(f"extension = {self.extension[0]}")
            if self.extension[0] == "fixed":
                lines.append(f"bridge_tau = {self.extension[1]!r}")
                lines.append(f"bridge_eps_tilde = {self.extension[2]!r}")
        return "\n".join(lines) + "\n"


def _draw(rng: random.Random, bounds: tuple[float, float], digits: int) -> float:
    # rounded so the scenario text holds the exact float the parser reads back
    return round(rng.uniform(*bounds), digits)


def _at(u: float, bounds: tuple[float, float], digits: int) -> float:
    """The point at position u in [0, 1) of the range, rounded so the
    scenario text holds the exact float the parser reads back."""
    lo, hi = bounds
    return round(lo + (hi - lo) * (u % 1.0), digits)


def _spec(rng: random.Random, name: str, command: str, kind: str,
          channels, quantifiers, n_taus: int, pos, n_eps: int = 1,
          extension=None, from_zero: bool = False) -> ScenarioSpec:
    """pos holds the positions of the couplings and Werner parameters in
    their ranges; n_eps couplings are spread evenly from pos[0]. The tau
    window starts at 0, as in every bundled scenario, when from_zero is
    set, and at a drawn tau_min otherwise."""
    mid = sum(WERNER_RANGE) / 2
    x1 = _at(pos[1], (WERNER_RANGE[0], mid), 3)
    x2 = _at(pos[1] + 0.5, (mid, WERNER_RANGE[1]), 3)
    if rng.random() < 0.5:
        x1, x2 = x2, x1
    return ScenarioSpec(
        name=name, command=command, kind=kind, werner_x1=x1, werner_x2=x2,
        channels=tuple(channels), quantifiers=tuple(quantifiers),
        eps_values=tuple(sorted(_at(pos[0] + j / n_eps, EPS_RANGE, 4)
                                for j in range(n_eps))),
        tau_min=0.0 if from_zero else _draw(rng, TAU_MIN_RANGE, 3),
        tau_max=_draw(rng, TAU_MAX_RANGE, 3),
        tau_steps=n_taus, extension=extension)


def _kind(turn: int) -> str:
    return KINDS[turn % len(KINDS)]


def _shift(pos, k: int, n: int):
    """The k-th of n positions spread evenly from pos."""
    return tuple(p + k / n for p in pos)


# Refinement cost depends strongly on the network kind, the couplings and
# the Werner parameters, so every part holds one scenario of each kind where
# that matters, and part i draws its couplings, Werner parameters and bridge
# at position frac(shift + i * ALPHA) of their ranges: a seeded shift, then a
# low-discrepancy (Kronecker) walk. The parts of a pass then cover the ranges
# nearly evenly, so the seed moves the values and not the amount of work.

def _two_node_closed(rng: random.Random, turn: int, pos, tag: str,
                     sz: Sizes) -> list[ScenarioSpec]:
    # surfaces (many eps, coarse tau: bisection-heavy) and a line cut
    # (one eps, fine tau: sweep-heavy)
    specs = [
        _spec(rng, f"{tag}_surface{k}", "run", kind,
              (TWO_NODE_CHANNELS[(turn + k) % 4],), ("negativity", "naqc"),
              sz.surface_taus, _shift(pos, k, 3), sz.surface_eps,
              from_zero=(turn + k) % 2 == 0)
        for k, kind in enumerate(KINDS)]
    specs.append(_spec(rng, f"{tag}_line", "run", _kind(turn),
                       (TWO_NODE_CHANNELS[(turn + 3) % 4],), ("negativity",),
                       sz.line_taus, pos, from_zero=turn % 2 == 1))
    return specs


def _three_node_tangle(rng: random.Random, turn: int, pos, tag: str,
                       sz: Sizes) -> list[ScenarioSpec]:
    return [_spec(rng, f"{tag}_tangle{k}", "run", kind, THREE_NODE_CHANNELS,
                  ("tangle",), sz.tangle_taus, _shift(pos, k, 3),
                  from_zero=(turn + k) % 2 == 0)
            for k, kind in enumerate(KINDS)]


def _validate_oracle(rng: random.Random, turn: int, pos, tag: str,
                     sz: Sizes) -> list[ScenarioSpec]:
    # Channel 18 runs with NAQC, which is zero over these ranges, so its
    # 256x256 dense evaluations land in the sweep; with negativity its
    # bisection count swings between 0 and 120 dense calls per series with
    # the drawn couplings, which made run-to-run spread exceed the bound.
    specs = [
        _spec(rng, f"{tag}_pairs", "validate", _kind(turn), VALIDATE_CHANNELS,
              ("negativity",), sz.validate_taus, pos, from_zero=turn % 2 == 0),
        _spec(rng, f"{tag}_tangle", "validate", _kind(turn + 1), ("123",),
              ("tangle",), sz.validate_taus, _shift(pos, 1, 2),
              from_zero=turn % 2 == 1),
    ]
    for k, kind in enumerate(KINDS):
        specs.append(_spec(rng, f"{tag}_track{k}", "validate", kind, ("18",),
                           ("naqc",), sz.validate_18_taus, _shift(pos, k, 3),
                           extension=("track",), from_zero=(turn + k) % 2 == 0))
    pk = _shift(pos, 1, 6)
    bridge = ("fixed", _at(pk[2], BRIDGE_TAU_RANGE, 3), _at(pk[3], EPS_RANGE, 4))
    specs.append(_spec(rng, f"{tag}_fixed", "validate", _kind(turn + 2), ("18",),
                       ("naqc",), sz.validate_18_taus, pk, extension=bridge,
                       from_zero=turn % 2 == 1))
    return specs


WORKLOADS = {
    "two_node_closed": _two_node_closed,
    "three_node_tangle": _three_node_tangle,
    "validate_oracle": _validate_oracle,
}

# Parts per pass: about two seconds of work each on a 2-core Xeon. Four
# two-node parts pair every kind with every channel once, so the seeded
# offset does not decide which pairings a pass holds.
PARTS = {"two_node_closed": 4, "three_node_tangle": 5, "validate_oracle": 3}

# Bundled scenarios whose pinned digests each workload re-checks; one of
# them, chosen by the seed, is rerun in every benchmark run.
PINNED_FOR = {
    "two_node_closed": ("fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8"),
    "three_node_tangle": ("fig9",),
    "validate_oracle": ("fig10",),
}


def make_part(workload: str, seed: int, index: int,
              sizes: Sizes = FULL) -> list[ScenarioSpec]:
    """Scenarios of part `index` of the workload's pass; index -1 is the
    untimed warm-up.

    Channels and kinds take turns with the part index, starting at a seeded
    offset.
    """
    start = random.Random(f"{workload}/{seed}")
    turn = start.randrange(12) + index
    pos = tuple((start.random() + index * a) % 1.0 for a in ALPHA)
    rng = random.Random(f"{workload}/{seed}/{index}")
    tag = f"p{index}" if index >= 0 else "warmup"
    return WORKLOADS[workload](rng, turn, pos, tag, sizes)


def make_pass(workload: str, seed: int, sizes: Sizes = FULL) -> list[ScenarioSpec]:
    """Every scenario of one pass: PARTS[workload] parts."""
    return [spec for i in range(PARTS[workload])
            for spec in make_part(workload, seed, i, sizes)]
