"""Printed-formula evaluators and the typo ledger.

The source equations are reproduced literally (including their defects) so
each repaired coordinate can be reported as printed-value vs oracle-value.
They are written in the source's notation: the pair coefficients

    A1 = (c1 + 1)/4   A2 = (1 - c1)/4   A3 = (a1 - b1)/4   A4 = (a1 + b1)/4

of pair 1 (and B1..B4 of pair 2), and the propagator entries g1..g4.
Comparisons are made in the source's own conventions: its maximally
entangled pair is the (a, b, c) = (1, -1, 1) triplet state (this package's
MM network uses the singlet (-1, -1, -1); the two give locally equivalent
dynamics and identical quantifiers).
"""

from dataclasses import dataclass

import numpy as np

from .qmat import (DensityMatrix, conjugate_pair_stack, kron, partial_trace,
                   require_unitary)
from .netmodel import (DipolarParams, coeff_gammas, propagator_coeffs,
                       propagator_matrix, x_state)

SOURCE_FRAME_MAX_ENTANGLED = (1.0, -1.0, 1.0)
LEDGER_REFERENCE = DipolarParams(eps_tilde=0.3, tau=0.7)

CAUSE_DUPLICATED_COEFF = "duplicated-pair-coefficient-definition"
CAUSE_MALFORMED_KETBRA = "malformed-diagonal-ketbra-term"


@dataclass(frozen=True)
class LedgerEntry:
    channel: str
    row: int
    col: int
    printed_value: complex
    oracle_value: complex
    cause: str


def _printed_pair_offdiag_naive(pair, pc: np.ndarray) -> complex:
    # literal reading: the second duplicated "A3" definition shadows the
    # first, leaving the undefined A4 symbol to collapse onto A3. The corner
    # entries weigh |r1|^2..|r4|^2 by (A3, A4, -A4, -A3) and the inner ones
    # by (A4, A3, -A3, -A4), so with A4 = A3 both read the same expression.
    R = [abs(r) ** 2 for r in pc.tolist()]
    a1, b1, _ = pair
    A3 = 0.25 * (a1 - b1)
    return A3 * R[0] + A3 * R[1] - A3 * R[2] - A3 * R[3]


def _printed_malformed_diag(pair1, pair2, pc: np.ndarray) -> complex:
    # the malformed trio (|011><000| + |100><111| + |111><111|) puts an
    # off-diagonal coefficient onto the (7,7) diagonal entry
    _, _, c1 = pair1
    a2, b2, _ = pair2
    A1, A2 = 0.25 * (c1 + 1), 0.25 * (1 - c1)
    B3, B4 = 0.25 * (a2 - b2), 0.25 * (a2 + b2)
    g = coeff_gammas(pc)
    cc = lambda i, j: g[i - 1] * np.conj(g[j - 1])
    return (A2 * B3 * cc(4, 1) + A2 * B4 * cc(3, 2)
            + A1 * B4 * cc(2, 3) + A1 * B3 * cc(1, 4))


def typo_ledger() -> list[LedgerEntry]:
    """Per-coordinate repairs of the printed formulas, evaluated at the
    reference point LEDGER_REFERENCE in the source's own pair convention."""
    pair = SOURCE_FRAME_MAX_ENTANGLED
    pc = propagator_coeffs(LEDGER_REFERENCE)
    rho0 = kron(x_state(pair).mat, x_state(pair).mat)
    u = require_unitary(propagator_matrix(LEDGER_REFERENCE))
    rho_t = DensityMatrix(conjugate_pair_stack(rho0[None], u, (1, 2))[0])

    entries: list[LedgerEntry] = []

    oracle12 = partial_trace(rho_t, (0, 1)).mat
    printed = complex(_printed_pair_offdiag_naive(pair, pc))
    for r, c in ((0, 3), (3, 0), (1, 2), (2, 1)):
        entries.append(LedgerEntry("12", r, c, printed,
                                   complex(oracle12[r, c]),
                                   CAUSE_DUPLICATED_COEFF))

    oracle124 = partial_trace(rho_t, (0, 1, 2)).mat
    entries.append(LedgerEntry("124", 7, 7,
                               complex(_printed_malformed_diag(pair, pair, pc)),
                               complex(oracle124[7, 7]),
                               CAUSE_MALFORMED_KETBRA))
    return entries


REPORT_NOTES = """\
# Closed-form repair report.
#
# Coordinate rows below list every repaired matrix element: the value the
# printed formula yields (under its most literal reading) against the dense
# oracle value, evaluated at the reference point tau={tau}, eps_tilde={eps}
# with both pairs maximally entangled in the source's own convention
# (a, b, c) = (1, -1, 1).
#
# Repairs applied coordinate-wise:
#  - channel 12 off-diagonals: the source defines A3 twice and never A4;
#    the second definition is read as A4 = (a1+b1)/4 (same for B3/B4).
#  - channel 124 entry (7,7): the source attaches an off-diagonal
#    coefficient to |111><111| inside a malformed ket-bra trio; the oracle
#    fixes the diagonal value (it pairs with |000><000|).
#
# Convention notes (whole-formula facts, not coordinate repairs):
#  - The propagator as printed places r2+r3 on the anti-diagonal corners and
#    r2-r3 on the inner off-diagonals; that matrix is not unitary. The
#    corners must carry r2-r3. The repaired placement equals the matrix
#    exponential of the dipolar Hamiltonian at t = -12*tau/delta.
#  - The printed two-node forms under the "14" and "23" headings exactly
#    describe, respectively, this package's "23" and "14" channels when
#    every pair coefficient uses the (1,-1,1) convention; both reduce to the
#    same matrix for maximally entangled pairs. The "23" form as printed
#    carries no pair dependence and is exact only for maximally entangled
#    pairs; the general form damps the carried pair's (a,b,c).
#  - The three-node channel printed last ("234" family) repeats the
#    coefficient of its 15th term on its 16th; the oracle fixes entries
#    (1,4)/(6,3) and their conjugates.
#  - The printed terminal-channel formula for the extension is quadratic in
#    the hop elements and does not coincide with any reduced state of a
#    single round of couplings; the package's closed form sends the hop's
#    terminal channel across the bridge coupling once, which matches the
#    dense extension path exactly.
"""


def render_typo_report() -> str:
    lines = [REPORT_NOTES.format(tau=LEDGER_REFERENCE.tau,
                                 eps=LEDGER_REFERENCE.eps_tilde)]
    lines.append("channel row col printed oracle cause")
    for e in typo_ledger():
        lines.append(
            f"{e.channel} {e.row} {e.col} "
            f"{e.printed_value.real:+.9f}{e.printed_value.imag:+.9f}j "
            f"{e.oracle_value.real:+.9f}{e.oracle_value.imag:+.9f}j "
            f"{e.cause}")
    return "\n".join(lines) + "\n"
