"""Exact linear programming via a fraction-free simplex.

The one program form solved here is: minimize ``costs . x`` subject to
``coeffs . x <= rhs`` for each row and ``x >= 0``, with integer data and
every ``rhs >= 0``.  The slack basis is then feasible from the start, so a
single phase reaches the optimum.  Callers maximize by negating the costs.

The tableau holds Python integers only.  It keeps one common positive
denominator ``d``: the true tableau is ``T / d``.  A pivot on entry ``p``
updates every row, the objective row included, by the Bareiss step
``(p * T[i][j] - T[i][c] * T[r][j]) // d`` and then sets ``d = p``
(Edmonds 1967; Bareiss 1968).  Each entry is then a minor of the constraint
matrix and ``d`` is the basis determinant, so the division is always exact:
feasibility and optimality decisions never touch floating point or
``Fraction`` arithmetic, and results leave as ``Fraction``.

Bland's rule (lowest-index entering column, lowest basis index among ratio
ties, ratios compared by cross-multiplication) makes the same pivots as on
the rational tableau: the solver is deterministic and immune to cycling.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    """Outcome of a solve.

    ``duals`` holds one multiplier per input row, each at most 0: minus the
    reduced cost of the row's slack.  ``sum_i duals[i] * rhs[i]`` equals the
    optimal objective and ``A^T duals <= costs`` componentwise
    (complementary-slackness certificate for minimization).
    """

    status: str
    objective: Optional[Fraction] = None
    x: Optional[list[Fraction]] = None
    duals: Optional[list[Fraction]] = None


def _integers(values) -> bool:
    return all(isinstance(v, int) for v in values)


def solve_lp(
    costs: Sequence[int], rows: Sequence[tuple[Sequence[int], int]]
) -> LpResult:
    """Minimize ``costs . x`` subject to ``coeffs . x <= rhs`` for each row
    ``(coeffs, rhs)`` and ``x >= 0``.

    Every entry must be an integer and every ``rhs`` non-negative, so
    ``x = 0`` is feasible and the result is ``OPTIMAL`` or ``UNBOUNDED``.
    """
    n, m = len(costs), len(rows)
    total = n + m
    if not _integers(costs):
        raise ValueError("LP costs must be integers")
    tableau: list[list[int]] = []
    for i, (coeffs, rhs) in enumerate(rows):
        if len(coeffs) != n:
            raise ValueError("coefficient row length mismatch")
        if not (_integers(coeffs) and isinstance(rhs, int)):
            raise ValueError("LP rows must be integers")
        if rhs < 0:
            raise ValueError("negative right-hand side")
        row = list(coeffs) + [0] * m + [rhs]
        row[n + i] = 1
        tableau.append(row)
    basis = list(range(n, total))
    z = list(costs) + [0] * (m + 1)
    d = 1  # the true tableau is tableau / d

    while True:
        # Bland's rule: lowest-index entering column with negative reduced
        # cost, lowest basis index among ratio ties; the ratios rhs / a are
        # compared as cross products, their common d cancelling
        enter = next((j for j in range(total) if z[j] < 0), -1)
        if enter < 0:
            break
        leave = -1
        for i, row in enumerate(tableau):
            a = row[enter]
            if a > 0:
                if leave < 0:
                    leave, num, den = i, row[total], a
                    continue
                mine, best = row[total] * den, num * a
                if mine < best or (mine == best and basis[i] < basis[leave]):
                    leave, num, den = i, row[total], a
        if leave < 0:
            return LpResult(UNBOUNDED)
        prow = tableau[leave]
        p = prow[enter]
        for i, row in enumerate(tableau):
            if i != leave:
                f = row[enter]
                if f:
                    tableau[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
                elif p != d:
                    # rows clear of the pivot column still move to denominator p
                    tableau[i] = [p * a // d for a in row]
        f = z[enter]
        z = [(p * a - f * b) // d for a, b in zip(z, prow)]
        d = p
        basis[leave] = enter

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tableau[i][total], d)
    duals = [Fraction(-z[n + i], d) for i in range(m)]
    return LpResult(OPTIMAL, objective=Fraction(-z[total], d), x=x, duals=duals)
