"""Exact linear programming via a fraction-free two-phase simplex.

The tableau holds Python integers only.  It keeps one common positive
denominator ``d``: the true tableau is ``T / d``.  A pivot on entry ``p``
updates every row, the objective row included, by the Bareiss step
``(p * T[i][j] - T[i][c] * T[r][j]) // d`` and then sets ``d = p``
(Edmonds 1967; Bareiss 1968).  Each entry is then a minor of the scaled
constraint matrix and ``d`` is the basis determinant, so the division is
always exact: feasibility and optimality decisions never touch floating
point or ``Fraction`` arithmetic, and results leave as ``Fraction``.

The integer start scales row ``i`` by ``s_i``, the lcm of the denominators
of its coefficients and right-hand side, and keeps its slack and artificial
coefficients at +-1, which substitutes those variables by ``s_i`` times
themselves.  Scaling rows and columns by positive factors changes neither
the signs of the reduced costs nor the order of the ratios, so Bland's
rule (lowest-index entering column, lowest basis index among ratio ties,
ratios compared by cross-multiplication) makes the same pivots as on the
unscaled rational tableau: the solver is deterministic, immune to cycling,
and its solutions and duals do not depend on how rows are scaled.

Minimization only; callers maximize by negating the cost vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass
class LpResult:
    """Outcome of a solve.

    ``duals`` holds one multiplier per input constraint row, signed so that
    ``sum_i duals[i] * rhs[i]`` equals the optimal objective and
    ``A^T duals <= costs`` componentwise (complementary-slackness certificate
    for minimization).
    """

    status: str
    objective: Optional[Fraction] = None
    x: Optional[list[Fraction]] = None
    duals: Optional[list[Fraction]] = None


def _exact(v):
    """``v`` itself when it is an integer, else its ``Fraction``."""
    return v if isinstance(v, int) else Fraction(v)


def _times(values: list, s: int) -> list[int]:
    """``values`` (integers and ``Fraction``s) times ``s``, a common
    multiple of their denominators, as integers."""
    return [v.numerator * (s // v.denominator) for v in values]


def solve_lp(
    costs: Sequence, rows: Sequence[tuple[Sequence, str, object]]
) -> LpResult:
    """Minimize ``costs . x`` subject to ``rows`` and ``x >= 0``.

    Each row is ``(coeffs, rel, rhs)`` with ``rel`` one of ``"<="``,
    ``">="``, ``"=="``.
    """
    n = len(costs)
    costs = [_exact(c) for c in costs]
    m = len(rows)

    # normalize rows to non-negative rhs, then to integers: row i times s_i
    norm = []
    flip = []
    scale = []
    for coeffs, rel, rhs in rows:
        coeffs = [_exact(c) for c in coeffs]
        if len(coeffs) != n:
            raise ValueError("coefficient row length mismatch")
        rhs = _exact(rhs)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
            flip.append(-1)
        else:
            flip.append(1)
        s = lcm(rhs.denominator, *(c.denominator for c in coeffs))
        *coeffs, rhs = _times(coeffs + [rhs], s)
        norm.append((coeffs, rel, rhs))
        scale.append(s)

    n_slack = sum(1 for _, rel, _ in norm if rel in ("<=", ">="))
    n_art = sum(1 for _, rel, _ in norm if rel in (">=", "=="))
    total = n + n_slack + n_art
    art_start = n + n_slack

    tableau: list[list[int]] = []
    basis: list[int] = []
    # marker[i] = (column, sign) used to read the dual of row i at the end
    marker: list[tuple[int, int]] = []
    s_idx = n
    a_idx = art_start
    artificial_rows = []
    for i, (coeffs, rel, rhs) in enumerate(norm):
        row = coeffs + [0] * (total - n) + [rhs]
        if rel == "<=":
            row[s_idx] = 1
            basis.append(s_idx)
            marker.append((s_idx, -1))
            s_idx += 1
        elif rel == ">=":
            row[s_idx] = -1
            marker.append((s_idx, +1))
            s_idx += 1
            row[a_idx] = 1
            basis.append(a_idx)
            artificial_rows.append(i)
            a_idx += 1
        else:
            row[a_idx] = 1
            basis.append(a_idx)
            marker.append((a_idx, -1))
            artificial_rows.append(i)
            a_idx += 1
        tableau.append(row)

    d = 1  # the true tableau is tableau / d

    def pivot(z: list[int], r: int, c: int) -> None:
        nonlocal d
        prow = tableau[r]
        p = prow[c]
        if p < 0:
            # only a leftover artificial's row (rhs 0) can pivot on p < 0;
            # negating it keeps d positive
            tableau[r] = prow = [-v for v in prow]
            p = -p
        for i, row in enumerate(tableau):
            if i != r:
                f = row[c]
                if f:
                    tableau[i] = [(p * a - f * b) // d for a, b in zip(row, prow)]
                elif p != d:
                    # rows clear of column c still move to denominator p
                    tableau[i] = [p * a // d for a in row]
        f = z[c]
        z[:] = [(p * a - f * b) // d for a, b in zip(z, prow)]
        d = p
        basis[r] = c

    def run(z: list[int], allowed: int) -> str:
        # Bland's rule: lowest-index entering column with negative reduced
        # cost, lowest basis index among ratio ties; the ratios rhs / a are
        # compared as cross products, their common d cancelling
        while True:
            enter = -1
            for j in range(allowed):
                if z[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
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
                return UNBOUNDED
            pivot(z, leave, enter)

    # phase 1: minimize the sum of the original artificials, artificial i
    # costing 1 / s_i per unit of its substitute, scaled to integers
    if n_art:
        big = lcm(*(scale[i] for i in artificial_rows))
        z = [0] * (total + 1)
        for i in artificial_rows:
            w = big // scale[i]
            z[basis[i]] = w
            z = [a - w * b for a, b in zip(z, tableau[i])]
        run(z, total)
        if z[total] < 0:
            return LpResult(INFEASIBLE)
        # pivot leftover artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= art_start:
                row = tableau[i]
                for j in range(art_start):
                    if row[j]:
                        pivot(z, i, j)
                        break

    # phase 2 on the true costs times k; artificial columns may not re-enter
    k = lcm(*(c.denominator for c in costs))
    kc = _times(costs, k)
    z = [d * c for c in kc] + [0] * (n_slack + n_art + 1)
    for i, b in enumerate(basis):
        if b < n and kc[b]:
            f = kc[b]
            z = [a - f * v for a, v in zip(z, tableau[i])]
    status = run(z, art_start)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    x = [Fraction(0)] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tableau[i][total], d)
    dk = d * k
    duals = [
        Fraction(f * sign * z[col] * s, dk)
        for f, (col, sign), s in zip(flip, marker, scale)
    ]
    return LpResult(OPTIMAL, objective=Fraction(-z[total], dk), x=x, duals=duals)
