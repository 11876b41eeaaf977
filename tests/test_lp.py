import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from conftest import oracle_solve_lp
from nakamura import lp


def test_unbounded():
    # min -x st -x <= 0: x grows without limit
    res = lp.solve_lp([-1], [([-1], 0)])
    assert res.status == lp.UNBOUNDED


def test_duals_certify_objective():
    # max 2x + 3y st x + 2y <= 4, 3x + y <= 6, x + y <= 10
    rows = [([1, 2], 4), ([3, 1], 6), ([1, 1], 10)]
    costs = [-2, -3]
    res = lp.solve_lp(costs, rows)
    assert res.status == lp.OPTIMAL
    assert res.objective == Fraction(-34, 5)
    assert all(y <= 0 for y in res.duals)
    total = sum(y * rhs for y, (_, rhs) in zip(res.duals, rows))
    assert total == res.objective
    # dual feasibility: A^T y <= c componentwise
    for j in range(2):
        assert sum(y * r[0][j] for y, r in zip(res.duals, rows)) <= costs[j]


def test_exact_knife_edge():
    # floats would round the optimum of min -x st 3x <= 1
    res = lp.solve_lp([-1], [([3], 1)])
    assert res.objective == Fraction(-1, 3)
    assert res.x == [Fraction(1, 3)]


def test_ratio_ties_leave_lowest_basis_index():
    # both slacks tie at ratio 0; Bland's rule pivots out the first one
    res = lp.solve_lp([-1], [([1], 0), ([1], 0)])
    assert res.objective == 0
    assert res.duals == [-1, 0]


@pytest.mark.parametrize(
    "costs, rows, message",
    [
        ([1, 1], [([1], 1)], "length"),
        ([1], [([1], -1)], "negative"),
        ([1], [([Fraction(1, 2)], 1)], "integers"),
        ([Fraction(1, 2)], [([1], 1)], "integers"),
        ([1], [([1], Fraction(1, 2))], "integers"),
    ],
)
def test_rejects_other_program_forms(costs, rows, message):
    with pytest.raises(ValueError, match=message):
        lp.solve_lp(costs, rows)


@pytest.mark.parametrize("seed", range(6))
def test_random_cross_check_scipy(seed):
    # bounded: maximize positive costs over non-negative rows, every column
    # with a positive entry
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    m = rng.randint(2, 6)
    costs = [-rng.randint(1, 6) for _ in range(n)]
    rows = [([rng.randint(0, 4) for _ in range(n)], rng.randint(1, 8))
            for _ in range(m)]
    for j in range(n):
        if all(coeffs[j] == 0 for coeffs, _ in rows):
            rows[rng.randrange(m)][0][j] = 1
    res = lp.solve_lp(costs, rows)
    assert res.status == lp.OPTIMAL
    a = np.array([coeffs for coeffs, _ in rows], dtype=float)
    b = np.array([rhs for _, rhs in rows], dtype=float)
    ref = linprog(np.array(costs, float), A_ub=a, b_ub=b, bounds=(0, None))
    assert abs(float(res.objective) - ref.fun) < 1e-7


_COEFF = st.integers(-4, 4)
# zero often: degenerate rows whose ratios tie at zero
_RHS = st.one_of(st.just(0), st.integers(0, 4))


@st.composite
def le_programs(draw):
    """Small ``<=`` programs over integers in -4..4 with right-hand sides in
    0..4, plus copies of drawn rows scaled by 1, 2 or 3 (ratio ties between
    rows) and, half of the time, a column with negative cost and no
    positive entry, which makes the program unbounded.
    """
    n = draw(st.integers(1, 4))
    costs = draw(st.lists(_COEFF, min_size=n, max_size=n))
    row = st.tuples(st.lists(_COEFF, min_size=n, max_size=n), _RHS)
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        coeffs, rhs = rows[i]
        k = draw(st.sampled_from((1, 2, 3)))
        rows.append(([k * c for c in coeffs], k * rhs))
    if draw(st.booleans()):
        costs.append(draw(st.integers(-4, -1)))
        rows = [(coeffs + [draw(st.integers(-4, 0))], rhs) for coeffs, rhs in rows]
    return costs, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(le_programs())
def test_matches_fraction_tableau_oracle(program):
    # the integer tableau must make the Fraction tableau's Bland pivots:
    # equal status, objective, solution and duals
    costs, rows = program
    expected = oracle_solve_lp(costs, [(c, "<=", b) for c, b in rows])
    assert lp.solve_lp(costs, rows) == expected
