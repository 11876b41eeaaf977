import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import linprog

from conftest import oracle_solve_lp
from nakamura import lp


def test_basic_minimization():
    # min x + y st x + 2y >= 4, 3x + y >= 6
    res = lp.solve_lp([1, 1], [([1, 2], ">=", 4), ([3, 1], ">=", 6)])
    assert res.status == lp.OPTIMAL
    assert res.objective == Fraction(14, 5)
    assert res.x == [Fraction(8, 5), Fraction(6, 5)]


def test_equality_and_upper():
    # min -x - 2y st x + y == 3, y <= 2
    res = lp.solve_lp([-1, -2], [([1, 1], "==", 3), ([0, 1], "<=", 2)])
    assert res.status == lp.OPTIMAL
    assert res.objective == -5
    assert res.x == [1, 2]


def test_infeasible():
    res = lp.solve_lp([1], [([1], ">=", 2), ([1], "<=", 1)])
    assert res.status == lp.INFEASIBLE


def test_unbounded():
    res = lp.solve_lp([-1], [([1], ">=", 0)])
    assert res.status == lp.UNBOUNDED


def test_negative_rhs_normalization():
    # x >= 1 written as -x <= -1
    res = lp.solve_lp([1], [([-1], "<=", -1)])
    assert res.objective == 1


def test_duals_certify_objective():
    rows = [([1, 2], ">=", 4), ([3, 1], ">=", 6), ([1, 1], "<=", 10)]
    costs = [2, 3]
    res = lp.solve_lp(costs, rows)
    assert res.status == lp.OPTIMAL
    total = sum(y * Fraction(r[2]) for y, r in zip(res.duals, rows))
    assert total == res.objective
    # dual feasibility: A^T y <= c componentwise
    for j in range(2):
        assert sum(y * r[0][j] for y, r in zip(res.duals, rows)) <= costs[j]


def test_exact_knife_edge():
    # floats would misclassify this tight constraint
    res = lp.solve_lp(
        [1],
        [([Fraction(1, 3)], ">=", Fraction(1, 3))],
    )
    assert res.objective == 1
    assert res.x == [1]


@pytest.mark.parametrize("seed", range(6))
def test_random_cross_check_scipy(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    m = rng.randint(2, 6)
    costs = [rng.randint(1, 6) for _ in range(n)]
    rows = []
    for _ in range(m):
        coeffs = [rng.randint(0, 4) for _ in range(n)]
        if all(c == 0 for c in coeffs):
            coeffs[rng.randrange(n)] = 1
        rows.append((coeffs, ">=", rng.randint(1, 8)))
    res = lp.solve_lp(costs, rows)
    assert res.status == lp.OPTIMAL
    a = -np.array([r[0] for r in rows], dtype=float)
    b = -np.array([r[2] for r in rows], dtype=float)
    ref = linprog(np.array(costs, float), A_ub=a, b_ub=b, bounds=(0, None))
    assert abs(float(res.objective) - ref.fun) < 1e-7


_COEFF = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=6),
)


@st.composite
def linear_programs(draw):
    """Small LPs: rational coefficients, every relation, negative and zero
    right-hand sides (degenerate rows whose ratios tie at zero), and
    multiples of ``==`` rows, which leave an artificial basic at zero after
    phase 1 and make the solver pivot it out, possibly on a negative entry.
    """
    n = draw(st.integers(1, 4))
    costs = draw(st.lists(_COEFF, min_size=n, max_size=n))
    row = st.tuples(
        st.lists(_COEFF, min_size=n, max_size=n),
        st.sampled_from(("<=", ">=", "==")),
        st.one_of(st.just(0), _COEFF),
    )
    rows = draw(st.lists(row, min_size=1, max_size=5))
    for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=2)):
        coeffs, _, rhs = rows[i]
        k = draw(st.sampled_from((1, -1, 2, -3, Fraction(1, 2))))
        rows[i] = (coeffs, "==", rhs)
        rows.append(([k * c for c in coeffs], "==", k * rhs))
    return costs, rows


@settings(max_examples=300, deadline=None, derandomize=True)
@given(linear_programs())
def test_matches_fraction_tableau_oracle(program):
    # the integer tableau must make the Fraction tableau's Bland pivots:
    # equal status, objective, solution and duals
    costs, rows = program
    assert lp.solve_lp(costs, rows) == oracle_solve_lp(costs, rows)
