import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    oracle_alpha_critical_vectors,
    oracle_critical_lp,
    oracle_max_quota_lp,
    oracle_maximal_losing,
    random_vetoer_free,
    validate_alpha_roughly,
)
from nakamura.bounds import (
    alpha_critical,
    alpha_roughly_bounds,
    cardinality_bounds,
    critical_rough_representation,
    greedy_upper,
    max_quota_lp,
    weighted_bounds,
)
from nakamura.census import enumerate_complete
from nakamura.exact import nakamura_exact
from nakamura.games import (
    InvariantError,
    SimpleGame,
    WeightedRep,
    expand_complete,
    game_from_weighted,
    simple_game,
)


def weighted(quota, *weights):
    return game_from_weighted(WeightedRep(quota, weights))


# ---------------------------------------------------------------------------
# quota/weight ceilings


def test_weighted_bounds_homogeneous():
    rep = WeightedRep(90, (9,) * 10 + (2,) * 4 + (1,) * 2)
    b = weighted_bounds(rep)
    assert (b.lower, b.upper) == (10, 50)


def test_weighted_bounds_majority():
    b = weighted_bounds(WeightedRep(2, (1, 1, 1)))
    assert (b.lower, b.upper) == (3, 3)


def test_weighted_bounds_parametric_k5():
    k = 5
    rep = WeightedRep(22 * k - 11, (5,) * (2 * k) + (2,) * (6 * k))
    assert weighted_bounds(rep).lower == 2 * k


def test_weighted_bounds_infinite_components():
    # quota equal to the total weight: lower bound already infinite
    b = weighted_bounds(WeightedRep(3, (1, 1, 1)))
    assert b.lower is None and b.upper is None
    # vetoer but quota below total: finite lower, infinite upper
    b = weighted_bounds(WeightedRep(3, (2, 1, 1)))
    assert b.lower == 4 and b.upper is None


def test_weighted_lower_bound_scale_invariant():
    rng = random.Random(61)
    for _ in range(20):
        rep, _ = random_vetoer_free(rng, n_max=8)
        for factor in (2, 3, 7):
            scaled = WeightedRep(
                rep.quota * factor, tuple(w * factor for w in rep.weights)
            )
            assert weighted_bounds(scaled).lower == weighted_bounds(rep).lower
            # the upper bound may move; it only has to stay a valid bound
            up = weighted_bounds(scaled).upper
            assert up is None or up >= nakamura_exact(
                game_from_weighted(rep)
            ).value


# ---------------------------------------------------------------------------
# greedy


def test_greedy_majority():
    assert greedy_upper(WeightedRep(2, (1, 1, 1))) == 3


def test_greedy_parametric_k1():
    value = greedy_upper(WeightedRep(11, (5, 5) + (2,) * 6))
    assert 2 <= value <= 3
    assert value == 3  # golden: two fives, then five twos, then the last two


def test_greedy_homogeneous_golden():
    assert greedy_upper(WeightedRep(90, (9,) * 10 + (2,) * 4 + (1,) * 2)) == 11


def test_greedy_vetoer_infinite():
    assert greedy_upper(WeightedRep(3, (2, 1, 1))) is None


def test_greedy_is_upper_bound(weighted_corpus):
    for rep, game in weighted_corpus[:200]:
        assert greedy_upper(rep) >= nakamura_exact(game).value


# ---------------------------------------------------------------------------
# cardinality ceilings


def test_cardinality_symmetric():
    game = weighted(4, 1, 1, 1, 1, 1, 1)
    b = cardinality_bounds(game)
    assert (b.lower, b.upper) == (3, 3)
    assert not b.vetoer


def test_cardinality_dictator_flagged():
    b = cardinality_bounds(simple_game(2, [[1]]))
    assert (b.lower, b.upper) == (2, 2)
    assert b.vetoer


def test_cardinality_upper_is_heuristic():
    # the printed closed form undercuts this game's true value
    game = weighted(7, 3, 3, 3, 1, 1, 1)
    b = cardinality_bounds(game)
    assert (b.lower, b.upper) == (2, 2)
    assert nakamura_exact(game).value == 3


def test_cardinality_lower_is_sound(weighted_corpus):
    for rep, game in weighted_corpus[:200]:
        assert cardinality_bounds(game).lower <= nakamura_exact(game).value


# ---------------------------------------------------------------------------
# rough-weights ceilings


def test_alpha_roughly_arithmetic():
    b = alpha_roughly_bounds([1, 1, 1], 1)
    assert (b.lower, b.upper) == (2, 3)


def test_alpha_roughly_matches_quota_form():
    # a weighted game scaled so its quota is 1
    rep = WeightedRep(5, (3, 2, 2, 1))
    scaled = [w / rep.quota for w in rep.weights]
    b = alpha_roughly_bounds(scaled, Fraction(4, 5))
    assert b.lower == weighted_bounds(rep).lower


def test_alpha_roughly_nonpositive_denominator():
    assert alpha_roughly_bounds([1, 1], 2).upper is None


def test_alpha_roughly_on_rough_game():
    # six players, winning pairs {1,2} and {3,4}: roughly weighted at 1
    game = simple_game(6, [[1, 2], [3, 4]])
    ws = [Fraction(1, 2)] * 4 + [Fraction(0)] * 2
    assert validate_alpha_roughly(game, ws, 1)
    assert not validate_alpha_roughly(game, ws, Fraction(1, 2))
    b = alpha_roughly_bounds(ws, 1)
    value = nakamura_exact(game).value
    assert b.lower <= value <= b.upper


# ---------------------------------------------------------------------------
# quota LP


def test_max_quota_majority():
    out = max_quota_lp(weighted(2, 1, 1, 1))
    assert out.optimum == Fraction(2, 3)
    assert out.nak_lower_bound == 3
    assert out.weights == (Fraction(1, 3),) * 3


def test_max_quota_vetoer():
    out = max_quota_lp(weighted(3, 2, 1, 1))
    assert out.optimum == 1
    assert out.min_max_excess == 0
    assert out.price_of_stability == 0
    assert out.nak_lower_bound is None


def test_max_quota_homogeneous_golden():
    out = max_quota_lp(weighted(90, *([9] * 10 + [2] * 4 + [1] * 2)))
    assert out.optimum == Fraction(10, 11)
    assert out.nak_lower_bound == 11


def test_max_quota_certificate(weighted_corpus):
    for rep, game in weighted_corpus[:120]:
        out = max_quota_lp(game)
        assert sum(out.weights) == 1
        assert all(w >= 0 for w in out.weights)
        attained = min(
            sum(out.weights[i] for i in range(game.n) if w >> i & 1)
            for w in game.min_winning
        )
        assert attained == out.optimum


@pytest.mark.parametrize(
    "x, message",
    [
        ((Fraction(-1, 2), Fraction(1, 4)), "negative weight"),
        ((Fraction(1, 2), Fraction(1, 3)), "do not sum to one"),
        # the same total, moved from the light block to the heavy one
        ((Fraction(3, 4), Fraction(1, 8)), "does not attain optimum"),
    ],
    ids=["negative", "one-weight", "moved-mass"],
)
def test_max_quota_certificate_guards(x, message, monkeypatch):
    from nakamura import bounds

    # [4; 2,2,1,1,1,1]: blocks of sizes (2, 4), alpha 2 with x = (1/2, 1/4)
    game = weighted(4, 2, 2, 1, 1, 1, 1)
    assert bounds._critical_lp(2, game.view.winning, [(2, 4)]) == (
        2, (Fraction(1, 2), Fraction(1, 4)),
    )
    monkeypatch.setattr(bounds, "_critical_lp", lambda *args: (Fraction(2), x))
    with pytest.raises(InvariantError, match=message):
        max_quota_lp(game)


def test_max_quota_dominates_given_representation(weighted_corpus):
    for rep, game in weighted_corpus[:200]:
        out = max_quota_lp(game)
        q_prime = rep.quota / rep.total
        assert out.optimum >= q_prime
        assert out.nak_lower_bound >= weighted_bounds(rep).lower


# ---------------------------------------------------------------------------
# critical threshold


def test_alpha_critical_majority():
    assert alpha_critical(weighted(2, 1, 1, 1)) == Fraction(1, 2)


def test_alpha_critical_weighted_games(weighted_corpus):
    for rep, game in weighted_corpus[:60]:
        assert alpha_critical(game) < 1


def test_alpha_critical_non_weighted():
    game = simple_game(4, [[1, 2], [3, 4]])
    assert alpha_critical(game) >= 1
    assert alpha_critical(game) == 1


def test_alpha_critical_vector_level_agrees():
    from nakamura.census import enumerate_r1, is_weighted_complete
    from nakamura.games import (
        expand_complete,
        maximal_losing_vectors,
        minimal_winning_vectors,
    )

    for g in enumerate_r1(6):
        vec = oracle_alpha_critical_vectors(
            g.class_sizes, minimal_winning_vectors(g), maximal_losing_vectors(g)
        )
        player = alpha_critical(expand_complete(g))
        assert (vec < 1) == (player < 1) == is_weighted_complete(g)


def test_step_certificate_rejects_broken_certificates():
    from nakamura.bounds import _check_step_certificate

    # [3; 2, 1, 1]: classes (1, 2), one shift-minimal row (1, 1), and the
    # shift-maximal losing vectors (1, 0) and (0, 2), all as prefix sums
    row, losing = (1, 2), [(1, 1), (0, 2)]
    _check_step_certificate(row, losing, (1, 1))
    for steps in (
        (-1, 2),  # negative
        (3, -1),  # negative
        (1, 0),  # the losing (1, 0) weighs as much as the row
    ):
        with pytest.raises(InvariantError):
            _check_step_certificate(row, losing, steps)


def test_weighted_verdict_checks_its_certificate(monkeypatch):
    from nakamura import bounds
    from nakamura.bounds import is_weighted_vectors

    rows, losing = [(1, 1)], [(1, 0), (0, 2)]
    assert is_weighted_vectors(rows, losing)
    # steps (1, 0): class weights (1, 0), under which (1, 0) weighs as
    # much as the row
    wrong = (Fraction(1, 2), (Fraction(1), Fraction(0)))
    monkeypatch.setattr(bounds, "_critical_lp", lambda *args: wrong)
    with pytest.raises(InvariantError):
        is_weighted_vectors(rows, losing)


def test_weighted_verdict_checks_the_lightest_row(monkeypatch):
    from nakamura import bounds
    from nakamura.bounds import is_weighted_vectors
    from nakamura.games import CompleteGame, shift_maximal_losing_vectors

    # classes (1, 4, 1): under steps (1, 1, 0) the rows weigh 5 and 4, and
    # both losing vectors weigh 4, as much as the lighter row, so steps
    # that pass against the first row alone must still be refused
    rows = ((1, 3, 0), (0, 4, 1))
    losing = shift_maximal_losing_vectors(CompleteGame((1, 4, 1), rows))
    assert losing == [(1, 2, 1), (0, 4, 0)]
    assert is_weighted_vectors(rows, losing)
    wrong = (Fraction(1, 2), (Fraction(1), Fraction(1), Fraction(0)))
    monkeypatch.setattr(bounds, "_critical_lp", lambda *args: wrong)
    with pytest.raises(InvariantError):
        is_weighted_vectors(rows, losing)


_COMPLETE_SMALL = [g for n in range(2, 6) for g in enumerate_complete(n)]


@st.composite
def view_games(draw):
    """Games whose views have equal-weight groups, distinct weights,
    complete classes, or one block per player (antichain only)."""
    kind = draw(st.sampled_from(("grouped", "distinct", "complete", "antichain")))
    if kind == "complete":
        return expand_complete(draw(st.sampled_from(_COMPLETE_SMALL)))
    if kind == "antichain":
        n = draw(st.integers(2, 7))
        masks = draw(st.lists(st.integers(1, (1 << n) - 1), min_size=1, max_size=6))
        return SimpleGame(
            n, [m for m in masks if not any(o != m and o & m == o for o in masks)]
        )
    if kind == "grouped":
        groups = draw(st.lists(
            st.tuples(st.integers(0, 9), st.integers(1, 4)), min_size=1, max_size=3
        ))
        weights = [w for w, k in groups for _ in range(k)]
    else:
        weights = draw(
            st.lists(st.integers(1, 20), min_size=2, max_size=7, unique=True)
        )
    weights = weights if any(weights) else [1, *weights]
    return game_from_weighted(
        WeightedRep(draw(st.integers(1, sum(weights))), weights)
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(view_games())
def test_view_lp_agrees_with_player_level_oracle(game):
    # one weight per block of the view loses nothing against one weight per
    # player over the expanded antichains
    n = game.n

    def incidence(masks):
        return [[m >> i & 1 for i in range(n)] for m in masks]

    winning = incidence(game.min_winning)
    alpha, weights = critical_rough_representation(game)
    assert alpha == oracle_critical_lp(
        n, winning, incidence(oracle_maximal_losing(game))
    )[0]
    assert validate_alpha_roughly(game, weights, alpha)
    assert max_quota_lp(game).optimum == oracle_max_quota_lp((1,) * n, winning)[0]


def test_bound_sandwich(weighted_corpus):
    for rep, game in weighted_corpus[:200]:
        value = nakamura_exact(game).value
        wb = weighted_bounds(rep)
        assert wb.lower <= value
        assert wb.upper is None or value <= wb.upper
        assert greedy_upper(rep) >= value
        assert cardinality_bounds(game).lower <= value
        assert max_quota_lp(game).nak_lower_bound <= value
