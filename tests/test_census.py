import importlib
import itertools
import random

import pytest

from conftest import (
    oracle_alpha_critical_vectors,
    oracle_census_r1,
    oracle_complete_r1_counts,
    oracle_critical_lp,
    oracle_enumerate_complete,
    oracle_weighted_r1_counts,
)
from nakamura.census import (
    COMPLETE_R1,
    WEIGHTED_R1,
    _complete_r1_counts,
    census,
    compositions,
    count_r1,
    enumerate_complete,
    enumerate_r1,
    is_weighted_complete,
    is_weighted_r1,
    r1_value,
)
from nakamura.bounds import is_weighted_vectors
from nakamura.exact import nakamura_complete, nakamura_exact
from nakamura.games import (
    CapacityError,
    CompleteGame,
    InvariantError,
    complete_from_parameters,
    expand_complete,
    maximal_losing_vectors,
    minimal_winning_vectors,
    prefix_sums,
    shift_leq,
    shift_maximal_losing_vectors,
    validate_complete_parameters,
    vector_is_winning,
)

# complete single-row census as printed (columns: inf, 2, 3, ..., n)
TABLE_COMPLETE = {
    1: [1],
    2: [2, 1],
    3: [4, 2, 1],
    4: [8, 5, 1, 1],
    5: [16, 9, 4, 1, 1],
    6: [32, 19, 8, 2, 1, 1],
    7: [64, 34, 18, 7, 2, 1, 1],
    8: [128, 69, 36, 14, 4, 2, 1, 1],
}


def columns(row, n):
    return [row.column(None)] + [row.column(k) for k in range(2, n + 1)]


def test_enumerate_counts_match_direct_formula():
    for n in range(1, 11):
        assert sum(1 for _ in enumerate_r1(n)) == count_r1(n)


def test_enumerate_r1_games_are_valid():
    # enumerate_r1 builds its games without re-checking the parameters
    for n in range(1, 11):
        for g in enumerate_r1(n):
            assert validate_complete_parameters(g.class_sizes, g.shift_min) == []
            assert g == complete_from_parameters(g.class_sizes, g.shift_min)


def test_enumerate_complete_games_are_valid():
    # enumerate_complete builds its games without re-checking the parameters;
    # the weighted counts take both branches of is_weighted_complete (63
    # single-row and 1,108 multi-row games at n = 6)
    counts, weighted = [], []
    for n in range(1, 7):
        games = list(enumerate_complete(n))
        for g in games:
            assert validate_complete_parameters(g.class_sizes, g.shift_min) == []
        counts.append(len(games))
        weighted.append(sum(map(is_weighted_complete, games)))
    assert counts == [1, 3, 8, 25, 117, 1171]
    assert weighted == [1, 3, 8, 25, 117, 1111]


def test_enumerate_complete_matches_pairwise_search():
    # the bitset search yields the games in the pairwise search's order, so
    # every first witness stays the same
    for n in range(1, 7):
        assert list(enumerate_complete(n)) == oracle_enumerate_complete(n)
    # the published count of complete games on seven players
    assert sum(1 for _ in enumerate_complete(7)) == 44313


def test_enumeration_order_deterministic():
    games = list(enumerate_r1(3))
    assert [(g.class_sizes, g.shift_min[0]) for g in games] == [
        ((3,), (1,)), ((3,), (2,)), ((3,), (3,)),
        ((1, 2), (1, 0)), ((1, 2), (1, 1)),
        ((2, 1), (1, 0)), ((2, 1), (2, 0)),
    ]


def test_single_game_for_one_player():
    row = census(1)
    assert row.counts == {None: 1}


@pytest.mark.parametrize("n", sorted(TABLE_COMPLETE))
def test_complete_census_rows(n):
    assert columns(census(n), n) == TABLE_COMPLETE[n]


def test_vetoer_column_counts_rows_with_full_first_class():
    for n in range(1, 10):
        direct = sum(
            1 for g in enumerate_r1(n) if g.shift_min[0][0] == g.class_sizes[0]
        )
        assert census(n).column(None) == direct


def test_closed_form_matches_exact_solver():
    rng = random.Random(67)
    pool = [g for n in range(2, 11) for g in enumerate_r1(n)]
    for g in rng.sample(pool, 80):
        v = r1_value(g.class_sizes, g.shift_min[0])
        exact = nakamura_exact(expand_complete(g)).value
        assert v == exact


def test_prefix_ceiling_bounds_hold_on_census():
    # whenever dropping one player per class still wins, the value is at
    # most max_i ceil(O_i / i) and at most n - t + 1
    from math import ceil

    for n in range(2, 11):
        for g in enumerate_r1(n):
            sizes = g.class_sizes
            t = len(sizes)
            all_but_one = tuple(s - 1 for s in sizes)
            if any(x < 0 for x in all_but_one):
                continue
            if not vector_is_winning(g, all_but_one):
                continue
            v = r1_value(sizes, g.shift_min[0])
            if v is None:
                continue
            o = prefix_sums(sizes)
            bound = max(ceil(o[i] / (i + 1)) for i in range(t))
            assert v <= bound <= n - t + 1


def test_row_heuristic_upper_bound_random_complete():
    from math import ceil

    from conftest import random_complete_games

    rng = random.Random(71)
    sample = [g for n in range(3, 13) for g in random_complete_games(rng, n, 15)]
    for g in sample:
        if g.has_vetoers():
            continue
        v = nakamura_complete(g, want_witness=False).value
        o = prefix_sums(g.class_sizes)
        for row in g.shift_min:
            p = prefix_sums(row)
            if any(o[i] == p[i] for i in range(g.t)):
                continue  # this row alone cannot drop some class: no bound
            bound = max(ceil(o[i] / (o[i] - p[i])) for i in range(g.t))
            assert v <= bound


def test_weighted_census_small_rows_match_complete():
    # through five players every single-row complete game is weighted;
    # n = 5 refutes the printed weighted row [16, 8, 4, 1, 1]
    for n in range(1, 6):
        assert census(n, WEIGHTED_R1).counts == census(n, COMPLETE_R1).counts


def test_weighted_census_computed_rows():
    # weighted counts proved in both directions by oracle_r1_certificate
    # (conftest.py); test_acceptance.py 05b certifies rows 1-10 and compares
    # them against the printed reference rows
    assert columns(census(5, WEIGHTED_R1), 5) == [16, 9, 4, 1, 1]
    assert columns(census(6, WEIGHTED_R1), 6) == [32, 17, 8, 2, 1, 1]


def test_weighted_filter_agrees_with_reproduction():
    # alpha < 1 must coincide with being reproducible from some weighted
    # representation; reproduce via the critical-threshold weights
    from fractions import Fraction

    from nakamura.games import WeightedRep, game_from_weighted

    for n in range(2, 11):
        for g in enumerate_r1(n):
            alpha, class_w = oracle_critical_lp(
                len(g.class_sizes),
                minimal_winning_vectors(g),
                maximal_losing_vectors(g),
            )
            if alpha >= 1:
                continue
            weights = []
            for j, nj in enumerate(g.class_sizes):
                weights.extend([class_w[j]] * nj)
            rebuilt = game_from_weighted(WeightedRep(Fraction(1), weights))
            assert rebuilt.min_winning == expand_complete(g).min_winning


def test_shift_extreme_verdict_against_lattice():
    # the fold's vectors are the shift-maximal filter of the lattice's
    # maximal losing vectors, and the ordered-weight verdict on them agrees
    # with the componentwise LP on the lattice's minimal and maximal vectors
    games = [g for n in range(1, 11) for g in enumerate_r1(n)]
    games += [g for n in range(1, 7) for g in enumerate_complete(n)]
    for g in games:
        losing = maximal_losing_vectors(g)
        expected = [
            v for v in losing
            if not any(u != v and shift_leq(v, u) for u in losing)
        ]
        assert shift_maximal_losing_vectors(g) == sorted(expected, reverse=True)
        alpha = oracle_alpha_critical_vectors(
            g.class_sizes, minimal_winning_vectors(g), losing
        )
        assert is_weighted_complete(g) == (alpha < 1), (g.class_sizes, g.shift_min)


def _lp_weighted(g):
    return is_weighted_vectors(g.shift_min, shift_maximal_losing_vectors(g))


def test_weighted_r1_matches_lp():
    # the M-matrix test against the ordered-weight LP, game by game
    for n in range(1, 12):
        for g in enumerate_r1(n):
            verdict = is_weighted_r1(g.class_sizes, g.shift_min[0])
            assert verdict == _lp_weighted(g), (g.class_sizes, g.shift_min)


@pytest.mark.parametrize("n", [12, 13])
def test_weighted_census_matches_lp_filter(n):
    counts: dict = {}
    for g in enumerate_r1(n):
        if _lp_weighted(g):
            v = r1_value(g.class_sizes, g.shift_min[0])
            counts[v] = counts.get(v, 0) + 1
    assert census(n, WEIGHTED_R1).counts == counts


@pytest.mark.parametrize("tamper", ["negate", "zero"])
def test_weighted_r1_checks_both_certificates(monkeypatch, tamper):
    # negated steps are out of order and zero steps let a losing vector
    # reach the quota; a negated trade has a negative multiplier, and a
    # zeroed one trades only the failing class's losing sequence, which
    # falls short of the row at that class
    module = importlib.import_module("nakamura.census")
    solve = module._back_substitute
    change = {"negate": lambda x: -x, "zero": lambda x: 0}[tamper]
    monkeypatch.setattr(
        module, "_back_substitute", lambda m: [change(x) for x in solve(m)]
    )
    games = [g for n in range(6, 8) for g in enumerate_r1(n)]
    assert not all(_lp_weighted(g) for g in games)
    for g in games:
        with pytest.raises(InvariantError):
            is_weighted_r1(g.class_sizes, g.shift_min[0])


@pytest.mark.parametrize("tamper", ["negate", "zero"])
@pytest.mark.parametrize(
    "check, o, p",
    [
        # the weighted leaf of classes (1, 2, 4) and row (1, 1, 1), whose
        # steps come from the bordered adjugate of its first two classes
        ("_check_step_certificate", [1, 3, 7], [1, 2, 3]),
        # the prefix of classes (2, 4) and row (1, 2), pruned at n = 7
        # above its last class of size 1
        ("_check_trade_certificate", [2, 6], [1, 3]),
    ],
    ids=["leaf-steps", "prefix-trade"],
)
def test_weighted_census_checks_leaf_and_prefix_certificates(
    monkeypatch, check, o, p, tamper
):
    assert is_weighted_r1((1, 2, 4), (1, 1, 1))
    assert not is_weighted_r1((2, 4, 1), (1, 2, 0))
    module = importlib.import_module("nakamura.census")
    real = getattr(module, check)
    change = {"negate": lambda x: -x, "zero": lambda x: 0}[tamper]
    target = (p, module._greatest_losing(o, p))
    seen = []

    def tampered(row_sums, losing_sums, numbers):
        if (row_sums, losing_sums) == target:
            seen.append(numbers)
            numbers = [change(x) for x in numbers]
        real(row_sums, losing_sums, numbers)

    monkeypatch.setattr(module, check, tampered)
    with pytest.raises(InvariantError):
        census(7, WEIGHTED_R1)
    assert len(seen) == 1


def test_trade_certificate_rejects_broken_trades():
    from nakamura.census import _check_trade_certificate

    # classes (2, 4), row (1, 2): prefix sums (1, 3); the greatest losing
    # sequences (0, 4) and (2, 2) sum to twice the row's, the 2-trade
    # (0, 4) + (2, 0) = 2 (1, 2)
    row, losing = (1, 3), [(0, 4), (2, 2)]
    assert not is_weighted_r1((2, 4), (1, 2))
    _check_trade_certificate(row, losing, [1, 1])
    for lam, sequences in (
        ([2, 1], losing),  # the first prefix falls short: 2 < 3
        ([-1, 1], losing),  # negative
        ([0, 0], losing),  # all zero
        ([1, 1], [(1, 4), (2, 2)]),  # (1, 4) wins
    ):
        with pytest.raises(InvariantError):
            _check_trade_certificate(row, sequences, lam)


def test_census_caps():
    with pytest.raises(CapacityError):
        census(17, COMPLETE_R1)
    with pytest.raises(CapacityError):
        census(17, WEIGHTED_R1)
    census(13, COMPLETE_R1, cap=13)


def test_complete_census_matches_oracle():
    for n in range(1, 13):
        assert census(n).counts == oracle_census_r1(n), n


def test_complete_census_matches_per_class_count_dp():
    # the one-pass DP against the DP run once per class count t
    for n in range(1, 21):
        assert _complete_r1_counts(n) == oracle_complete_r1_counts(n), n


def test_complete_census_builds_no_game(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the complete census built a game")

    # the package re-exports census(), which shadows the module's name
    module = importlib.import_module("nakamura.census")
    monkeypatch.setattr(module, "enumerate_r1", refuse)
    monkeypatch.setattr(CompleteGame, "_trusted", refuse)
    for n in range(1, 17):
        assert census(n).total() == count_r1(n)


def test_weighted_census_builds_no_game(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the weighted census built a game")

    module = importlib.import_module("nakamura.census")
    monkeypatch.setattr(module, "enumerate_r1", refuse)
    monkeypatch.setattr(module, "is_weighted_r1", refuse)
    monkeypatch.setattr(CompleteGame, "_trusted", refuse)
    assert columns(census(6, WEIGHTED_R1), 6) == [32, 17, 8, 2, 1, 1]


def test_weighted_census_matches_per_game_loop():
    # the prefix search against deciding each game of enumerate_r1
    for n in range(1, 15):
        expected = oracle_weighted_r1_counts(n)
        assert census(n, WEIGHTED_R1).counts == expected, n


def test_weighted_games_have_at_most_four_classes():
    # observed up to n = 12, and not assumed by the prefix search: a
    # weighted single-row game has t <= 3, or t = 4 with m_4 = 0; those
    # number k^2 (k^2 - 1) / 12 for k = n - 4
    for n in range(1, 13):
        four = 0
        for g in enumerate_r1(n):
            sizes, row = g.class_sizes, g.shift_min[0]
            if is_weighted_r1(sizes, row):
                t = len(sizes)
                assert t <= 3 or (t == 4 and row[-1] == 0), (sizes, row)
                four += t == 4
        k = max(n - 4, 0)
        assert four == k * k * (k * k - 1) // 12, n


def test_census_counts_come_in_value_order():
    # None (infinite) first, then the values ascending, whatever order the
    # DP or the search meets them in; README shows the n = 6 row
    assert repr(census(6, COMPLETE_R1).counts) == (
        "{None: 32, 2: 19, 3: 8, 4: 2, 5: 1, 6: 1}"
    )
    for klass in (COMPLETE_R1, WEIGHTED_R1):
        for n in range(1, 13):
            keys = list(census(n, klass).counts)
            assert keys == [None] + sorted(keys[1:]), (klass, n)


def test_census_totals_past_the_cap():
    for n in range(1, 17):
        assert count_r1(n) == 2**n - 1
    assert census(24, cap=24).total() == 2**24 - 1


def test_census_argument_errors():
    for klass in (COMPLETE_R1, WEIGHTED_R1):
        with pytest.raises(ValueError, match="^n must be positive$"):
            census(0, klass)
    with pytest.raises(ValueError, match="^unknown census class 'bogus'$"):
        census(4, "bogus")


def test_minimal_maximal_vectors_against_lattice():
    # both lists come in lattice order, which fixes the class-level
    # critical-LP weights that reports print
    games = [g for n in range(2, 8) for g in enumerate_r1(n)]
    games += [g for n in range(1, 6) for g in enumerate_complete(n)]
    for g in games:
        sizes = g.class_sizes
        lattice = list(
            itertools.product(*(range(s + 1) for s in sizes))
        )
        winning = [c for c in lattice if vector_is_winning(g, c)]
        losing = [c for c in lattice if not vector_is_winning(g, c)]
        min_w = [
            c
            for c in winning
            if not any(
                u != c and all(a <= b for a, b in zip(u, c))
                for u in winning
            )
        ]
        max_l = [
            c
            for c in losing
            if not any(
                u != c and all(a >= b for a, b in zip(u, c))
                for u in losing
            )
        ]
        assert minimal_winning_vectors(g) == min_w
        assert maximal_losing_vectors(g) == max_l


def test_compositions_order():
    assert list(compositions(4)) == [
        (4,),
        (1, 3), (2, 2), (3, 1),
        (1, 1, 2), (1, 2, 1), (2, 1, 1),
        (1, 1, 1, 1),
    ]
    for n in range(1, 13):
        comps = list(compositions(n))
        keys = [(len(c), c) for c in comps]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        assert len(comps) == 2 ** (n - 1)
        assert all(sum(c) == n for c in comps)
