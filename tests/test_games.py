import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    oracle_cardinality_bounds,
    oracle_classify_players,
    oracle_dense_maximal_losing,
    oracle_desirability_classes,
    oracle_geq,
    oracle_is_winning,
    oracle_maximal_losing,
    oracle_minimal_winning,
    oracle_null_mask,
    oracle_vetoer_mask,
    random_complete_games,
    random_rational_rep,
    random_rep,
    random_simple_game,
    shift_minimal_vectors,
    vector_of_mask,
)
from nakamura.bounds import cardinality_bounds
from nakamura.games import (
    CapacityError,
    CompleteParameterError,
    InvalidGameError,
    SimpleGame,
    WeightedRep,
    antichains,
    classify_players,
    complete_from_parameters,
    desirability_classes,
    expand_complete,
    game_from_weighted,
    mask_from_players,
    maximal_losing,
    minimal_winning_vectors,
    players_from_mask,
    shift_leq,
    simple_game,
    structure_flags,
    vector_is_winning,
    weight_groups,
)


def coalitions(game):
    return [players_from_mask(m) for m in game.min_winning]


def three_kinds(rng, count, n_max):
    """``count`` weighted games, then complete expansions and games given
    only by their antichain, all on at most ``n_max`` players."""
    games = [game_from_weighted(random_rep(rng, n_max=n_max)) for _ in range(count)]
    for n in range(2, n_max + 1):
        games.extend(expand_complete(g) for g in random_complete_games(rng, n, 3))
    games.extend(random_simple_game(rng, n_max) for _ in range(count))
    return games


# ---------------------------------------------------------------------------
# weighted representations


def test_mask_roundtrip():
    assert players_from_mask(mask_from_players([3, 1, 5], 6)) == (1, 3, 5)
    with pytest.raises(InvalidGameError):
        mask_from_players([7], 6)


def test_weighted_rep_validation():
    with pytest.raises(InvalidGameError):
        WeightedRep(0, (1, 1))
    with pytest.raises(InvalidGameError):
        WeightedRep(3, (1, 1))
    with pytest.raises(InvalidGameError):
        WeightedRep(1, (1, -1))
    with pytest.raises(CapacityError):
        WeightedRep(1, (1,) * 65)


def test_integral_form_is_smallest_multiple():
    rep = WeightedRep(Fraction(3, 2), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)))
    assert rep.integral() == (3, (1, 1, 1))
    assert not rep.integral_input
    rep2 = WeightedRep(4, (2, 2, 2))
    assert rep2.integral() == (2, (1, 1, 1))
    assert rep2.integral_input


def test_weight_groups_order():
    rep = WeightedRep(3, (1, 2, 1, 0))
    assert weight_groups(rep) == [[1], [0, 2], [3]]


# ---------------------------------------------------------------------------
# minimal winning enumeration


def test_game_from_weighted_symmetric_majority():
    game = game_from_weighted(WeightedRep(2, (1, 1, 1)))
    assert coalitions(game) == [(1, 2), (1, 3), (2, 3)]


def test_game_from_weighted_two_classes():
    game = game_from_weighted(WeightedRep(7, (3, 3, 3, 1, 1, 1)))
    assert coalitions(game) == [
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 2, 6), (1, 3, 4),
        (1, 3, 5), (1, 3, 6), (2, 3, 4), (2, 3, 5), (2, 3, 6),
    ]


def test_game_from_weighted_pairs():
    game = game_from_weighted(WeightedRep(12, (9, 9, 7, 7)))
    assert coalitions(game) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]


def test_game_from_weighted_rejects_losing_grand():
    with pytest.raises(InvalidGameError):
        WeightedRep(10, (1, 2, 3))


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(0, 9), min_size=2, max_size=9).filter(lambda w: sum(w) > 0),
    st.data(),
)
def test_game_from_weighted_matches_bruteforce(ws, data):
    quota = data.draw(st.integers(1, sum(ws)))
    rep = WeightedRep(quota, ws)
    game = game_from_weighted(rep)
    assert list(game.min_winning) == sorted(
        oracle_minimal_winning(rep), key=players_from_mask
    )


def test_antichain_exhaustive_small():
    rng = random.Random(7)
    for _ in range(40):
        rep = random_rep(rng, n_max=9)
        ms = game_from_weighted(rep).min_winning
        for i, a in enumerate(ms):
            for b in ms[i + 1 :]:
                assert a & b != a and a & b != b


def test_antichains_skip_drops_whole_subtrees():
    # points are the subsets of a 4-set, point m being mask m: a later
    # mask is never a subset of an earlier one
    later = [
        sum(1 << j for j in range(m + 1, 16) if m & j != m) for m in range(16)
    ]
    # depth first, each antichain before its extensions by later points:
    # the lexicographic order of the ascending index tuples
    everything = sorted(
        combo
        for k in range(1, 7)
        for combo in itertools.combinations(range(16), k)
        if all(
            a & b not in (a, b) for a, b in itertools.combinations(combo, 2)
        )
    )
    assert list(antichains(later)) == everything
    assert list(antichains(later, None)) == everything

    def blocked(path):
        return 3 in path or path[:2] == (1, 6)

    def skip(path):
        asked.append(path)
        return blocked(path)

    asked = []
    kept = list(antichains(later, skip))
    # a node is asked once unless a proper prefix of it was skipped, and it
    # is yielded, in its old place, unless it is skipped itself
    assert asked == [
        path
        for path in everything
        if not any(blocked(path[:i]) for i in range(1, len(path)))
    ]
    assert kept == [path for path in asked if not blocked(path)]
    assert (3,) in asked and (1, 6) in asked and (1, 6, 8) not in asked
    assert (1, 6) not in kept and (1, 8) in kept


def test_simple_game_rejects_non_antichain():
    with pytest.raises(InvalidGameError):
        simple_game(3, [[1], [1, 2]])
    with pytest.raises(InvalidGameError):
        simple_game(3, [[]])


# ---------------------------------------------------------------------------
# dual antichain


def test_maximal_losing_dictator():
    game = simple_game(2, [[1]])
    assert [players_from_mask(m) for m in maximal_losing(game)] == [(2,)]


def test_maximal_losing_majority():
    game = game_from_weighted(WeightedRep(2, (1, 1, 1)))
    assert [players_from_mask(m) for m in maximal_losing(game)] == [
        (1,), (2,), (3,),
    ]


def test_maximal_losing_complete_route():
    g = complete_from_parameters((3, 3), [(2, 1)])
    sg = expand_complete(g)
    classes, _ = desirability_classes(sg)
    vectors = sorted({vector_of_mask(m, classes) for m in maximal_losing(sg)})
    assert vectors == [(1, 3), (2, 0)]


def test_maximal_losing_routes_agree():
    rng = random.Random(11)
    for game in three_kinds(rng, 25, 9):
        generic = SimpleGame(game.n, game.min_winning)  # players view
        assert maximal_losing(game) == maximal_losing(generic)
        assert sorted(maximal_losing(game)) == oracle_maximal_losing(game)


def test_dense_maximal_losing_matches_numpy_table():
    # a game given only by its antichain gets its maximal losing coalitions
    # from one 2^n-bit integer; the view lists them ascending, as the numpy
    # table does, which fixes the order of the critical-LP rows
    rng = random.Random(29)
    games = [random_simple_game(rng, n_max=16) for _ in range(400)]
    for _ in range(60):
        rep = random_rep(rng, n_max=12)
        games.append(SimpleGame(rep.n, game_from_weighted(rep).min_winning))
    for n in (18, 19, 20):
        game = random_simple_game(rng, n_max=n)
        while game.n != n:
            game = random_simple_game(rng, n_max=n)
        games.append(game)
    for game in games:
        expected = oracle_dense_maximal_losing(game)
        bits = range(game.n)
        assert game.view.losing == tuple(
            tuple(m >> p & 1 for p in bits) for m in expected
        )
        assert sorted(maximal_losing(game)) == expected


def test_duality_consistency():
    rng = random.Random(13)
    for _ in range(25):
        rep = random_rep(rng, n_max=9)
        game = game_from_weighted(rep)
        for t in maximal_losing(game):
            assert not oracle_is_winning(game, t)
            for i in range(game.n):
                if not t >> i & 1:
                    assert oracle_is_winning(game, t | (1 << i))


# ---------------------------------------------------------------------------
# classification


def test_classify_vetoer_and_null():
    game = game_from_weighted(WeightedRep(3, (2, 1, 1, 0)))
    cls = classify_players(game)
    assert players_from_mask(cls.vetoers) == (1,)
    assert players_from_mask(cls.nulls) == (4,)
    assert cls.passers == 0
    assert cls.dictator is None


def test_classify_passers():
    cls = classify_players(game_from_weighted(WeightedRep(1, (1, 1))))
    assert players_from_mask(cls.passers) == (1, 2)
    assert cls.vetoers == 0
    assert cls.dictator is None


def test_classify_dictator():
    cls = classify_players(game_from_weighted(WeightedRep(1, (1, 0, 0))))
    assert cls.dictator == 1
    assert players_from_mask(cls.nulls) == (2, 3)
    assert players_from_mask(cls.vetoers) == (1,)
    assert players_from_mask(cls.passers) == (1,)


def test_view_facts_match_antichain_oracles():
    # vetoers, nulls, passers, the dictator, the cardinality bounds and the
    # coalition count come from the view (a weighted game's vetoers from its
    # weights alone); the oracles read the antichain
    rng = random.Random(43)
    games = three_kinds(rng, 60, 9)
    games += [game_from_weighted(random_rational_rep(rng, 9)) for _ in range(60)]
    games += [
        game_from_weighted(WeightedRep(2, (2, 1, 0))),  # dictator and a null
        game_from_weighted(WeightedRep(Fraction(1, 2), (Fraction(1, 2), 1))),
        game_from_weighted(WeightedRep(3, (1, 1, 1))),  # all vetoers
        game_from_weighted(WeightedRep(5, (2, 0, 3, 0))),  # vetoers and nulls
        game_from_weighted(WeightedRep(4, (2, 0, 2, 1))),  # two of three veto
        game_from_weighted(WeightedRep(Fraction(7, 2), (2, 0, 0, 2))),
        expand_complete(complete_from_parameters((1, 2), [(1, 0)])),
        expand_complete(complete_from_parameters((2, 2), [(1, 0)])),
        simple_game(3, [[2]]),
    ]
    for game in games:
        view = game.view
        vetoers = game.vetoer_mask()
        assert view.quota is None or "winning" not in view.__dict__
        count = view.coalition_count(view.winning)
        facts = (
            vetoers,
            game.null_mask(),
            classify_players(game),
            cardinality_bounds(game),
        )
        assert facts == (
            oracle_vetoer_mask(game),
            oracle_null_mask(game),
            oracle_classify_players(game),
            oracle_cardinality_bounds(game),
        ), game
        assert count == len(game.min_winning)


# ---------------------------------------------------------------------------
# desirability


def test_desirability_three_classes():
    game = game_from_weighted(WeightedRep(4, (5, 4, 2, 2, 0)))
    classes, complete = desirability_classes(game)
    assert classes == ((1, 2), (3, 4), (5,))
    assert complete


def test_desirability_two_classes():
    game = game_from_weighted(WeightedRep(7, (3, 3, 3, 1, 1, 1)))
    assert desirability_classes(game) == (((1, 2, 3), (4, 5, 6)), True)


def test_desirability_incomplete():
    game = simple_game(4, [[1, 2], [3, 4]])
    classes, complete = desirability_classes(game)
    assert not complete
    assert classes == ((1, 2), (3, 4))


def test_desirability_matches_definition():
    rng = random.Random(17)
    for game in three_kinds(rng, 20, 7):
        geq = [[oracle_geq(game, i, j) for j in range(game.n)] for i in range(game.n)]
        total = all(geq[i][j] or geq[j][i] for i in range(game.n) for j in range(i))
        # on the game's own view and on the players view of its antichain
        for g in (game, SimpleGame(game.n, game.min_winning)):
            classes, complete = desirability_classes(g)
            # same partition as the full-definition relation
            label = {}
            for idx, cls in enumerate(classes):
                for p in cls:
                    label[p - 1] = idx
            for i in range(game.n):
                for j in range(game.n):
                    same = geq[i][j] and geq[j][i]
                    assert same == (label[i] == label[j])
            assert complete == total
            if complete:  # strongest class first
                for a, b in zip(classes, classes[1:]):
                    assert geq[a[0] - 1][b[0] - 1]


def _random_antichain(rng, n, count):
    """The inclusion-minimal members of ``count`` random coalitions."""
    p = rng.uniform(0.2, 0.7)
    masks = {
        sum(1 << i for i in range(n) if rng.random() < p) | 1 << rng.randrange(n)
        for _ in range(count)
    }
    return SimpleGame(
        n, tuple(m for m in masks if not any(o != m and o & m == o for o in masks))
    )


def test_desirability_classes_match_exchange_oracle():
    from nakamura.families import all_simple_games

    rng = random.Random(1301)
    games = [g for n in range(1, 6) for g in all_simple_games(n)]
    # antichains read through the winning table, and with equivalent
    # players: weighted antichains on the players view
    for _ in range(150):
        games.append(_random_antichain(rng, rng.randint(6, 14), rng.randint(2, 40)))
        weighted = game_from_weighted(random_rep(rng, n_max=14))
        games.append(SimpleGame(weighted.n, weighted.min_winning))
    games += [_random_antichain(rng, n, 40) for n in (20, 24)]
    # above DENSE_TABLE_CAP the players view keeps the exchange test
    games.append(_random_antichain(rng, 26, 30))
    # block views: row grouping over equal-weight groups and complete classes
    games += [game_from_weighted(random_rep(rng, n_max=12)) for _ in range(100)]
    for n in range(2, 9):
        games.extend(expand_complete(g) for g in random_complete_games(rng, n, 5))
    for game in games:
        assert desirability_classes(game) == oracle_desirability_classes(game), game


def test_weighted_games_are_complete():
    rng = random.Random(19)
    for _ in range(30):
        num = rng.randint(1, 11)
        den = rng.randint(1, 4)
        n = rng.randint(2, 9)
        ws = [Fraction(rng.randint(0, 9), den) for _ in range(n)]
        if sum(ws) == 0:
            continue
        quota = Fraction(num, den)
        if quota > sum(ws) or quota <= 0:
            continue
        game = game_from_weighted(WeightedRep(quota, ws))
        assert desirability_classes(game)[1]


# ---------------------------------------------------------------------------
# structure flags


def test_structure_flags_examples():
    assert structure_flags(game_from_weighted(WeightedRep(2, (1, 1, 1)))) == (
        True, True, True,
    )
    assert structure_flags(game_from_weighted(WeightedRep(1, (1, 1)))) == (
        False, True, False,
    )
    big = game_from_weighted(WeightedRep(90, (9,) * 10 + (2,) * 4 + (1,) * 2))
    assert structure_flags(big) == (True, False, False)


def test_structure_flags_match_bruteforce():
    rng = random.Random(23)
    for game in three_kinds(rng, 25, 8):
        grand = game.grand
        proper = all(
            not oracle_is_winning(game, grand & ~mask)
            for mask in range(1 << game.n)
            if oracle_is_winning(game, mask)
        )
        strong = all(
            oracle_is_winning(game, grand & ~mask)
            for mask in range(1 << game.n)
            if not oracle_is_winning(game, mask)
        )
        assert structure_flags(game) == (proper, strong, proper and strong)


# ---------------------------------------------------------------------------
# complete games


def test_complete_parameters_valid():
    g = complete_from_parameters((3, 3), [(2, 1)])
    assert g.class_sizes == (3, 3) and g.shift_min == ((2, 1),)
    complete_from_parameters((5, 5), [(2, 3)])


def test_complete_parameters_violations():
    with pytest.raises(CompleteParameterError) as err:
        complete_from_parameters((2, 2), [(1, 1), (2, 0)])
    conditions = {c for c, _ in err.value.violations}
    assert "iv" in conditions
    with pytest.raises(CompleteParameterError) as err:
        complete_from_parameters((2, 2), [(3, 0)])
    assert {c for c, _ in err.value.violations} == {"i"}
    with pytest.raises(CompleteParameterError) as err:
        complete_from_parameters((2, 2), [(0, 1)])
    assert "iii" in {c for c, _ in err.value.violations}


def test_vector_is_winning():
    g = complete_from_parameters((3, 3), [(2, 1)])
    assert vector_is_winning(g, (3, 0))
    assert not vector_is_winning(g, (1, 3))
    assert vector_is_winning(g, (3, 3))
    with pytest.raises(ValueError):
        vector_is_winning(g, (1, 1, 1))
    with pytest.raises(ValueError):
        vector_is_winning(g, (4, 0))


def test_expand_complete_matches_weighted_game():
    g = complete_from_parameters((3, 3), [(2, 1)])
    expanded = expand_complete(g)
    direct = game_from_weighted(WeightedRep(7, (3, 3, 3, 1, 1, 1)))
    assert expanded.min_winning == direct.min_winning


def test_expand_complete_symmetric():
    g = complete_from_parameters((4,), [(3,)])
    expanded = expand_complete(g)
    direct = game_from_weighted(WeightedRep(3, (1, 1, 1, 1)))
    assert expanded.min_winning == direct.min_winning


def test_expand_minimal_vectors_include_shifts():
    g = complete_from_parameters((1, 2, 1), [(1, 0, 1), (0, 2, 0)])
    assert (1, 1, 0) in minimal_winning_vectors(g)


def test_shift_monotonicity_exhaustive():
    import itertools

    for sizes, rows in [
        ((3, 3), [(2, 1)]),
        ((2, 2, 2), [(2, 1, 0), (1, 2, 1)]),
        ((4, 4), [(3, 1)]),
        ((1, 2, 1), [(1, 0, 1), (0, 2, 0)]),
    ]:
        g = complete_from_parameters(sizes, rows)
        lattice = list(itertools.product(*(range(s + 1) for s in sizes)))
        for u in lattice:
            for v in lattice:
                if shift_leq(u, v) and vector_is_winning(g, u):
                    assert vector_is_winning(g, v)


def test_roundtrip_parameters_small():
    from nakamura.census import enumerate_complete

    seen = 0
    for n in range(1, 8):
        for g in enumerate_complete(n):
            if g.r > 3:
                continue
            expanded = expand_complete(g)
            classes, complete = desirability_classes(expanded)
            assert complete
            assert tuple(len(c) for c in classes) == g.class_sizes
            vectors = {
                vector_of_mask(m, classes) for m in expanded.min_winning
            }
            assert tuple(shift_minimal_vectors(vectors)) == g.shift_min
            seen += 1
    assert seen > 100


def test_min_winning_vectors_weighted_matches_lattice():
    rng = random.Random(29)
    for _ in range(20):
        rep = random_rep(rng, n_max=8)
        groups = weight_groups(rep)
        classes = tuple(tuple(p + 1 for p in g) for g in groups)
        expected = sorted(
            {vector_of_mask(m, classes) for m in oracle_minimal_winning(rep)}
        )
        expected = [
            v
            for v in expected
            if not any(
                u != v and all(a <= b for a, b in zip(u, v)) for u in expected
            )
        ]
        assert sorted(rep.view.winning) == expected
