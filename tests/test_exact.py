import ast
import gc
import itertools
import random
import sys
import time
from fractions import Fraction
from math import ceil
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import nakamura
from nakamura import exact, games
from nakamura.bounds import greedy_upper, strip_rounds, weighted_bounds
from nakamura.census import enumerate_complete
from nakamura.cli import main
from nakamura.families import all_simple_games, simple_antichains
from conftest import (
    dense_winning_table,
    game_from_table,
    oracle_is_winning,
    oracle_nakamura,
    random_rep,
    random_simple_game,
    random_vetoer_free,
    vector_of_mask,
)
from nakamura.exact import (
    NakamuraResult,
    SolveStats,
    nakamura_by_vectors,
    nakamura_complete,
    nakamura_exact,
    nakamura_symmetric,
    solve_covering_ilp,
    verify_witness,
)
from nakamura.games import (
    InvalidGameError,
    SimpleGame,
    WeightedRep,
    classify_players,
    complete_from_parameters,
    desirability_classes,
    expand_complete,
    game_from_weighted,
    mask_from_players,
    players_from_mask,
    structure_flags,
)


def weighted(quota, *weights):
    return game_from_weighted(WeightedRep(quota, weights))


# ---------------------------------------------------------------------------
# symmetric closed form


def test_symmetric_examples():
    assert nakamura_symmetric(5, 3).value == 3
    assert nakamura_symmetric(5, 5).value is None
    assert nakamura_symmetric(4, 3).value == 4


def test_symmetric_witness_verifies():
    for n in range(2, 9):
        for qhat in range(1, n):
            res = nakamura_symmetric(n, qhat)
            game = weighted(qhat, *([1] * n))
            assert len(res.witness) == res.value
            assert verify_witness(game, res.witness)


def test_symmetric_quota_range():
    with pytest.raises(InvalidGameError):
        nakamura_symmetric(4, 0)
    with pytest.raises(InvalidGameError):
        nakamura_symmetric(4, 5)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 9), st.data())
def test_symmetric_matches_cover_solver(n, data):
    qhat = data.draw(st.integers(1, n - 1))
    game = weighted(qhat, *([1] * n))
    assert nakamura_exact(game).value == ceil(n / (n - qhat))


# ---------------------------------------------------------------------------
# exact solver


def test_exact_majority_golden_witness():
    res = nakamura_exact(weighted(2, 1, 1, 1))
    assert res.value == 3
    assert [players_from_mask(m) for m in res.witness] == [
        (1, 2), (1, 3), (2, 3),
    ]


def test_exact_homogeneous_16_players():
    game = weighted(90, *([9] * 10 + [2] * 4 + [1] * 2))
    res = nakamura_exact(game)
    assert res.value == 11
    assert len(res.witness) == 11
    assert verify_witness(game, res.witness)


def test_exact_vetoer_infinite():
    res = nakamura_exact(weighted(3, 2, 1, 1))
    assert res.value is None and res.witness == ()


def test_exact_two_heavy():
    assert nakamura_exact(weighted(11, 5, 5, 2, 2, 2, 2, 2, 2)).value == 2


def test_methods_agree():
    rng = random.Random(31)
    for _ in range(30):
        rep, game = random_vetoer_free(rng, n_max=9)
        cover = nakamura_exact(game)
        vectors = nakamura_by_vectors(game)
        assert cover.value == vectors.value
        assert verify_witness(game, cover.witness)
        assert verify_witness(game, vectors.witness)
        assert len(vectors.witness) == vectors.value


def test_exact_matches_subset_oracle():
    rng = random.Random(37)
    checked = 0
    while checked < 25:
        rep, game = random_vetoer_free(rng, n_max=8)
        if len(game.min_winning) > 22:
            continue
        assert nakamura_exact(game).value == oracle_nakamura(game)
        checked += 1


def test_restriction_to_minimal_coalitions_is_lossless():
    # also cover with complements of *all* winning coalitions; the optimum
    # must not change
    from nakamura.cover import min_cover

    rng = random.Random(41)
    for _ in range(15):
        rep, game = random_vetoer_free(rng, n_max=8)
        win = dense_winning_table(game)
        complements = [
            game.grand & ~mask
            for mask in range(1 << game.n)
            if win[mask]
        ]
        chosen = min_cover(game.grand, complements)
        assert len(chosen) == nakamura_exact(game).value


# ---------------------------------------------------------------------------
# structural consequences


def test_no_vetoer_value_range_and_passers(weighted_corpus):
    for rep, game in weighted_corpus[:300]:
        value = nakamura_exact(game).value
        assert 2 <= value <= game.n
        cls = classify_players(game)
        if cls.passers and cls.dictator is None:
            assert value == 2


def test_null_player_deletion_invariance(weighted_corpus):
    deleted = 0
    for rep, game in weighted_corpus:
        nulls = classify_players(game).nulls
        if not nulls:
            continue
        keep = [i for i in range(game.n) if not nulls >> i & 1]
        remap = {old: new for new, old in enumerate(keep)}
        masks = []
        for w in game.min_winning:
            m = 0
            for old in range(game.n):
                if w >> old & 1:
                    m |= 1 << remap[old]
            masks.append(m)
        reduced = SimpleGame(len(keep), tuple(masks))
        assert nakamura_exact(reduced).value == nakamura_exact(game).value
        deleted += 1
        if deleted >= 25:
            break
    assert deleted >= 10


def test_intersection_bound_small_subsets():
    rng = random.Random(43)
    for _ in range(10):
        rep, game = random_vetoer_free(rng, n_max=8)
        value = nakamura_exact(game).value
        ms = game.min_winning
        for k in (1, 2, 3):
            for combo in itertools.combinations(ms[:6], k):
                inter = game.grand
                for w in combo:
                    inter &= w
                assert value <= inter.bit_count() + k


def test_properness_characterization(weighted_corpus):
    for rep, game in weighted_corpus[:300]:
        value = nakamura_exact(game).value
        flags = structure_flags(game)
        assert (value == 2) == (not flags.proper)
        if flags.constant_sum:
            assert value == 3
        if value > 3:
            assert flags.proper and not flags.strong


# ---------------------------------------------------------------------------
# intersections and unions


def test_intersection_union_monotonicity():
    rng = random.Random(47)
    pairs = 0
    while pairs < 25:
        n = rng.randint(3, 8)
        rep1, g1 = random_vetoer_free(rng, n_max=n)
        rep2, g2 = random_vetoer_free(rng, n_max=n)
        if g1.n != n or g2.n != n:
            continue
        w1 = dense_winning_table(g1)
        w2 = dense_winning_table(g2)
        inter = game_from_table(n, w1 & w2)
        union = game_from_table(n, w1 | w2)
        v1 = nakamura_exact(g1).value
        v2 = nakamura_exact(g2).value
        if inter is not None:
            vi = nakamura_exact(inter).value
            if vi is not None:
                assert vi >= max(v1, v2)
        vu = nakamura_exact(union).value
        assert vu <= min(v1, v2)
        pairs += 1


# ---------------------------------------------------------------------------
# condensed solvers


def test_covering_ilp_infeasible():
    assert solve_covering_ilp([(0, 1)], (2, 2)) is None


def test_by_vectors_example():
    game = weighted(4, 2, 2, 1, 1, 1, 1)
    assert game.view.sizes == (2, 4)
    assert sorted(game.view.winning, reverse=True) == [(2, 0), (1, 2), (0, 4)]
    res = nakamura_by_vectors(game)
    assert res.value == 2
    assert [players_from_mask(m) for m in res.witness] == [
        (1, 2), (3, 4, 5, 6),
    ]
    assert verify_witness(game, res.witness)


def test_by_vectors_two_class_game():
    game = weighted(7, 3, 3, 3, 1, 1, 1)
    res = nakamura_by_vectors(game)
    assert res.value == 3
    assert verify_witness(game, res.witness)


def test_by_vectors_symmetric_reduces_to_formula():
    for n, qhat in [(5, 3), (7, 4), (9, 6)]:
        game = weighted(qhat, *([1] * n))
        assert sorted(game.view.winning, reverse=True) == [(qhat,)]
        assert nakamura_by_vectors(game).value == ceil(n / (n - qhat))


def test_by_vectors_rejects_vetoers():
    # player 1 vetoes both; in the second game every desirability class
    # holds one player, so its vectors go to the cover
    singletons = SimpleGame(5, tuple(
        mask_from_players(c, 5) for c in [(1, 2, 3), (1, 2, 4), (1, 3, 5)]
    ))
    for game in (weighted(3, 2, 1, 1), singletons):
        with pytest.raises(InvalidGameError):
            nakamura_by_vectors(game)


def test_complete_prefix_program():
    g = complete_from_parameters((10, 10), [(7, 8)])
    res = nakamura_complete(g)
    assert res.value == 4
    assert verify_witness(expand_complete(g), res.witness)

    g2 = complete_from_parameters((5, 5), [(2, 3)])
    res2 = nakamura_complete(g2)
    assert res2.value == 2
    assert verify_witness(expand_complete(g2), res2.witness)

    g3 = complete_from_parameters((3, 3), [(2, 1)])
    res3 = nakamura_complete(g3)
    assert res3.value == 3
    assert verify_witness(expand_complete(g3), res3.witness)


def test_complete_vetoer_infinite():
    g = complete_from_parameters((2, 3), [(2, 1)])
    assert nakamura_complete(g).value is None


def test_consistency_triangle():
    from conftest import random_complete_games
    from nakamura.census import enumerate_complete

    def check(g):
        expanded = expand_complete(g)
        complete = nakamura_complete(g)
        vectors = nakamura_by_vectors(expanded)
        value = nakamura_exact(expanded).value
        assert complete.value == value == vectors.value, (g.class_sizes, g.shift_min)
        assert verify_witness(expanded, complete.witness), (g.class_sizes, g.shift_min)
        assert len(complete.witness) == complete.value
        assert len(vectors.witness) == vectors.value

    # exhaustive for up to six players, random complete games from six on
    for n in range(1, 7):
        for g in enumerate_complete(n):
            if not g.has_vetoers():
                check(g)
    rng = random.Random(53)
    for n in range(6, 15):
        for g in random_complete_games(rng, n, 12):
            if not g.has_vetoers():
                check(g)


def test_replica_threshold_report():
    # replicas of (3, 2) at relative quota 3/5; the quota ceiling is 3
    results = {}
    for r in (1, 2):
        rep = WeightedRep(
            3 * 5 * r // 5, tuple(w for w in (3, 2) for _ in range(r))
        )
        value = nakamura_exact(game_from_weighted(rep)).value
        results[r] = value
    # report: the ceiling formula holds from r = 2 on within the tested range
    assert results[1] is None
    assert results[2] == 3
    threshold = min(r for r, v in results.items() if v == 3)
    assert threshold == 2


# ---------------------------------------------------------------------------
# witnesses


def test_verify_witness_examples():
    game = weighted(2, 1, 1, 1)
    w12 = mask_from_players([1, 2], 3)
    w13 = mask_from_players([1, 3], 3)
    w23 = mask_from_players([2, 3], 3)
    assert verify_witness(game, [w12, w23, w13])
    assert not verify_witness(game, [w12, w13])
    assert not verify_witness(game, [])


def test_verify_witness_eleven_family():
    game = weighted(90, *([9] * 10 + [2] * 4 + [1] * 2))
    n = 16
    family = [mask_from_players(range(1, 11), n)]
    for missing in range(1, 11):
        players = [p for p in range(1, 11) if p != missing] + [11, 12, 13, 14, 15]
        family.append(mask_from_players(players, n))
    assert len(family) == 11
    assert verify_witness(game, family)


def test_decision_modules_divide_in_integers_only():
    # integer ceilings are written -(-a // b): a true division would pass
    # the value through floating point
    root = Path(nakamura.__file__).parent
    for name in (
        "exact.py", "census.py", "cover.py", "lp.py",
        "games.py", "gamefiles.py", "cli.py", "families.py",
    ):
        tree = ast.parse((root / name).read_text(), name)
        divs = [node for node in ast.walk(tree) if isinstance(node, ast.Div)]
        lines = [
            node.lineno
            for node in ast.walk(tree)
            if isinstance(getattr(node, "op", None), ast.Div)
        ]
        assert not divs, f"{name}: true division on lines {lines}"


def test_runtime_imports_only_the_standard_library():
    # the package runs on the standard library alone; numpy, scipy and the
    # other test dependencies stay in the tests
    root = Path(nakamura.__file__).parent
    for path in sorted(root.glob("*.py")):
        tree = ast.parse(path.read_text(), path.name)
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.extend(alias.name for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names.append(node.module)
        foreign = [
            name
            for name in names
            if name.split(".")[0] not in sys.stdlib_module_names | {"nakamura"}
        ]
        assert not foreign, f"{path.name}: imports {foreign}"



# ---------------------------------------------------------------------------
# root bound, strip incumbent and routing


def _weighted_witness_ok(rep, witness) -> bool:
    """Every coalition reaches the integral quota; no player is in all."""
    qhat, what = rep.integral()
    inter = (1 << rep.n) - 1
    for c in witness:
        if sum(w for i, w in enumerate(what) if c >> i & 1) < qhat:
            return False
        inter &= c
    return inter == 0


def _complete_witness_ok(g, witness) -> bool:
    """Every coalition's prefix counts dominate some shift-minimal row's
    (players numbered class by class); no player is in all."""
    starts = [0, *itertools.accumulate(g.class_sizes)]
    rows = [list(itertools.accumulate(r)) for r in g.shift_min]
    inter = (1 << g.n) - 1
    for c in witness:
        counts = [
            sum(c >> p & 1 for p in range(a, b))
            for a, b in zip(starts, starts[1:])
        ]
        prefix = list(itertools.accumulate(counts))
        if not any(all(map(int.__ge__, prefix, row)) for row in rows):
            return False
        inter &= c
    return inter == 0


def _all_routes(game):
    """``nakamura_exact`` as routed, and with every game above the cover
    cap (the condensed cover or the vectors program), plus the vectors
    program called directly."""
    with mock.patch.object(exact, "_COVER_SET_CAP", 0):
        condensed = nakamura_exact(game)
    return [nakamura_exact(game), condensed, nakamura_by_vectors(game)]


_COMPLETE_SMALL = [
    g for n in range(2, 6) for g in enumerate_complete(n) if not g.has_vetoers()
]


@st.composite
def small_weighted(draw):
    """Weighted games on 2..8 players: zero, equal and rational weights."""
    n = draw(st.integers(2, 8))
    ws = [
        Fraction(draw(st.integers(0, 9)), draw(st.sampled_from((1, 1, 2, 3))))
        for _ in range(n)
    ]
    if not any(ws):
        ws[0] = Fraction(1)
    quota = sum(ws) * Fraction(draw(st.integers(1, 11)), 12)
    return WeightedRep(quota, ws)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(small_weighted())
def test_solvers_agree_on_weighted_games(rep):
    game = game_from_weighted(rep)
    if game.vetoer_mask():
        assert nakamura_exact(game).value is None
        assert oracle_nakamura(game) is None
        assert greedy_upper(rep) is None
        return
    value = oracle_nakamura(game)
    for res in _all_routes(game):
        assert res.value == value
        assert len(res.witness) == value
        assert _weighted_witness_ok(rep, res.witness)
    rounds = strip_rounds(rep.view)
    assert _weighted_witness_ok(rep, rounds)
    assert weighted_bounds(rep).lower <= value <= greedy_upper(rep) == len(rounds)


@st.composite
def listed_games(draw):
    """Games given only by their antichain, on 2..9 players: random
    antichains, and weighted games listed coalition by coalition."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        return random_simple_game(rng, n_max=9)
    rep = random_rep(rng, n_max=9)
    return SimpleGame(rep.n, game_from_weighted(rep).min_winning)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(listed_games())
def test_minimal_coalitions_give_the_minimal_class_vectors(game):
    # the vectors program of a listed game takes the count vectors of its
    # minimal winning coalitions over the desirability classes as they
    # come: they must be exactly the minimal vectors among the count
    # vectors of all winning coalitions
    classes, _ = desirability_classes(game)
    projected = {vector_of_mask(m, classes) for m in game.min_winning}
    winning = {
        vector_of_mask(m, classes)
        for m in range(1 << game.n)
        if oracle_is_winning(game, m)
    }
    minimal = {
        v for v in winning
        if not any(u != v and all(map(int.__le__, u, v)) for u in winning)
    }
    assert projected == minimal
    if not game.vetoer_mask():
        res = nakamura_by_vectors(game)
        assert res.value == nakamura_exact(game).value == len(res.witness)
        assert verify_witness(game, res.witness)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_COMPLETE_SMALL))
def test_solvers_agree_on_complete_games(g):
    game = expand_complete(g)
    value = oracle_nakamura(game)
    results = [nakamura_complete(g), *_all_routes(game)]
    for res in results:
        assert res.value == value
        assert len(res.witness) == value
        assert _complete_witness_ok(g, res.witness)
    assert nakamura_complete(g, want_witness=False).value == value


# games whose root bound settles them, but which the search alone did not
# solve within seconds (or at all: the 20-player game overflowed the stack)
HARD_WEIGHTED = [
    (175, [21, 10, 26, 4, 5, 35, 7, 24, 38, 4, 33, 14, 3, 6, 28, 27, 5, 16, 6, 36], 3),
    (54, [5, 5, 5, 3, 5, 5, 5, 1, 5, 5, 5, 3, 5, 5, 1, 5, 3, 1], 4),
    (130, [5] * 12 + [3] * 16 + [2] * 12 + [1] * 20, 7),
    # the vectors greedy needs 4 here
    (435, [45, 67, 36, 18, 32, 48, 46, 12, 54, 63, 64, 40, 38, 19, 2, 51, 43], 3),
]


@pytest.mark.parametrize("quota,weights,value", HARD_WEIGHTED)
def test_hard_weighted_games_settle_at_the_root(quota, weights, value):
    rep = WeightedRep(quota, weights)
    game = game_from_weighted(rep)
    start = time.process_time()
    res = nakamura_exact(game)
    assert time.process_time() - start < 1.0
    assert res.value == value == len(res.witness)
    assert _weighted_witness_ok(rep, res.witness)
    assert verify_witness(game, res.witness)
    assert res.stats.root_lb == value and res.stats.nodes == 0


def test_weights_settle_builds_no_winning_vector(capsys, monkeypatch):
    # the quota ceiling and the strip read only the weights, so a game they
    # settle never runs the count search of its view
    def refuse(*args):
        raise AssertionError("minimal winning vectors built")

    monkeypatch.setattr(games, "_minimal_counts", refuse)
    for quota, weights, value in HARD_WEIGHTED:
        game = weighted(quota, *weights)
        res = nakamura_exact(game)
        assert res.value == value and res.stats.path == "weights"
        assert "winning" not in game.view.__dict__
    dense20 = Path(__file__).parent / "golden" / "dense20.game"
    assert main(["nakamura", str(dense20), "--witness"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "3" and len(lines) == 4


def test_solve_stats_record_path_bound_and_settlement():
    stats = {
        spec[0]: nakamura_exact(game_from_weighted(WeightedRep(*spec[:2]))).stats
        for spec in HARD_WEIGHTED
    }
    assert stats[175] == SolveStats("weights", 3, "ceiling", "strip", 0)
    assert stats[54] == SolveStats("weights", 4, "ceiling", "strip", 0)
    assert stats[130] == SolveStats("weights", 7, "ceiling", "strip", 0)
    assert stats[435] == SolveStats("weights", 3, "ceiling", "strip", 0)
    # where the strip misses the quota ceiling, the cover and the vectors
    # program search from it
    cover = weighted(131, 15, 34, 27, 9, 7, 4, 19, 22, 12, 23, 25)
    assert nakamura_exact(cover).stats == SolveStats(
        "cover", 3, "ceiling", "search", 48
    )
    vectors = weighted(49, *[4, 2, 6, 6, 6, 4, 2, 6, 6, 4, 4, 2, 2, 2, 4, 4, 4, 6])
    assert nakamura_exact(vectors).stats == SolveStats(
        "vectors", 3, "ceiling", "search", 369
    )
    # a game given by its antichain has no quota ceiling: the cover's own
    # ceiling or the quota LP supplies the bound, and the search proves it
    game = SimpleGame(5, (0b00111, 0b11001, 0b10110, 0b01110))
    res = nakamura_exact(game)
    assert res.stats.path == "cover" and res.stats.root_source in ("comb", "lp")
    assert res.stats.root_lb <= res.value
    assert (res.stats.settled == "search") == (res.stats.nodes > 0)
    # one row: the program's ceiling is the closed form, and the greedy
    # meets it with or without a witness
    g = complete_from_parameters((10, 10), [(7, 8)])
    complete = nakamura_complete(g).stats
    assert complete == SolveStats("complete", 4, "comb", "greedy", 0)
    assert nakamura_complete(g, want_witness=False).stats == complete
    # the record takes no part in equality
    assert NakamuraResult(3, (1, 2, 4), complete) == NakamuraResult(3, (1, 2, 4))


def test_complete_value_alone_builds_no_coalition_or_view():
    # two rows: the value comes from the prefix program's multiplicities
    g = complete_from_parameters((1, 3), [(1, 1), (0, 3)])
    res = nakamura_complete(g, want_witness=False)
    assert (res.value, res.witness) == (3, ())
    assert res.stats == nakamura_complete(g).stats
    assert res.stats == SolveStats("complete", 2, "comb", "search", 4)
    assert "view" not in vars(g)


def _greedy_trap(fillers: int):
    """A covering program whose greedy takes 3 columns where 2 suffice,
    behind ``fillers`` empty columns that the search walks through."""
    useful = [
        (0, 1, 1, 1, 1, 0),  # the greedy's first pick
        (1, 1, 1, 0, 0, 0),
        (0, 0, 0, 1, 1, 1),
    ]
    return [(0,) * 6] * fillers + useful, (1,) * 6


def test_covering_ilp_search_is_not_bounded_by_recursion_depth():
    columns, demands = _greedy_trap(sys.getrecursionlimit() + 500)
    stats = {}
    best, x = solve_covering_ilp(columns, demands, stats=stats)
    assert best == 2 and x[-2:] == [1, 1] and not any(x[:-2])
    assert stats["nodes"] > len(columns)
    # an incumbent meeting the root bound ends the search at once
    assert solve_covering_ilp(columns, demands, root_lb=3, stats=stats)[0] == 3
    assert stats["nodes"] == 0


def test_covering_ilp_search_leaves_no_cyclic_garbage():
    columns, demands = _greedy_trap(50)
    gc.collect()
    gc.disable()
    try:
        stats = {}
        assert solve_covering_ilp(columns, demands, stats=stats)[0] == 2
        assert stats["nodes"] > 0
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cover_and_count_searches_leave_no_cyclic_garbage():
    rep = WeightedRep(90, [9] * 10 + [2] * 4 + [1] * 2)
    game = game_from_weighted(WeightedRep(48, (7, 3, 8, 7, 3, 8, 8, 9, 1, 4)))
    gc.collect()
    gc.disable()
    try:
        assert len(rep.view.winning) > 0  # the count search of a weights view
        assert gc.collect() == 0
        res = nakamura_exact(game)
        assert res.stats.settled == "search" and res.value == 7
        assert gc.collect() == 0
        # the recursive antichain and game generators, run out and closed
        # early; the first search runs on four pairwise incomparable points
        def unordered(n):
            return games.antichains([(1 << n) - (2 << k) for k in range(n)])

        for generate in (
            unordered,
            simple_antichains,
            all_simple_games,
            enumerate_complete,
        ):
            assert sum(1 for _ in generate(4)) > 0
            assert gc.collect() == 0
            games_of_4 = generate(4)
            next(games_of_4)
            next(games_of_4)
            games_of_4.close()
            assert gc.collect() == 0
    finally:
        gc.enable()
