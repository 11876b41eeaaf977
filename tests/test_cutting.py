import random
from fractions import Fraction
from math import ceil

import pytest

from conftest import (
    PatternSet,
    oracle_solve_lp,
    patterns_from_game,
    patterns_from_instance,
    random_rep,
    random_simple_game,
    random_vetoer_free,
    trim_to_partition,
    z_b,
    z_c,
)
from nakamura import bounds
from nakamura.census import enumerate_complete
from nakamura.cutting import (
    CspInstance,
    conjecture_roundup_probe,
    game_from_instance,
    instance_from_game,
    z_b_losing_cover,
)
from nakamura.exact import nakamura_exact
from nakamura.games import (
    InvalidGameError,
    WeightedRep,
    expand_complete,
    game_from_weighted,
    maximal_losing,
    players_from_mask,
    simple_game,
)
from nakamura.lp import OPTIMAL

PAPER_LENGTHS = (9, 12, 12, 16, 16, 46, 46, 54, 69, 77, 102)


def weighted(quota, *weights):
    return game_from_weighted(WeightedRep(quota, weights))


# ---------------------------------------------------------------------------
# pattern construction


def test_patterns_three_singletons():
    pats = patterns_from_instance(CspInstance(10, (6, 6, 6)))
    assert sorted(players_from_mask(p) for p in pats.patterns) == [
        (1,), (2,), (3,),
    ]


def test_patterns_tiny_stock():
    pats = patterns_from_instance(CspInstance(1, (1, 1)))
    assert sorted(players_from_mask(p) for p in pats.patterns) == [(1,), (2,)]


def test_patterns_everything_fits():
    # no item has to be left out: the one maximal pattern holds them all
    pats = patterns_from_instance(CspInstance(10, (3, 3)))
    assert [players_from_mask(p) for p in pats.patterns] == [(1, 2)]


def test_patterns_oversized_item_rejected():
    with pytest.raises(InvalidGameError, match="item 2"):
        patterns_from_instance(CspInstance(5, (3, 7)))


def test_patterns_paper_instance_membership():
    pats = patterns_from_instance(CspInstance(155, PAPER_LENGTHS))
    first_seven = sum(PAPER_LENGTHS[:7])
    assert first_seven == 157  # cannot fit
    bad = (1 << 7) - 1
    good = (1 << 6) - 1  # first six items weigh 111
    assert all(p & bad != bad for p in pats.patterns)
    assert any(p & good == good for p in pats.patterns)
    # every pattern is feasible and maximal
    for p in pats.patterns:
        total = sum(PAPER_LENGTHS[i] for i in range(11) if p >> i & 1)
        assert total <= 155
        for i in range(11):
            if not p >> i & 1:
                assert total + PAPER_LENGTHS[i] > 155


def test_patterns_from_game_majority():
    game = weighted(2, 1, 1, 1)
    pats = patterns_from_game(game)
    assert sorted(players_from_mask(p) for p in pats.patterns) == [
        (1,), (2,), (3,),
    ]


def test_patterns_from_game_two_classes():
    game = weighted(4, 2, 2, 1, 1, 1, 1)
    pats = patterns_from_game(game)
    expected = {game.grand & ~w for w in game.min_winning}
    assert set(pats.patterns) == expected


# ---------------------------------------------------------------------------
# z_B / z_C


def test_zb_singletons():
    pats = PatternSet(3, (0b001, 0b010, 0b100))
    assert z_b(pats) == 3


def test_zb_equals_nakamura_majority():
    game = weighted(2, 1, 1, 1)
    assert z_b(patterns_from_game(game)) == 3 == nakamura_exact(game).value


def test_zb_symmetric_k3():
    k = 3
    game = weighted(16 * k - 20, *([9] * k + [7] * k))
    assert z_b(patterns_from_game(game)) == k


def test_zb_infeasible_on_vetoer_game():
    game = simple_game(2, [[1]])
    assert z_b(patterns_from_game(game)) is None
    assert nakamura_exact(game).value is None


def test_zc_singletons():
    pats = PatternSet(3, (0b001, 0b010, 0b100))
    assert z_c(pats) == 3


def test_zc_complement_columns_k2():
    k = 2
    game = weighted(16 * k - 20, *([9] * k + [7] * k))
    assert z_c(patterns_from_game(game)) == 2


def test_zc_fractional_pair_columns():
    # three items, columns = the three 2-subsets: half each covers exactly
    pats = PatternSet(3, (0b011, 0b101, 0b110))
    assert z_c(pats) == Fraction(3, 2)


def test_zc_never_exceeds_zb():
    rng = random.Random(73)
    for _ in range(20):
        rep, game = random_vetoer_free(rng, n_max=8)
        pats = patterns_from_game(game)
        assert z_c(pats) <= z_b(pats)


def test_zc_covering_equals_closure_equality_lp():
    # the covering optimum over maximal columns equals the exact-partition
    # optimum over the subset-closed column set
    rng = random.Random(79)
    for _ in range(8):
        m = rng.randint(3, 6)
        lengths = [rng.randint(1, 9) for _ in range(m)]
        stock = max(max(lengths), rng.randint(3, sum(lengths) - 1))
        inst = CspInstance(stock, lengths)
        pats = patterns_from_instance(inst)
        closure = set()
        for p in pats.patterns:
            sub = p
            while True:
                closure.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & p
        cols = sorted(closure)
        rows = [
            ([(c >> i) & 1 for c in cols], "==", 1) for i in range(m)
        ]
        res = oracle_solve_lp([1] * len(cols), rows)
        assert res.status == OPTIMAL
        assert res.objective == z_c(pats)


def test_trim_to_partition():
    pats = PatternSet(4, (0b0111, 0b1100, 0b1000))
    chosen = [0, 1]
    parts = trim_to_partition(pats, chosen)
    assert parts == [0b0111, 0b1000]
    assert parts[0] | parts[1] == 0b1111
    assert parts[0] & parts[1] == 0
    with pytest.raises(InvalidGameError):
        trim_to_partition(pats, [0])


# ---------------------------------------------------------------------------
# instance <-> game duality


def test_game_from_instance_paper():
    rep = game_from_instance(CspInstance(155, PAPER_LENGTHS))
    assert rep.quota == 304
    assert rep.weights == tuple(Fraction(x) for x in PAPER_LENGTHS)


def test_game_from_instance_degenerate():
    with pytest.raises(InvalidGameError):
        game_from_instance(CspInstance(10, (3, 3)))


def test_feasible_iff_complement_winning_exhaustive():
    rng = random.Random(83)
    for _ in range(10):
        m = rng.randint(2, 9)
        lengths = [rng.randint(1, 9) for _ in range(m)]
        stock = rng.randint(max(lengths), sum(lengths) - 1)
        inst = CspInstance(stock, lengths)
        rep = game_from_instance(inst)
        game = game_from_weighted(rep)
        grand = (1 << m) - 1
        for mask in range(1 << m):
            feasible = (
                sum(lengths[i] for i in range(m) if mask >> i & 1) <= stock
            )
            assert feasible == game.is_winning(grand & ~mask)


def test_instance_from_game_feasible_iff_losing():
    rng = random.Random(89)
    checked = 0
    while checked < 10:
        rep, game = random_vetoer_free(rng, n_max=9)
        qhat, what = rep.integral()
        if qhat < 2 or any(w == 0 for w in what) or max(what) >= qhat:
            continue  # zero weights / passers admit no item of their size
        inst = instance_from_game(rep)
        for mask in range(1 << game.n):
            feasible = (
                sum(what[i] for i in range(game.n) if mask >> i & 1)
                <= inst.stock
            )
            assert feasible == (not game.is_winning(mask))
        pats = patterns_from_instance(inst)
        assert sorted(pats.patterns) == sorted(maximal_losing(game))
        checked += 1


# ---------------------------------------------------------------------------
# losing covers (strong games)


def test_losing_cover_majority():
    game = weighted(2, 1, 1, 1)
    value = z_b_losing_cover(game)
    assert value == 3
    assert nakamura_exact(game).value <= value


def test_losing_cover_constant_sum_five():
    game = weighted(3, 1, 1, 1, 1, 1)
    assert z_b_losing_cover(game) == 3
    assert nakamura_exact(game).value == 3


def test_losing_cover_degenerate_strong_game():
    game = weighted(1, 1, 1)  # strong, non-proper; only the empty set loses
    assert z_b_losing_cover(game) is None


def test_losing_cover_rejects_non_strong():
    game = simple_game(4, [[1, 2], [3, 4]])
    with pytest.raises(InvalidGameError):
        z_b_losing_cover(game)


def test_losing_cover_bounds_value_on_strong_corpus(weighted_corpus):
    from nakamura.games import structure_flags

    checked = 0
    for rep, game in weighted_corpus:
        if not structure_flags(game).strong:
            continue
        value = z_b_losing_cover(game)
        if value is None:
            continue
        assert nakamura_exact(game).value <= value
        checked += 1
        if checked >= 30:
            break
    assert checked >= 10


# ---------------------------------------------------------------------------
# round-up probes


def test_probe_majority_inside():
    game = weighted(2, 1, 1, 1)
    probe = conjecture_roundup_probe(game)
    assert probe["z_c"] == 3
    assert probe["bound"] == 4
    assert probe["inside"]


def test_probe_pairs_game_inside():
    game = weighted(12, 9, 9, 7, 7)
    probe = conjecture_roundup_probe(game)
    assert probe["nakamura"] == 2
    assert probe["z_c"] == 2
    assert probe["inside"]


def test_probe_paper_instance_recorded():
    inst = CspInstance(155, PAPER_LENGTHS)
    game = game_from_weighted(game_from_instance(inst))
    probe = conjecture_roundup_probe(game, inst)
    assert probe["nakamura"] == 4
    assert probe["z_c"] == Fraction(374, 125)
    assert probe["bound"] == 3
    # the floor form of the round-up bound fails here; recorded, not forced
    assert probe["inside"] is False
    assert probe["instance"]["z_b"] == 4
    assert probe["instance"]["irup"] is False
    assert probe["instance"]["mirup"] is True


def test_probe_rejects_item_longer_than_stock():
    # an item exactly as long as the stock fits; half a unit more does not
    fits = CspInstance(5, (3, 5))
    probe = conjecture_roundup_probe(
        game_from_weighted(game_from_instance(fits)), fits
    )
    assert probe["instance"]["z_b"] == 2
    over = CspInstance(5, (3, Fraction(11, 2)))
    with pytest.raises(InvalidGameError, match="^item 2 is longer than the stock$"):
        conjecture_roundup_probe(game_from_weighted(game_from_instance(over)), over)


def test_prop9_identity_random(weighted_corpus):
    for rep, game in weighted_corpus[:60]:
        assert z_b(patterns_from_game(game)) == nakamura_exact(game).value


# ---------------------------------------------------------------------------
# the bridge on the class view against the mask-level oracles


def _random_instance(rng):
    """2 to 11 items, none longer than the stock, not all in one pattern;
    lengths and stock share a random denominator."""
    m = rng.randint(2, 11)
    lengths = [rng.randint(1, 12) for _ in range(m)]
    stock = rng.randint(max(lengths), sum(lengths) - 1)
    d = rng.randint(1, 3)
    return CspInstance(Fraction(stock, d), [Fraction(x, d) for x in lengths])


def test_bridge_on_instances():
    rng = random.Random(97)
    for _ in range(80):
        inst = _random_instance(rng)
        game = game_from_weighted(game_from_instance(inst))
        pats = patterns_from_instance(inst)
        assert pats.patterns == tuple(
            sorted(game.grand & ~w for w in game.min_winning)
        )
        zb, zc = z_b(pats), z_c(pats)
        assert conjecture_roundup_probe(game, inst)["instance"] == {
            "z_b": zb,
            "z_c": zc,
            "irup": zb == ceil(zc),
            "mirup": zb <= ceil(zc) + 1,
        }


def _bridge_games(kind):
    rng = random.Random(101)
    if kind == "weighted":
        return [game_from_weighted(random_rep(rng)) for _ in range(60)]
    if kind == "antichain":
        return [random_simple_game(rng) for _ in range(60)]
    return [expand_complete(g) for n in range(1, 6) for g in enumerate_complete(n)]


@pytest.mark.parametrize("kind", ["weighted", "antichain", "complete"])
def test_bridge_on_games(kind):
    # z_B is the Nakamura number and z_C is 1/(1 - q*), infinite exactly
    # when a vetoer lets q* reach 1
    for game in _bridge_games(kind):
        pats = patterns_from_game(game)
        zb, zc = z_b(pats), z_c(pats)
        assert zb == nakamura_exact(game).value
        estar = bounds.max_quota_lp(game).min_max_excess
        assert (estar == 0) == (game.vetoer_mask() != 0)
        assert zc == (None if estar == 0 else 1 / estar)
        probe = conjecture_roundup_probe(game)
        assert (probe["nakamura"], probe["z_c"]) == (zb, zc)


def test_bridge_reverse_direction():
    # the instance of a game has its maximal losing coalitions as patterns,
    # so z_C is 1/alpha of the critical LP with the grand coalition as the
    # only winning row
    rng = random.Random(103)
    checked = 0
    while checked < 60:
        rep = random_rep(rng)
        qhat, what = rep.integral()
        if qhat < 2 or 0 in what or max(what) >= qhat:
            continue  # no instance, or an item longer than the stock
        view = game_from_weighted(rep).view
        alpha, _ = bounds._critical_lp(len(view.sizes), [view.sizes], view.losing)
        assert z_c(patterns_from_instance(instance_from_game(rep))) == 1 / alpha
        checked += 1
