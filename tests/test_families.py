import pytest

from conftest import (
    canonical_vector_form,
    oracle_all_simple_games,
    oracle_max_nakamura,
)
from nakamura import families
from nakamura.census import enumerate_complete, is_weighted_complete
from nakamura.exact import nakamura_complete, nakamura_exact
from nakamura.families import (
    EXHAUSTIVE_CAP,
    FamilySpec,
    MaxNakResult,
    all_simple_games,
    conjecture_band_probe,
    construct_family,
    max_nakamura,
    simple_antichains,
)
from nakamura.games import (
    CapacityError,
    InvalidGameError,
    WeightedRep,
    desirability_classes,
    game_from_weighted,
)


def family(tag, **params):
    return construct_family(FamilySpec(tag, params))


def nak_of(built):
    game = game_from_weighted(built) if isinstance(built, WeightedRep) else built
    return nakamura_exact(game).value


# ---------------------------------------------------------------------------
# catalog


def test_two_light_family():
    rep = family("nearmax-1", n=5)
    assert (rep.quota, rep.weights) == (6, (2, 2, 2, 1, 1))
    assert nak_of(rep) == 4


def test_heavy_medium_light_family():
    rep = family("nearmax-5", n=6, k=2)
    assert (rep.quota, rep.weights) == (17, (5, 5, 5, 3, 3, 1))
    assert nak_of(rep) == 5


def test_all_near_maximum_families_reach_n_minus_one():
    cases = [
        ("nearmax-1", {"n": 6}, 6),
        ("nearmax-2", {"n": 3}, 3),
        ("nearmax-3", {"n": 6}, 6),
        ("nearmax-4", {"n": 6}, 6),
        ("nearmax-5", {"n": 6, "k": 3}, 6),
    ]
    for tag, params, n in cases:
        assert nak_of(family(tag, **params)) == n - 1, tag


def test_null_extension_family():
    rep = family("nearmax-5-null", n=7, k=2)
    assert rep.weights[-1] == 0
    assert nak_of(rep) == 5  # n - 2


def test_max_symmetric_family():
    assert nak_of(family("max-symmetric", n=6)) == 6


def test_circle_family():
    game = family("circle", n=6, t=6)
    classes, _ = desirability_classes(game)
    assert len(classes) == 6
    assert nakamura_exact(game).value >= 6 - (6 - 1) // 2


def test_circle_seven_players():
    game = family("circle", n=7, t=6)
    classes, _ = desirability_classes(game)
    assert len(classes) == 6
    assert nakamura_exact(game).value >= 7 - 2


def test_marked_subset_family():
    game = family("marked-subset", n=8, t=7, k=3)
    classes, _ = desirability_classes(game)
    assert len(classes) == 7
    assert nakamura_exact(game).value >= 8 - 3


def test_unit_padding_reaches_ceiling():
    from fractions import Fraction

    built = family(
        "unit-padding", weights=[2, 1], qbar=Fraction(1, 2), r=8
    )
    assert built.threshold_met
    game = game_from_weighted(built.rep)
    assert nakamura_exact(game).value == built.ceiling == 3


def test_replica_ceiling():
    from fractions import Fraction

    built = family("replica", weights=[3, 2], qbar=Fraction(3, 5), r=2)
    assert nakamura_exact(game_from_weighted(built.rep)).value == built.ceiling


def test_parameter_violations_name_the_range():
    with pytest.raises(InvalidGameError, match="k <= n - 2"):
        family("nearmax-5", n=4, k=3)
    with pytest.raises(InvalidGameError, match="t >= 6"):
        family("circle", n=9, t=5)
    with pytest.raises(InvalidGameError, match="t >= 2k"):
        family("marked-subset", n=8, t=6, k=3)
    with pytest.raises(InvalidGameError, match="unknown family"):
        family("no-such-tag")


# ---------------------------------------------------------------------------
# exhaustive maxima


def test_max_nakamura_small_weighted():
    assert max_nakamura(5, 1, "T").value == 5
    assert max_nakamura(5, 2, "T").value == 4
    assert max_nakamura(5, 3, "T").value == 4
    assert max_nakamura(5, 4, "T").value == 3


def test_max_nakamura_classes_agree_small():
    for n, t in [(4, 1), (4, 2), (5, 2), (5, 3)]:
        vt = max_nakamura(n, t, "T").value
        vc = max_nakamura(n, t, "C").value
        vs = max_nakamura(n, t, "S").value
        assert vt == vc == vs


def test_all_simple_games_matches_pairwise_search():
    # the bitset search yields the antichains in the pairwise search's order
    for n in range(1, 6):
        games = oracle_all_simple_games(n)
        assert list(simple_antichains(n)) == [
            tuple(sorted(g.min_winning)) for g in games
        ]
        assert list(all_simple_games(n)) == games


# The unpruned search runs on the pairwise oracles; at n = 7 its C and T
# passes would add about 22 s, so the n = 7 maxima are pinned below instead.
@pytest.mark.parametrize(
    "klass,n",
    [("S", n) for n in range(1, 6)]
    + [(k, n) for k in "CT" for n in range(1, 7)],
)
def test_max_nakamura_matches_unpruned_search(klass, n):
    # the incumbent prune and the stop rule must keep the value and the
    # first witness
    best = oracle_max_nakamura(n, klass)
    for t in range(1, n + 1):
        value, witness = best.get(t, (None, None))
        res = max_nakamura(n, t, klass)
        assert (res.value, res.exact, res.witness) == (value, True, witness), t


def test_max_nakamura_never_keeps_an_unweighted_incumbent(monkeypatch):
    # On at most six players the first complete game to reach each maximum
    # is weighted, so the search above cannot tell whether a game that is
    # not weighted ever became the incumbent.  Fed only those games, the T
    # search must find none, while the C search finds them.
    def unweighted(n, parts=None):
        for g in enumerate_complete(n, parts):
            if not is_weighted_complete(g):
                yield g

    monkeypatch.setattr(families, "enumerate_complete", unweighted)
    found = 0
    for t in range(1, 7):
        assert max_nakamura(6, t, "T") == MaxNakResult(None, True)
        found += max_nakamura(6, t, "C").value is not None
    assert found


@pytest.mark.parametrize("klass", ["C", "T"])
def test_max_nakamura_seven_players(klass):
    # the exhaustive maxima for t = 1..7 on seven players; each witness
    # reaches its value with t classes and no vetoer
    assert EXHAUSTIVE_CAP[klass] == 7
    values = []
    for t in range(1, 8):
        res = max_nakamura(7, t, klass)
        g = res.witness
        assert res.exact and g.n == 7 and g.t == t and not g.has_vetoers()
        assert nakamura_complete(g, want_witness=False).value == res.value
        assert klass == "C" or is_weighted_complete(g)
        values.append(res.value)
    assert values == [7, 6, 6, 5, 5, 5, 4]


def test_max_nakamura_cap():
    with pytest.raises(CapacityError):
        max_nakamura(8, 2, "T", mode="exhaustive")
    with pytest.raises(CapacityError):
        max_nakamura(6, 2, "S", mode="exhaustive")


def test_max_nakamura_construction_mode():
    res = max_nakamura(9, 2, "T", mode="construction")
    assert res.value == 8 and not res.exact
    res = max_nakamura(12, 7, "S", mode="construction")
    assert res.value == 12 - 3  # circle and k=3 marked subset tie here
    assert res.family in ("circle", "marked-subset")


def test_conjecture_band_probe():
    rows = conjecture_band_probe([4, 5], 3)
    assert rows[0] == {
        "n": 4, "t": 3, "max_nakamura": 3, "band": (2, 3), "inside": True,
    }
    assert rows[1]["max_nakamura"] == 4 and rows[1]["inside"]
    rows2 = conjecture_band_probe([5], 2)
    assert rows2[0]["max_nakamura"] == 4 and rows2[0]["inside"]
    # one player is a vetoer: no game, so no verdict either way
    assert conjecture_band_probe([1], 1) == [
        {"n": 1, "t": 1, "max_nakamura": None, "band": (1, 2), "inside": None},
    ]


# ---------------------------------------------------------------------------
# near-maximum catalog is exhaustive at four players


def test_near_maximum_classification_n4():
    n = 4
    catalog = [
        family("nearmax-1", n=n),
        family("nearmax-3", n=n),
        family("nearmax-4", n=n),
        family("nearmax-5", n=n, k=2),
    ]
    forms = {
        canonical_vector_form(game_from_weighted(rep)) for rep in catalog
    }
    top = canonical_vector_form(game_from_weighted(family("max-symmetric", n=n)))
    for game in all_simple_games(n):
        if game.vetoer_mask():
            continue
        value = nakamura_exact(game).value
        if value == n:
            assert canonical_vector_form(game) == top
        elif value == n - 1:
            assert canonical_vector_form(game) in forms
