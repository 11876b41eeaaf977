"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 05b keeps the printed reference rows of the weighted single-row
census verbatim (``WEIGHTED_TABLE_PRINTED``) and asserts their errata.
Every complete game with one shift-minimal winning row on up to ten players
is proved weighted or not weighted by ``oracle_r1_certificate``
(``conftest.py``), which decides winning on the count-vector lattice
directly (a vector wins when its prefix sums dominate the row's):

* weighted: integer class weights and a quota that separate every lattice
  vector, proposed by the exact LP and accepted only after that integer
  check;
* not weighted: a 2-trade, two winning and two losing vectors whose
  winning sum is at most the losing sum componentwise, which no
  non-negative weights can separate (the trading transforms of Taylor and
  Zwicker, *Simple Games*, 1999).

Binning the weighted games by the exact solver gives
``WEIGHTED_TABLE_CERTIFIED``, which ``census(n, WEIGHTED_R1)`` must match.
The printed rows agree through four players and undercount from five on,
in exactly ``PRINTED_ERRATA_CELLS``.  Two examples:

* printed row 5 gives 8 games of value 2, yet all 9 complete ones are
  weighted; one is classes ``2 2 1``, row ``1 1 0``, which is
  ``[3; 2,2,1,1,0]``;
* printed row 6 gives 31 games with a vetoer against 32; classes
  ``1 2 2 1``, row ``1 1 1 0`` is one of them, and is ``[13; 10,2,2,1,1,0]``.
"""

import random
import time
from math import ceil

from conftest import (
    canonical_vector_form,
    dense_winning_table,
    game_from_table,
    oracle_r1_certificate,
    patterns_from_game,
    z_b,
)
from nakamura.bounds import (
    cardinality_bounds,
    greedy_upper,
    max_quota_lp,
    weighted_bounds,
)
from nakamura.census import (
    COMPLETE_R1,
    WEIGHTED_R1,
    CensusRow,
    census,
    count_r1,
    enumerate_r1,
)
from nakamura.cutting import CspInstance, game_from_instance
from nakamura.exact import (
    nakamura_by_vectors,
    nakamura_complete,
    nakamura_exact,
    verify_witness,
)
from nakamura.families import (
    FamilySpec,
    all_simple_games,
    construct_family,
    max_nakamura,
)
from nakamura.games import (
    SimpleGame,
    WeightedRep,
    classify_players,
    complete_from_parameters,
    expand_complete,
    game_from_weighted,
    structure_flags,
)

# Table of complete single-row games per value (columns: inf, 2, ..., n),
# rows 1..16 of the printed census.
COMPLETE_TABLE = {
    1: [1],
    2: [2, 1],
    3: [4, 2, 1],
    4: [8, 5, 1, 1],
    5: [16, 9, 4, 1, 1],
    6: [32, 19, 8, 2, 1, 1],
    7: [64, 34, 18, 7, 2, 1, 1],
    8: [128, 69, 36, 14, 4, 2, 1, 1],
    9: [256, 125, 86, 24, 12, 4, 2, 1, 1],
    10: [512, 251, 160, 60, 24, 8, 4, 2, 1, 1],
    11: [1024, 461, 362, 120, 43, 21, 8, 4, 2, 1, 1],
    12: [2048, 923, 724, 240, 86, 42, 16, 8, 4, 2, 1, 1],
    13: [4096, 1715, 1525, 513, 194, 78, 38, 16, 8, 4, 2, 1, 1],
    14: [8192, 3431, 3050, 1026, 388, 156, 76, 32, 16, 8, 4, 2, 1, 1],
    15: [16384, 6434, 6529, 2052, 776, 312, 145, 71, 32, 16, 8, 4, 2, 1, 1],
    16: [32768, 12869, 12785, 4377, 1517, 659, 290, 142, 64, 32, 16, 8, 4, 2, 1, 1],
}

# Printed reference rows for the weighted single-row census, 1..10.
WEIGHTED_TABLE_PRINTED = {
    1: [1],
    2: [2, 1],
    3: [4, 2, 1],
    4: [8, 5, 1, 1],
    5: [16, 8, 4, 1, 1],
    6: [31, 14, 7, 2, 1, 1],
    7: [57, 20, 11, 6, 2, 1, 1],
    8: [99, 30, 16, 10, 3, 2, 1, 1],
    9: [163, 40, 26, 11, 8, 3, 2, 1, 1],
    10: [256, 55, 32, 18, 13, 4, 3, 2, 1, 1],
}

# The same rows proved in both directions (see test 05b).
WEIGHTED_TABLE_CERTIFIED = {
    1: [1],
    2: [2, 1],
    3: [4, 2, 1],
    4: [8, 5, 1, 1],
    5: [16, 9, 4, 1, 1],
    6: [32, 17, 8, 2, 1, 1],
    7: [62, 27, 13, 7, 2, 1, 1],
    8: [114, 43, 20, 12, 4, 2, 1, 1],
    9: [198, 62, 33, 14, 10, 4, 2, 1, 1],
    10: [326, 89, 43, 23, 16, 6, 4, 2, 1, 1],
}

# The (n, value) cells in which the printed rows undercount the certified
# ones; None is the infinite column.  Rows 1-4 agree.
PRINTED_ERRATA_CELLS = [
    (5, 2),
    (6, None), (6, 2), (6, 3),
    (7, None), (7, 2), (7, 3), (7, 4),
    (8, None), (8, 2), (8, 3), (8, 4), (8, 5),
    (9, None), (9, 2), (9, 3), (9, 4), (9, 5), (9, 6),
    (10, None), (10, 2), (10, 3), (10, 4), (10, 5), (10, 6), (10, 7),
]


def columns(row, n):
    return [row.column(None)] + [row.column(k) for k in range(2, n + 1)]


def report(line):
    print(f"\nACCEPTANCE {line}")


def test_01_symmetric_quota_formula():
    start = time.monotonic()
    for n in range(2, 13):
        for qhat in range(1, n + 1):
            game = game_from_weighted(WeightedRep(qhat, (1,) * n))
            value = nakamura_exact(game).value
            expected = None if qhat == n else ceil(n / (n - qhat))
            assert value == expected, (n, qhat)
    elapsed = time.monotonic() - start
    assert elapsed < 5
    report(f"01 symmetric-quota-formula: PASS ({elapsed:.2f}s)")


def test_02_homogeneous_sixteen_players():
    start = time.monotonic()
    rep = WeightedRep(90, (9,) * 10 + (2,) * 4 + (1,) * 2)
    game = game_from_weighted(rep)
    result = nakamura_exact(game)
    assert result.value == 11
    assert verify_witness(game, result.witness)
    assert weighted_bounds(rep).lower == 10
    elapsed = time.monotonic() - start
    assert elapsed < 10
    report(f"02 homogeneous-16-players: PASS ({elapsed:.2f}s)")


def test_03_parametric_family():
    start = time.monotonic()
    for k in (1, 2, 3):
        rep = WeightedRep(22 * k - 11, (5,) * (2 * k) + (2,) * (6 * k))
        game = game_from_weighted(rep)
        result = nakamura_exact(game)
        assert result.value == 2 * k, k
        assert verify_witness(game, result.witness)
        assert weighted_bounds(rep).lower == 2 * k
        assert nakamura_by_vectors(game).value == 2 * k
    elapsed = time.monotonic() - start
    assert elapsed < 60
    report(f"03 parametric-family k=1..3: PASS ({elapsed:.2f}s)")


def test_04_complete_prefix_program():
    start = time.monotonic()
    for sizes, row, expected in [
        ((10, 10), (7, 8), 4),
        ((5, 5), (2, 3), 2),
    ]:
        g = complete_from_parameters(sizes, [row])
        assert nakamura_complete(g).value == expected
        expanded = expand_complete(g)
        assert nakamura_by_vectors(expanded).value == expected
    elapsed = time.monotonic() - start
    assert elapsed < 5
    report(f"04 complete-prefix-program: PASS ({elapsed:.2f}s)")


def test_05a_complete_census_rows_1_to_12():
    start = time.monotonic()
    for n in range(1, 13):
        row = census(n, COMPLETE_R1)
        assert columns(row, n) == COMPLETE_TABLE[n], n
        assert row.total() == count_r1(n)
    elapsed = time.monotonic() - start
    report(f"05a complete-census rows 1-12: PASS ({elapsed:.2f}s)")


def test_05a_complete_census_rows_13_to_16():
    start = time.monotonic()
    for n in range(13, 17):
        row = census(n, COMPLETE_R1)
        assert columns(row, n) == COMPLETE_TABLE[n], n
    elapsed = time.monotonic() - start
    assert elapsed < 600
    report(f"05a complete-census rows 13-16: PASS ({elapsed:.2f}s)")


def differing_cells(left, right):
    """The (n, value) cells where two census tables differ; None is inf."""
    return [
        (n, value)
        for n in sorted(left)
        for value, a, b in zip([None, *range(2, n + 1)], left[n], right[n])
        if a != b
    ]


def test_05b_weighted_census_rows_1_to_10_as_printed():
    # The printed rows stay verbatim.  Each single-row complete game gets
    # integer separating weights or a 2-trade from oracle_r1_certificate,
    # and the weighted ones are binned by the exact solver, which rebuilds
    # the certified rows without the census code.
    start = time.monotonic()
    computed, certified = {}, {}
    for n in range(1, 11):
        computed[n] = columns(census(n, WEIGHTED_R1), n)
        counts = {}
        for g in enumerate_r1(n):
            kind = oracle_r1_certificate(g.class_sizes, g.shift_min[0])[0]
            if kind == "weights":
                value = (
                    None if g.has_vetoers()
                    else nakamura_exact(expand_complete(g)).value
                )
                counts[value] = counts.get(value, 0) + 1
        certified[n] = columns(CensusRow(n, WEIGHTED_R1, counts), n)

    failures = []
    for name, table in [("census()", computed), ("the oracle", certified)]:
        cells = differing_cells(table, WEIGHTED_TABLE_CERTIFIED)
        if cells:
            failures.append(f"{name} differs from the certified rows at {cells}")
    errata = differing_cells(WEIGHTED_TABLE_PRINTED, WEIGHTED_TABLE_CERTIFIED)
    if errata != PRINTED_ERRATA_CELLS:
        failures.append(
            f"the printed rows differ at {errata}, "
            f"not at PRINTED_ERRATA_CELLS {PRINTED_ERRATA_CELLS}"
        )
    over = [
        n
        for n, printed in WEIGHTED_TABLE_PRINTED.items()
        if any(p > c for p, c in zip(printed, WEIGHTED_TABLE_CERTIFIED[n]))
    ]
    if over:
        failures.append(f"the printed rows overcount in rows {over}")
    if failures:
        lines = ["n   computed / certified / printed"]
        for n in range(1, 11):
            lines.append(
                f"{n:<3} {computed[n]} / {certified[n]} / "
                f"{WEIGHTED_TABLE_PRINTED[n]}"
            )
        raise AssertionError("\n".join(failures + lines))

    # the two examples of the module docstring
    for sizes, row, rep, value in [
        ((2, 2, 1), (1, 1, 0), WeightedRep(3, (2, 2, 1, 1, 0)), 2),
        ((1, 2, 2, 1), (1, 1, 1, 0), WeightedRep(13, (10, 2, 2, 1, 1, 0)), None),
    ]:
        game = expand_complete(complete_from_parameters(sizes, [row]))
        assert game_from_weighted(rep).min_winning == game.min_winning
        assert nakamura_exact(game).value == value
    elapsed = time.monotonic() - start
    report(
        f"05b weighted-census rows 1-10 certified, printed rows undercount "
        f"in {len(errata)} cells: PASS ({elapsed:.2f}s)"
    )


def test_06_cutting_stock_instance():
    start = time.monotonic()
    instance = CspInstance(155, (9, 12, 12, 16, 16, 46, 46, 54, 69, 77, 102))
    rep = game_from_instance(instance)
    assert rep.quota == 304
    assert weighted_bounds(rep).lower == 3
    game = game_from_weighted(rep)
    result = nakamura_exact(game)
    assert result.value == 4
    assert verify_witness(game, result.witness)
    elapsed = time.monotonic() - start
    assert elapsed < 30
    report(f"06 cutting-stock-instance: PASS ({elapsed:.2f}s)")


def test_07_cover_identity_on_census():
    start = time.monotonic()
    checked = 0
    for n in range(1, 11):
        for g in enumerate_r1(n):
            if g.has_vetoers():
                continue
            expanded = expand_complete(g)
            value = nakamura_exact(expanded).value
            assert value == z_b(patterns_from_game(expanded)), (
                g.class_sizes, g.shift_min,
            )
            checked += 1
    elapsed = time.monotonic() - start
    report(f"07 cover-identity on {checked} census games: PASS ({elapsed:.2f}s)")


def test_08_bound_sandwich_corpus(weighted_corpus):
    start = time.monotonic()
    assert len(weighted_corpus) == 1000
    for rep, game in weighted_corpus:
        value = nakamura_exact(game).value
        wb = weighted_bounds(rep)
        assert wb.lower <= value
        assert wb.upper is None or value <= wb.upper
        assert greedy_upper(rep) >= value
        assert cardinality_bounds(game).lower <= value
        lp_bound = max_quota_lp(game).nak_lower_bound
        assert lp_bound <= value
        assert lp_bound >= wb.lower
    elapsed = time.monotonic() - start
    report(f"08 bound-sandwich on 1000 games: PASS ({elapsed:.2f}s)")


def test_09_maximum_values_by_class_count():
    start = time.monotonic()
    expectations = []
    for n in range(2, 7):
        expectations.append((n, 1, n))
    for n in range(3, 7):
        expectations.append((n, 2, n - 1))
    for n in range(4, 7):
        expectations.append((n, 3, n - 1))
    for n in range(5, 7):
        expectations.append((n, 4, n - 2))
    for n, t, expected in expectations:
        res = max_nakamura(n, t, "T", mode="exhaustive")
        assert res.exact
        assert res.value == expected, (n, t, res.value)
    elapsed = time.monotonic() - start
    report(
        f"09 maximum-by-class-count ({len(expectations)} pairs): "
        f"PASS ({elapsed:.2f}s)"
    )


def test_10_near_maximum_classification():
    start = time.monotonic()
    for n in range(2, 6):
        top = canonical_vector_form(
            game_from_weighted(construct_family(FamilySpec("max-symmetric", {"n": n})))
        )
        catalog = []
        if n >= 3:
            catalog.append(FamilySpec("nearmax-1", {"n": n}))
            catalog.append(FamilySpec("nearmax-4", {"n": n}))
        if n == 3:
            catalog.append(FamilySpec("nearmax-2", {"n": n}))
        if n >= 4:
            catalog.append(FamilySpec("nearmax-3", {"n": n}))
            for k in range(2, n - 1):
                catalog.append(FamilySpec("nearmax-5", {"n": n, "k": k}))
        forms = set()
        for spec in catalog:
            rep = construct_family(spec)
            game = game_from_weighted(rep)
            assert nakamura_exact(game).value == n - 1, spec
            forms.add(canonical_vector_form(game))
        count = 0
        for game in all_simple_games(n):
            if game.vetoer_mask():
                continue
            value = nakamura_exact(game).value
            if value == n:
                assert canonical_vector_form(game) == top
            elif value == n - 1:
                assert canonical_vector_form(game) in forms, game.min_winning
            count += 1
        assert count > 0
    elapsed = time.monotonic() - start
    assert elapsed < 120
    report(f"10 near-maximum classification n<=5: PASS ({elapsed:.2f}s)")


def test_11_structural_properties(weighted_corpus):
    start = time.monotonic()
    # properness characterization and the constant-sum value
    for rep, game in weighted_corpus:
        value = nakamura_exact(game).value
        flags = structure_flags(game)
        assert (value == 2) == (not flags.proper)
        if flags.constant_sum:
            assert value == 3

    # null-player deletion leaves the value unchanged
    deletions = 0
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
        deletions += 1
    assert deletions >= 50

    # intersections raise the value, unions lower it
    rng = random.Random(20250810)
    by_n = {}
    for rep, game in weighted_corpus:
        by_n.setdefault(game.n, []).append(game)
    pairs = 0
    sizes = [n for n in by_n if len(by_n[n]) >= 2]
    while pairs < 200:
        n = rng.choice(sizes)
        g1, g2 = rng.sample(by_n[n], 2)
        w1 = dense_winning_table(g1)
        w2 = dense_winning_table(g2)
        v1 = nakamura_exact(g1).value
        v2 = nakamura_exact(g2).value
        inter = game_from_table(n, w1 & w2)
        union = game_from_table(n, w1 | w2)
        if inter is not None:
            vi = nakamura_exact(inter).value
            if vi is not None:
                assert vi >= max(v1, v2)
        if union is not None:
            vu = nakamura_exact(union).value
            assert vu <= min(v1, v2)
        pairs += 1
    elapsed = time.monotonic() - start
    report(f"11 structural-properties: PASS ({elapsed:.2f}s)")
