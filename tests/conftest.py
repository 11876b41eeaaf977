"""Shared oracles and corpora.

The oracles deliberately avoid the library's own fast paths: winning tests
scan the antichain directly, dual antichains and desirability come from
full 2^n sweeps (one of them over a numpy table of all 2^n coalitions), the
Nakamura oracle enumerates coalition subsets, and the weightedness oracle
checks its certificates on the whole count-vector lattice.  The LP oracle is
the general two-phase simplex on a ``Fraction`` tableau; it takes the ``>=``
and ``==`` rows that ``lp.solve_lp`` does not.  The cutting-stock oracles
list an instance's or a game's maximal patterns as masks and solve ``z_B``
by ``min_cover`` and ``z_C`` as a covering LP on that tableau.  The
desirability classes have a second oracle, the exchange test over the
minimal winning vectors merged by union-find, which reads no winning table.  Helpers that only tests call
(``vector_of_mask``, ``shift_minimal_vectors``, ``canonical_vector_form``,
``trim_to_partition``, ``validate_alpha_roughly``) live here too, and so
do the census oracles, which count the games ``enumerate_r1`` builds (all
of them, or those ``is_weighted_r1`` finds weighted), the
pairwise antichain searches that enumerate every simple and every complete
game on a few players, and the unpruned exhaustive search for the maximum
Nakamura number built on them.
"""

import functools
import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Sequence

import numpy as np
import pytest

from nakamura import lp
from nakamura.bounds import BoundsReport, _ceil_frac
from nakamura.cover import min_cover
from nakamura.cutting import CspInstance
from nakamura.lp import OPTIMAL, UNBOUNDED, LpResult
from nakamura.games import (
    DENSE_TABLE_CAP,
    CapacityError,
    InvalidGameError,
    PlayerClassification,
    SimpleGame,
    WeightedRep,
    _complement,
    _minimal_counts,
    desirability_classes,
    game_from_weighted,
    masks_with_vectors,
    maximal_losing,
    players_from_mask,
    shift_leq,
)


def oracle_is_winning(game: SimpleGame, mask: int) -> bool:
    return any(w & mask == w for w in game.min_winning)


def oracle_maximal_losing(game: SimpleGame):
    out = []
    for mask in range(1 << game.n):
        if oracle_is_winning(game, mask):
            continue
        if all(
            oracle_is_winning(game, mask | (1 << i))
            for i in range(game.n)
            if not mask >> i & 1
        ):
            out.append(mask)
    return sorted(out)


def oracle_vetoer_mask(game: SimpleGame) -> int:
    mask = game.grand
    for w in game.min_winning:
        mask &= w
    return mask


def oracle_null_mask(game: SimpleGame) -> int:
    mask = 0
    for w in game.min_winning:
        mask |= w
    return game.grand & ~mask


def oracle_classify_players(game: SimpleGame) -> PlayerClassification:
    """Vetoers, nulls, passers and the dictator, read off the antichain."""
    vetoers = oracle_vetoer_mask(game)
    nulls = oracle_null_mask(game)
    passers = 0
    for w in game.min_winning:
        if w.bit_count() == 1:
            passers |= w
    dictator = None
    if len(game.min_winning) == 1 and game.min_winning[0].bit_count() == 1:
        dictator = players_from_mask(game.min_winning[0])[0]
    return PlayerClassification(vetoers, nulls, passers, dictator)


def oracle_cardinality_bounds(game: SimpleGame) -> BoundsReport:
    """Cardinality ceilings from the bit counts of the antichain."""
    n = game.n
    sizes = [w.bit_count() for w in game.min_winning]
    m, big = min(sizes), max(sizes)
    lower = _ceil_frac(n, n - m)
    upper = 1 + ceil(Fraction(m, n - big)) if big < n else None
    return BoundsReport(
        "cardinality", lower, upper, vetoer=oracle_vetoer_mask(game) != 0
    )


def dense_winning_table(game: SimpleGame) -> np.ndarray:
    """Boolean table of all 2^n coalition values (n <= DENSE_TABLE_CAP)."""
    if game.n > DENSE_TABLE_CAP:
        raise CapacityError(
            f"dense table needs n <= {DENSE_TABLE_CAP}, got {game.n}"
        )
    size = 1 << game.n
    win = np.zeros(size, dtype=bool)
    win[list(game.min_winning)] = True
    idx = np.arange(size)
    for i in range(game.n):
        bit = 1 << i
        has = (idx & bit) != 0
        win[has] |= win[idx[has] ^ bit]
    return win


def oracle_dense_maximal_losing(game: SimpleGame) -> list[int]:
    """Maximal losing masks, ascending, read off the numpy table."""
    win = dense_winning_table(game)
    idx = np.arange(1 << game.n)
    ok = ~win
    for i in range(game.n):
        bit = 1 << i
        absent = (idx & bit) == 0
        ok[absent] &= win[idx[absent] | bit]
    return [int(m) for m in np.nonzero(ok)[0]]


def game_from_table(n: int, win: np.ndarray):
    """The game whose winning coalitions are the true entries of an
    up-closed 2^n table, or None if the empty coalition wins or the grand
    coalition loses."""
    idx = np.arange(1 << n)
    minimal = win.copy()
    for i in range(n):
        bit = 1 << i
        has = (idx & bit) != 0
        minimal[has] &= ~win[idx[has] ^ bit]
    masks = [int(m) for m in np.nonzero(minimal)[0] if m]
    if not masks or win[0] or not win[(1 << n) - 1]:
        return None
    return SimpleGame(n, tuple(masks))


def oracle_minimal_winning(rep: WeightedRep):
    qhat, what = rep.integral()
    masks = []
    for mask in range(1 << rep.n):
        w = sum(what[i] for i in range(rep.n) if mask >> i & 1)
        if w < qhat:
            continue
        if all(
            w - what[i] < qhat for i in range(rep.n) if mask >> i & 1
        ):
            masks.append(mask)
    return sorted(masks)


def oracle_nakamura(game: SimpleGame, max_size: int = 8):
    """Exhaustive search over subsets of the minimal winning antichain."""
    grand = game.grand
    inter_all = grand
    for w in game.min_winning:
        inter_all &= w
    if inter_all:
        return None
    for k in range(2, max_size + 1):
        for combo in itertools.combinations(game.min_winning, k):
            inter = grand
            for w in combo:
                inter &= w
            if inter == 0:
                return k
    raise AssertionError("oracle cap too small")


def oracle_geq(game: SimpleGame, i: int, j: int) -> bool:
    """Desirability by definition: check every coalition containing j, not i."""
    bi, bj = 1 << i, 1 << j
    for mask in range(1 << game.n):
        if mask & bj and not mask & bi:
            if oracle_is_winning(game, mask) and not oracle_is_winning(
                game, (mask & ~bj) | bi
            ):
                return False
    return True


def oracle_desirability_classes(game: SimpleGame):
    """``desirability_classes`` by the exchange test on every view: the
    relation between blocks from the minimal winning vectors, merged into
    classes by union-find over mutually comparable blocks."""
    view = game.view

    def block_geq(a: int, b: int) -> bool:
        # trading a b-member for an a-member in any minimal winning vector
        # that has both a b-member to give and room in a must stay winning
        for v in view.winning:
            if v[b] and v[a] < view.sizes[a]:
                c = list(v)
                c[a] += 1
                c[b] -= 1
                if not view.wins(c):
                    return False
        return True

    k = len(view.blocks)
    geq = [[a == b or block_geq(a, b) for b in range(k)] for a in range(k)]
    parent = list(range(k))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(k):
        for b in range(a + 1, k):
            if geq[a][b] and geq[b][a]:
                parent[find(a)] = find(b)
    members: dict[int, list[int]] = {}
    for a, block in enumerate(view.blocks):
        members.setdefault(find(a), []).extend(block)
    roots = list(members)
    complete = all(
        geq[r][s] or geq[s][r] for r, s in itertools.combinations(roots, 2)
    )

    def rank(r):
        dominated = sum(1 for s in roots if geq[r][s] and not geq[s][r])
        return (-dominated, min(members[r]))

    classes = tuple(
        tuple(p + 1 for p in sorted(members[r])) for r in sorted(roots, key=rank)
    )
    return classes, complete


def vector_of_mask(mask: int, classes) -> tuple[int, ...]:
    """Count vector of a coalition over an ordered partition of 1-based
    players, one player at a time."""
    return tuple(sum(1 for p in cls if mask >> (p - 1) & 1) for cls in classes)


def shift_minimal_vectors(vectors) -> list[tuple[int, ...]]:
    """Minimal elements under prefix-sum dominance, decreasing lex order."""
    vs = sorted(set(vectors), reverse=True)
    out = []
    for v in vs:
        if not any(shift_leq(u, v) for u in vs if u != v):
            out.append(v)
    return out


def canonical_vector_form(game: SimpleGame):
    """Isomorphism invariant: class sizes in desirability order plus the
    sorted minimal winning count vectors, and the completeness flag.

    Two games with equal forms are isomorphic (relabel class by class); for
    complete games the converse holds as well since the class order is
    then unique.
    """
    classes, complete = desirability_classes(game)
    vectors = {vector_of_mask(w, classes) for w in game.min_winning}
    return tuple(len(c) for c in classes), tuple(sorted(vectors)), complete


MAX_ITEMS = 24


@dataclass(frozen=True)
class PatternSet:
    """Maximal feasible 0/1 columns over ``m`` items (subset closure implied)."""

    m: int
    patterns: tuple[int, ...]


def _scaled_integers(instance: CspInstance) -> tuple[int, list[int]]:
    scale = math.lcm(
        instance.stock.denominator, *(x.denominator for x in instance.lengths)
    )
    stock = int(instance.stock * scale)
    lengths = [int(x * scale) for x in instance.lengths]
    return stock, lengths


def patterns_from_instance(instance: CspInstance) -> PatternSet:
    """All inclusion-maximal feasible patterns of the instance.

    Items longer than the stock admit no pattern at all and are rejected
    with their (1-based) index.
    """
    if instance.m > MAX_ITEMS:
        raise InvalidGameError(
            f"explicit pattern enumeration capped at {MAX_ITEMS} items"
        )
    stock, lengths = _scaled_integers(instance)
    for i, x in enumerate(lengths):
        if x > stock:
            raise InvalidGameError(f"item {i + 1} is longer than the stock")
    # one group per item, longest first; a pattern is maximal feasible iff
    # the items it leaves out are a minimal set reaching length total - stock
    items = sorted(range(instance.m), key=lambda i: -lengths[i])
    ones = [1] * instance.m
    left_out = _minimal_counts(
        [lengths[i] for i in items], ones, sum(lengths) - stock
    )
    vectors = [_complement(ones, d) for d in left_out]
    masks = masks_with_vectors([(i,) for i in items], vectors)
    return PatternSet(instance.m, tuple(sorted(masks)))


def patterns_from_game(game: SimpleGame) -> PatternSet:
    """Complements of the minimal winning coalitions as pattern columns.

    These are the maximal columns among complements of all winning
    coalitions, which is enough under subset closure.
    """
    grand = game.grand
    return PatternSet(
        game.n, tuple(sorted(grand & ~w for w in game.min_winning))
    )


def z_b(patterns: PatternSet):
    """Fewest columns covering every item; None when some item is uncovered.

    With subset closure an optimal cover trims to an exact partition, so
    this is the exact-partition optimum as well.
    """
    universe = (1 << patterns.m) - 1
    chosen = min_cover(universe, patterns.patterns)
    return None if chosen is None else len(chosen)


def z_c(patterns: PatternSet):
    """Exact rational optimum of the fractional covering relaxation, on the
    ``Fraction`` tableau; None when some item is in no column."""
    m = patterns.m
    cols = patterns.patterns
    reach = 0
    for c in cols:
        reach |= c
    if reach != (1 << m) - 1:
        return None
    rows = [([(c >> i) & 1 for c in cols], ">=", 1) for i in range(m)]
    res = oracle_solve_lp([1] * len(cols), rows)
    assert res.status == OPTIMAL
    return res.objective


def trim_to_partition(patterns: PatternSet, chosen: Sequence[int]) -> list[int]:
    """Shrink a cover to an exact partition under subset closure.

    Over-covered items stay only in the first chosen column containing
    them (lowest index first), which realizes the closure deterministically.
    """
    seen = 0
    out = []
    for idx in chosen:
        col = patterns.patterns[idx] & ~seen
        seen |= col
        out.append(col)
    if seen != (1 << patterns.m) - 1:
        raise InvalidGameError("chosen columns do not cover all items")
    return out


def validate_alpha_roughly(game: SimpleGame, weights: Sequence, alpha) -> bool:
    """Check a claimed rough representation against the two antichains."""
    ws = [Fraction(w) for w in weights]
    if len(ws) != game.n or any(w < 0 for w in ws):
        return False
    alpha = Fraction(alpha)

    def wsum(mask: int) -> Fraction:
        s = Fraction(0)
        i = 0
        while mask:
            if mask & 1:
                s += ws[i]
            mask >>= 1
            i += 1
        return s

    if any(wsum(w) < 1 for w in game.min_winning):
        return False
    return all(wsum(t) <= alpha for t in maximal_losing(game))


def oracle_r1_certificate(sizes, row):
    """Prove the single-row complete game ``(sizes, row)`` weighted or not.

    The game is decided on its full count-vector lattice: a vector wins
    when its prefix sums dominate those of ``row``.  Returns either
    ``("weights", class_weights, quota)``, integers that separate every
    winning lattice vector from every losing one, or
    ``("trade", (a, b), (c, d))``, a 2-trade: a and b win, c and d lose and
    a + b <= c + d componentwise, which no non-negative weights can
    separate.  The exact LP only proposes the weights; they are accepted
    after the integer check.  Raises when neither certificate is found.
    """
    t = len(sizes)
    target = list(itertools.accumulate(row))
    lattice = list(itertools.product(*(range(s + 1) for s in sizes)))
    win = {
        c: all(p >= q for p, q in zip(itertools.accumulate(c), target))
        for c in lattice
    }

    def moved(c, j, step):
        return tuple(x + step * (i == j) for i, x in enumerate(c))

    minimal = [
        c for c in lattice
        if win[c] and not any(win[moved(c, j, -1)] for j in range(t) if c[j])
    ]
    maximal = [
        c for c in lattice
        if not win[c]
        and all(win[moved(c, j, 1)] for j in range(t) if c[j] < sizes[j])
    ]

    # the critical threshold in its few-row dual form: maximize the mass on
    # the minimal vectors, each class's winning mass at most its losing
    # mass, the losing mass at most 1; alpha is the optimum and the class
    # weights are minus the duals of the class rows
    rows = [
        ([v[j] for v in minimal] + [-u[j] for u in maximal], 0)
        for j in range(t)
    ]
    rows.append(([0] * len(minimal) + [1] * len(maximal), 1))
    proposal = lp.solve_lp([-1] * len(minimal) + [0] * len(maximal), rows)
    if -proposal.objective < 1:
        proposed = [-y for y in proposal.duals[:t]]
        scale = math.lcm(*(x.denominator for x in proposed))
        weights = tuple(int(x * scale) for x in proposed)

        def weigh(c):
            return sum(w * x for w, x in zip(weights, c))

        quota = min(weigh(c) for c in lattice if win[c])
        if all(win[c] == (weigh(c) >= quota) for c in lattice):
            return ("weights", weights, quota)

    def plus(u, v):
        return tuple(x + y for x, y in zip(u, v))

    losing_sums = {
        plus(c, d): (c, d)
        for c, d in itertools.combinations_with_replacement(maximal, 2)
    }
    for a, b in itertools.combinations_with_replacement(minimal, 2):
        s = plus(a, b)
        for total, pair in losing_sums.items():
            if all(x <= y for x, y in zip(s, total)):
                return ("trade", (a, b), pair)
    raise AssertionError(f"no certificate for classes {sizes}, row {row}")


def oracle_census_r1(n: int) -> dict:
    """Per-value counts of the single-row complete census, from the closed
    form on every game ``enumerate_r1`` builds."""
    from nakamura.census import enumerate_r1, r1_value

    counts: dict = {}
    for g in enumerate_r1(n):
        v = r1_value(g.class_sizes, g.shift_min[0])
        counts[v] = counts.get(v, 0) + 1
    return counts


def oracle_weighted_r1_counts(n: int) -> dict:
    """Per-value counts of the weighted single-row census, by deciding
    every game ``enumerate_r1`` builds with ``is_weighted_r1``."""
    from nakamura.census import enumerate_r1, is_weighted_r1, r1_value

    counts: dict = {}
    for g in enumerate_r1(n):
        sizes, row = g.class_sizes, g.shift_min[0]
        if is_weighted_r1(sizes, row):
            v = r1_value(sizes, row)
            counts[v] = counts.get(v, 0) + 1
    return counts


def oracle_complete_r1_counts(n: int) -> dict:
    """Per-value counts of the single-row complete games, by a forward DP
    over the classes of each class count t.

    A state after class j is ``(O_j, O_j - P_j, v_j)``: the prefix sum of
    the class sizes, its deficit over the row's, and the running
    ``max ceil(O_i / (O_i - P_i))`` (None once ``m_1 = n_1``, the deficit
    then dropped so those states merge).  The last part is forced to
    ``n - O_{t-1}``.
    """
    counts: dict = {}
    for t in range(1, n + 1):
        states = {(0, 0, 0): 1}
        for j in range(1, t + 1):
            left = t - j
            nxt: dict = {}
            for (o, d, v), c in states.items():
                for a in range(1, n - o - left + 1) if left else (n - o,):
                    o2 = o + a
                    # the deficit a - m_j that the row entry adds
                    if j == 1:
                        lo, hi = 0, a  # m_1 in 1..n_1
                    elif left:
                        lo, hi = 1, a  # m_j in 1..n_j - 1
                    else:
                        lo, hi = 1, a + 1  # m_t in 0..n_t - 1
                    if v is None:
                        if hi > lo:
                            key = (o2, 0, None)
                            nxt[key] = nxt.get(key, 0) + c * (hi - lo)
                    else:
                        for e in range(lo, hi):
                            if e == 0:
                                key = (o2, 0, None)
                            else:
                                w = -(-o2 // (d + e))
                                key = (o2, d + e, max(v, w))
                            nxt[key] = nxt.get(key, 0) + c
            states = nxt
        for (_, _, v), c in states.items():
            counts[v] = counts.get(v, 0) + c
    return counts


def oracle_all_simple_games(n: int) -> list:
    """Every simple game on n labeled players, by the pairwise antichain
    search: each candidate mask, in ascending order, is tested against every
    chosen one, depth-first, each antichain before its extensions."""
    from nakamura.games import SimpleGame

    out = []

    def grow(chosen, start):
        if chosen:
            out.append(SimpleGame(n, tuple(chosen)))
        for m in range(start, 1 << n):
            if all(c & m not in (c, m) for c in chosen):
                grow(chosen + [m], m + 1)

    grow([], 1)
    return out


def oracle_enumerate_complete(n: int) -> list:
    """Every complete game on n players, by the pairwise antichain search:
    per composition, each count vector, in decreasing lexicographic order,
    is tested against every chosen row with ``shift_incomparable``, and an
    antichain whose rows separate neighboring classes becomes a checked
    ``CompleteGame``."""
    from nakamura.census import compositions
    from nakamura.games import CompleteGame, shift_incomparable

    out = []
    for sizes in compositions(n):
        t = len(sizes)
        lattice = [
            v
            for v in itertools.product(*(range(nj, -1, -1) for nj in sizes))
            if any(v)
        ]

        def separates(chosen):
            return all(
                any(row[j] > 0 and row[j + 1] < sizes[j + 1] for row in chosen)
                for j in range(t - 1)
            )

        def grow(chosen, start):
            if chosen and separates(chosen):
                out.append(CompleteGame(sizes, tuple(chosen)))
            for k in range(start, len(lattice)):
                v = lattice[k]
                if all(shift_incomparable(v, row) for row in chosen):
                    grow(chosen + [v], k + 1)

        grow([], 0)
    return out


@functools.cache
def oracle_max_nakamura(n: int, klass: str) -> dict:
    """The unpruned exhaustive search behind ``max_nakamura``, for every
    class count at once: ``{t: (value, witness)}`` for each t that some
    vetoer-free game of the class (``"S"``, ``"C"`` or ``"T"``) reaches.

    One enumeration per ``(n, klass)``, by the pairwise oracles above rather
    than the library's enumerators: every vetoer-free game is classified
    (and, for ``"T"``, tested for weightedness) and solved, and the first
    game in enumeration order whose value strictly beats its class count's
    best so far is kept.
    """
    from nakamura.census import is_weighted_complete
    from nakamura.exact import nakamura_complete, nakamura_exact
    from nakamura.games import desirability_classes

    best: dict = {}

    def record(t, value, game):
        if t not in best or value > best[t][0]:
            best[t] = (value, game)

    if klass == "S":
        for game in oracle_all_simple_games(n):
            if game.vetoer_mask():
                continue
            classes, _ = desirability_classes(game)
            record(len(classes), nakamura_exact(game).value, game)
    else:
        for g in oracle_enumerate_complete(n):
            if g.has_vetoers():
                continue
            if klass == "T" and not is_weighted_complete(g):
                continue
            record(g.t, nakamura_complete(g, want_witness=False).value, g)
    return best


def oracle_alpha_critical_vectors(
    class_sizes: Sequence[int], winning, losing
) -> Fraction:
    """Critical threshold over per-class weights and count-vector antichains.

    Exact for any game that is invariant under class-preserving player
    permutations: some optimal rough representation is then constant on
    classes, so restricting the LP to one weight per class loses nothing.
    """
    return oracle_critical_lp(len(class_sizes), winning, losing)[0]


def oracle_critical_lp(width: int, winning, losing) -> tuple[Fraction, tuple]:
    """Minimize alpha over ``width`` non-negative weights: every winning row
    weighs at least 1, every losing row at most alpha.

    The primal orientation, one LP row per vector, on the ``Fraction``
    tableau; returns alpha and the weights.
    """
    rows = [(list(v) + [0], ">=", 1) for v in winning]
    rows += [(list(u) + [-1], "<=", 0) for u in losing]
    res = oracle_solve_lp([0] * width + [1], rows)
    assert res.status == OPTIMAL
    return res.objective, tuple(res.x[:width])


def oracle_max_quota_lp(sizes, vectors) -> tuple[Fraction, tuple]:
    """The largest relative quota q* over non-negative block weights that
    give the blocks of ``sizes`` total weight 1, with weights attaining it.

    The matrix-game orientation on the ``Fraction`` tableau: minimize the
    largest per-player mass ``v`` of a distribution over the minimal
    winning ``vectors``; the weights are the duals of the block rows.
    """
    t, nv = len(sizes), len(vectors)
    rows = [
        ([vec[j] for vec in vectors] + [-sizes[j]], "<=", 0) for j in range(t)
    ]
    rows.append(([1] * nv + [0], "==", 1))
    res = oracle_solve_lp([0] * nv + [1], rows)
    assert res.status == OPTIMAL
    block_w = [-res.duals[j] for j in range(t)]
    scale = sum(n * w for n, w in zip(sizes, block_w))
    return res.objective, tuple(w / scale for w in block_w)


_ZERO = Fraction(0)
_ONE = Fraction(1)
INFEASIBLE = "infeasible"


def oracle_solve_lp(
    costs: Sequence, rows: Sequence[tuple[Sequence, str, object]]
) -> LpResult:
    """The general reference LP: a two-phase simplex on a ``Fraction``
    tableau.

    Rows are ``(coeffs, rel, rhs)`` with ``rel`` one of ``"<="``, ``">="``,
    ``"=="`` and rational data of any sign; the status may be
    ``INFEASIBLE``.  It pivots in rationals with no scaling, by Bland's
    rule, so on ``<=`` rows with non-negative right-hand sides (and integer
    data) it must equal ``lp.solve_lp`` exactly: status, objective,
    solution and duals.
    """
    n = len(costs)
    costs = [Fraction(c) for c in costs]
    m = len(rows)

    # normalize rows to non-negative rhs and assign marker columns
    norm = []
    flip = []
    for coeffs, rel, rhs in rows:
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != n:
            raise ValueError("coefficient row length mismatch")
        rhs = Fraction(rhs)
        if rhs < 0:
            coeffs = [-c for c in coeffs]
            rhs = -rhs
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
            flip.append(-1)
        else:
            flip.append(1)
        norm.append((coeffs, rel, rhs))

    n_slack = sum(1 for _, rel, _ in norm if rel in ("<=", ">="))
    n_art = sum(1 for _, rel, _ in norm if rel in (">=", "=="))
    total = n + n_slack + n_art
    art_start = n + n_slack

    tableau: list[list[Fraction]] = []
    basis: list[int] = []
    # marker[i] = (column, sign) used to read the dual of row i at the end
    marker: list[tuple[int, int]] = []
    s_idx = n
    a_idx = art_start
    artificial_rows = []
    for i, (coeffs, rel, rhs) in enumerate(norm):
        row = coeffs + [_ZERO] * (total - n) + [rhs]
        if rel == "<=":
            row[s_idx] = _ONE
            basis.append(s_idx)
            marker.append((s_idx, -1))
            s_idx += 1
        elif rel == ">=":
            row[s_idx] = -_ONE
            marker.append((s_idx, +1))
            s_idx += 1
            row[a_idx] = _ONE
            basis.append(a_idx)
            artificial_rows.append(i)
            a_idx += 1
        else:
            row[a_idx] = _ONE
            basis.append(a_idx)
            marker.append((a_idx, -1))
            artificial_rows.append(i)
            a_idx += 1
        tableau.append(row)

    def pivot(z: list[Fraction], r: int, c: int) -> None:
        prow = tableau[r]
        inv = _ONE / prow[c]
        if inv != 1:
            tableau[r] = prow = [v * inv for v in prow]
        for row in tableau:
            if row is prow:
                continue
            f = row[c]
            if f:
                for j in range(total + 1):
                    if prow[j]:
                        row[j] -= f * prow[j]
        f = z[c]
        if f:
            for j in range(total + 1):
                if prow[j]:
                    z[j] -= f * prow[j]
        basis[r] = c

    def run(z: list[Fraction], allowed: int) -> str:
        # Bland's rule: lowest-index entering column with negative reduced
        # cost, lowest basis index among ratio ties.
        while True:
            enter = -1
            for j in range(allowed):
                if z[j] < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            best = None
            leave = -1
            for i, row in enumerate(tableau):
                a = row[enter]
                if a > 0:
                    ratio = row[total] / a
                    if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leave]
                    ):
                        best = ratio
                        leave = i
            if leave < 0:
                return UNBOUNDED
            pivot(z, leave, enter)

    # phase 1: minimize the sum of artificials
    if n_art:
        z = [_ZERO] * (total + 1)
        for j in range(art_start, total):
            z[j] = _ONE
        for i in artificial_rows:
            row = tableau[i]
            for j in range(total + 1):
                if row[j]:
                    z[j] -= row[j]
        run(z, total)
        if -z[total] > 0:
            return LpResult(INFEASIBLE)
        # pivot leftover artificials out of the basis where possible
        for i in range(m):
            if basis[i] >= art_start:
                row = tableau[i]
                for j in range(art_start):
                    if row[j]:
                        pivot(z, i, j)
                        break

    # phase 2 on the true costs; artificial columns may not re-enter
    z = costs + [_ZERO] * (n_slack + n_art) + [_ZERO]
    for i, b in enumerate(basis):
        if b >= art_start:
            continue
        f = z[b]
        if f:
            row = tableau[i]
            for j in range(total + 1):
                if row[j]:
                    z[j] -= f * row[j]
    status = run(z, art_start)
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED)

    x = [_ZERO] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tableau[i][total]
    duals = [f * sign * z[col] for f, (col, sign) in zip(flip, marker)]
    return LpResult(OPTIMAL, objective=-z[total], x=x, duals=duals)

def random_rep(rng: random.Random, n_max: int = 10, w_max: int = 9) -> WeightedRep:
    while True:
        n = rng.randint(2, n_max)
        ws = [rng.randint(0, w_max) for _ in range(n)]
        total = sum(ws)
        if total == 0:
            continue
        return WeightedRep(rng.randint(1, total), ws)


def random_simple_game(rng: random.Random, n_max: int = 8) -> SimpleGame:
    """A game given only by its antichain: the inclusion-minimal members of
    a few random coalitions, viewed with one block per player."""
    n = rng.randint(2, n_max)
    masks = rng.sample(range(1, 1 << n), rng.randint(1, min(6, (1 << n) - 1)))
    minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]
    return SimpleGame(n, tuple(minimal))


def random_rational_rep(rng: random.Random, n_max: int = 10) -> WeightedRep:
    """Weights and quota with small random denominators, zeros included."""
    n = rng.randint(2, n_max)
    ws = [Fraction(rng.randint(0, 9), rng.randint(1, 4)) for _ in range(n)]
    if not any(ws):
        ws[0] = Fraction(1, 3)
    total = sum(ws)
    return WeightedRep(total * Fraction(rng.randint(1, 12), 12), ws)


def random_vetoer_free(rng: random.Random, n_max: int = 10, w_max: int = 9):
    while True:
        rep = random_rep(rng, n_max, w_max)
        game = game_from_weighted(rep)
        if not game.vetoer_mask():
            return rep, game


@pytest.fixture(scope="session")
def weighted_corpus():
    """1000 vetoer-free weighted games, n <= 10, integer weights <= 9."""
    rng = random.Random(20250809)
    return [random_vetoer_free(rng) for _ in range(1000)]


def random_complete_games(rng, n, count, max_r=3):
    """Random valid complete-game parameterizations on n players."""
    from nakamura.census import compositions
    from nakamura.games import complete_from_parameters, shift_incomparable

    comps = list(compositions(n))
    made = 0
    guard = 0
    while made < count and guard < 6000:
        guard += 1
        sizes = comps[rng.randrange(len(comps))]
        lattice = list(
            itertools.product(*(range(s + 1) for s in sizes))
        )
        rows = []
        for _ in range(rng.randint(1, max_r)):
            v = lattice[rng.randrange(len(lattice))]
            if any(v) and all(shift_incomparable(v, u) for u in rows):
                rows.append(v)
        rows.sort(reverse=True)
        try:
            g = complete_from_parameters(sizes, rows)
        except Exception:
            continue
        made += 1
        yield g
