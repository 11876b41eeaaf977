"""Exact Nakamura numbers with optimal witnesses.

The Nakamura number of a simple game is the least number of winning
coalitions with empty intersection (infinite exactly when a vetoer exists).
Restricting to minimal winning coalitions never changes the optimum, and
complementing turns the problem into a minimum set cover: cover all players
by complements of minimal winning coalitions.  ``nakamura_exact`` solves
that cover by branch and bound; ``nakamura_by_vectors`` and
``nakamura_complete`` solve the condensed covering programs over player
classes, which stay small even when the antichain is huge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from . import bounds as bounds_mod
from .census import r1_value
from .cover import greedy_cover, min_cover
from .games import (
    CapacityError,
    CompleteGame,
    InvalidGameError,
    InvariantError,
    SimpleGame,
    desirability_vectors,
    player_blocks,
    prefix_sums,
    sort_coalitions,
)

# Antichain size above which the automatic method switches from the cover
# solver to the class-condensed vector solver.
_COVER_SET_CAP = 2000


@dataclass(frozen=True)
class NakamuraResult:
    """Value and witness.  ``value is None`` means infinite (vetoer present).

    A finite witness lists exactly ``value`` winning coalitions (as masks)
    with empty intersection.
    """

    value: Optional[int]
    witness: tuple[int, ...] = ()


INFINITE_RESULT = NakamuraResult(None, ())


def verify_witness(game: SimpleGame, coalitions: Sequence[int]) -> bool:
    """True iff every coalition is winning and their intersection is empty."""
    inter = game.grand
    for c in coalitions:
        if not game.is_winning(c):
            return False
        inter &= c
    return inter == 0


def nakamura_symmetric(n: int, qhat: int) -> NakamuraResult:
    """Closed form for the symmetric game [qhat; 1^n]: ceil(n / (n - qhat)).

    The witness removes blocks of ``n - qhat`` players cyclically, so every
    player is dropped at least once.
    """
    if not 1 <= qhat <= n:
        raise InvalidGameError(f"quota {qhat} outside 1..{n}")
    if qhat == n:
        return INFINITE_RESULT
    d = n - qhat
    k = -(-n // d)
    grand = (1 << n) - 1
    witness = []
    for i in range(k):
        block = 0
        for j in range(d):
            block |= 1 << ((i * d + j) % n)
        witness.append(grand & ~block)
    return NakamuraResult(k, sort_coalitions(witness))


def nakamura_exact(game: SimpleGame) -> NakamuraResult:
    """Exact Nakamura number of a simple game, with an optimal witness.

    Antichains of at most ``_COVER_SET_CAP`` coalitions are solved by
    branch and bound on the complement cover: greedy incumbent, ceiling
    lower bound, and the quota-LP lower bound when it is cheap; the search
    stops as soon as the incumbent matches the root bound.  Larger
    antichains are condensed to count vectors over player classes first
    (``nakamura_by_vectors``), which stays small when the class structure
    is.
    """
    if game.vetoer_mask():
        return INFINITE_RESULT
    if game.view.coalition_count(game.view.winning) > _COVER_SET_CAP:
        return nakamura_by_vectors(vector_instance(game))

    complements = [game.grand & ~w for w in game.min_winning]
    universe = game.grand
    u_count = game.n
    max_size = max(c.bit_count() for c in complements)
    comb_lb = -(-u_count // max_size)
    root_lb = comb_lb
    greedy = greedy_cover(universe, complements)
    if greedy is None:  # pragma: no cover - excluded by the vetoer check
        return INFINITE_RESULT
    if len(greedy) > comb_lb:
        lp_lb = bounds_mod.lp_lower_bound(game)
        if lp_lb is not None:
            root_lb = max(root_lb, lp_lb)
    chosen = min_cover(universe, complements, root_lb=root_lb)
    witness = sort_coalitions(game.min_winning[i] for i in chosen)
    return NakamuraResult(len(chosen), witness)


# ---------------------------------------------------------------------------
# condensed solvers over count vectors


@dataclass(frozen=True)
class VectorIlpInstance:
    """Covering program over player classes.

    In the plain form, ``vectors`` are the componentwise-minimal winning
    count vectors and the program demands that each class be dropped
    ``class_sizes[j]`` times.  In the prefix form (complete games),
    ``vectors`` are the shift-minimal rows and both coverage and demand are
    taken over prefix sums.  ``class_players`` maps classes to 0-based
    player indices; None means consecutive blocks.
    """

    class_sizes: tuple[int, ...]
    vectors: tuple[tuple[int, ...], ...]
    prefix: bool = False
    class_players: Optional[tuple[tuple[int, ...], ...]] = None


def vector_instance(game: SimpleGame) -> VectorIlpInstance:
    """Build the condensed instance from a game's minimal winning vectors.

    Classes are the blocks of ``game.view`` (their members are
    interchangeable, which is all the condensation needs); a view with one
    block per player is first coarsened to the desirability partition.
    """
    view = game.view
    players, vectors = view.blocks, view.winning
    if view.source == "players":
        classes, _, vectors = desirability_vectors(game)
        players = tuple(tuple(p - 1 for p in cls) for cls in classes)
    sizes = tuple(len(g) for g in players)
    ordered = tuple(sorted(vectors, reverse=True))
    return VectorIlpInstance(sizes, ordered, class_players=players)


def instance_from_complete(g: CompleteGame) -> VectorIlpInstance:
    """Prefix-sum instance of a complete game's shift-minimal rows."""
    return VectorIlpInstance(g.class_sizes, g.shift_min, prefix=True)


def solve_covering_ilp(
    columns: Sequence[Sequence[int]], demands: Sequence[int]
) -> Optional[tuple[int, list[int]]]:
    """Minimize the number of chosen columns (with repetition) so that the
    column sum meets ``demands`` componentwise; None when infeasible.

    Small exact branch and bound: columns in given order, multiplicities
    tried from their cap downward, pruned by per-component ceilings on the
    best remaining coverage.
    """
    t = len(demands)
    r = len(columns)
    sufmax = [[0] * t for _ in range(r + 1)]
    for i in range(r - 1, -1, -1):
        for j in range(t):
            sufmax[i][j] = max(sufmax[i + 1][j], columns[i][j])
    if any(d > 0 and sufmax[0][j] == 0 for j, d in enumerate(demands)):
        return None

    # greedy incumbent: most remaining deficit reduced first
    deficits = list(demands)
    greedy: list[int] = [0] * r
    greedy_total = 0
    while any(d > 0 for d in deficits):
        pick = -1
        gain = -1
        for i, col in enumerate(columns):
            g = sum(min(col[j], deficits[j]) for j in range(t))
            if g > gain:
                pick, gain = i, g
        greedy[pick] += 1
        greedy_total += 1
        for j in range(t):
            deficits[j] = max(0, deficits[j] - columns[pick][j])

    best = greedy_total
    best_x = greedy
    deficits = list(demands)
    x = [0] * r

    def dfs(i: int, used: int) -> None:
        nonlocal best, best_x
        if all(d <= 0 for d in deficits):
            if used < best:
                best = used
                best_x = x.copy()
            return
        if i == r:
            return
        lb = 0
        for j in range(t):
            d = deficits[j]
            if d > 0:
                m = sufmax[i][j]
                if m == 0:
                    return
                need = -(-d // m)
                if need > lb:
                    lb = need
        if used + lb >= best:
            return
        col = columns[i]
        cap = 0
        for j in range(t):
            if col[j] > 0 and deficits[j] > 0:
                cap = max(cap, -(-deficits[j] // col[j]))
        for k in range(cap, -1, -1):
            if used + k >= best:
                continue
            for j in range(t):
                deficits[j] -= k * col[j]
            x[i] = k
            dfs(i + 1, used + k)
            for j in range(t):
                deficits[j] += k * col[j]
            x[i] = 0

    dfs(0, 0)
    return best, best_x


def _shift_into_coverage(
    class_sizes: Sequence[int], vectors: list[list[int]]
) -> list[list[int]]:
    """Repair a prefix-feasible multiset of winning vectors into one whose
    plain per-class coverage suffices.

    While some class h is dropped fewer than ``class_sizes[h]`` times, move
    one member of class h to an earlier class in one of the vectors.  Each
    move keeps every vector winning (prefix sums only grow) and keeps the
    prefix coverage condition intact; the move chosen is the first one (by
    vector index, then by closest earlier class) that does so.
    """
    sizes = list(class_sizes)
    t = len(sizes)
    o = prefix_sums(sizes)

    def prefix_ok(vecs) -> bool:
        for i in range(t):
            cov = sum(o[i] - prefix_sums(v)[i] for v in vecs)
            if cov < o[i]:
                return False
        return True

    guard = 0
    limit = 4 * sum(sizes) * max(1, len(vectors)) * t + 16
    while True:
        guard += 1
        if guard > limit:  # pragma: no cover - termination safety net
            raise InvariantError("shift repair did not terminate")
        deficit_at = -1
        for h in range(t):
            cov = sum(sizes[h] - v[h] for v in vectors)
            if cov < sizes[h]:
                deficit_at = h
                break
        if deficit_at < 0:
            return vectors
        h = deficit_at
        moved = False
        for v in vectors:
            if v[h] <= 0:
                continue
            for g in range(h - 1, -1, -1):
                if v[g] >= sizes[g]:
                    continue
                v[g] += 1
                v[h] -= 1
                if prefix_ok(vectors):
                    moved = True
                    break
                v[g] -= 1
                v[h] += 1
            if moved:
                break
        if not moved:  # pragma: no cover - guaranteed by prefix feasibility
            raise InvariantError("no admissible shift found")


def _coalitions_from_vectors(
    class_sizes: Sequence[int],
    class_players: Optional[Sequence[Sequence[int]]],
    vectors: Sequence[Sequence[int]],
) -> list[int]:
    """Coalition masks realizing the vectors with empty overall intersection.

    Within each class the players still to be dropped are consumed in
    ascending order, so the outcome is deterministic.  Requires the plain
    coverage condition sum_i (n_j - v_i_j) >= n_j for every class j.
    """
    players = [sorted(g) for g in class_players or player_blocks(class_sizes)]
    n = sum(class_sizes)
    grand = 0
    for g in players:
        for p in g:
            grand |= 1 << p
    masks = [grand] * len(vectors)
    for j, nj in enumerate(class_sizes):
        pool = list(players[j])
        for i, v in enumerate(vectors):
            k = nj - v[j]
            drop, pool = pool[:k], pool[k:]
            for p in drop:
                masks[i] &= ~(1 << p)
    if any(m.bit_count() > n for m in masks):  # pragma: no cover
        raise InvariantError("witness reconstruction out of range")
    return masks


def nakamura_by_vectors(inst: VectorIlpInstance) -> NakamuraResult:
    """Solve the condensed covering program exactly.

    Plain form: choose winning vectors (with repetition) so that every class
    j is dropped at least ``class_sizes[j]`` times; the optimal count is the
    Nakamura number.  Prefix form: same over prefix sums of the shift-minimal
    rows.  Raises if a class can never be dropped (vetoer), which callers
    rule out beforehand.
    """
    sizes = inst.class_sizes
    t = len(sizes)
    if inst.prefix:
        o = prefix_sums(sizes)
        cols = [
            tuple(o[j] - prefix_sums(v)[j] for j in range(t))
            for v in inst.vectors
        ]
        demands = o
    else:
        cols = [
            tuple(sizes[j] - v[j] for j in range(t)) for v in inst.vectors
        ]
        demands = sizes
    solved = solve_covering_ilp(cols, demands)
    if solved is None:
        raise InvalidGameError(
            "covering program infeasible: the game has a vetoer"
        )
    value, mult = solved
    chosen: list[list[int]] = []
    for i, k in enumerate(mult):
        chosen.extend(list(inst.vectors[i]) for _ in range(k))
    if inst.prefix:
        chosen = _shift_into_coverage(sizes, chosen)
    masks = _coalitions_from_vectors(sizes, inst.class_players, chosen)
    return NakamuraResult(value, sort_coalitions(masks))


def nakamura_complete(
    g: CompleteGame, *, want_witness: bool = True
) -> NakamuraResult:
    """Nakamura number straight from the complete-game parameterization.

    A witness needs at most 64 players.  Vetoer games (every row keeps the
    strongest class full) are infinite.  With a single shift-minimal row the
    optimum is the closed form ``max_i ceil(O_i / (O_i - P_i))`` over prefix
    sums; otherwise the prefix covering program is solved exactly.
    """
    if g.n > 64 and want_witness:
        raise CapacityError("witness expansion needs at most 64 players")
    if g.has_vetoers():
        return INFINITE_RESULT
    if not want_witness and g.r == 1:
        return NakamuraResult(r1_value(g.class_sizes, g.shift_min[0]), ())
    res = nakamura_by_vectors(instance_from_complete(g))
    if g.r == 1 and r1_value(g.class_sizes, g.shift_min[0]) != res.value:
        raise InvariantError(  # pragma: no cover - cross-check
            "closed form disagrees with covering program"
        )
    return res
