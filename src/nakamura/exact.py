"""Exact Nakamura numbers with optimal witnesses.

The Nakamura number of a simple game is the least number of winning
coalitions with empty intersection (infinite exactly when a vetoer exists).
Restricting to minimal winning coalitions never changes the optimum, and
complementing turns the problem into a minimum set cover: cover all players
by complements of minimal winning coalitions.

``nakamura_exact`` first tries to settle a weighted game on its weights
alone: the quota ceiling ``ceil(w(N) / (w(N) - q))`` bounds the number from
below and the rounds of the improved greedy that strips the heaviest
players (``bounds.strip_rounds``) bound it from above, and when the two
meet no coalition is listed.  Every other game is routed by its
condensation.  With at most ``_COVER_SET_CAP`` minimal winning coalitions
it solves that cover by branch and bound over bit masks
(``cover.min_cover``).  Above the cap the game is condensed to count
vectors over player classes (``vector_instance``).  When every class holds
one player, the vectors are the coalitions, so they go to the same cover
solver; otherwise ``nakamura_by_vectors`` solves the covering program over
the classes.  ``nakamura_complete`` solves a complete game's prefix program
straight from its parameters.

Every path starts from a root lower bound: the program's own ceiling
(demand over the best single set or column) and, for a weighted game, the
quota ceiling, which the program's ceiling can exceed.  The greedy
incumbent is the answer when it meets that bound; if it does not, the
strip's rounds are the answer when they do.  Only then does a search run,
and it stops at the first incumbent that meets the bound.
``NakamuraResult.stats`` records the path, the root bound and what settled
the answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from operator import sub
from typing import Optional, Sequence

from . import bounds as bounds_mod
from .census import r1_value
from .cover import greedy_cover, min_cover
from .games import (
    CapacityError,
    ClassView,
    CompleteGame,
    InvalidGameError,
    InvariantError,
    SimpleGame,
    desirability_vectors,
    player_blocks,
    prefix_sums,
    sort_coalitions,
)

# Antichain size above which ``nakamura_exact`` condenses the game to count
# vectors over player classes instead of listing its coalitions.
_COVER_SET_CAP = 2000


@dataclass(frozen=True)
class SolveStats:
    """How an exact value was reached.

    * ``path`` -- ``"weights"`` (a weighted game settled on its weights
      before any coalition is listed), ``"cover"`` (bitmask cover over
      coalitions), ``"vectors"`` (covering program over player classes) or
      ``"complete"`` (a complete game's prefix program or closed form);
    * ``root_lb`` -- the lower bound known before any search, and
      ``root_source`` what supplied it: ``"ceiling"`` (the quota ceiling of
      a weighted game, preferred on ties), ``"comb"`` (the program's own
      ceiling), ``"lp"`` (the quota LP) or ``"closed_form"``;
    * ``settled`` -- what gave the witness: ``"greedy"``, ``"strip"`` (the
      improved greedy's rounds), ``"search"`` or ``"closed_form"``;
    * ``nodes`` -- search nodes visited.
    """

    path: str
    root_lb: int
    root_source: str
    settled: str
    nodes: int


@dataclass(frozen=True)
class NakamuraResult:
    """Value and witness.  ``value is None`` means infinite (vetoer present).

    A finite witness lists exactly ``value`` winning coalitions (as masks)
    with empty intersection.  ``stats`` says how a solver reached it (None
    where no program was solved); it takes no part in equality.
    """

    value: Optional[int]
    witness: tuple[int, ...] = ()
    stats: Optional[SolveStats] = field(default=None, compare=False)


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

    Routing: a weighted game whose strip meets its quota ceiling is
    settled on its weights (path ``"weights"``), before any minimal winning
    vector is built.  Otherwise at most ``_COVER_SET_CAP`` minimal winning
    coalitions go to branch and bound on the complement cover.  Larger
    antichains are condensed to count vectors over player classes first; if
    every class holds one player, the vectors are the coalitions and go to
    the same cover solver, otherwise to ``nakamura_by_vectors``.

    Root bound: the program's own ceiling and, for a weighted game, the
    quota ceiling of its view.  The greedy incumbent is returned when it
    meets the bound, else the improved greedy's strip when that does
    (after the weights settle, only a program ceiling above the quota
    ceiling lets it).  Only then does the cover over the antichain add the
    quota-LP bound when it is cheap (never on the condensed cover, where
    the full LP is large), and the search stops as soon as an incumbent
    meets the bound.
    """
    if game.vetoer_mask():
        return INFINITE_RESULT
    view = game.view
    ceiling = view.quota_ceiling
    strip = _strip_meeting(view, ceiling)
    if strip is not None:
        return _result(strip, SolveStats("weights", ceiling, "ceiling", "strip", 0))
    if view.coalition_count(view.winning) <= _COVER_SET_CAP:
        return _cover_result(game, game.min_winning, quota_lp=True)
    inst = vector_instance(game)
    if set(inst.class_sizes) == {1}:
        # one player per class: each minimal winning vector is a coalition
        bits = [1 << p for (p,) in inst.class_players]
        masks = [sum(compress(bits, v)) for v in inst.vectors]
        return _cover_result(game, masks)
    return nakamura_by_vectors(inst, view)


def _root_bound(ceiling: Optional[int], comb: int) -> tuple[int, str]:
    """The larger of the quota ceiling (None off weighted views) and the
    program's own ceiling ``comb``, with its source."""
    if ceiling is not None and ceiling >= comb:
        return ceiling, "ceiling"
    return comb, "comb"


def _strip_meeting(view: Optional[ClassView], root_lb: int):
    """The strip's coalitions on a ``"weights"`` view when their count meets
    ``root_lb``, else None."""
    if view is None or view.quota is None:
        return None
    rounds = bounds_mod.strip_rounds(view)
    return rounds if rounds is not None and len(rounds) <= root_lb else None


def _result(coalitions: Sequence[int], stats: SolveStats) -> NakamuraResult:
    return NakamuraResult(len(coalitions), sort_coalitions(coalitions), stats)


def _cover_result(
    game: SimpleGame, winning, quota_lp: bool = False
) -> NakamuraResult:
    """Branch and bound on the complement cover of the minimal winning
    masks ``winning``, with the quota-LP bound (when cheap) if
    ``quota_lp``."""
    grand = game.grand
    complements = [grand & ~w for w in winning]
    comb = -(-game.n // max(c.bit_count() for c in complements))
    root_lb, source = _root_bound(game.view.quota_ceiling, comb)
    chosen = greedy_cover(grand, complements)
    counter = {"nodes": 0}
    if len(chosen) > root_lb:
        strip = _strip_meeting(game.view, root_lb)
        if strip is not None:
            return _result(strip, SolveStats("cover", root_lb, source, "strip", 0))
        lp_lb = bounds_mod.lp_lower_bound(game) if quota_lp else None
        if lp_lb is not None and lp_lb > root_lb:
            root_lb, source = lp_lb, "lp"
        chosen = min_cover(grand, complements, root_lb=root_lb, stats=counter)
    nodes = counter["nodes"]
    settled = "search" if nodes else "greedy"
    witness = [winning[i] for i in chosen]
    return _result(witness, SolveStats("cover", root_lb, source, settled, nodes))


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


def _greedy_columns(
    columns: Sequence[Sequence[int]], demands: Sequence[int]
) -> list[int]:
    """Multiplicities of the greedy that picks the column reducing the most
    remaining deficit first (earliest column on ties); the program must be
    feasible."""
    deficits = list(demands)
    x = [0] * len(columns)
    # a column's gain never exceeds its sum, so columns whose sum cannot
    # beat the best gain so far are not scored
    sums = [sum(col) for col in columns]
    while any(d > 0 for d in deficits):
        pick = -1
        gain = -1
        for i, (col, most) in enumerate(zip(columns, sums)):
            if most > gain:
                g = sum(map(min, col, deficits))
                if g > gain:
                    pick, gain = i, g
        x[pick] += 1
        deficits = [max(0, d - c) for d, c in zip(deficits, columns[pick])]
    return x


def solve_covering_ilp(
    columns: Sequence[Sequence[int]],
    demands: Sequence[int],
    *,
    root_lb: int = 0,
    incumbent: Optional[list[int]] = None,
    stats: Optional[dict] = None,
) -> Optional[tuple[int, list[int]]]:
    """Minimize the number of chosen columns (with repetition) so that the
    column sum meets ``demands`` componentwise; None when infeasible.

    Exact branch and bound from ``incumbent`` (multiplicities; by default
    the greedy of ``_greedy_columns``): columns in given order,
    multiplicities tried from their cap downward, pruned by per-component
    ceilings on the best remaining coverage.  The search keeps its path on
    an explicit stack, so its depth (one level per column) is not bounded
    by the recursion limit.  ``root_lb`` must be a valid lower bound: an
    incumbent that meets it is returned at once, and the search stops at the
    first one it finds.  An incumbent is only ever replaced by a strictly
    smaller one.  A ``stats`` dict, when given, receives ``"nodes"``, the
    search nodes visited.
    """
    t = len(demands)
    r = len(columns)
    if any(d > 0 and all(col[j] == 0 for col in columns)
           for j, d in enumerate(demands)):
        return None
    if incumbent is None:
        incumbent = _greedy_columns(columns, demands)
    best, best_x = sum(incumbent), incumbent
    if stats is not None:
        stats["nodes"] = 0
    if best <= root_lb:
        return best, best_x
    sufmax = [[0] * t for _ in range(r + 1)]
    for i in range(r - 1, -1, -1):
        for j in range(t):
            sufmax[i][j] = max(sufmax[i + 1][j], columns[i][j])
    deficits = list(demands)
    x = [0] * r
    nodes = 0
    # frames [i, used, k]: column i holds multiplicity k (already taken off
    # the deficits and kept in x[i]) and the columns before it hold ``used``
    stack: list[list[int]] = []
    i = used = 0
    visit = True  # whether node (i, used) waits to be visited
    while visit or stack:
        if visit:
            visit = False
            nodes += 1
            if all(d <= 0 for d in deficits):
                if used < best:
                    best, best_x = used, x.copy()
                    if best <= root_lb:
                        break
                continue
            if i == r:
                continue
            lb = 0
            for d, m in zip(deficits, sufmax[i]):
                if d > 0:
                    if m == 0:
                        break
                    lb = max(lb, -(-d // m))
            else:
                if used + lb < best:
                    cap = 0
                    for c, d in zip(columns[i], deficits):
                        if c > 0 and d > 0:
                            cap = max(cap, -(-d // c))
                    stack.append([i, used, cap + 1])
            continue
        frame = stack[-1]
        i, used, k = frame
        col = columns[i]
        if x[i]:
            for j in range(t):
                deficits[j] += x[i] * col[j]
            x[i] = 0
        k -= 1
        while k >= 0 and used + k >= best:
            k -= 1
        if k < 0:
            stack.pop()
            continue
        frame[2] = k
        for j in range(t):
            deficits[j] -= k * col[j]
        x[i] = k
        i, used, visit = i + 1, used + k, True
    if stats is not None:
        stats["nodes"] = nodes
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


def nakamura_by_vectors(
    inst: VectorIlpInstance, view: Optional[ClassView] = None
) -> NakamuraResult:
    """Solve the condensed covering program exactly.

    Plain form: choose winning vectors (with repetition) so that every class
    j is dropped at least ``class_sizes[j]`` times; the optimal count is the
    Nakamura number.  Prefix form: same over prefix sums of the shift-minimal
    rows.  Raises if a class can never be dropped (vetoer), which callers
    rule out beforehand.

    The root bound is the program's own ceiling, raised to the quota
    ceiling of ``view`` when that is the ``"weights"`` view the instance was
    built from; its strip is then the incumbent when the greedy misses the
    bound and the strip meets it.  Other views add nothing.
    """
    sizes = inst.class_sizes
    if inst.prefix:
        o = prefix_sums(sizes)
        cols = [tuple(map(sub, o, prefix_sums(v))) for v in inst.vectors]
        demands = o
    else:
        cols = [tuple(map(sub, sizes, v)) for v in inst.vectors]
        demands = sizes
    path = "complete" if inst.prefix else "vectors"
    top = [max(c) for c in zip(*cols)]
    if 0 in top:
        raise InvalidGameError(
            "covering program infeasible: the game has a vetoer"
        )
    comb = max(-(-d // m) for d, m in zip(demands, top))
    ceiling = view.quota_ceiling if view is not None else None
    root_lb, source = _root_bound(ceiling, comb)
    greedy = _greedy_columns(cols, demands)
    if sum(greedy) > root_lb:
        strip = _strip_meeting(view, root_lb)
        if strip is not None:
            return _result(strip, SolveStats(path, root_lb, source, "strip", 0))
    counter: dict = {}
    _, mult = solve_covering_ilp(
        cols, demands, root_lb=root_lb, incumbent=greedy, stats=counter
    )
    nodes = counter["nodes"]
    settled = "search" if nodes else "greedy"
    chosen: list[list[int]] = []
    for i, k in enumerate(mult):
        chosen.extend(list(inst.vectors[i]) for _ in range(k))
    if inst.prefix:
        chosen = _shift_into_coverage(sizes, chosen)
    masks = _coalitions_from_vectors(sizes, inst.class_players, chosen)
    return _result(masks, SolveStats(path, root_lb, source, settled, nodes))


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
        value = r1_value(g.class_sizes, g.shift_min[0])
        stats = SolveStats("complete", value, "closed_form", "closed_form", 0)
        return NakamuraResult(value, (), stats)
    res = nakamura_by_vectors(instance_from_complete(g))
    if g.r == 1 and r1_value(g.class_sizes, g.shift_min[0]) != res.value:
        raise InvariantError(  # pragma: no cover - cross-check
            "closed form disagrees with covering program"
        )
    return res
