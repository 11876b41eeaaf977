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
meet no coalition is listed.  Every other game with at most
``_COVER_SET_CAP`` minimal winning coalitions is solved as that cover by
branch and bound over bit masks (``cover.min_cover``).  Larger antichains
go to ``nakamura_by_vectors``, which condenses the game to count vectors
over its view's blocks (the desirability classes when the view has one
block per player).  When every class holds one player, the vectors are the
coalitions, so they go to the same cover solver; otherwise it solves the
covering program over the classes.  ``nakamura_complete`` solves a complete
game's prefix program straight from its shift-minimal rows and builds the
witness from the chosen rows directly.

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
from functools import partial
from itertools import compress, islice
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
    desirability_classes,
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
      ``"complete"`` (a complete game's prefix program);
    * ``root_lb`` -- the lower bound known before any search, and
      ``root_source`` what supplied it: ``"ceiling"`` (the quota ceiling of
      a weighted game, preferred on ties), ``"comb"`` (the program's own
      ceiling; for a single-row complete game it is the closed form) or
      ``"lp"`` (the quota LP);
    * ``settled`` -- what gave the witness: ``"greedy"``, ``"strip"`` (the
      improved greedy's rounds) or ``"search"``;
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
    coalitions go to branch and bound on the complement cover, and larger
    antichains to ``nakamura_by_vectors``.

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
    return nakamura_by_vectors(game)


def _root_bound(ceiling: Optional[int], comb: int) -> tuple[int, str]:
    """The larger of the quota ceiling (None off weighted views) and the
    program's own ceiling ``comb``, with its source."""
    if ceiling is not None and ceiling >= comb:
        return ceiling, "ceiling"
    return comb, "comb"


def _strip_meeting(view: ClassView, root_lb: int):
    """The strip's coalitions on a weights view when their count meets
    ``root_lb``, else None."""
    if view.quota is None:
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
    ``quota_lp``.  Raises on a vetoer."""
    grand = game.grand
    complements = [grand & ~w for w in winning]
    chosen = greedy_cover(grand, complements)
    if chosen is None:
        raise InvalidGameError("cover infeasible: the game has a vetoer")
    comb = -(-game.n // max(c.bit_count() for c in complements))
    root_lb, source = _root_bound(game.view.quota_ceiling, comb)
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
# covering programs over player classes


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


def _program_result(path, columns, demands, view: Optional[ClassView], witness):
    """Solve a covering program over player classes exactly.

    The root bound is the program's own ceiling (each class's demand over
    its largest column entry), raised to the quota ceiling of a weights
    ``view``, whose strip is the answer when the greedy misses that bound
    and the strip meets it.  Otherwise ``solve_covering_ilp``
    runs from the greedy, and ``witness`` turns the chosen columns (one per
    unit of multiplicity, in column order) into coalitions.  A ``view`` of
    None has neither ceiling nor strip (a complete game's), and a
    ``witness`` of None returns the value with no coalitions.  Raises if a
    class can never be dropped (vetoer).
    """
    top = [max(c) for c in zip(*columns)]
    if 0 in top:
        raise InvalidGameError("covering program infeasible: the game has a vetoer")
    comb = max(-(-d // m) for d, m in zip(demands, top))
    ceiling = view.quota_ceiling if view is not None else None
    root_lb, source = _root_bound(ceiling, comb)
    greedy = _greedy_columns(columns, demands)
    if view is not None and sum(greedy) > root_lb:
        strip = _strip_meeting(view, root_lb)
        if strip is not None:
            return _result(strip, SolveStats(path, root_lb, source, "strip", 0))
    counter: dict = {}
    value, mult = solve_covering_ilp(
        columns, demands, root_lb=root_lb, incumbent=greedy, stats=counter
    )
    nodes = counter["nodes"]
    settled = "search" if nodes else "greedy"
    stats = SolveStats(path, root_lb, source, settled, nodes)
    if witness is None:
        return NakamuraResult(value, (), stats)
    chosen = [col for col, k in zip(columns, mult) for _ in range(k)]
    return _result(witness(chosen), stats)


def _coalitions_from_vectors(blocks, chosen) -> list[int]:
    """One coalition per chosen column ``col``, dropping ``col[j]`` players
    of class ``blocks[j]``; each class's players are dropped in ascending
    order, so every player is dropped once the columns cover the class."""
    masks = [sum(1 << p for block in blocks for p in block)] * len(chosen)
    for j, block in enumerate(blocks):
        pool = iter(sorted(block))
        for i, col in enumerate(chosen):
            for p in islice(pool, col[j]):
                masks[i] &= ~(1 << p)
    return masks


def _prefix_witness(class_sizes, chosen) -> list[int]:
    """One coalition per chosen prefix column ``O - P(row)`` of a complete
    game, built as ``nakamura_complete`` describes."""
    masks = [(1 << sum(class_sizes)) - 1] * len(chosen)
    dropped = [0] * len(chosen)
    for j, block in enumerate(player_blocks(class_sizes)):
        for p in block:
            i = next(
                (i for i, col in enumerate(chosen) if col[j] > dropped[i]), None
            )
            if i is None:  # pragma: no cover - see ``nakamura_complete``
                raise InvariantError(f"no chosen row has room for player {p}")
            dropped[i] += 1
            masks[i] &= ~(1 << p)
    return masks


def nakamura_by_vectors(game: SimpleGame) -> NakamuraResult:
    """Solve a game's covering program over player classes exactly.

    The classes are the blocks of ``game.view``, or the desirability classes
    when the view has one block per player (a game given only by its
    antichain).  Players of one desirability class are interchangeable, so
    a coalition's count vector over the classes decides whether it wins.
    The minimal winning vectors are then the count vectors of the minimal
    winning coalitions, one AND and one ``bit_count`` per class: if one of
    them dominated another winning vector, a proper subset of its coalition
    would have that vector and win, so the coalition would not be minimal.

    When every class holds one player, the minimal winning count vectors
    are the coalitions and go to the complement cover.  Otherwise the
    program chooses minimal winning vectors ``v`` (with repetition) whose
    columns ``sizes - v`` drop every class ``j`` at least ``sizes[j]``
    times; the optimal count is the Nakamura number (``_program_result``).
    Within each class the witness drops players in ascending order.  Raises
    on a vetoer.
    """
    view = game.view
    blocks, vectors = view.blocks, view.winning
    if view.table is not None:
        classes, _ = desirability_classes(game)
        blocks = tuple(tuple(p - 1 for p in cls) for cls in classes)
        masks = [sum(1 << p for p in block) for block in blocks]
        vectors = {
            tuple((w & m).bit_count() for m in masks) for w in game.min_winning
        }
    vectors = sorted(vectors, reverse=True)
    if all(len(b) == 1 for b in blocks):
        bits = [1 << p for (p,) in blocks]
        return _cover_result(game, [sum(compress(bits, v)) for v in vectors])
    sizes = tuple(map(len, blocks))
    columns = [tuple(map(sub, sizes, v)) for v in vectors]
    witness = partial(_coalitions_from_vectors, blocks)
    return _program_result("vectors", columns, sizes, view, witness)


def nakamura_complete(
    g: CompleteGame, *, want_witness: bool = True
) -> NakamuraResult:
    """Nakamura number straight from the complete-game parameterization.

    A witness needs at most 64 players.  Vetoer games (every row keeps the
    strongest class full) are infinite.  With ``O`` the prefix sums of the
    class sizes and ``P`` those of a row, the prefix program chooses rows
    (with repetition) whose columns ``O - P`` meet ``O`` in every class; one
    row gives the closed form ``max_i ceil(O_i / (O_i - P_i))``.

    The witness drops each player, strongest first, from the first chosen
    row with room at the player's class ``j``: a row drops at most
    ``O_j - P_j`` of the first ``O_j`` players, so its coalition dominates
    the row and wins.  There is always room: the ``p`` players dropped
    before player ``p`` (0-based) lie in classes up to ``j``, and full rows
    would give ``p >= sum_i (O_j - P_ij) >= O_j > p``.  With
    ``want_witness=False`` the value is the sum of the program's
    multiplicities and no coalition is built.  With one row the program's
    ceiling is the closed form, and its greedy takes the one column that
    many times, so no search runs.
    """
    if g.n > 64 and want_witness:
        raise CapacityError("witness expansion needs at most 64 players")
    if g.has_vetoers():
        return INFINITE_RESULT
    o = prefix_sums(g.class_sizes)
    columns = [tuple(map(sub, o, prefix_sums(row))) for row in g.shift_min]
    witness = partial(_prefix_witness, g.class_sizes) if want_witness else None
    # a complete game's view has no quota ceiling and no strip: none is built
    res = _program_result("complete", columns, o, None, witness)
    if g.r == 1 and r1_value(g.class_sizes, g.shift_min[0]) != res.value:
        raise InvariantError(  # pragma: no cover - cross-check
            "closed form disagrees with covering program"
        )
    return res
