"""Parametric constructions with large Nakamura numbers, and the exhaustive
search for the maximum Nakamura number by player/class counts.

The catalog of constructions:

* ``max-symmetric`` -- ``[n-1; 1^n]``, the unique game reaching value n.
* ``nearmax-1`` .. ``nearmax-5`` -- the five families of games with value
  n - 1 (single heavy block plus two or three light players, the
  three-player anyone-wins game, the all-but-one game with a null player,
  and the heavy/medium/light three-class family), plus ``nearmax-5-null``
  which appends a null player to the last one.
* ``circle`` -- classes 2..t arranged on a cycle; a winning coalition
  misses either one strongest-class player or two players from neighboring
  cycle classes.  Value at least ``n - (t-1)//2``.
* ``marked-subset`` -- a marked k-set V; losing coalitions miss either two
  players outside designated pairs or a pair ``{v_i, u}`` not on the list.
  Value at least ``n - k`` with ``2k+1 <= t <= k + 2^k`` classes.
* ``unit-padding`` -- a base weight vector padded with r unit players at a
  fixed relative quota; for large r the value hits the quota ceiling
  ``ceil(1/(1-q^r))`` exactly.
* ``replica`` -- every base player cloned r times at a fixed relative
  quota, with the same ceiling for large r.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from math import ceil
from operator import and_, sub
from typing import Callable, Iterator, Optional, Union

from .games import (
    CapacityError,
    InvalidGameError,
    SimpleGame,
    WeightedRep,
    antichains,
    desirability_classes,
    masks_with_vectors,
    player_blocks,
    prefix_sums,
    simple_game,
)
from .census import enumerate_complete, is_weighted_complete, r1_value
from .cover import greedy_cover
from .exact import _greedy_columns, nakamura_complete, nakamura_exact

CLASS_SIMPLE = "S"
CLASS_COMPLETE = "C"
CLASS_WEIGHTED = "T"

EXHAUSTIVE_CAP = {CLASS_SIMPLE: 6, CLASS_COMPLETE: 7, CLASS_WEIGHTED: 7}


@dataclass(frozen=True)
class FamilySpec:
    tag: str
    params: dict = field(default_factory=dict)

    def __getitem__(self, key: str):
        _require(key in self.params, f"family {self.tag} needs --{key}")
        return self.params[key]


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InvalidGameError(message)


def construct_family(spec: FamilySpec) -> Union[WeightedRep, SimpleGame]:
    """Instantiate a cataloged construction; parameter violations name the
    offended range."""
    tag = spec.tag
    p = spec
    if tag == "max-symmetric":
        n = p["n"]
        _require(n >= 2, "max-symmetric needs n >= 2")
        return WeightedRep(n - 1, (1,) * n)
    if tag == "nearmax-1":
        n = p["n"]
        _require(n >= 3, "nearmax-1 needs n >= 3")
        return WeightedRep(2 * n - 4, (2,) * (n - 2) + (1, 1))
    if tag == "nearmax-2":
        _require(p.params.get("n", 3) == 3, "nearmax-2 exists only for n = 3")
        return WeightedRep(1, (1, 1, 1))
    if tag == "nearmax-3":
        n = p["n"]
        _require(n >= 4, "nearmax-3 needs n >= 4")
        return WeightedRep(2 * n - 5, (2,) * (n - 3) + (1, 1, 1))
    if tag == "nearmax-4":
        # all-but-one rule among n-1 voters plus a null player; quota n-2
        # (the star case: a winning coalition misses at most one voter)
        n = p["n"]
        _require(n >= 3, "nearmax-4 needs n >= 3")
        return WeightedRep(n - 2, (1,) * (n - 1) + (0,))
    if tag == "nearmax-5":
        n, k = p["n"], p["k"]
        _require(n >= 4, "nearmax-5 needs n >= 4")
        _require(2 <= k <= n - 2, "nearmax-5 needs 2 <= k <= n - 2")
        return WeightedRep(
            5 * n - 2 * k - 9, (5,) * (n - k - 1) + (3,) * k + (1,)
        )
    if tag == "nearmax-5-null":
        n, k = p["n"], p["k"]
        _require(n >= 5, "nearmax-5-null needs n >= 5")
        _require(2 <= k <= n - 3, "nearmax-5-null needs 2 <= k <= n - 3")
        base = construct_family(FamilySpec("nearmax-5", {"n": n - 1, "k": k}))
        return WeightedRep(base.quota, base.weights + (Fraction(0),))
    if tag == "circle":
        return _circle_game(p["n"], p["t"])
    if tag == "marked-subset":
        return _marked_subset_game(p["n"], p["t"], p["k"])
    if tag == "unit-padding":
        return _unit_padding(p["weights"], p["qbar"], p["r"])
    if tag == "replica":
        return _replica(p["weights"], p["qbar"], p["r"])
    raise InvalidGameError(f"unknown family tag {tag!r}")


def _circle_game(n: int, t: int) -> SimpleGame:
    _require(t >= 6, "circle needs t >= 6")
    _require(n >= t, "circle needs n >= t")
    sizes = (n - t + 1,) + (1,) * (t - 1)
    vectors = []
    first = list(sizes)
    first[0] -= 1
    vectors.append(tuple(first))
    # classes 2..t on a cycle; one player may be missing from each of two
    # neighboring cycle classes
    pairs = [(j, j + 1) for j in range(1, t - 1)] + [(1, t - 1)]
    for a, b in pairs:
        v = list(sizes)
        v[a] -= 1
        v[b] -= 1
        vectors.append(tuple(v))
    masks = masks_with_vectors(player_blocks(sizes), vectors)
    return simple_game(n, masks, validate=False)


def _marked_subset_game(n: int, t: int, k: int) -> SimpleGame:
    _require(k >= 3, "marked-subset needs k >= 3")
    _require(2 * k + 1 <= t, "marked-subset needs t >= 2k + 1")
    _require(t <= k + 2 ** k, "marked-subset needs t <= k + 2^k")
    _require(n >= t, "marked-subset needs n >= t")
    marked = list(range(k))
    outside = list(range(k, n))
    subsets = [frozenset([i]) for i in marked] + [frozenset()]
    for size in range(2, k + 1):
        for combo in itertools.combinations(marked, size):
            subsets.append(frozenset(combo))
    subsets = subsets[: t - k]
    anchors = outside[: len(subsets)]
    grand = (1 << n) - 1
    winning = []
    for x in range(n):
        winning.append(grand & ~(1 << x))
    off = 0
    for v in marked:
        off |= 1 << v
    winning.append(grand & ~off)
    for v_i, u_set in zip(anchors, subsets):
        for u in u_set:
            winning.append(grand & ~((1 << v_i) | (1 << u)))
    # keep the inclusion-minimal generators only
    winning = sorted(set(winning), key=lambda m: m.bit_count())
    minimal = []
    for m in winning:
        if not any(w & m == w for w in minimal):
            minimal.append(m)
    return simple_game(n, minimal, validate=False)


def _padding_ceiling(tag: str, qbar: Fraction, denom: int) -> int:
    # ceil(1 / (1 - c / denom)) for the quota c = ceil(qbar * denom); at
    # c = denom every player is a vetoer and the ceiling is undefined
    c = ceil(qbar * denom)
    _require(
        c < denom,
        f"{tag} needs qbar <= {denom - 1}/{denom}, a quota below the "
        f"total weight {denom}",
    )
    return -(-denom // (denom - c))


@dataclass(frozen=True)
class PaddedGame:
    rep: WeightedRep
    ceiling: int
    threshold_met: bool


def _unit_padding(weights, qbar, r: int) -> PaddedGame:
    qbar = Fraction(qbar)
    ws = [int(w) for w in weights]
    _require(all(w >= 1 for w in ws), "unit-padding needs positive weights")
    _require(0 < qbar < 1, "unit-padding needs 0 < qbar < 1")
    _require(r >= 1, "unit-padding needs r >= 1")
    omega = sum(ws)
    rep = WeightedRep(qbar * (omega + r), tuple(ws) + (1,) * r)
    met = r >= omega and r * (1 - qbar) >= 2 + max(ws)
    ceiling = _padding_ceiling("unit-padding", qbar, omega + r)
    return PaddedGame(rep, ceiling, met)


def _replica(weights, qbar, r: int) -> PaddedGame:
    qbar = Fraction(qbar)
    ws = [int(w) for w in weights]
    _require(all(w >= 1 for w in ws), "replica needs positive weights")
    _require(0 < qbar < 1, "replica needs 0 < qbar < 1")
    _require(r >= 1, "replica needs r >= 1")
    omega = sum(ws)
    rep = WeightedRep(qbar * omega * r, tuple(w for w in ws for _ in range(r)))
    return PaddedGame(rep, _padding_ceiling("replica", qbar, omega * r), False)


# ---------------------------------------------------------------------------
# maximum Nakamura number over (players, classes)


@dataclass(frozen=True)
class MaxNakResult:
    value: Optional[int]
    exact: bool
    witness: object = None
    family: Optional[str] = None


def simple_antichains(
    n: int, skip: Optional[Callable[[tuple[int, ...]], bool]] = None
) -> Iterator[tuple[int, ...]]:
    """Every antichain of nonempty coalitions of n labeled players, as
    ascending mask tuples, in the depth-first order of ``games.antichains``
    over the masks 1..2^n - 1: the minimal winning coalitions of every
    simple game on n players, each game once.  An antichain with
    ``skip(masks)`` true is neither yielded nor extended."""
    # point m is mask m; a larger mask is never a subset of a smaller one
    later = [
        sum(1 << j for j in range(m + 1, 1 << n) if m & j != m)
        for m in range(1 << n)
    ]
    yield from antichains(later, partial(_skip_nonempty, skip))


def _skip_nonempty(skip, masks) -> bool:
    # the empty coalition, point 0, is a subset of every mask: the antichain
    # (0,) comes first and has no extension
    return not masks[0] or (skip is not None and skip(masks))


def all_simple_games(n: int) -> Iterator[SimpleGame]:
    """Every simple game on n labeled players (antichain enumeration)."""
    for masks in simple_antichains(n):
        yield SimpleGame(n, masks)


def max_nakamura(
    n: int, t: int, klass: str, *, mode: str = "auto"
) -> MaxNakResult:
    """Maximum Nakamura number of a vetoer-free game with n players and t
    classes in the simple (S) / complete (C) / weighted (T) family.

    Exhaustive mode is guaranteed for n <= 6 (S) and n <= 7 (C, T);
    construction mode returns the best catalog lower bound instead.

    The exhaustive search keeps the first game, in enumeration order, whose
    value is strictly greater than the best found so far (the incumbent).
    Games come from the depth-first antichain search of ``games.antichains``
    (the minimal winning coalitions of a simple game, the shift-minimal rows
    of a complete one), and every extension of an antichain there adds
    members, so its winning set contains the node's.  The Nakamura number
    never rises when winning coalitions are added, so an upper bound on a
    node's value bounds every vetoer-free game in its subtree, and a node
    whose bound is at most the incumbent is skipped with its subtree.  The
    bounds, each from k winning coalitions with an empty intersection:

    * simple games: |S| + 1 for the smallest member S.  A vetoer-free
      extension has, for each i in S, a winning coalition avoiding i; with
      S these are |S| + 1.  When the members' AND is empty, also the size
      of a greedy cover of the players by the members' complements.  Both
      hold for every extension even when the node itself has a vetoer.
    * complete games: the smallest single-row closed form
      ``census.r1_value`` over the node's rows, then the greedy of the
      prefix program over all of them (columns ``O - P``, demand ``O``, as
      in ``exact.nakamura_complete``), whose witness argument needs no
      class to be separated.  A node whose rows all keep class 1 full has a
      vetoer and no bound.  The class count and the split of neighbouring
      classes are tested on the yielded games only, and a complete game's
      weightedness (class T) only once its value beats the incumbent.

    The search stops at the first incumbent of value ``n`` if t = 1, and
    ``n - 1`` otherwise, which no later game can beat.  A vetoer-free game
    has value at most n (the n coalitions that each avoid one player).  By
    the first bound, value n forces every minimal winning coalition to have
    n - 1 players (an n-player one would make everyone a vetoer), and with
    no vetoer every (n - 1)-set then wins: the symmetric game, with t = 1.
    That game exists for n >= 2 and is weighted, so when t = 1 the answer
    is value n and nodes are skipped against the floor n - 1 from the
    start, not against an incumbent.

    A skipped subtree holds no game that strictly beats the incumbent (or
    reaches n when t = 1), and no game after the stop could either, so the
    value, the ``exact`` flag and the witness are those of the unpruned
    search.
    """
    if klass not in (CLASS_SIMPLE, CLASS_COMPLETE, CLASS_WEIGHTED):
        raise ValueError(f"unknown game class {klass!r}")
    if n < 1:
        raise ValueError("n must be positive")
    if not 1 <= t <= n:
        raise InvalidGameError(f"class count {t} outside 1..{n}")
    if mode == "auto":
        mode = "exhaustive" if n <= EXHAUSTIVE_CAP[klass] else "construction"
    if mode == "construction":
        return _construction_bound(n, t)
    if mode != "exhaustive":
        raise ValueError(f"unknown mode {mode!r}")
    if n > EXHAUSTIVE_CAP[klass]:
        raise CapacityError(
            f"exhaustive search capped at n <= {EXHAUSTIVE_CAP[klass]} "
            f"for class {klass}"
        )

    top = n if t == 1 else n - 1
    # skip a subtree whose bound is at most bar: the floor n - 1 when t = 1,
    # the incumbent otherwise
    bar: Optional[int] = n - 1 if t == 1 else None
    best: Optional[int] = None
    arg = None
    if klass == CLASS_SIMPLE:
        grand = (1 << n) - 1

        def skip(masks):
            return bar is not None and _simple_bound_at_most(grand, masks, bar)

        for masks in simple_antichains(n, skip):
            if reduce(and_, masks, grand):
                continue  # a vetoer
            game = SimpleGame(n, masks)
            classes, _ = desirability_classes(game)
            if len(classes) != t:
                continue
            value = nakamura_exact(game).value
            if best is None or value > best:
                best, arg = value, game
                if best == top:
                    break
                if t > 1:
                    bar = best
    else:

        def skip(sizes, rows):
            return bar is not None and _complete_bound_at_most(
                sizes, rows, bar
            )

        for g in enumerate_complete(n, parts=t, skip=skip):
            if g.has_vetoers():
                continue
            value = nakamura_complete(g, want_witness=False).value
            if best is not None and value <= best:
                continue
            if klass == CLASS_WEIGHTED and not is_weighted_complete(g):
                continue
            best, arg = value, g
            if best == top:
                break
            if t > 1:
                bar = best
    return MaxNakResult(best, True, arg)


def _simple_bound_at_most(grand: int, masks, bar: int) -> bool:
    """Whether an upper bound on the value of every vetoer-free simple game
    whose minimal winning coalitions include ``masks`` is at most ``bar``."""
    if min(map(int.bit_count, masks)) + 1 <= bar:
        return True
    if reduce(and_, masks, grand):
        return False
    return len(greedy_cover(grand, [grand & ~m for m in masks])) <= bar


def _complete_bound_at_most(sizes, rows, bar: int) -> bool:
    """Whether an upper bound on the value of every vetoer-free complete
    game with class sizes ``sizes`` whose shift-minimal rows include
    ``rows`` is at most ``bar``; False when every row keeps class 1 full."""
    free = [row for row in rows if row[0] < sizes[0]]
    if not free:
        return False
    if min(r1_value(sizes, row) for row in free) <= bar:
        return True
    o = prefix_sums(sizes)
    columns = [tuple(map(sub, o, prefix_sums(row))) for row in rows]
    return sum(_greedy_columns(columns, o)) <= bar


def _construction_bound(n: int, t: int) -> MaxNakResult:
    candidates: list[tuple[int, str, object]] = []
    if t == 1:
        g = construct_family(FamilySpec("max-symmetric", {"n": n}))
        candidates.append((n, "max-symmetric", g))
    if t == 2 and n >= 3:
        g = construct_family(FamilySpec("nearmax-1", {"n": n}))
        candidates.append((n - 1, "nearmax-1", g))
    if t == 3 and n >= 4:
        g = construct_family(FamilySpec("nearmax-5", {"n": n, "k": 2}))
        candidates.append((n - 1, "nearmax-5", g))
    if t == 4 and n >= 5:
        g = construct_family(FamilySpec("nearmax-5-null", {"n": n, "k": 2}))
        candidates.append((n - 2, "nearmax-5-null", g))
    if t >= 6 and n >= t:
        g = construct_family(FamilySpec("circle", {"n": n, "t": t}))
        candidates.append((n - (t - 1) // 2, "circle", g))
    for k in range(3, t):
        if 2 * k + 1 <= t <= k + 2 ** k and n >= t:
            g = construct_family(
                FamilySpec("marked-subset", {"n": n, "t": t, "k": k})
            )
            candidates.append((n - k, "marked-subset", g))
            break
    if not candidates:
        return MaxNakResult(None, False)
    value, family, witness = max(candidates, key=lambda c: c[0])
    return MaxNakResult(value, False, witness, family)


def conjecture_band_probe(n_values, t: int) -> list[dict]:
    """For each n, the exhaustive weighted maximum against the conjectured
    band [n - t + 1, n - t + 2].  Reports, never asserts; ``inside`` is
    None when no game without vetoers has t classes, as the maximum is."""
    out = []
    for n in n_values:
        res = max_nakamura(n, t, CLASS_WEIGHTED, mode="exhaustive")
        lo, hi = n - t + 1, n - t + 2
        out.append(
            {
                "n": n,
                "t": t,
                "max_nakamura": res.value,
                "band": (lo, hi),
                "inside": None if res.value is None else lo <= res.value <= hi,
            }
        )
    return out
