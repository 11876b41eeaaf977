"""Voting game representations and structural classification.

Three representations are supported:

* ``WeightedRep`` -- a quota/weight vector ``[q; w_1, ..., w_n]`` with exact
  rational entries.  A coalition wins iff its weight sum reaches the quota.
* ``SimpleGame`` -- the antichain of minimal winning coalitions of a monotone
  game.  Coalitions are bit masks over at most 64 players; bit ``i - 1``
  stands for player ``i`` (players are 1-based in all I/O).
* ``CompleteGame`` -- class sizes ``(n_1, ..., n_t)`` plus the matrix of
  shift-minimal winning count vectors, for games whose desirability relation
  is total.

No floating point is ever used in a winning/losing decision; all weight
arithmetic is done in ``fractions.Fraction`` or plain integers, and the
2^n-coalition table of a game known only by its antichain is one integer.
That table is built once per game, on its one-block-per-player view
(``ClassView.table``), and both the desirability relation and the maximal
losing coalitions are read off it.  Winning tests and the structure flags
keep scanning the antichain: checking a few coalitions should not pay for
a table of 2^n bits.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property, reduce
from math import comb, gcd, lcm, prod
from operator import and_, eq, ge, mul, sub
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

MAX_PLAYERS = 64

# Largest n for which a game given only by its antichain (one block per
# player) gets a dense 2^n winning table: its dual antichain needs one, and
# its desirability relation is read off it.
DENSE_TABLE_CAP = 24

# Guard for expanding a complete game's vector lattice.
LATTICE_CAP = 1 << 22


class GameError(Exception):
    """Base class for all game-construction and analysis errors."""


class CapacityError(GameError):
    """Raised when an input exceeds a documented size limit."""


class InvalidGameError(GameError):
    """Raised when input data violates a representation invariant."""


class InvariantError(GameError):
    """Internal consistency failure (bug trap)."""


class CompleteParameterError(InvalidGameError):
    """Class-size/matrix data violating the complete-game conditions.

    ``violations`` is a list of ``(condition, message)`` pairs where
    ``condition`` is one of ``"i"``, ``"ii"``, ``"iii"``, ``"iv"`` and the
    message names the offending row/column indices.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(f"({c}) {m}" for c, m in self.violations))


# ---------------------------------------------------------------------------
# coalition masks


def mask_from_players(players: Sequence[int], n: int) -> int:
    """Bit mask for a coalition given as 1-based player indices."""
    mask = 0
    for p in players:
        if not 1 <= p <= n:
            raise InvalidGameError(f"player {p} out of range 1..{n}")
        mask |= 1 << (p - 1)
    return mask


def players_from_mask(mask: int) -> tuple[int, ...]:
    """Sorted 1-based player indices of a coalition mask."""
    out = []
    i = 1
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


def sort_coalitions(masks) -> tuple[int, ...]:
    """Canonical order: lexicographic by sorted player tuple."""
    return tuple(sorted(masks, key=players_from_mask))


def antichains(
    later: Sequence[int],
    skip: Optional[Callable[[tuple[int, ...]], bool]] = None,
) -> Iterator[tuple[int, ...]]:
    """Every nonempty antichain of points ``0..len(later) - 1``, as
    ascending index tuples, depth-first: each antichain comes right before
    its extensions by later points, and those in ascending order.

    ``later[k]`` is the bitset of the points after k that are incomparable
    to point k, so the points that may extend an antichain are the AND of
    its members' ``later`` sets and no pair is ever compared.  An antichain
    with ``skip(path)`` true is neither yielded nor extended; every other
    one comes in the same order as with ``skip=None``.
    """
    return _antichains_from((), (1 << len(later)) - 1, later, skip)


def _antichains_from(
    chosen: tuple[int, ...], allowed: int, later: Sequence[int], skip
) -> Iterator[tuple[int, ...]]:
    # module level, not a closure, so a running search holds no cycle
    while allowed:
        low = allowed & -allowed
        allowed ^= low
        k = low.bit_length() - 1
        path = chosen + (k,)
        if skip is not None and skip(path):
            continue
        yield path
        yield from _antichains_from(path, allowed & later[k], later, skip)


# ---------------------------------------------------------------------------
# weighted representations


@dataclass(frozen=True)
class WeightedRep:
    """Weighted representation ``[q; w_1, ..., w_n]`` with rational entries.

    Both integral and rational representations are accepted;
    ``integral_input`` records which form was given.  ``integral()`` derives
    the smallest integral multiple, which is the form used by bounds that
    need integer weights.
    """

    quota: Fraction
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "quota", Fraction(self.quota))
        object.__setattr__(
            self, "weights", tuple(Fraction(w) for w in self.weights)
        )
        if len(self.weights) > MAX_PLAYERS:
            raise CapacityError(
                f"{len(self.weights)} players exceed the capacity of {MAX_PLAYERS}"
            )
        if not self.weights:
            raise InvalidGameError("a weighted game needs at least one player")
        if self.quota <= 0:
            raise InvalidGameError("quota must be positive")
        if any(w < 0 for w in self.weights):
            raise InvalidGameError("weights must be non-negative")
        if sum(self.weights) < self.quota:
            raise InvalidGameError(
                "grand coalition is losing (weight sum below quota)"
            )
        object.__setattr__(self, "_integral", self._compute_integral())

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> Fraction:
        return sum(self.weights, Fraction(0))

    @property
    def integral_input(self) -> bool:
        return self.quota.denominator == 1 and all(
            w.denominator == 1 for w in self.weights
        )

    def _compute_integral(self) -> tuple[int, tuple[int, ...]]:
        denoms = [self.quota.denominator] + [w.denominator for w in self.weights]
        scale = lcm(*denoms)
        nums = [int(self.quota * scale)] + [int(w * scale) for w in self.weights]
        g = 0
        for v in nums:
            g = gcd(g, v)
        g = g or 1
        return nums[0] // g, tuple(v // g for v in nums[1:])

    def integral(self) -> tuple[int, tuple[int, ...]]:
        """Smallest integral multiple ``(qhat, what)`` of this representation."""
        return self._integral

    @cached_property
    def view(self) -> "ClassView":
        """The game's ``ClassView``, built on first use."""
        return class_view(self)


def weight_groups(rep: WeightedRep) -> list[list[int]]:
    """Players grouped by equal weight, heaviest group first (0-based).

    Players of equal weight are interchangeable, so these groups refine the
    desirability classes; that is all the class-level reductions below need.
    """
    by_weight: dict[Fraction, list[int]] = {}
    for i, w in enumerate(rep.weights):
        by_weight.setdefault(w, []).append(i)
    return [by_weight[w] for w in sorted(by_weight, reverse=True)]


def _minimal_counts(
    values: Sequence[int], sizes: Sequence[int], quota: int
) -> list[tuple[int, ...]]:
    """Componentwise-minimal count vectors ``c <= sizes`` whose value
    ``sum(c[j] * values[j])`` reaches ``quota``.

    ``values`` must be non-increasing.  The search adds counts group by
    group and stops a group at its first count that reaches the quota.
    That vector is minimal: dropping a player of this group gives the
    previous count, which fell short, and a player of an earlier group
    weighs at least as much.  Branches whose remaining value cannot reach
    the quota are cut.  At ``quota <= 0`` the zero vector is the one
    minimal vector.
    """
    t = len(values)
    if quota <= 0:
        return [(0,) * t]
    suffix = [0] * (t + 1)
    for g in range(t - 1, -1, -1):
        suffix[g] = suffix[g + 1] + sizes[g] * values[g]
    out: list[tuple[int, ...]] = []

    def rec(g: int, counts: list[int], total: int) -> None:
        if total >= quota:
            out.append(tuple(counts) + (0,) * (t - g))
            return
        if g == t or total + suffix[g] < quota:
            return
        if values[g] == 0:
            # zero-value groups never occur in a minimal vector
            counts.append(0)
            rec(g + 1, counts, total)
            counts.pop()
            return
        for c in range(sizes[g] + 1):
            t2 = total + c * values[g]
            counts.append(c)
            rec(g + 1, counts, t2)
            counts.pop()
            if t2 >= quota:
                break

    try:
        rec(0, [], 0)
    finally:
        del rec  # its closure cell refers to it: free the search at once
    return out


# ---------------------------------------------------------------------------
# simple games


class SimpleGame:
    """A simple game and its antichain of minimal winning coalitions.

    ``SimpleGame(n, min_winning)`` keeps the antichain in canonical order
    (lexicographic by player tuple) and views it with one block per player.
    ``game_from_weighted`` and ``expand_complete`` build a game on the view
    of its source and expand ``min_winning`` from it on first read.
    """

    def __init__(self, n: int, min_winning: Sequence[int]):
        if not 1 <= n <= MAX_PLAYERS:
            raise CapacityError(f"player count {n} outside 1..{MAX_PLAYERS}")
        if not min_winning:
            raise InvalidGameError("at least one minimal winning coalition required")
        full = (1 << n) - 1
        for m in min_winning:
            if m == 0:
                raise InvalidGameError("the empty coalition cannot be winning")
            if m & ~full:
                raise InvalidGameError("coalition uses players beyond n")
        self.n, self.min_winning = n, sort_coalitions(min_winning)

    @property
    def grand(self) -> int:
        return (1 << self.n) - 1

    @classmethod
    def _on_view(cls, n: int, view: "ClassView") -> "SimpleGame":
        game = cls.__new__(cls)
        game.n, game.view = n, view
        return game

    @cached_property
    def min_winning(self) -> tuple[int, ...]:
        view = self.view
        return sort_coalitions(masks_with_vectors(view.blocks, view.winning))

    @cached_property
    def view(self) -> "ClassView":
        """The game's ``ClassView``, built on first use."""
        return class_view(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.n, self.min_winning) == (other.n, other.min_winning)

    def __hash__(self):
        return hash((self.n, self.min_winning))

    def __repr__(self):
        return f"SimpleGame(n={self.n!r}, min_winning={self.min_winning!r})"

    def is_winning(self, mask: int) -> bool:
        return self.view.wins(self.view.vector(mask))

    def vetoer_mask(self) -> int:
        view = self.view
        if view.table is not None:  # one block per player: faster on bare masks
            return reduce(and_, self.min_winning, self.grand)
        if view.quota is not None:
            # a block's players veto iff the grand coalition loses one of them
            total = sum(map(mul, view.block_weights, view.sizes))
            full = (total - w < view.quota for w in view.block_weights)
        else:
            full = map(eq, map(min, zip(*view.winning)), view.sizes)
        return sum(itertools.compress(view.block_masks, full))

    def null_mask(self) -> int:
        empty = (not any(column) for column in zip(*self.view.winning))
        return sum(itertools.compress(self.view.block_masks, empty))


def simple_game(n: int, coalitions, *, validate: bool = True) -> SimpleGame:
    """Build a ``SimpleGame`` from coalitions given as masks or player lists.

    With ``validate`` the antichain property is checked exhaustively.
    """
    masks = []
    for c in coalitions:
        masks.append(c if isinstance(c, int) else mask_from_players(c, n))
    g = SimpleGame(n, tuple(masks))
    if validate:
        ms = g.min_winning
        if len(set(ms)) != len(ms):
            raise InvalidGameError("duplicate minimal winning coalition")
        by_size = sorted(ms, key=lambda m: m.bit_count())
        for i, a in enumerate(by_size):
            for b in by_size[i + 1 :]:
                if a & b == a:
                    raise InvalidGameError(
                        f"coalition {players_from_mask(a)} is contained in "
                        f"{players_from_mask(b)}: not an antichain"
                    )
    return g


def game_from_weighted(rep: WeightedRep) -> SimpleGame:
    """The simple game of ``[q; w]``, built on ``rep.view``.

    Its minimal winning coalitions, expanded on first read, are those whose
    count vector over the equal-weight groups is a minimal winning vector.
    """
    return SimpleGame._on_view(rep.n, rep.view)


# ---------------------------------------------------------------------------
# player classification


@dataclass(frozen=True)
class PlayerClassification:
    """Vetoers, nulls, passers (as masks) and the dictator, if any."""

    vetoers: int
    nulls: int
    passers: int
    dictator: Optional[int]


def classify_players(game: SimpleGame) -> PlayerClassification:
    """Classify players from the minimal winning vectors of ``game.view``.

    A vetoer sits in every minimal winning coalition, a null in none; a
    passer's singleton (a unit vector) is itself minimal winning, and a
    dictator's singleton is the only minimal winning coalition.
    """
    view = game.view
    passers = sum(view.block_masks[v.index(1)] for v in view.winning if sum(v) == 1)
    alone = len(view.winning) == 1 and passers.bit_count() == 1
    dictator = passers.bit_length() if alone else None
    return PlayerClassification(game.vetoer_mask(), game.null_mask(), passers, dictator)


# ---------------------------------------------------------------------------
# desirability


def _block_geq(view: "ClassView", a: int, b: int) -> bool:
    # a member of block a is at least as desirable as one of block b: trading
    # a b-member for an a-member in any minimal winning vector that has both
    # a b-member to give and room in a must stay winning.  This exchange test
    # over the minimal vectors is equivalent to the definition over all
    # coalitions because winning sets are up-closed and block members are
    # interchangeable.
    room, wins = view.sizes[a], view.wins
    for v in view.winning:
        if v[b] and v[a] < room:
            c = list(v)
            c[a] += 1
            c[b] -= 1
            if not wins(c):
                return False
    return True


def desirability_classes(game: SimpleGame) -> tuple[tuple[tuple[int, ...], ...], bool]:
    """Equivalence classes of the desirability relation, strongest first.

    Returns ``(classes, is_complete)`` where each class is a tuple of
    1-based players in input order and ``is_complete`` says whether the
    relation is total.  For a complete game the class order (strictly
    decreasing desirability) is unique; otherwise classes are ordered by how
    many other classes they dominate, ties by smallest member.  The classes
    are unions of the blocks of ``game.view``.

    A view with one block per player, on at most ``DENSE_TABLE_CAP``
    players, reads the relation off its winning table (``_table_rows``);
    every other view runs the exchange test ``_block_geq`` over its minimal
    winning vectors.
    """
    view = game.view
    k = len(view.blocks)
    if view.table is not None and k <= DENSE_TABLE_CAP:
        rows = _table_rows(k, view.table())
    else:
        rows = [
            sum(1 << b for b in range(k) if a == b or _block_geq(view, a, b))
            for a in range(k)
        ]
    # the relation is a preorder, so equivalent blocks have equal rows
    members: dict[int, list[int]] = {}
    first: dict[int, int] = {}
    for a, (row, block) in enumerate(zip(rows, view.blocks)):
        members.setdefault(row, []).extend(block)
        first.setdefault(row, a)

    def dominated(row: int) -> int:
        a = first[row]
        return sum(
            1 for other, b in first.items()
            if other != row and row >> b & 1 and not other >> a & 1
        )

    count = {row: dominated(row) for row in members}
    ordered = sorted(members, key=lambda row: (-count[row], min(members[row])))
    classes = tuple(tuple(p + 1 for p in sorted(members[row])) for row in ordered)
    # of two distinct classes at most one dominates the other, and exactly
    # one does when they are comparable
    c = len(classes)
    return classes, sum(count.values()) == c * (c - 1) // 2


def _table_rows(n: int, win: int) -> list[int]:
    """Desirability rows of the up-closed 2^n-bit winning table ``win``:
    bit ``j`` of row ``i`` is set iff player ``i`` is at least as desirable
    as player ``j``.

    ``joins[i]`` holds the coalitions ``S`` without ``i`` such that ``S + i``
    wins.  ``i`` is at least as desirable as ``j`` iff no ``S`` without
    either wins with ``j`` and loses with ``i``, i.e. iff ``joins[j]`` meets
    none of the coalitions without ``i`` outside ``joins[i]``.
    """
    joins = [win >> shift & without for shift, without in _player_free_masks(n)]
    joins.reverse()  # _player_free_masks runs from player n-1 down to 0
    rows = [0] * n
    for i, (_, without) in zip(reversed(range(n)), _player_free_masks(n)):
        stays_losing = without ^ joins[i]
        rows[i] = sum(
            1 << j for j, joins_j in enumerate(joins) if not joins_j & stays_losing
        )
    return rows


# ---------------------------------------------------------------------------
# dual antichain and flags


def maximal_losing(game: SimpleGame) -> tuple[int, ...]:
    """The antichain of inclusion-maximal losing coalitions.

    The coalitions realizing the maximal losing vectors of ``game.view``;
    a view with one block per player takes them straight from its winning
    table, which caps that case at ``DENSE_TABLE_CAP`` players.
    """
    view = game.view
    if view.table is not None:
        return sort_coalitions(_maximal_losing_masks(game.n, view.table()))
    return sort_coalitions(masks_with_vectors(view.blocks, view.losing))


def _winning_table(n: int, min_winning) -> int:
    """The table of all 2^n coalitions as one 2^n-bit integer whose bit
    ``m`` is set iff coalition ``m`` contains a minimal winning one."""
    if n > DENSE_TABLE_CAP:
        raise CapacityError(f"dense table needs n <= {DENSE_TABLE_CAP}, got {n}")
    table = bytearray((1 << n >> 3) or 1)
    for m in min_winning:
        table[m >> 3] |= 1 << (m & 7)
    win = int.from_bytes(table, "little")
    for shift, without in _player_free_masks(n):  # up-close
        win |= (win & without) << shift
    return win


def _maximal_losing_masks(n: int, win: int) -> list[int]:
    """Maximal losing masks, ascending, of the winning table ``win``."""
    # losing, and winning as soon as any absent player joins
    ok = (1 << (1 << n)) - 1 & ~win
    for shift, without in _player_free_masks(n):
        ok &= ~without | win >> shift
    data = ok.to_bytes((1 << n >> 3) or 1, "little")
    out = []
    for k in itertools.compress(range(len(data)), data):
        out.extend(8 * k + b for b in range(8) if data[k] >> b & 1)
    return out


def _player_free_masks(n: int):
    """``(2^i, M_i)`` for i = n-1, ..., 0: bit ``m`` of ``M_i`` is set iff
    coalition ``m`` lacks player ``i``; each halves the period of the last."""
    shift = 1 << n >> 1
    without = (1 << shift) - 1
    while shift:
        yield shift, without
        shift >>= 1
        without ^= without << shift


class StructureFlags(NamedTuple):
    proper: bool
    strong: bool
    constant_sum: bool


def structure_flags(game: SimpleGame) -> StructureFlags:
    """Proper/strong/constant-sum flags, decided on the view's vectors.

    A game is proper iff the complement of every minimal winning coalition
    loses (complements shrink as coalitions grow), and strong iff the
    complement of every maximal losing coalition wins (complements grow as
    coalitions shrink).  Both checks run once per count vector.
    """
    view = game.view

    def complement_wins(v) -> bool:
        return view.wins(_complement(view.sizes, v))

    proper = not any(complement_wins(v) for v in view.winning)
    strong = all(complement_wins(u) for u in view.losing)
    return StructureFlags(proper, strong, proper and strong)


# ---------------------------------------------------------------------------
# complete games


def prefix_sums(v: Sequence[int]) -> tuple[int, ...]:
    return tuple(itertools.accumulate(v))


def shift_leq(u: Sequence[int], v: Sequence[int]) -> bool:
    """Prefix-sum dominance: u precedes v when every prefix of u is no larger."""
    su = sv = 0
    for a, b in zip(u, v):
        su += a
        sv += b
        if su > sv:
            return False
    return True


def shift_incomparable(u: Sequence[int], v: Sequence[int]) -> bool:
    return not shift_leq(u, v) and not shift_leq(v, u)


@dataclass(frozen=True)
class CompleteGame:
    """Class sizes and shift-minimal winning vectors of a complete game.

    The rows of ``shift_min`` are pairwise incomparable under prefix-sum
    dominance, listed in decreasing lexicographic order; equal parameters
    mean isomorphic games, so this form is canonical.
    """

    class_sizes: tuple[int, ...]
    shift_min: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "class_sizes", tuple(int(x) for x in self.class_sizes))
        object.__setattr__(
            self, "shift_min", tuple(tuple(int(x) for x in row) for row in self.shift_min)
        )
        violations = validate_complete_parameters(self.class_sizes, self.shift_min)
        if violations:
            raise CompleteParameterError(violations)

    @property
    def n(self) -> int:
        return sum(self.class_sizes)

    @property
    def t(self) -> int:
        return len(self.class_sizes)

    @property
    def r(self) -> int:
        return len(self.shift_min)

    @cached_property
    def view(self) -> "ClassView":
        """The game's ``ClassView``, built on first use."""
        return class_view(self)

    @classmethod
    def _trusted(cls, class_sizes, shift_min) -> "CompleteGame":
        """Int tuples already known to meet (i)-(iv): no check runs."""
        game = cls.__new__(cls)
        game.__dict__.update(class_sizes=class_sizes, shift_min=shift_min)
        return game

    def wins(self, c: Sequence[int]) -> bool:
        """Whether count vector ``c`` wins: some shift-minimal row precedes
        it in prefix dominance."""
        return any(shift_leq(row, c) for row in self.shift_min)

    def has_vetoers(self) -> bool:
        # the strongest class is all-veto exactly when no row drops a player
        # from it
        return all(row[0] == self.class_sizes[0] for row in self.shift_min)


def validate_complete_parameters(class_sizes, rows) -> list[tuple[str, str]]:
    """Check conditions (i)-(iv) on ``(class_sizes, rows)``; [] when valid."""
    violations: list[tuple[str, str]] = []
    t = len(class_sizes)
    if t == 0 or any(n <= 0 for n in class_sizes):
        violations.append(("i", "class sizes must be positive"))
        return violations
    if not rows:
        violations.append(("i", "at least one row required"))
        return violations
    for i, row in enumerate(rows):
        if len(row) != t:
            violations.append(("i", f"row {i} has length {len(row)} != {t}"))
            return violations
        for j, x in enumerate(row):
            if not 0 <= x <= class_sizes[j]:
                violations.append(
                    ("i", f"entry ({i},{j}) = {x} outside 0..{class_sizes[j]}")
                )
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            if not shift_incomparable(rows[i], rows[j]):
                violations.append(("ii", f"rows {i} and {j} are comparable"))
    if t == 1:
        if rows[0][0] <= 0:
            violations.append(("iii", "row 0 must have a positive first entry"))
    else:
        for j in range(t - 1):
            if not any(
                row[j] > 0 and row[j + 1] < class_sizes[j + 1] for row in rows
            ):
                violations.append(
                    ("iii", f"no row separates classes {j} and {j + 1}")
                )
    for i in range(len(rows) - 1):
        if not rows[i] > rows[i + 1]:
            violations.append(
                ("iv", f"rows {i} and {i + 1} not in decreasing lexicographic order")
            )
    return violations


def complete_from_parameters(class_sizes, rows) -> CompleteGame:
    """Validated ``CompleteGame``; raises ``CompleteParameterError`` listing
    every violated condition with row/column indices."""
    return CompleteGame(tuple(class_sizes), tuple(tuple(r) for r in rows))


def vector_is_winning(g: CompleteGame, c: Sequence[int]) -> bool:
    """True iff some shift-minimal row precedes ``c`` in prefix dominance."""
    if len(c) != g.t:
        raise ValueError(f"vector length {len(c)} != {g.t} classes")
    for j, x in enumerate(c):
        if not 0 <= x <= g.class_sizes[j]:
            raise ValueError(f"component {j} = {x} outside 0..{g.class_sizes[j]}")
    return g.wins(c)


def _complement(sizes: Sequence[int], v: Sequence[int]) -> tuple[int, ...]:
    return tuple(map(sub, sizes, v))


def _lattice_minimal(sizes: Sequence[int], wins) -> list[tuple[int, ...]]:
    """Componentwise-minimal count vectors ``c <= sizes`` with ``wins(c)``,
    in lexicographic (lattice) order."""
    size = prod(nj + 1 for nj in sizes)
    if size > LATTICE_CAP:
        raise CapacityError(
            f"coalition-vector lattice of size {size} exceeds {LATTICE_CAP}"
        )
    out = []
    for c in itertools.product(*(range(nj + 1) for nj in sizes)):
        if wins(c) and not any(
            c[j] and wins(c[:j] + (c[j] - 1,) + c[j + 1 :]) for j in range(len(c))
        ):
            out.append(c)
    return out


def minimal_winning_vectors(g: CompleteGame) -> list[tuple[int, ...]]:
    """Componentwise-minimal winning count vectors, in lattice order."""
    return _lattice_minimal(g.class_sizes, g.wins)


def maximal_losing_vectors(g: CompleteGame) -> list[tuple[int, ...]]:
    """Componentwise-maximal losing count vectors, in lattice order.

    They are the complements ``sizes - d`` of the dual game's minimal
    winning vectors ``d`` (``d`` wins the dual when ``sizes - d`` loses);
    complementing reverses the lattice order, so the list is reversed back.
    """
    sizes = g.class_sizes
    dual = _lattice_minimal(sizes, lambda d: not g.wins(_complement(sizes, d)))
    return [_complement(sizes, d) for d in reversed(dual)]


def shift_maximal_losing_vectors(g: CompleteGame) -> list[tuple[int, ...]]:
    """Shift-maximal losing count vectors, in decreasing lexicographic order.

    Works on prefix sums ``C``, where the valid sequences (``0 <= C_k -
    C_{k-1} <= n_k``) form a distributive lattice under componentwise min
    and max, and shift dominance is componentwise order.  A vector loses to
    a row with prefix sums ``P`` iff ``C_i <= P_i - 1`` for some class ``i``;
    for each ``i`` with ``P_i >= 1`` the greatest such sequence puts
    ``P_i - 1`` players into the classes up to ``i``, strongest first, and
    takes every player after class ``i``.  A vector loses the game iff it
    loses to every row, so the rows are folded in one at a time: meet every
    kept sequence with every candidate of the next row and keep the
    maximal meets.
    """
    o = prefix_sums(g.class_sizes)
    kept = None
    for row in g.shift_min:
        p = prefix_sums(row)
        candidates = [
            tuple(s) for s, pi in zip(_greatest_losing(o, p), p) if pi
        ]
        if kept is not None:
            candidates = [
                tuple(map(min, a, b)) for a in kept for b in candidates
            ]
        kept = _maximal_sequences(candidates)
    return sorted(
        (tuple(map(sub, s, (0,) + s[:-1])) for s in kept), reverse=True
    )


def _greatest_losing(o, p) -> list[list[int]]:
    """The greatest losing prefix-sum sequence ``G^(i)`` of each class i of
    the single-row game with prefix sums ``o`` of the class sizes and ``p``
    of the row: ``min(O_k, P_i - 1)`` for ``k < i``, ``P_i - 1 + O_k -
    O_i`` for ``k >= i``."""
    return [
        [min(ok, pi - 1) for ok in o[:i]] + [pi - 1 - oi + ok for ok in o[i:]]
        for i, (oi, pi) in enumerate(zip(o, p))
    ]


def _maximal_sequences(seqs) -> list[tuple[int, ...]]:
    """Componentwise-maximal elements; a dominating sequence sorts first in
    decreasing lexicographic order, so each is tested against those kept."""
    out: list[tuple[int, ...]] = []
    for s in sorted(set(seqs), reverse=True):
        if not any(all(map(ge, u, s)) for u in out):
            out.append(s)
    return out


def player_blocks(sizes: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Consecutive blocks of 0-based players with the given sizes."""
    ends = itertools.accumulate(sizes)
    return tuple(tuple(range(e - nj, e)) for nj, e in zip(sizes, ends))


def masks_with_vectors(blocks, vectors) -> list[int]:
    """Every coalition whose count vector over ``blocks`` (0-based player
    tuples) is one of ``vectors``, vector by vector."""
    bits = [[1 << p for p in block] for block in blocks]
    out = []
    for v in vectors:
        choices = [
            [sum(combo) for combo in itertools.combinations(bs, c)]
            for bs, c in zip(bits, v)
        ]
        out.extend(sum(parts) for parts in itertools.product(*choices))
    return out


def expand_complete(g: CompleteGame) -> SimpleGame:
    """The simple game on ``sum(class_sizes)`` players, built on ``g.view``.

    Players are numbered class by class, strongest class first.  The minimal
    winning coalitions, expanded on first read, are all coalitions whose
    count vector is a minimal winning vector of the view.
    """
    if g.n > MAX_PLAYERS:
        raise CapacityError(f"{g.n} players exceed the capacity of {MAX_PLAYERS}")
    return SimpleGame._on_view(g.n, g.view)


# ---------------------------------------------------------------------------
# class view


class ClassView:
    """A game condensed over blocks of interchangeable players.

    A coalition matters only through its count vector ``c``, where ``c[j]``
    members come from block ``j``:

    * ``sizes`` and ``blocks`` -- the block sizes and 0-based player tuples;
    * ``winning`` -- the componentwise-minimal winning count vectors;
    * ``wins(c)`` -- whether a count vector (any int sequence) wins;
    * ``losing`` -- the componentwise-maximal losing count vectors.

    ``winning`` and ``losing`` are computed on first use.  The fields tell
    the three kinds of view apart:

    * a weights view (blocks: equal-weight groups) keeps the smallest
      integral representation it was built from, ``quota`` and one weight
      per block in ``block_weights``; both are None on other views;
    * a view with one block per player (a game given only by its antichain)
      has ``table()``, its up-closed winning table (``_winning_table``),
      built once on first call and raising ``CapacityError`` above
      ``DENSE_TABLE_CAP`` players; ``table`` is None on other views;
    * a complete game's view (blocks: its classes) has none of them.
    """

    def __init__(
        self, blocks, wins, winning, losing,
        quota: Optional[int] = None, block_weights=None, table=None,
    ):
        self.blocks = tuple(tuple(b) for b in blocks)
        self.sizes = tuple(len(b) for b in self.blocks)
        self.wins = wins
        self._winning = winning
        self._losing = losing
        self.quota = quota
        self.block_weights = block_weights
        self.table = table

    @cached_property
    def winning(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._winning())

    @cached_property
    def losing(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self._losing())

    @cached_property
    def block_masks(self) -> tuple[int, ...]:
        return tuple(sum(1 << p for p in b) for b in self.blocks)

    def vector(self, mask: int) -> tuple[int, ...]:
        """Count vector of a coalition mask."""
        return tuple((mask & b).bit_count() for b in self.block_masks)

    @property
    def quota_ceiling(self) -> Optional[int]:
        """The quota ceiling ``ceil(w(N) / (w(N) - q))`` of a weights view,
        a lower bound on the Nakamura number; None on other views and
        when only the grand coalition wins."""
        if self.quota is None:
            return None
        total = sum(map(mul, self.block_weights, self.sizes))
        return -(-total // (total - self.quota)) if total > self.quota else None

    def coalition_count(self, vectors) -> int:
        """How many coalitions realize the given count vectors."""
        return sum(prod(map(comb, self.sizes, v)) for v in vectors)

    def per_player(self, values) -> tuple:
        """One value per block, given to each of the block's players."""
        out = [None] * sum(self.sizes)
        for value, block in zip(values, self.blocks):
            for p in block:
                out[p] = value
        return tuple(out)


def class_view(game) -> ClassView:
    """The class view of a ``WeightedRep``, a ``CompleteGame`` or a
    ``SimpleGame`` given by its antichain.

    The blocks are the ones each kind of game has without any search:
    equal-weight groups of a weighted representation (heaviest first), the
    classes of a complete game with vectors in lattice order, or one block
    per player with incidence rows in ``min_winning`` order (the maximal
    losing rows come ascending by mask from the view's winning table).  A
    game built by ``game_from_weighted`` or ``expand_complete`` carries its
    source's view instead.  No field names the kind of a view; the fields
    that tell it are listed under ``ClassView``.
    """
    if isinstance(game, CompleteGame):
        return ClassView(
            player_blocks(game.class_sizes),
            game.wins,
            lambda: minimal_winning_vectors(game),
            lambda: maximal_losing_vectors(game),
        )
    if isinstance(game, WeightedRep):
        groups = weight_groups(game)
        qhat, what = game.integral()
        values = [what[g[0]] for g in groups]
        sizes = [len(g) for g in groups]
        # a vector loses iff its complement reaches total - qhat + 1
        dual_quota = sum(map(mul, values, sizes)) - qhat + 1
        return ClassView(
            groups,
            lambda c: sum(x * w for x, w in zip(c, values)) >= qhat,
            lambda: _minimal_counts(values, sizes, qhat),
            lambda: [
                _complement(sizes, d)
                for d in _minimal_counts(values, sizes, dual_quota)
            ],
            quota=qhat,
            block_weights=tuple(values),
        )
    # the closures below hold the antichain, not the game, so that a game
    # and its cached view form no reference cycle
    n, min_winning = game.n, game.min_winning
    bits = [1 << p for p in range(n)]
    minimal = frozenset(min_winning)

    def incidence(masks):
        return [tuple(1 if m & bit else 0 for bit in bits) for m in masks]

    def wins(c) -> bool:
        mask = sum(map(mul, c, bits))
        return mask in minimal or any(w & mask == w for w in min_winning)

    @cache
    def table() -> int:
        return _winning_table(n, min_winning)

    return ClassView(
        [(p,) for p in range(n)],
        wins,
        lambda: incidence(min_winning),
        lambda: incidence(_maximal_losing_masks(n, table())),
        table=table,
    )
