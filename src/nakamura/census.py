"""Census of complete simple games with a single shift-minimal winning row.

For a composition ``(n_1, ..., n_t)`` of n, the admissible single rows are
``m_1 in 1..n_1``, ``m_j in 1..n_j - 1`` for the middle classes,
``m_t in 0..n_t - 1`` (and ``m_1 in 1..n_1`` alone when t = 1).  The
Nakamura number of each such game comes from the prefix-sum closed form,
infinite exactly when ``m_1 = n_1``.  That form reads only the prefix sums
O of the class sizes and P of the row, so the complete census counts them
by a forward DP over the classes, with state (O_j, O_j - P_j, running
value), and builds no game.  Only the weighted census builds games: its
subclass is selected by an LP over ordered class weights whose only rows
are the game's shift-minimal winning rows and its shift-maximal losing
vectors; every weighted verdict comes with integer class weights and a
quota, checked on those vectors (``bounds.is_weighted_vectors``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .bounds import is_weighted_vectors
from .games import (
    CapacityError,
    CompleteGame,
    shift_incomparable,
    shift_maximal_losing_vectors,
)

COMPLETE_R1 = "complete_r1"
WEIGHTED_R1 = "weighted_r1"

# Default census cap for both classes; larger runs must opt in explicitly.
CENSUS_CAP = 16


def compositions(n: int, parts: Optional[int] = None) -> Iterator[tuple[int, ...]]:
    """Compositions of n in (length, lexicographic) order.

    The t - 1 cut points of a t-part composition are its inner prefix sums;
    cut tuples in lexicographic order give the compositions in the same
    order.
    """
    lengths = range(1, n + 1) if parts is None else [parts]
    for t in lengths:
        for cuts in itertools.combinations(range(1, n), t - 1):
            ends = (0, *cuts, n)
            yield tuple(b - a for a, b in zip(ends, ends[1:]))


def _rows_r1(sizes: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    if len(sizes) == 1:
        return ((m,) for m in range(1, sizes[0] + 1))
    middle = (range(1, nj) for nj in sizes[1:-1])
    return itertools.product(range(1, sizes[0] + 1), *middle, range(sizes[-1]))


def _check_census_args(n: int) -> None:
    if n < 1:
        raise ValueError("n must be positive")


def enumerate_r1(n: int) -> Iterator[CompleteGame]:
    """All complete games on n players with one shift-minimal winning row.

    Deterministic order: class count ascending, composition lexicographic,
    row lexicographic.
    """
    _check_census_args(n)
    for sizes in compositions(n):
        for row in _rows_r1(sizes):
            # _rows_r1 meets (i) and (iii); (ii) and (iv) need two rows
            yield CompleteGame._trusted(sizes, (row,))


def count_r1(n: int) -> int:
    """Closed-form count of (composition, row) pairs; independent of the
    streaming enumerator, used to cross-check census totals."""
    total = n  # the single-class games
    for sizes in compositions(n):
        t = len(sizes)
        if t == 1:
            continue
        ways = sizes[0] * sizes[-1]
        for j in range(1, t - 1):
            ways *= sizes[j] - 1
        total += ways
    return total


def r1_value(sizes, row) -> Optional[int]:
    """Nakamura number of a single-row complete game; None when infinite.

    The closed form ``max_i ceil(O_i / (O_i - P_i))`` over the prefix sums
    ``O`` of the class sizes and ``P`` of the row.
    """
    if row[0] == sizes[0]:
        return None
    best = o = p = 0
    for size, x in zip(sizes, row):
        o += size
        p += x
        value = -(-o // (o - p))
        if value > best:
            best = value
    return best


@dataclass(frozen=True)
class CensusRow:
    """Counts of games per Nakamura value (None key = infinite)."""

    n: int
    klass: str
    counts: dict

    def total(self) -> int:
        return sum(self.counts.values())

    def column(self, value: Optional[int]) -> int:
        return self.counts.get(value, 0)


def census(
    n: int, klass: str = COMPLETE_R1, *, cap: int = CENSUS_CAP
) -> CensusRow:
    """Count single-row complete (or weighted) games per Nakamura value.

    The complete census builds no game: ``_complete_r1_counts`` counts the
    prefix sums of class sizes and row.  The weighted census builds each
    game of ``enumerate_r1`` for its LP verdict.  Both stop above ``cap``
    players.
    """
    if klass not in (COMPLETE_R1, WEIGHTED_R1):
        raise ValueError(f"unknown census class {klass!r}")
    if n > cap:
        raise CapacityError(
            f"census for n={n} exceeds the configured cap of {cap}"
        )
    _check_census_args(n)
    if klass == COMPLETE_R1:
        return CensusRow(n, klass, _complete_r1_counts(n))
    counts: dict = {}
    for g in enumerate_r1(n):
        if is_weighted_complete(g):
            v = r1_value(g.class_sizes, g.shift_min[0])
            counts[v] = counts.get(v, 0) + 1
    return CensusRow(n, klass, counts)


def _complete_r1_counts(n: int) -> dict:
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


def is_weighted_complete(g: CompleteGame) -> bool:
    """Whether a complete game is weighted, decided on its shift-minimal rows
    and its shift-maximal losing vectors."""
    return is_weighted_vectors(g.shift_min, shift_maximal_losing_vectors(g))


# ---------------------------------------------------------------------------
# complete games with any number of shift-minimal rows (small n only)


def enumerate_complete(
    n: int, parts: Optional[int] = None
) -> Iterator[CompleteGame]:
    """All complete games on n players, optionally with a fixed class count.

    Enumerates, per composition, every antichain (under prefix-sum
    dominance) of count vectors whose rows also separate neighboring
    classes.  Intended for small n (the state space grows like the number
    of antichains of the vector lattice).
    """
    for sizes in compositions(n, parts):
        t = len(sizes)
        # nonzero count vectors in decreasing lexicographic order
        lattice = [
            v
            for v in itertools.product(*(range(nj, -1, -1) for nj in sizes))
            if any(v)
        ]

        chosen: list[tuple[int, ...]] = []

        def separates() -> bool:
            if t == 1:
                return chosen[0][0] > 0
            for j in range(t - 1):
                if not any(
                    row[j] > 0 and row[j + 1] < sizes[j + 1] for row in chosen
                ):
                    return False
            return True

        def grow(start: int) -> Iterator[CompleteGame]:
            # rows come from the lattice (i) in decreasing lexicographic
            # order (iv), pairwise incomparable (ii); separates() is (iii)
            if chosen and separates():
                yield CompleteGame._trusted(sizes, tuple(chosen))
            for k in range(start, len(lattice)):
                v = lattice[k]
                if all(shift_incomparable(v, row) for row in chosen):
                    chosen.append(v)
                    yield from grow(k + 1)
                    chosen.pop()

        try:
            yield from grow(0)
        finally:
            del grow  # its closure cell refers to it: free the search at once
