"""Census of complete simple games with a single shift-minimal winning row.

For a composition ``(n_1, ..., n_t)`` of n, the admissible single rows are
``m_1 in 1..n_1``, ``m_j in 1..n_j - 1`` for the middle classes,
``m_t in 0..n_t - 1`` (and ``m_1 in 1..n_1`` alone when t = 1).  The
Nakamura number of each such game comes from the prefix-sum closed form,
infinite exactly when ``m_1 = n_1``.  That form reads only the prefix sums
O of the class sizes and P of the row, so the complete census counts them
by one forward DP over the classes, with state (O_j, O_j - P_j, running
value), and builds no game.  Each round closes every state with a last
class and extends it by a middle one, so one pass counts every class
count t.  No state reads n, only the closing last class does, so the same
pass counts every n of a range (``census_rows``).  A single game is
decided without an LP (``is_weighted_r1``): it is weighted iff one small
integer Z-matrix D, built from O, P and the greatest losing prefix
sequences, is a nonsingular M-matrix, iff its leading principal minors
are positive, tested by a Bareiss elimination.  The leading j x j block
of D reads only the first j classes, so the weighted census builds no
game either: it walks prefixes of classes depth first, carries the
determinant and adjugate of each prefix's block, borders them by one
class per step, and drops a prefix whose minor is not positive together
with every game that extends it, since the later columns of D are
non-positive in that block's rows whatever the later classes are.  A
prefix is the same for every n above its sum, so one search serves a
range of n too.  Every verdict is certified in integers: a weighted one
by ordered class weights (as non-negative steps) and a quota, a
not-weighted one, or a pruned prefix, by non-negative multipliers on
losing vectors whose combined prefix sums reach as many copies of the
row's.  Complete games with several shift-minimal rows keep the
ordered-weight LP (``bounds.is_weighted_vectors``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import partial
from operator import ge, gt, mul, neg, sub
from typing import Callable, Iterator, Optional

from .bounds import _check_step_certificate, is_weighted_vectors
from .games import (
    CapacityError,
    CompleteGame,
    InvariantError,
    _greatest_losing,
    antichains,
    prefix_sums,
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
    """Count single-row complete (or weighted) games on n players per
    Nakamura value: the one row of ``census_rows(n, n, klass, cap=cap)``."""
    return census_rows(n, n, klass, cap=cap)[0]


def census_rows(
    nmin: int, nmax: int, klass: str = COMPLETE_R1, *, cap: int = CENSUS_CAP
) -> list[CensusRow]:
    """Count single-row complete (or weighted) games per Nakamura value for
    every n in ``nmin..nmax``, by one pass that serves the whole range.

    Neither census builds a game, and a prefix of classes is shared by
    every n above its own sum: only the closing last class reads n.
    ``_complete_r1_counts`` counts the prefix sums of class sizes and row.
    ``_weighted_r1_counts`` searches prefixes of classes with the
    ``is_weighted_r1`` M-matrix test carried from each prefix to its
    extensions, and prunes a prefix whose leading minor is not positive
    with every game below it, for every n: the trade that certifies the
    prefix holds for every extension, because the later columns of the
    Z-matrix are non-positive in the prefix's rows.  Every weighted game
    and every pruned prefix passes one integer certificate check.  Each
    row's counts come with ``None`` (infinite) first, then the values
    ascending.  The arguments and ``cap`` are checked before any counting:
    a range above ``cap`` players names its first n over the cap.
    """
    if klass not in (COMPLETE_R1, WEIGHTED_R1):
        raise ValueError(f"unknown census class {klass!r}")
    if nmin > nmax:
        raise ValueError(f"nmin {nmin} exceeds nmax {nmax}")
    _check_census_args(nmin)
    if nmax > cap:
        raise CapacityError(
            f"census for n={max(nmin, cap + 1)} exceeds the configured cap"
            f" of {cap}"
        )
    count = _complete_r1_counts if klass == COMPLETE_R1 else _weighted_r1_counts
    rows = []
    for n, counts in count(nmin, nmax).items():
        order = sorted(counts, key=lambda v: -1 if v is None else v)
        rows.append(CensusRow(n, klass, {v: counts[v] for v in order}))
    return rows


def _complete_r1_counts(nmin: int, nmax: int) -> dict:
    """Per-value counts of the single-row complete games for each n in
    ``nmin..nmax``, by one forward DP over the classes that serves every
    class count t and every n at once.

    A state after class j is ``(O_j, O_j - P_j, v_j)``: the prefix sum of
    the class sizes, its deficit over the row's, and the running
    ``max ceil(O_i / (O_i - P_i))`` (None once ``m_1 = n_1``, the deficit
    then dropped so those states merge); none of it reads n.  The t = 1
    games are counted at once, and the first class seeds the states.  Each
    round closes every state, for each n past ``O_j``, with a last class of
    size ``n - O_j`` (``m_t in 0..n_t - 1``, deficit step 1..n_t) and
    extends it by a middle class of size 2 up to ``nmax - O_j - 1``
    (``m_j in 1..n_j - 1``; a middle class of size 1 admits no row).  The
    DP stops when no state is left.
    """
    counts: dict = {}
    for n in range(nmin, nmax + 1):
        # t = 1: m_1 = n is infinite, else the deficit is e = n - m_1
        row = counts[n] = {None: 1}
        for e in range(1, n):
            v = -(-n // e)
            row[v] = row.get(v, 0) + 1
    # the first class of a longer composition: m_1 in 1..n_1
    states: dict = {}
    for a in range(1, nmax):
        states[(a, 0, None)] = 1
        for e in range(1, a):
            states[(a, e, -(-a // e))] = 1
    while states:
        nxt: dict = {}
        for (o, d, v), c in states.items():
            closing = range(max(nmin, o + 1), nmax + 1)
            if v is None:
                # infinite whatever the later rows are: count them by size
                for n in closing:
                    counts[n][None] += c * (n - o)
                for a in range(2, nmax - o):
                    key = (o + a, 0, None)
                    nxt[key] = nxt.get(key, 0) + c * (a - 1)
                continue
            # close: the new deficit is d + n_t - m_t, m_t in 0..n_t - 1
            for n in closing:
                row = counts[n]
                for e in range(d + 1, d + n - o + 1):
                    w = -(-n // e)
                    w = v if v > w else w
                    row[w] = row.get(w, 0) + c
            # extend: the new deficit is d + n_j - m_j, m_j in 1..n_j - 1
            for a in range(2, nmax - o):
                o2 = o + a
                for e in range(d + 1, d + a):
                    w = -(-o2 // e)
                    key = (o2, e, v if v > w else w)
                    nxt[key] = nxt.get(key, 0) + c
        states = nxt
    return counts


def _weighted_r1_counts(nmin: int, nmax: int) -> dict:
    """Per-value counts of the weighted single-row complete games for each
    n in ``nmin..nmax``, by one depth-first search over prefixes of classes
    ``(n_j, m_j)`` that shares each prefix's part of the ``is_weighted_r1``
    test with every game extending it, whatever its n.

    The leading block B of ``D`` over the first j classes reads only their
    prefix sums and deficits, and every node of the search has all leading
    minors of B positive.  It carries ``det(B)`` and ``adj(B)``: bordering
    B by class z, with column ``b_i = 1 - (def_z - def_i)``, row
    ``c_k = P_k - min(O_k, P_z - 1)`` and diagonal 1, gives ``v = adj(B)
    b``, ``w = c adj(B)``, ``det(A) = det(B) - c v`` and ``adj(A) =
    [[(det(A) adj(B) + v w) / det(B), -v], [-w, det(B)]]``, with exact
    division.  A border with ``det(A) <= 0`` is pruned with its subtree:
    ``lam = (-w, det(B)) >= 0`` gives ``lam A = (0, ..., 0, det(A))``, and
    every later column of ``D`` is ``<= 0`` in A's rows whatever the later
    classes are, so the trade checked on the prefix columns holds for every
    game below, at ``n = O_z`` and past it.  A node closes with ``m_t = 0``
    for each n past ``O_j``, weighted with steps ``(adj(B) 1, 0)``.  A
    border with ``det(A) > 0`` is the weighted leaf at ``n = O_z``, with
    steps ``adj(A) 1``, and a node for every larger n.  Every weighted
    game's steps are checked as well.
    """
    counts: dict = {n: {} for n in range(nmin, nmax + 1)}

    def grow(value, o, deficit):
        return None if value is None else max(value, -(-o // deficit))

    def tally(n, value):
        row = counts[n]
        row[value] = row.get(value, 0) + 1

    def visit(o, p, deficits, value, det_b, adj_b):
        oj, pj, dj = o[-1], p[-1], deficits[-1]
        cols = list(zip(*adj_b))
        steps = [sum(r) for r in adj_b]
        # m_t = 0: row t is implied by row t - 1, and d_t = 0
        p2 = p + [pj]
        for n in range(max(nmin, oj + 1), nmax + 1):
            o2 = o + [n]
            _check_step_certificate(p2, _greatest_losing(o2, p2), steps + [0])
            tally(n, grow(value, n, dj + n - oj))
        # a class of size 2..nmax - O_j: the last class at n = O_z, and a
        # middle class for every larger n
        for size in range(2, nmax - oj + 1):
            oz = oj + size
            o2 = o + [oz]
            for x in range(1, size):
                pz, dz = pj + x, dj + size - x
                b = [1 - dz + d for d in deficits]
                c = [pk - min(ok, pz - 1) for ok, pk in zip(o, p)]
                v = [sum(map(mul, r, b)) for r in adj_b]
                w = [sum(map(mul, c, col)) for col in cols]
                det_a = det_b - sum(map(mul, c, v))
                p2 = p + [pz]
                if det_a <= 0:
                    lam = [*map(neg, w), det_b]
                    _check_trade_certificate(p2, _greatest_losing(o2, p2), lam)
                    continue
                grown = grow(value, oz, dz)
                if oz >= nmin:
                    sigma = sum(w)
                    leaf = [
                        (det_a * s + sigma * y) // det_b - y
                        for s, y in zip(steps, v)
                    ]
                    leaf.append(det_b - sigma)
                    _check_step_certificate(p2, _greatest_losing(o2, p2), leaf)
                    tally(oz, grown)
                if oz < nmax:
                    adj_a = [
                        [(det_a * e + y * f) // det_b for e, f in zip(r, w)]
                        + [-y]
                        for r, y in zip(adj_b, v)
                    ]
                    adj_a.append([*map(neg, w), det_b])
                    visit(o2, p2, deficits + [dz], grown, det_a, adj_a)

    # t = 1: the weight 1 and the quota m_1
    for n in range(nmin, nmax + 1):
        for x in range(1, n + 1):
            _check_step_certificate([x], [[x - 1]], [1])
            tally(n, None if x == n else grow(0, n, n - x))
    # the first class, m_1 in 1..n_1: its block is (1)
    for size in range(1, nmax):
        for x in range(1, size + 1):
            value = None if x == size else grow(0, size, size - x)
            visit([size], [x], [size - x], value, 1, [[1]])
    return counts


def is_weighted_complete(g: CompleteGame) -> bool:
    """Whether a complete game is weighted: by ``is_weighted_r1`` for one
    shift-minimal row, else by the ordered-weight LP on its shift-minimal
    rows and its shift-maximal losing vectors."""
    if g.r == 1:
        return is_weighted_r1(g.class_sizes, g.shift_min[0])
    return is_weighted_vectors(g.shift_min, shift_maximal_losing_vectors(g))


def is_weighted_r1(sizes, row) -> bool:
    """Whether the complete game with class sizes ``sizes`` and the single
    shift-minimal winning row ``row`` is weighted, decided in integers.

    Write ``O`` and ``P`` for the prefix sums of ``sizes`` and ``row``.
    Ordered class weights are non-negative steps ``d_k = w_k - w_{k+1}``,
    under which a vector weighs ``sum_k C_k d_k`` over its prefix sums
    ``C`` (``is_weighted_vectors``).  A vector loses iff ``C_i <= P_i - 1``
    for some class ``i``, and then lies below the greatest losing sequence
    ``G^(i)``: ``min(O_k, P_i - 1)`` for ``k < i``, ``P_i - 1 + O_k - O_i``
    for ``k >= i`` (the candidates of ``shift_maximal_losing_vectors``).
    So the game is weighted iff some ``d >= 0`` gives ``D d > 0``, where
    ``D[i][k] = P_k - G^(i)_k``.

    ``D`` is a Z-matrix.  Its diagonal is 1.  For ``k < i``, ``P_k <= O_k``
    and ``P_k <= P_i - 1`` (every entry of the row but the last is at
    least 1), so ``D[i][k] <= 0``.  For ``k > i``, ``D[i][k]`` is 1 less
    the growth of the deficit ``O - P`` from ``i`` to ``k``, and that
    deficit strictly increases (``m_j <= n_j - 1`` past the first class),
    so ``D[i][k] <= 0``.  The one exception is ``m_t = 0``: then
    ``G^(t) <= G^(t-1)``, so row t is implied by row t - 1, and column t
    is ``<= 0`` in the other rows, so ``d_t = 0``; both are dropped.  A
    Z-matrix has such a ``d`` iff it is a nonsingular M-matrix, iff all
    its leading principal minors are positive (Berman and Plemmons,
    *Nonnegative Matrices in the Mathematical Sciences*, ch. 6, Thm 2.3).
    One fraction-free Bareiss elimination, without pivoting, yields those
    minors in turn.

    Both verdicts carry an integer certificate, checked before it is
    returned, so a wrong step anywhere above raises ``InvariantError``
    instead of giving a wrong verdict:

    * weighted: the steps ``d = det(D) D^-1 1 >= 0`` (and ``d_t = 0`` if
      dropped), by fraction-free back-substitution, give ``D d = det(D) 1
      > 0``; their suffix sums are class weights and the row's weight is
      the quota (``_check_step_certificate`` on every ``G^(i)``);
    * not weighted: if ``A`` is the first leading block of ``D`` whose
      minor is not positive, the last row ``lam`` of ``adj(A)`` is
      non-negative and non-zero (the block before ``A`` is a nonsingular
      M-matrix, with a non-negative inverse) and ``lam A = (0, ..., 0,
      det(A)) <= 0``; the columns of ``D`` past ``A`` are ``<= 0`` in its
      rows, so ``sum lam_i G^(i) >= (sum lam_i) P`` componentwise
      (``_check_trade_certificate``).
    """
    o = prefix_sums(sizes)
    p = prefix_sums(row)
    t = len(o)
    greatest = _greatest_losing(o, p)
    # m_1 >= 1, so a zero last entry means t >= 2
    s = t - 1 if row[-1] == 0 else t
    ps = p[:s]
    m = _bareiss([*map(sub, ps, g), 1] for g in greatest[:s])
    k = len(m) - 1
    if m[k][k] > 0:
        steps = _back_substitute(m) + [0] * (t - s)
        _check_step_certificate(p, greatest, steps)
        return True
    # lam = (det(B) (-c) B^-1, det(B)) for A = [[B, b], [c, a]]: solve
    # B^T y = -c, whose last pivot is det(B); B's leading minors are
    # positive, so B^T's are too
    a = [list(map(sub, ps, g)) for g in greatest[: k + 1]]
    m = _bareiss([a[i][j] for i in range(k)] + [-a[k][j]] for j in range(k))
    lam = _back_substitute(m) + [m[-1][-2]]
    _check_trade_certificate(p, greatest[: k + 1], lam)
    return False


def _bareiss(rows) -> list[list[int]]:
    """Fraction-free Gaussian elimination without pivoting, row by row, of
    the integer ``rows`` of a square matrix (further columns ride along).
    Eliminated row k has the leading principal minor of order k + 1 on the
    diagonal.  Takes rows until such a minor is not positive and returns
    the eliminated rows, that row last."""
    done: list[list[int]] = []
    for r in rows:
        prev = 1
        for k, top in enumerate(done):
            pivot, f = top[k], r[k]
            r[k + 1 :] = [
                (x * pivot - f * y) // prev
                for x, y in zip(r[k + 1 :], top[k + 1 :])
            ]
            prev = pivot
        done.append(r)
        if r[len(done) - 1] <= 0:
            break
    return done


def _back_substitute(m) -> list[int]:
    """``det(M) M^-1 b`` in integers, from the rows ``m`` of ``[M | b]``
    after a full ``_bareiss``: the upper triangle with ``det(M)`` last on
    the diagonal.  Every division is exact, since the result is the
    integer vector ``adj(M) b``."""
    s = len(m)
    det = m[-1][s - 1]
    x = [0] * s
    for k in range(s - 1, -1, -1):
        r = m[k]
        rest = sum(map(mul, r[k + 1 : s], x[k + 1 :]))
        x[k] = (det * r[s] - rest) // r[k]
    return x


def _check_trade_certificate(row_sums, losing_sums, lam) -> None:
    """Check in integers that non-negative multipliers ``lam``, not all
    zero, on prefix-sum sequences ``losing_sums`` that each lose to the
    row with prefix sums ``row_sums`` give a combination at least
    ``sum(lam)`` times ``row_sums`` componentwise; raise ``InvariantError``
    otherwise.

    No ordered weights then give the row a quota that every losing vector
    misses: under steps ``d >= 0`` the lam-weighted losing vectors would
    weigh less than ``sum(lam)`` quotas, and at least ``sum(lam)`` times
    the row's weight."""
    if any(x < 0 for x in lam) or not any(lam):
        raise InvariantError("trade multipliers are negative or all zero")
    if any(all(map(ge, g, row_sums)) for g, x in zip(losing_sums, lam) if x):
        raise InvariantError("a traded vector does not lose to the row")
    total = sum(lam)
    for col, pk in zip(zip(*losing_sums), row_sums):
        if sum(map(mul, lam, col)) < total * pk:
            raise InvariantError("the traded vectors fall short of the row")


# ---------------------------------------------------------------------------
# complete games with any number of shift-minimal rows (small n only)


def enumerate_complete(
    n: int,
    parts: Optional[int] = None,
    skip: Optional[Callable[[tuple[int, ...], tuple], bool]] = None,
) -> Iterator[CompleteGame]:
    """All complete games on n players, optionally with a fixed class count.

    Enumerates, per composition, every antichain (under prefix-sum
    dominance) of count vectors whose rows also separate neighboring
    classes, in the depth-first order of ``games.antichains`` over the
    lattice in decreasing lexicographic order.  Intended for small n (the
    state space grows like the number of antichains of the vector lattice).
    ``skip(sizes, rows)`` is asked at every node of each composition's
    search, whether its rows separate the classes or not; a node where it
    is true is neither yielded nor extended.
    """
    for sizes in compositions(n, parts):
        t = len(sizes)
        # nonzero count vectors in decreasing lexicographic order (iv)
        lattice = [
            v
            for v in itertools.product(*(range(nj, -1, -1) for nj in sizes))
            if any(v)
        ]
        sums = [prefix_sums(v) for v in lattice]
        # a later vector is lexicographically smaller, so it never dominates
        # an earlier one; it is incomparable to it (ii) unless dominated
        later = [
            sum(
                1 << j
                for j in range(k + 1, len(sums))
                if any(map(gt, sums[j], pk))
            )
            for k, pk in enumerate(sums)
        ]
        # bit j: the vector takes a player of class j and leaves one of
        # class j + 1 out, which separates the two classes (iii)
        splits = [
            sum(
                1 << j
                for j in range(t - 1)
                if v[j] > 0 and v[j + 1] < sizes[j + 1]
            )
            for v in lattice
        ]
        every_split = (1 << (t - 1)) - 1
        node_skip = (
            None if skip is None else partial(_skip_rows, skip, sizes, lattice)
        )
        for chosen in antichains(later, node_skip):
            split = 0
            for k in chosen:
                split |= splits[k]
            if split == every_split:
                rows = tuple(map(lattice.__getitem__, chosen))
                yield CompleteGame._trusted(sizes, rows)


def _skip_rows(skip, sizes, lattice, chosen) -> bool:
    return skip(sizes, tuple(map(lattice.__getitem__, chosen)))
