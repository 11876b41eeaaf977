"""Exact minimum set cover by branch and bound over bit masks.

The universe and the candidate sets are machine-word masks.  The search is
deterministic: the greedy incumbent breaks ties toward the smallest mask,
branching always targets the uncovered element that lies in the fewest
candidate sets, and candidate sets are tried in decreasing cardinality
(ties again toward the smallest mask).  Witnesses are therefore stable
across runs, which the golden-file tests rely on.

A caller-supplied ``root_lb`` (for instance an exact LP bound) terminates
the search as soon as an incumbent matches it.
"""

from __future__ import annotations

from typing import Optional, Sequence

_MEMO_CAP = 1 << 18


def greedy_cover(universe: int, sets: Sequence[int]) -> Optional[list[int]]:
    """Indices of a greedy cover (max new coverage first), None if infeasible."""
    reach = 0
    for s in sets:
        reach |= s
    if universe & ~reach:
        return None
    covered = 0
    chosen: list[int] = []
    while covered & universe != universe:
        best_idx = -1
        best_gain = 0
        best_mask = None
        for i, s in enumerate(sets):
            gain = (s & universe & ~covered).bit_count()
            if gain > best_gain or (
                gain == best_gain and gain and s < best_mask
            ):
                best_idx, best_gain, best_mask = i, gain, s
        covered |= sets[best_idx]
        chosen.append(best_idx)
    return chosen


def min_cover(
    universe: int,
    sets: Sequence[int],
    *,
    root_lb: int = 0,
    stats: Optional[dict] = None,
) -> Optional[list[int]]:
    """Indices of a minimum-cardinality cover of ``universe``, or None.

    ``root_lb`` must be a valid lower bound on the cover size; the search
    stops early once an incumbent of that size is found.  A ``stats`` dict,
    when given, receives ``"nodes"``: the search nodes visited (0 when the
    greedy cover meets the root bound).
    """
    if stats is not None:
        stats["nodes"] = 0
    if universe == 0:
        return []
    greedy = greedy_cover(universe, sets)
    if greedy is None:
        return None

    u_count = universe.bit_count()
    max_size = max((s & universe).bit_count() for s in sets)
    root_lb = max(root_lb, -(-u_count // max_size))
    if len(greedy) <= root_lb:
        return greedy

    # element -> candidate set indices, candidates presorted by branch order
    n_sets = len(sets)
    order = sorted(range(n_sets), key=lambda i: (-sets[i].bit_count(), sets[i]))
    containing: dict[int, list[int]] = {}
    pos = 0
    u = universe
    while u:
        if u & 1:
            containing[pos] = [i for i in order if sets[i] >> pos & 1]
        u >>= 1
        pos += 1

    best = list(greedy)
    best_size = len(greedy)
    memo: dict[int, int] = {}
    chosen: list[int] = []
    nodes = 0

    def lower_bound(covered: int) -> int:
        remaining = universe & ~covered
        if not remaining:
            return 0
        gain = 0
        for s in sets:
            g = (s & remaining).bit_count()
            if g > gain:
                gain = g
        if gain == 0:  # pragma: no cover - cannot happen once feasible
            return 1 << 30
        return -(-remaining.bit_count() // gain)

    def branch(covered: int) -> bool:
        """Returns True when the search can stop (incumbent hit root_lb)."""
        nonlocal best, best_size, nodes
        nodes += 1
        depth = len(chosen)
        if covered & universe == universe:
            if depth < best_size:
                best = list(chosen)
                best_size = depth
            return best_size <= root_lb
        if depth + lower_bound(covered) >= best_size:
            return False
        seen = memo.get(covered)
        if seen is not None and seen <= depth:
            return False
        if len(memo) < _MEMO_CAP:
            memo[covered] = depth
        # branch on the uncovered element with the fewest candidate sets
        pick = -1
        pick_count = -1
        remaining = universe & ~covered
        p = 0
        r = remaining
        while r:
            if r & 1:
                c = len(containing[p])
                if pick < 0 or c < pick_count:
                    pick, pick_count = p, c
            r >>= 1
            p += 1
        for i in containing[pick]:
            s = sets[i]
            if s & ~covered & universe == 0:
                continue
            chosen.append(i)
            stop = branch(covered | s)
            chosen.pop()
            if stop:
                return True
        return False

    try:
        branch(0)
    finally:
        del branch  # its closure cell refers to it: free the search at once
    if stats is not None:
        stats["nodes"] = nodes
    return best
