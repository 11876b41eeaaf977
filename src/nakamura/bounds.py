"""Lower and upper bounds on the Nakamura number, plus the exact-rational LPs.

Bound families:

* ``weighted_bounds`` -- the quota/weight ceilings for a weighted
  representation (lower from the given quota, upper from the smallest
  integral representation derived from it).
* ``greedy_upper`` -- the improved greedy that strips the heaviest still
  removable players round by round (``strip_rounds``, whose coalitions
  ``exact.nakamura_exact`` also takes as an incumbent).
* ``cardinality_bounds`` -- ceilings using only the minimum/maximum
  cardinality of a minimal winning coalition.  The upper formula is
  implemented exactly as stated even though it can undercut the true value
  when not every coalition of the maximum cardinality wins; reports carry
  it as a heuristic and the sandwich tests exclude it.
* ``alpha_roughly_bounds`` -- ceilings for alpha-roughly weighted games.
* ``max_quota_lp`` -- the largest relative quota any normalized weight
  vector can certify, with the derived minimum maximum excess, price of
  stability, and lower bound.
* ``alpha_critical`` -- the least alpha admitting a rough representation;
  below 1 exactly for weighted games.
* ``is_weighted_vectors`` -- the weightedness test of the census module: the
  same threshold over ordered class weights of a complete game, with rows
  only for its shift-minimal winning rows and its shift-maximal losing
  vectors, and a weighted verdict certified by integer weights and quota.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import ceil, lcm
from operator import lt, mul
from typing import Optional, Sequence

from . import lp
from .games import (
    CapacityError,
    ClassView,
    InvariantError,
    SimpleGame,
    WeightedRep,
    maximal_losing,
)


@dataclass(frozen=True)
class BoundsReport:
    """One bound family's result; ``None`` components mean infinite.

    ``vetoer`` flags games whose Nakamura number is infinite regardless of
    the reported finite components (the cardinality formulas are only valid
    without vetoers).
    """

    method: str
    lower: Optional[int]
    upper: Optional[int]
    vetoer: bool = False


@dataclass(frozen=True)
class LpOutcome:
    """Quota-maximization outcome: q*, certifying weights, and derived values.

    ``weights`` sum to one and give every minimal winning coalition weight
    at least ``optimum``; ``nak_lower_bound`` is ``ceil(1/(1-q*))``, infinite
    (None) exactly when a vetoer lets q* reach 1.
    """

    optimum: Fraction
    weights: tuple[Fraction, ...]
    min_max_excess: Fraction
    price_of_stability: Fraction
    nak_lower_bound: Optional[int]


def _ceil_frac(num: Fraction, den: Fraction) -> Optional[int]:
    if den <= 0:
        return None
    return ceil(Fraction(num) / Fraction(den))


def weighted_bounds(rep: WeightedRep) -> BoundsReport:
    """Quota-based lower and integral-representation upper ceilings."""
    lower = rep.view.quota_ceiling
    qhat, what = rep.integral()
    shat = sum(what)
    omega_hat = max(what)
    upper = _ceil_frac(shat, shat - qhat - omega_hat + 1)
    return BoundsReport("weighted", lower, upper)


def greedy_upper(rep: WeightedRep) -> Optional[int]:
    """Rounds used by the improved greedy (``strip_rounds``); None when it
    cannot finish."""
    rounds = strip_rounds(rep.view)
    return None if rounds is None else len(rounds)


def strip_rounds(view: ClassView) -> Optional[list[int]]:
    """The improved greedy's winning coalitions, one per round, on a
    ``"weights"`` view; None when it cannot finish.

    Each round keeps the grand coalition and strips the heaviest players not
    yet dropped in earlier rounds (lowest index first among equal weights),
    as long as the coalition stays winning.  The rounds' coalitions have
    empty intersection, so their count is an upper bound on the Nakamura
    number; with a vetoer no progress is possible and None is returned.
    Players of a block are dropped in block order, so the dropped ones
    always form a prefix of their block.
    """
    quota, weights = view.quota, view.block_weights
    total = sum(map(mul, weights, view.sizes))
    dropped = [0] * len(view.blocks)
    grand = sum(view.block_masks)
    rounds = []
    while dropped != list(view.sizes):
        weight, coalition = total, grand
        for j, (block, w) in enumerate(zip(view.blocks, weights)):
            left = len(block) - dropped[j]
            k = left if w == 0 else min(left, (weight - quota) // w)
            for p in block[dropped[j] : dropped[j] + k]:
                coalition &= ~(1 << p)
            weight -= k * w
            dropped[j] += k
        if coalition == grand:
            return None
        rounds.append(coalition)
    return rounds


def cardinality_bounds(game: SimpleGame) -> BoundsReport:
    """Ceilings from the extreme cardinalities of minimal winning coalitions.

    The upper component is the printed closed form ``1 + ceil(m/(n-M))``;
    see the module docstring for why it is heuristic.
    """
    n = game.n
    sizes = [sum(v) for v in game.view.winning]
    m, big = min(sizes), max(sizes)
    lower = _ceil_frac(n, n - m)
    upper = 1 + ceil(Fraction(m, n - big)) if big < n else None
    return BoundsReport(
        "cardinality", lower, upper, vetoer=game.vetoer_mask() != 0
    )


def alpha_roughly_bounds(weights: Sequence, alpha) -> BoundsReport:
    """Ceilings for a rough representation (winning >= 1, losing <= alpha).

    The upper ceiling applies only while its denominator ``w(N) - alpha -
    omega`` stays positive; otherwise it is reported as infinite.
    """
    ws = [Fraction(w) for w in weights]
    alpha = Fraction(alpha)
    total = sum(ws, Fraction(0))
    omega = max(ws)
    lower = _ceil_frac(total, total - 1)
    upper = _ceil_frac(total, total - alpha - omega)
    return BoundsReport("alpha_roughly", lower, upper)


def max_quota_lp(game: SimpleGame) -> LpOutcome:
    """Maximize the relative quota over normalized non-negative weights.

    Solved in the equivalent matrix-game orientation (few rows, one column
    per minimal winning count vector): minimize the largest per-player mass
    ``v`` of a distribution over minimal winning coalitions.  The optimal
    weights come back as the duals; feasibility and optimality of the
    returned pair are asserted exactly, so a wrong certificate cannot
    escape.
    """
    view = game.view
    sizes, vectors = view.sizes, view.winning
    t = len(sizes)
    nv = len(vectors)
    # variables: y_V for each vector, then v
    costs = [0] * nv + [1]
    rows = []
    for j in range(t):
        # class row j, times the class size: sum_V V[j] y_V <= sizes[j] v
        rows.append(([vec[j] for vec in vectors] + [-sizes[j]], "<=", 0))
    rows.append(([1] * nv + [0], "==", 1))
    res = lp.solve_lp(costs, rows)
    if res.status != lp.OPTIMAL:  # pragma: no cover - always feasible/bounded
        raise InvariantError(f"quota LP unexpectedly {res.status}")
    qstar = res.objective
    # the dual of class row j is the per-player weight of the class
    block_w = [-res.duals[j] for j in range(t)]
    if any(w < 0 for w in block_w):  # pragma: no cover - certificate guard
        raise InvariantError("negative weight in quota LP certificate")
    scale = sum(sizes[j] * block_w[j] for j in range(t))
    if scale <= 0:  # pragma: no cover - certificate guard
        raise InvariantError("degenerate scaling in quota LP certificate")
    block_w = [w / scale for w in block_w]
    attained = min(
        sum(vec[j] * block_w[j] for j in range(t)) for vec in vectors
    )
    if attained != qstar:  # pragma: no cover - certificate guard
        raise InvariantError("quota LP certificate does not attain optimum")
    estar = 1 - qstar
    delta = estar / (1 - estar) if estar != 1 else None
    if delta is None:  # pragma: no cover - q* = 0 impossible (grand wins)
        raise InvariantError("relative quota of zero")
    bound = None if estar == 0 else ceil(1 / estar)
    return LpOutcome(qstar, view.per_player(block_w), estar, delta, bound)


def lp_lower_bound(game: SimpleGame) -> Optional[int]:
    """The quota-LP lower bound when it is cheap to get, else None.

    Cheap means the game's view has equal-weight groups (class-reduced LP)
    or the game has a small antichain.
    """
    view = game.view
    if view.source != "weights" and view.coalition_count(view.winning) > 300:
        return None
    return max_quota_lp(game).nak_lower_bound


# constraint-row cap for the player-level critical-threshold LP
_ALPHA_ROW_CAP = 3000


def _critical_lp(width: int, winning, losing) -> tuple[Fraction, tuple]:
    """Minimize alpha over ``width`` non-negative weights: every winning row
    weighs at least 1, every losing row at most alpha."""
    rows = [(list(v) + [0], ">=", 1) for v in winning]
    rows += [(list(u) + [-1], "<=", 0) for u in losing]
    res = lp.solve_lp([0] * width + [1], rows)
    if res.status != lp.OPTIMAL:  # pragma: no cover
        raise InvariantError(f"critical threshold LP unexpectedly {res.status}")
    return res.objective, tuple(res.x[:width])


def alpha_critical(game: SimpleGame) -> Fraction:
    """Least alpha for which a rough representation exists.

    Minimize alpha with every minimal winning coalition weighing at least 1
    and every maximal losing coalition at most alpha.  Below 1 exactly for
    weighted games.
    """
    return critical_rough_representation(game)[0]


def critical_rough_representation(
    game: SimpleGame,
) -> tuple[Fraction, tuple[Fraction, ...]]:
    """The critical threshold together with per-player weights attaining it.

    Complete games are solved over one weight per class, which is lossless
    for class-symmetric games; every other game over one weight per player,
    with at most ``_ALPHA_ROW_CAP`` antichain rows.
    """
    view = game.view
    if view.source == "classes":
        alpha, x = _critical_lp(len(view.sizes), view.winning, view.losing)
        return alpha, view.per_player(x)
    winning, losing = map(view.coalition_count, (view.winning, view.losing))
    if winning + losing > _ALPHA_ROW_CAP:
        raise CapacityError(
            f"critical-threshold LP over {winning} + "
            f"{losing} antichain rows exceeds {_ALPHA_ROW_CAP}"
        )

    def incidence(masks):
        return [[(m >> i) & 1 for i in range(game.n)] for m in masks]

    return _critical_lp(
        game.n, incidence(game.min_winning), incidence(maximal_losing(game))
    )


def is_weighted_vectors(shift_min, losing) -> bool:
    """Whether a complete game is weighted, from its shift-extreme vectors.

    ``shift_min`` are the game's shift-minimal winning rows and ``losing``
    its shift-maximal losing vectors.  The LP minimizes ``alpha`` over class
    weights ``w_1 >= ... >= w_t >= 0`` such that every row weighs at least
    1 and every losing vector at most ``alpha``; the game is weighted iff
    ``alpha < 1``.  Ordered weights make a vector's weight monotone under
    shift dominance, so these few rows carry both conditions to every
    winning and every losing vector.  No representation is lost by the
    order: in a weighted game a more desirable player never has to weigh
    less (Taylor and Zwicker 1999).

    The LP runs on the steps ``d_k = w_k - w_{k+1} >= 0`` (``w_{t+1} = 0``),
    under which a vector weighs ``sum_k C_k d_k`` over its prefix sums
    ``C``, so the order needs no rows.  A weighted verdict is certified in
    integers by ``_check_ordered_certificate`` before it is returned.
    """
    t = len(shift_min[0])
    rows = [([*accumulate(v), 0], ">=", 1) for v in shift_min]
    rows += [([*accumulate(u), -1], "<=", 0) for u in losing]
    res = lp.solve_lp([0] * t + [1], rows)
    if res.status != lp.OPTIMAL:  # pragma: no cover - always feasible/bounded
        raise InvariantError(f"ordered weight LP unexpectedly {res.status}")
    if res.objective >= 1:
        return False
    # scaled by the common denominator of the steps, every row weighs at
    # least the scale and every losing vector at most alpha times it; the
    # class weights are the suffix sums of the scaled steps
    steps = res.x[:t]
    quota = lcm(*(x.denominator for x in steps))
    scaled = (x.numerator * (quota // x.denominator) for x in reversed(steps))
    weights = list(accumulate(scaled))[::-1]
    _check_ordered_certificate(shift_min, losing, weights, quota)
    return True


def _check_ordered_certificate(shift_min, losing, weights, quota) -> None:
    """Check in integers that non-increasing, non-negative class weights
    give every shift-minimal row at least ``quota`` and every shift-maximal
    losing vector less; raise ``InvariantError`` otherwise."""

    def weight(v) -> int:
        return sum(map(mul, v, weights))

    if weights[-1] < 0 or any(map(lt, weights, weights[1:])):
        raise InvariantError("certificate weights are not ordered")
    if any(weight(v) < quota for v in shift_min):
        raise InvariantError("a shift-minimal row weighs less than the quota")
    if any(weight(u) >= quota for u in losing):
        raise InvariantError("a shift-maximal losing vector reaches the quota")
