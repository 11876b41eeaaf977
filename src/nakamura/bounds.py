"""Lower and upper bounds on the Nakamura number and the one LP behind them.

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

The three LP programs are one LP, ``_critical_lp``: the least alpha over
non-negative weights under which every winning row weighs at least 1 and
every losing row at most alpha, solved as its dual with one row per weight.

* ``max_quota_lp`` -- the largest relative quota any normalized weight
  vector can certify, with the derived minimum maximum excess, price of
  stability, and lower bound: the LP over the view's minimal winning
  vectors with the grand coalition as the only losing row, q* = 1/alpha.
* ``alpha_critical`` -- the least alpha admitting a rough representation,
  the LP over the view's winning and losing vectors; below 1 exactly for
  weighted games.
* ``is_weighted_vectors`` -- the weightedness test of a complete game with
  several shift-minimal rows (``census.is_weighted_complete``; a single
  row is decided without an LP by ``census.is_weighted_r1``): the same
  threshold over ordered class weights, with rows only for its
  shift-minimal winning rows and its shift-maximal losing vectors, and a
  weighted verdict certified by integer steps checked against the
  lightest row: every winning vector dominates some row, so it weighs at
  least the lightest one, and every losing vector must weigh less.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, lcm
from operator import mul
from typing import Optional, Sequence

from . import lp
from .games import (
    CapacityError,
    ClassView,
    InvariantError,
    SimpleGame,
    WeightedRep,
    prefix_sums,
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
    weights view; None when it cannot finish.

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

    The critical-threshold LP over the view's minimal winning vectors with
    the grand coalition as its only losing row: the least total weight
    ``alpha`` under which every minimal winning vector weighs at least 1 is
    ``1/q*``, and the block weights are ``x/alpha``.  Feasibility and
    optimality of the returned pair are checked exactly, in integers, so a
    wrong certificate cannot escape.
    """
    view = game.view
    sizes, vectors = view.sizes, view.winning
    alpha, x = _critical_lp(len(sizes), vectors, [sizes])
    qstar = 1 / alpha
    block_w = [w / alpha for w in x]
    # the guards run in integers, on the block weights times ``scale``
    scale = lcm(*(w.denominator for w in block_w))
    scaled = [w.numerator * (scale // w.denominator) for w in block_w]
    if any(w < 0 for w in scaled):
        raise InvariantError("negative weight in quota LP certificate")
    if sum(map(mul, sizes, scaled)) != scale:
        raise InvariantError("quota LP certificate weights do not sum to one")
    attained = min(sum(map(mul, vec, scaled)) for vec in vectors)
    if attained * qstar.denominator != qstar.numerator * scale:
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
    if view.quota is None and view.coalition_count(view.winning) > 300:
        return None
    return max_quota_lp(game).nak_lower_bound


# cap on the winning plus losing vectors of the critical-threshold LP over a
# game's view (one LP column each)
_ALPHA_ROW_CAP = 3000


def _critical_lp(width: int, winning, losing) -> tuple[Fraction, tuple]:
    """The least alpha, with ``width`` non-negative weights attaining it,
    such that every winning row weighs at least 1 and every losing row at
    most alpha.

    Solved as its dual, in the few-row orientation: ``width + 1`` rows and
    one column per vector.  Maximize the mass on the winning vectors while
    every weight's winning mass stays at or below its losing mass and the
    losing mass at most 1.  The optimum is alpha and the duals of the
    weight rows are the weights.
    """
    # every row is ``<=`` with right-hand side 0 or 1 over integer count
    # vectors, so the zero mass is feasible and ``lp.solve_lp``'s one-phase
    # form suffices; the program is bounded because every winning vector
    # is non-zero and the losing mass is at most 1
    nw = len(winning)
    rows = [
        ([v[j] for v in winning] + [-u[j] for u in losing], 0)
        for j in range(width)
    ]
    rows.append(([0] * nw + [1] * len(losing), 1))
    res = lp.solve_lp([-1] * nw + [0] * len(losing), rows)
    if res.status != lp.OPTIMAL:  # pragma: no cover
        raise InvariantError(f"critical threshold LP unexpectedly {res.status}")
    return -res.objective, tuple(-d for d in res.duals[:width])


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

    Solved over one weight per block of the game's view, on its winning and
    losing vectors, at most ``_ALPHA_ROW_CAP`` of them.  Nothing is lost:
    the players of a block are interchangeable, so averaging an optimal
    solution over each block gives an optimal one constant on blocks.
    """
    view = game.view
    count = len(view.winning) + len(view.losing)
    if count > _ALPHA_ROW_CAP:
        raise CapacityError(
            f"critical-threshold LP over {count} vectors exceeds "
            f"{_ALPHA_ROW_CAP}"
        )
    alpha, x = _critical_lp(len(view.sizes), view.winning, view.losing)
    return alpha, view.per_player(x)


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

    The LP is ``_critical_lp`` on the steps ``d_k = w_k - w_{k+1} >= 0``
    (``w_{t+1} = 0``), under which a vector weighs ``sum_k C_k d_k`` over
    its prefix sums ``C``, so the order needs no rows.  A weighted verdict
    is certified in integers before it is returned: the steps, scaled by
    the lcm of their denominators, must give the lightest row more weight
    than every losing vector (``_check_step_certificate``).  That row's
    weight is a quota for every winning vector, since each dominates some
    row and so weighs at least the lightest.
    """
    rows = [prefix_sums(v) for v in shift_min]
    losing_sums = [prefix_sums(u) for u in losing]
    alpha, steps = _critical_lp(len(rows[0]), rows, losing_sums)
    if alpha >= 1:
        return False
    scale = lcm(*(x.denominator for x in steps))
    scaled = [x.numerator * (scale // x.denominator) for x in steps]
    lightest = min(rows, key=lambda c: sum(map(mul, c, scaled)))
    _check_step_certificate(lightest, losing_sums, scaled)
    return True


def _check_step_certificate(row_sums, losing_sums, steps) -> None:
    """Check in integers that non-negative steps ``d`` give the row with
    prefix sums ``row_sums`` more weight than each prefix-sum sequence in
    ``losing_sums``; raise ``InvariantError`` otherwise.

    A vector with prefix sums ``C`` weighs ``C d`` under the class weights
    ``w_k = d_k + ... + d_t``, which are non-negative and ordered.  The row
    passed is the game's lightest winning row under ``d`` (its only row for
    a single-row game), so every winning vector, which has ``C`` at least
    some row's prefix sums, weighs at least the row, and every losing one
    lies below one of ``losing_sums``: the row's weight is a quota that
    separates them."""
    if any(x < 0 for x in steps):
        raise InvariantError("certificate steps are negative")
    quota = sum(map(mul, row_sums, steps))
    if any(sum(map(mul, g, steps)) >= quota for g in losing_sums):
        raise InvariantError("a losing sequence reaches the quota")
