"""Bridge between voting games and the one-dimensional cutting stock problem.

A 0/1 pattern is feasible for stock length L when its piece lengths fit.
``z_B`` asks for the fewest patterns whose multiset union covers every item
exactly once; ``z_C`` is its LP relaxation.  Pattern sets here store only
inclusion-maximal columns with subset closure understood: any over-covered
item can be dropped from a pattern (closure), so the exact-partition optimum
over the closed set equals the plain covering optimum over the maximal
columns, and likewise for the LP.  That covering view is what the solvers
below use.

The link to games: complements of winning coalitions of a vetoer-free game
form a pattern set whose exact cover number is precisely the Nakamura
number, and every cutting-stock instance with infeasible all-ones vector
induces a weighted game whose losing coalitions are the feasible patterns.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, lcm
from typing import Optional

from . import lp
from .cover import min_cover
from .exact import nakamura_exact
from .games import (
    InvalidGameError,
    InvariantError,
    SimpleGame,
    WeightedRep,
    _complement,
    _minimal_counts,
    masks_with_vectors,
    maximal_losing,
    structure_flags,
)

MAX_ITEMS = 24


@dataclass(frozen=True)
class CspInstance:
    """Stock length and item lengths (demand one each, exact rationals)."""

    stock: Fraction
    lengths: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "stock", Fraction(self.stock))
        object.__setattr__(
            self, "lengths", tuple(Fraction(x) for x in self.lengths)
        )
        if self.stock <= 0:
            raise InvalidGameError("stock length must be positive")
        if not self.lengths or any(x <= 0 for x in self.lengths):
            raise InvalidGameError("item lengths must be positive")

    @property
    def m(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True)
class PatternSet:
    """Maximal feasible 0/1 columns over ``m`` items (subset closure implied)."""

    m: int
    patterns: tuple[int, ...]


def _scaled_integers(instance: CspInstance) -> tuple[int, list[int]]:
    scale = lcm(
        instance.stock.denominator, *(x.denominator for x in instance.lengths)
    )
    stock = int(instance.stock * scale)
    lengths = [int(x * scale) for x in instance.lengths]
    return stock, lengths


def patterns_from_instance(instance: CspInstance) -> PatternSet:
    """All inclusion-maximal feasible patterns of the instance.

    Items longer than the stock admit no pattern at all and are rejected
    with their (1-based) index.
    """
    if instance.m > MAX_ITEMS:
        raise InvalidGameError(
            f"explicit pattern enumeration capped at {MAX_ITEMS} items"
        )
    stock, lengths = _scaled_integers(instance)
    for i, x in enumerate(lengths):
        if x > stock:
            raise InvalidGameError(f"item {i + 1} is longer than the stock")
    # one group per item, longest first; a pattern is maximal feasible iff
    # the items it leaves out are a minimal set reaching length total - stock
    items = sorted(range(instance.m), key=lambda i: -lengths[i])
    ones = [1] * instance.m
    left_out = _minimal_counts(
        [lengths[i] for i in items], ones, sum(lengths) - stock
    )
    vectors = [_complement(ones, d) for d in left_out]
    masks = masks_with_vectors([(i,) for i in items], vectors)
    return PatternSet(instance.m, tuple(sorted(masks)))


def patterns_from_game(game: SimpleGame) -> PatternSet:
    """Complements of the minimal winning coalitions as pattern columns.

    These are the maximal columns among complements of all winning
    coalitions, which is enough under subset closure.
    """
    grand = game.grand
    return PatternSet(
        game.n, tuple(sorted(grand & ~w for w in game.min_winning))
    )


def z_b(patterns: PatternSet) -> Optional[int]:
    """Fewest columns covering every item; None when some item is uncovered.

    With subset closure an optimal cover trims to an exact partition, so
    this is the exact-partition optimum as well.
    """
    universe = (1 << patterns.m) - 1
    chosen = min_cover(universe, patterns.patterns)
    return None if chosen is None else len(chosen)


def z_c(patterns: PatternSet) -> Optional[Fraction]:
    """Exact rational optimum of the fractional covering relaxation."""
    m = patterns.m
    cols = patterns.patterns
    if not cols:
        return None
    reach = 0
    for c in cols:
        reach |= c
    if reach != (1 << m) - 1:
        return None
    costs = [1] * len(cols)
    rows = []
    for i in range(m):
        rows.append(([(c >> i) & 1 for c in cols], ">=", 1))
    res = lp.solve_lp(costs, rows)
    if res.status != lp.OPTIMAL:  # pragma: no cover - covering LP is feasible
        raise InvariantError(f"covering LP unexpectedly {res.status}")
    return res.objective


def game_from_instance(instance: CspInstance) -> WeightedRep:
    """The weighted game ``[total - stock; lengths]`` induced by an instance.

    Duality: a pattern ``a`` is feasible (``l(a) <= stock``) exactly when
    the complementary coalition is winning (``l(1-a) >= total - stock``);
    equivalently, a coalition loses exactly when its complement is an
    infeasible pattern.  Requires ``total > stock`` so that the empty
    coalition loses.
    """
    total = sum(instance.lengths, Fraction(0))
    if total <= instance.stock:
        raise InvalidGameError(
            "total item length must exceed the stock length "
            "(otherwise every coalition would lose)"
        )
    return WeightedRep(total - instance.stock, instance.lengths)


def instance_from_game(rep: WeightedRep) -> CspInstance:
    """The instance whose feasible patterns are exactly the losing coalitions.

    Uses the smallest integral representation: stock ``qhat - 1``, lengths
    ``what``.  This is the reverse direction of ``game_from_instance`` and
    makes maximal feasible patterns coincide with maximal losing coalitions.
    """
    qhat, what = rep.integral()
    if qhat < 2:
        raise InvalidGameError(
            "quota 1 leaves only the empty pattern feasible"
        )
    if any(w == 0 for w in what):
        raise InvalidGameError(
            "zero-weight players admit no positive item length"
        )
    return CspInstance(Fraction(qhat - 1), tuple(Fraction(w) for w in what))


def z_b_losing_cover(game: SimpleGame) -> Optional[int]:
    """Minimum number of losing coalitions partitioning the players.

    Only meaningful for strong games, where complementing such a partition
    gives winning coalitions with empty intersection; non-strong input is
    rejected.  None when no cover exists (some player is in no losing
    coalition, i.e. a passer).
    """
    if not structure_flags(game).strong:
        raise InvalidGameError("losing-cover bound applies to strong games only")
    columns = maximal_losing(game)
    universe = game.grand
    chosen = min_cover(universe, columns)
    return None if chosen is None else len(chosen)


def conjecture_roundup_probe(
    game: SimpleGame, instance: Optional[CspInstance] = None
) -> dict:
    """Relate the exact value to the LP relaxation over complement columns.

    Reports the floor(z_C) + 1 comparison for the game and, when the game
    came from a cutting-stock instance, the integer round-up status of that
    instance (IRUP: z_B = ceil(z_C); MIRUP: z_B <= ceil(z_C) + 1).
    """
    value = nakamura_exact(game).value
    pats = patterns_from_game(game)
    zc = z_c(pats)
    report: dict = {
        "nakamura": value,
        "z_c": zc,
        "bound": None if zc is None else floor(zc) + 1,
        "inside": None,
    }
    if value is not None and zc is not None:
        report["inside"] = value <= floor(zc) + 1
    if instance is not None:
        ipats = patterns_from_instance(instance)
        zb_i = z_b(ipats)
        zc_i = z_c(ipats)
        report["instance"] = {
            "z_b": zb_i,
            "z_c": zc_i,
            "irup": zb_i is not None and zc_i is not None and zb_i == ceil(zc_i),
            "mirup": zb_i is not None
            and zc_i is not None
            and zb_i <= ceil(zc_i) + 1,
        }
    return report
