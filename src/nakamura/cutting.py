"""Bridge between voting games and the one-dimensional cutting stock problem.

A 0/1 pattern is feasible for stock length L when its piece lengths fit.
``z_B`` asks for the fewest patterns whose multiset union covers every item
exactly once; ``z_C`` is its LP relaxation (Gilmore and Gomory 1961).  Any
over-covered item can be dropped from a pattern, so both optima are the
covering optima over the inclusion-maximal feasible patterns.

The link to games: an instance induces the weighted game
``[total - stock; lengths]`` (``game_from_instance``), in which a pattern is
feasible exactly when the complementary coalition wins.  The maximal
feasible patterns are therefore the complements of the game's minimal
winning coalitions, so ``z_B`` is the game's Nakamura number and ``z_C`` is
``1/(1 - q*)`` for the optimum ``q*`` of the quota LP
(``bounds.max_quota_lp``).  Both are read off the game's class view here;
no pattern is ever listed.  The test oracles list the patterns as masks and
solve both covering programs on them to check these identities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from typing import Optional

from .bounds import max_quota_lp
from .cover import min_cover
from .exact import nakamura_exact
from .games import (
    InvalidGameError,
    SimpleGame,
    WeightedRep,
    maximal_losing,
    structure_flags,
)


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
    came from the cutting-stock instance ``instance``, the integer round-up
    status of that instance (IRUP: z_B = ceil(z_C); MIRUP: z_B <=
    ceil(z_C) + 1).  z_B is the Nakamura number and z_C is ``1/(1 - q*)``,
    infinite (None) exactly when a vetoer lets q* reach 1; the instance has
    the same two numbers, since its maximal feasible patterns are the
    complements of its game's minimal winning coalitions.  An item longer
    than the stock fits no pattern and is rejected with its (1-based) index.
    """
    if instance is not None:
        for i, x in enumerate(instance.lengths):
            if x > instance.stock:
                raise InvalidGameError(f"item {i + 1} is longer than the stock")
    value = nakamura_exact(game).value
    estar = max_quota_lp(game).min_max_excess
    zc = None if estar == 0 else 1 / estar
    finite = value is not None and zc is not None
    report: dict = {
        "nakamura": value,
        "z_c": zc,
        "bound": None if zc is None else floor(zc) + 1,
        "inside": value <= floor(zc) + 1 if finite else None,
    }
    if instance is not None:
        report["instance"] = {
            "z_b": value,
            "z_c": zc,
            "irup": finite and value == ceil(zc),
            "mirup": finite and value <= ceil(zc) + 1,
        }
    return report
