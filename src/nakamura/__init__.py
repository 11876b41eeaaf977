"""Exact Nakamura numbers of simple, complete, and weighted voting games.

The Nakamura number of a voting rule is the least number of winning
coalitions whose intersection is empty (infinite when some player sits in
every winning coalition).  This package computes it exactly, evaluates the
known lower/upper bound families, reproduces censuses of complete games
with a single shift-minimal winning vector, and links the problem to the
one-dimensional cutting stock relaxation.
"""

from .games import (
    CapacityError,
    CompleteGame,
    GameError,
    InvalidGameError,
    InvariantError,
    PlayerClassification,
    SimpleGame,
    StructureFlags,
    WeightedRep,
    classify_players,
    complete_from_parameters,
    desirability_classes,
    expand_complete,
    game_from_weighted,
    mask_from_players,
    maximal_losing,
    players_from_mask,
    simple_game,
    structure_flags,
    vector_is_winning,
)
from .exact import (
    NakamuraResult,
    SolveStats,
    nakamura_by_vectors,
    nakamura_complete,
    nakamura_exact,
    nakamura_symmetric,
    verify_witness,
)
from .bounds import (
    BoundsReport,
    LpOutcome,
    alpha_critical,
    alpha_roughly_bounds,
    cardinality_bounds,
    greedy_upper,
    max_quota_lp,
    weighted_bounds,
)
from .census import CensusRow, census, count_r1, enumerate_complete, enumerate_r1
from .cutting import (
    CspInstance,
    conjecture_roundup_probe,
    game_from_instance,
    instance_from_game,
    z_b_losing_cover,
)
from .families import FamilySpec, construct_family, max_nakamura
from .gamefiles import ParseError, parse_game, write_game

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
