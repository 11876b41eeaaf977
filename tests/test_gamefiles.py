from fractions import Fraction

import pytest

from nakamura.cutting import CspInstance
from nakamura.gamefiles import ParseError, parse_game, write_game
from nakamura.games import (
    CompleteGame,
    SimpleGame,
    WeightedRep,
    complete_from_parameters,
    simple_game,
)

WEIGHTED_TEXT = """weighted
quota: 90
weights: 9 9 9 9 9 9 9 9 9 9 2 2 2 2 1 1
"""

SIMPLE_TEXT = """simple
players: 4
1 2
3 4
"""

COMPLETE_TEXT = """complete
classes: 10 10
row: 7 8
"""

CSP_TEXT = """csp
stock: 155
lengths: 9 12 12 16 16 46 46 54 69 77 102
"""


def test_parse_weighted():
    rep = parse_game(WEIGHTED_TEXT)
    assert isinstance(rep, WeightedRep)
    assert rep.quota == 90 and rep.weights[:2] == (9, 9)
    assert rep.integral_input


def test_parse_weighted_rational():
    rep = parse_game("weighted\nquota: 3/2\nweights: 1/2 1/2 1/2\n")
    assert rep.quota == Fraction(3, 2)
    assert not rep.integral_input


def test_parse_simple():
    game = parse_game(SIMPLE_TEXT)
    assert isinstance(game, SimpleGame)
    assert game.n == 4 and len(game.min_winning) == 2


def test_parse_complete():
    g = parse_game(COMPLETE_TEXT)
    assert isinstance(g, CompleteGame)
    assert g.class_sizes == (10, 10) and g.shift_min == ((7, 8),)


def test_parse_csp():
    inst = parse_game(CSP_TEXT)
    assert isinstance(inst, CspInstance)
    assert inst.stock == 155 and len(inst.lengths) == 11


def test_comments_and_blank_lines_ignored():
    rep = parse_game("# a comment\n\nweighted\nquota: 2\n\nweights: 1 1 1\n")
    assert rep.quota == 2


@pytest.mark.parametrize(
    "text,line",
    [
        ("", 1),
        ("nonsense\n", 1),
        ("weighted\nquota: x\nweights: 1\n", 2),
        ("weighted\nquota: 2\nweights: 1 y\n", 3),
        ("simple\nplayers: 3\n1 5\n", 3),
        ("simple\nplayers: 3\n", 2),
        ("complete\nclasses: 2 2\nrow: 3 0\n", 3),
        # a complete record's violations name its last row line
        ("complete\nclasses: 2 2\nrow: 2 0\n\nrow: 2 1\n", 5),
        ("csp\nstock: 5\nlengths: -1\n", 3),
        ("weighted\nquota: 5\nweights: 1 1\n", 3),
    ],
)
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as err:
        parse_game(text)
    assert err.value.line == line


@pytest.mark.parametrize(
    "obj",
    [
        WeightedRep(Fraction(3, 2), (Fraction(1, 2), 1, 0)),
        simple_game(4, [[1, 2], [3, 4]]),
        complete_from_parameters((3, 3), [(2, 1)]),
        CspInstance(Fraction(31, 2), (3, 5, Fraction(7, 2))),
    ],
)
def test_write_parse_roundtrip(obj):
    text = write_game(obj)
    again = parse_game(text)
    assert again == obj
    assert write_game(again) == text
