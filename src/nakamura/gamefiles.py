"""Plain-text formats for games and cutting-stock instances.

One record per file.  The first non-blank, non-comment line names the kind:

``weighted``
    ``quota: <rational>`` then ``weights: w1 w2 ... wn``.
``simple``
    ``players: n`` then one line of 1-based player indices per minimal
    winning coalition.
``complete``
    ``classes: n1 ... nt`` then one ``row: m1 ... mt`` line per
    shift-minimal winning vector.
``csp``
    ``stock: L`` then ``lengths: l1 ... lm``.

Rationals are written ``p/q`` (or a bare integer); blank lines and ``#``
comments are ignored.  Parse errors carry 1-based line numbers, and games
violating representation invariants are rejected with the same diagnostics.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from .cutting import CspInstance
from .games import (
    CapacityError,
    CompleteGame,
    GameError,
    SimpleGame,
    WeightedRep,
    complete_from_parameters,
    mask_from_players,
    players_from_mask,
    simple_game,
)

GameLike = Union[WeightedRep, SimpleGame, CompleteGame, CspInstance]


class ParseError(GameError):
    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


def _rational(tok: str, line: int) -> Fraction:
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ParseError(line, f"not a rational number: {tok!r}") from None


def _int(tok: str, line: int) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ParseError(line, f"not an integer: {tok!r}") from None


def _field(text: str, name: str, line: int) -> str:
    prefix = name + ":"
    if not text.startswith(prefix):
        raise ParseError(line, f"expected '{name}: ...', got {text!r}")
    return text[len(prefix) :].strip()


def parse_game(text: str) -> GameLike:
    """Parse one record; raises ``ParseError`` with the offending line."""
    lines = [
        (i + 1, ln.strip())
        for i, ln in enumerate(text.splitlines())
        if ln.strip() and not ln.strip().startswith("#")
    ]
    if not lines:
        raise ParseError(1, "empty file")
    (hline, header), rest = lines[0], lines[1:]
    try:
        if header == "weighted":
            return _parse_weighted(rest, hline)
        if header == "simple":
            return _parse_simple(rest, hline)
        if header == "complete":
            return _parse_complete(rest, hline)
        if header == "csp":
            return _parse_csp(rest, hline)
    except (ParseError, CapacityError):
        # capacity violations keep their own error class (exit code 3)
        raise
    except GameError as exc:
        line = rest[-1][0] if rest else hline
        raise ParseError(line, str(exc)) from exc
    raise ParseError(
        hline, f"unknown record kind {header!r} "
        "(expected weighted, simple, complete, or csp)"
    )


def _parse_weighted(rest, hline) -> WeightedRep:
    if len(rest) != 2:
        raise ParseError(hline, "weighted record needs quota and weights lines")
    (l1, quota_line), (l2, weights_line) = rest
    quota = _rational(_field(quota_line, "quota", l1), l1)
    weights = [_rational(t, l2) for t in _field(weights_line, "weights", l2).split()]
    if not weights:
        raise ParseError(l2, "no weights given")
    return WeightedRep(quota, tuple(weights))


def _parse_simple(rest, hline) -> SimpleGame:
    if not rest:
        raise ParseError(hline, "simple record needs a players line")
    (l1, players_line), coalition_lines = rest[0], rest[1:]
    n = _int(_field(players_line, "players", l1), l1)
    if not coalition_lines:
        raise ParseError(l1, "no minimal winning coalitions given")
    masks = []
    for line, txt in coalition_lines:
        players = [_int(t, line) for t in txt.split()]
        try:
            masks.append(mask_from_players(players, n))
        except GameError as exc:
            raise ParseError(line, str(exc)) from exc
    return simple_game(n, masks)


def _parse_complete(rest, hline) -> CompleteGame:
    if not rest:
        raise ParseError(hline, "complete record needs a classes line")
    (l1, classes_line), row_lines = rest[0], rest[1:]
    sizes = [_int(t, l1) for t in _field(classes_line, "classes", l1).split()]
    if not row_lines:
        raise ParseError(l1, "no shift-minimal rows given")
    rows = []
    for line, txt in row_lines:
        rows.append(tuple(_int(t, line) for t in _field(txt, "row", line).split()))
    return complete_from_parameters(tuple(sizes), rows)


def _parse_csp(rest, hline) -> CspInstance:
    if len(rest) != 2:
        raise ParseError(hline, "csp record needs stock and lengths lines")
    (l1, stock_line), (l2, lengths_line) = rest
    stock = _rational(_field(stock_line, "stock", l1), l1)
    lengths = [_rational(t, l2) for t in _field(lengths_line, "lengths", l2).split()]
    if not lengths:
        raise ParseError(l2, "no lengths given")
    return CspInstance(stock, tuple(lengths))


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def write_game(obj: GameLike) -> str:
    """Canonical text for a record; re-parsing yields an equal object."""
    if isinstance(obj, WeightedRep):
        return (
            "weighted\n"
            f"quota: {format_rational(obj.quota)}\n"
            "weights: " + " ".join(format_rational(w) for w in obj.weights) + "\n"
        )
    if isinstance(obj, SimpleGame):
        body = "".join(
            " ".join(str(p) for p in players_from_mask(m)) + "\n"
            for m in obj.min_winning
        )
        return f"simple\nplayers: {obj.n}\n{body}"
    if isinstance(obj, CompleteGame):
        body = "".join(
            "row: " + " ".join(str(x) for x in row) + "\n" for row in obj.shift_min
        )
        classes = " ".join(str(x) for x in obj.class_sizes)
        return f"complete\nclasses: {classes}\n{body}"
    if isinstance(obj, CspInstance):
        return (
            "csp\n"
            f"stock: {format_rational(obj.stock)}\n"
            "lengths: " + " ".join(format_rational(x) for x in obj.lengths) + "\n"
        )
    raise TypeError(f"cannot serialize {type(obj).__name__}")
