"""Output checks, written without the package under test.

Each check returns ``None`` when the output is right and a one-line reason
otherwise.  Witnesses are re-verified against the input file's own
representation: integer weight sums against the quota for weighted input,
prefix-sum dominance of a row for complete input, and containment of a
listed coalition for simple input.
"""

from __future__ import annotations

import json
from fractions import Fraction


def parse_input(text: str) -> dict:
    """The game in a corpus file: its kind, player count and winning test."""
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.strip().startswith("#")]
    kind, body = lines[0], [ln.split(":", 1) for ln in lines[1:]]
    if kind == "weighted":
        quota = Fraction(body[0][1].strip())
        weights = [Fraction(x) for x in body[1][1].split()]
        return {"kind": kind, "n": len(weights), "quota": quota,
                "weights": weights}
    if kind == "complete":
        sizes = [int(x) for x in body[0][1].split()]
        rows = [[int(x) for x in b[1].split()] for b in body[1:]]
        return {"kind": kind, "n": sum(sizes), "sizes": sizes, "rows": rows}
    if kind == "simple":
        n = int(lines[1].split(":", 1)[1])
        sets = [frozenset(int(x) for x in ln.split()) for ln in lines[2:]]
        return {"kind": kind, "n": n, "sets": sets}
    raise ValueError(f"unknown record kind {kind!r}")


def _prefix_dominates(c, row) -> bool:
    sc = sr = 0
    for a, b in zip(c, row):
        sc += a
        sr += b
        if sc < sr:
            return False
    return True


def is_winning(game: dict, coalition: frozenset) -> bool:
    """Winning test on 1-based players, from the input's representation."""
    if game["kind"] == "weighted":
        w = sum((game["weights"][p - 1] for p in coalition), Fraction(0))
        return w >= game["quota"]
    if game["kind"] == "complete":
        counts, base = [], 0
        for k in game["sizes"]:
            counts.append(sum(1 for p in coalition if base < p <= base + k))
            base += k
        return any(_prefix_dominates(counts, r) for r in game["rows"])
    return any(s <= coalition for s in game["sets"])


def has_vetoer(game: dict) -> bool:
    grand = frozenset(range(1, game["n"] + 1))
    return any(not is_winning(game, grand - {p}) for p in grand)


def check_value(game: dict, value: str, witness: list) -> str | None:
    """A finite value needs that many winning coalitions with empty
    intersection; an infinite one needs a vetoer."""
    if value == "inf":
        if witness:
            return "witness printed for an infinite value"
        return None if has_vetoer(game) else "value inf without a vetoer"
    if len(witness) != int(value):
        return f"witness has {len(witness)} coalitions, value is {value}"
    common = frozenset(range(1, game["n"] + 1))
    for c in witness:
        if not c <= frozenset(range(1, game["n"] + 1)):
            return f"witness coalition {sorted(c)} names unknown players"
        if not is_winning(game, c):
            return f"witness coalition {sorted(c)} is losing"
        common &= c
    if common:
        return f"witness coalitions share players {sorted(common)}"
    return None


def check_nakamura(game: dict, stdout: str) -> str | None:
    """Output of ``nakamura FILE --witness``."""
    lines = stdout.splitlines()
    if not lines:
        return "empty output"
    witness = [frozenset(int(x) for x in ln.split()) for ln in lines[1:]]
    return check_value(game, lines[0].strip(), witness)


def check_analyze(game: dict, stdout: str) -> str | None:
    """Output of ``analyze FILE --json``: witness, and bounds sandwiching
    the value (the cardinality upper bound is heuristic by design)."""
    report = json.loads(stdout)
    nak = report["nakamura"]
    value = nak["value"]
    bad = check_value(game, value, [frozenset(c) for c in nak["witness"]])
    if bad:
        return bad
    if report["game"]["players"] != game["n"]:
        return "player count differs from the input"
    for b in report["bounds"]:
        lo, hi = b.get("lower"), b.get("upper")
        if lo not in (None, "inf") and value != "inf" and int(lo) > int(value):
            return f"{b['method']} lower bound {lo} exceeds value {value}"
        if hi is None or b.get("upper_is_heuristic"):
            continue
        if value == "inf" and hi != "inf":
            return f"{b['method']} upper bound {hi} finite on a vetoer game"
        if value != "inf" and hi != "inf" and int(hi) < int(value):
            return f"{b['method']} upper bound {hi} below value {value}"
    return None


def count_r1(n: int) -> int:
    """Single-row complete games on n players: n one-class games, plus, for
    each composition (n_1, ..., n_t) with t >= 2, n_1 * n_t * prod(n_j - 1)
    over the middle classes."""
    total = n
    # ends[k]: sum over sequences (n_1, middles...) of total size k of
    # n_1 * prod(middle - 1)
    ends = [0] * (n + 1)
    for k in range(1, n + 1):
        ends[k] = k + sum(ends[k - m] * (m - 1) for m in range(1, k))
    for last in range(1, n):
        total += ends[n - last] * last
    return total


def check_census_totals(stdout: str) -> str | None:
    """Every row of ``census ... complete_r1`` must count ``count_r1(n)`` games."""
    lines = stdout.strip().splitlines()
    for line in lines[1:]:
        fields = [int(x) for x in line.split(",")]
        n, total = fields[0], sum(fields[1:])
        if total != count_r1(n):
            return f"census row n={n} counts {total} games, expected {count_r1(n)}"
    return None


def check_fixed(stdout: str, expected: str) -> str | None:
    """Exact comparison with the output recorded for a fixed command."""
    if stdout == expected:
        return None
    got, want = stdout.splitlines(), expected.splitlines()
    for i, (a, b) in enumerate(zip(got, want)):
        if a != b:
            return f"line {i + 1} reads {a!r}, expected {b!r}"
    return f"{len(got)} lines, expected {len(want)}"
