"""Seeded corpus of game files for the ``analyze`` and ``nakamura`` workloads.

Every item is drawn from stated ranges of input properties (players,
distinct weights, classes, rows, and the antichain sizes those imply).  The
ranges live in ``PARTS``; ``bench/record.json`` repeats them together with
the slow regions they leave out.  Items are never filtered by measured time
or by outcome: a draw is rejected only when a property computed from the
input itself falls outside its part's range.

The generator does not import the package under test.  A seed therefore
yields byte-identical files at every commit, so two commits are always
measured on the same inputs.
"""

from __future__ import annotations

import json
import os
import random
from itertools import product
from math import comb, log

# Each workload is a list of parts.  ``kind`` names the drawing function,
# the other keys are the ranges it draws from.  ``strata`` is
# [property, low, high, bins]: items are spread evenly over log(property)
# bins, so a seed cannot load a run with many large items.  "coalitions" is
# the size of the minimal winning antichain; "rows" the row count of the
# player-level critical LP (minimal winning plus maximal losing coalitions).
#
# The item counts put the median and the 90th percentile of per-command
# latency inside groups of items of like cost.  In ``analyze`` the median
# falls among the small simple and complete games, where CLI and parser
# overhead dominate, and the 90th percentile among the wide games; in
# ``nakamura`` they fall among the 8,000-11,000 and the 30,000-36,000
# coalition wide games.  A percentile taken where costs change steeply from
# one item to the next would move with the seed.
PARTS = {
    "analyze": [
        {"part": "simple", "kind": "simple", "items": 34, "players": [4, 6]},
        {"part": "complete", "kind": "complete", "items": 38,
         "players": [4, 10], "classes": [2, 3], "class_rows": [1, 3],
         "strata": ["coalitions", 2, 100, 2]},
        # time in critical_rough_representation and max_quota_lp
        {"part": "dense", "kind": "dense", "items": 20, "players": [6, 10],
         "strata": ["rows", 8, 45, 5]},
        # critical LP skipped by its 3,000-row cap; time in structure_flags
        {"part": "wide", "kind": "wide", "items": 24, "players": [16, 22],
         "distinct_weights": [2, 4], "rows": [3001, 10 ** 9],
         "strata": ["coalitions", 2001, 2400, 2]},
    ],
    "nakamura": [
        {"part": "complete", "kind": "complete", "items": 24,
         "players": [8, 24], "classes": [2, 3], "class_rows": [1, 3],
         "strata": ["coalitions", 20, 500, 2]},
        # at most 2,000 coalitions: the cover branch and bound
        {"part": "dense_cover", "kind": "dense", "items": 12,
         "players": [11, 12], "strata": ["coalitions", 40, 100, 3]},
        # above 2,000 coalitions: the vectors path
        {"part": "dense_vectors", "kind": "dense", "items": 8,
         "players": [16, 17], "strata": ["coalitions", 2001, 6000, 2]},
        {"part": "wide", "kind": "wide", "items": 36, "players": [18, 24],
         "distinct_weights": [2, 4],
         "strata": ["coalitions", 8000, 11000, 2]},
        {"part": "complete_large", "kind": "complete", "items": 4,
         "players": [16, 24], "classes": [2, 3], "class_rows": [1, 3],
         "strata": ["coalitions", 15000, 20000, 1]},
        {"part": "wide_large", "kind": "wide", "items": 20,
         "players": [18, 24], "distinct_weights": [2, 4],
         "strata": ["coalitions", 30000, 36000, 2]},
    ],
}


# ---------------------------------------------------------------------------
# input properties, computed from the input alone


def weighted_counts(quota: int, weights) -> tuple[int, int]:
    """(minimal winning, maximal losing) coalition counts of ``[quota; weights]``.

    Positive integer weights.  A winning coalition is minimal iff dropping
    its lightest member loses; a losing coalition is maximal iff adding the
    lightest absent player wins.  Both are counted by a subset-sum table
    over the players heavier than the pivot player.
    """
    order = sorted(weights, reverse=True)
    total = sum(order)
    table = [1] + [0] * total  # subset sums of the players seen so far
    heavier = 0
    winning = losing = 0
    for w in order:
        lighter = total - heavier - w
        # pivot is the lightest member: the heavier part lies in [q-w, q-1]
        winning += sum(table[max(0, quota - w):quota])
        # pivot is the lightest absent player: everyone lighter is present
        lo, hi = quota - w - lighter, quota - 1 - lighter
        if hi >= 0:
            losing += sum(table[max(0, lo):hi + 1])
        table = table[:w] + [a + b for a, b in zip(table[w:], table)]
        heavier += w
    return winning, losing


def _prefix(v):
    out, s = [], 0
    for x in v:
        s += x
        out.append(s)
    return out


def _dominates(c, row) -> bool:
    """True when count vector ``c`` shift-dominates ``row`` (prefix sums)."""
    return all(a >= b for a, b in zip(_prefix(c), _prefix(row)))


def complete_coalitions(sizes, rows) -> int:
    """Minimal winning coalition count of a complete game: a count vector
    is minimal winning when it shift-dominates a row and no vector one
    player smaller does."""
    row_prefix = [_prefix(r) for r in rows]

    def wins(pc):
        return any(all(a >= b for a, b in zip(pc, rp)) for rp in row_prefix)

    total = 0
    for c in product(*(range(n + 1) for n in sizes)):
        pc = _prefix(c)
        if not wins(pc):
            continue
        if any(c[j] and wins(pc[:j] + [x - 1 for x in pc[j:]])
               for j in range(len(c))):
            continue
        k = 1
        for n, x in zip(sizes, c):
            k *= comb(n, x)
        total += k
    return total


def complete_rows_valid(sizes, rows) -> bool:
    """Rows pairwise shift-incomparable, and neighbouring classes separated.

    The drawn rows are in range and sorted without repeats, which covers
    the other two conditions on a complete game's parameters.
    """
    t = len(sizes)
    for i, a in enumerate(rows):
        for b in rows[i + 1:]:
            if _dominates(a, b) or _dominates(b, a):
                return False
    if t == 1:
        return rows[0][0] > 0
    return all(
        any(r[j] > 0 and r[j + 1] < sizes[j + 1] for r in rows)
        for j in range(t - 1)
    )


# ---------------------------------------------------------------------------
# drawing items


def _composition(rng, n: int, t: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, n), t - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [n])]


def _proper_quota(rng, total: int) -> int:
    return rng.randint(total // 2 + 1, (3 * total) // 4)


def _weighted_text(quota, weights) -> str:
    return "weighted\nquota: %d\nweights: %s\n" % (
        quota, " ".join(str(w) for w in weights))


def _draw_dense(rng, spec):
    """Distinct random weights."""
    n = rng.randint(*spec["players"])
    weights = rng.sample(range(1, 4 * n), n)
    quota = _proper_quota(rng, sum(weights))
    mw, ml = weighted_counts(quota, weights)
    props = {"players": n, "distinct_weights": n, "coalitions": mw,
             "rows": mw + ml}
    return _weighted_text(quota, weights), props


def _draw_wide(rng, spec):
    lo, hi = spec["players"]
    n = rng.randint(lo, hi)
    t = rng.randint(*spec["distinct_weights"])
    values = sorted(rng.sample(range(1, 10), t), reverse=True)
    sizes = _composition(rng, n, t)
    weights = [v for v, k in zip(values, sizes) for _ in range(k)]
    rng.shuffle(weights)
    quota = _proper_quota(rng, sum(weights))
    mw, ml = weighted_counts(quota, weights)
    props = {"players": n, "distinct_weights": t, "coalitions": mw,
             "rows": mw + ml}
    return _weighted_text(quota, weights), props


def _draw_complete(rng, spec):
    lo, hi = spec["players"]
    n = rng.randint(lo, hi)
    t = rng.randint(*spec["classes"])
    sizes = _composition(rng, n, t)
    r = rng.randint(*spec["class_rows"])
    rows = set()
    for _ in range(r):
        row = [rng.randint(1, sizes[0])]
        row += [rng.randint(0, k) for k in sizes[1:]]
        rows.add(tuple(row))
    rows = sorted(rows, reverse=True)
    if not complete_rows_valid(sizes, rows):
        return None
    text = "complete\nclasses: %s\n" % " ".join(map(str, sizes))
    text += "".join("row: %s\n" % " ".join(map(str, row)) for row in rows)
    props = {"players": n, "classes": t, "class_rows": len(rows),
             "coalitions": complete_coalitions(sizes, rows)}
    return text, props


def _draw_simple(rng, spec):
    n = rng.randint(*spec["players"])
    drawn = set()
    for _ in range(rng.randint(2, 2 * n)):
        size = rng.randint(1, n - 1)
        drawn.add(frozenset(rng.sample(range(1, n + 1), size)))
    # keep the inclusion-minimal sets: an antichain
    sets = sorted(drawn, key=lambda s: (len(s), sorted(s)))
    antichain = [s for s in sets if not any(o < s for o in sets)]
    text = "simple\nplayers: %d\n" % n
    text += "".join(" ".join(map(str, sorted(s))) + "\n" for s in antichain)
    return text, {"players": n, "coalitions": len(antichain)}


DRAWS = {"dense": _draw_dense, "wide": _draw_wide,
         "complete": _draw_complete, "simple": _draw_simple}

# draws allowed per part before its ranges are declared unfillable
_MAX_DRAWS = 200000


def _draw_part(rng, spec) -> list:
    """(text, props) pairs of one part, smallest stratum first."""
    draw = DRAWS[spec["kind"]]
    if "strata" not in spec:
        return [draw(rng, spec) for _ in range(spec["items"])]
    key, lo, hi, bins = spec["strata"]
    per_bin = spec["items"] // bins
    span = log(hi + 1) - log(lo)
    slots: list[list] = [[] for _ in range(bins)]
    for _ in range(_MAX_DRAWS):
        if all(len(s) == per_bin for s in slots):
            return [got for s in slots for got in s]
        got = draw(rng, spec)
        if got is None:
            continue
        props = got[1]
        rows = spec.get("rows")
        if rows and not rows[0] <= props["rows"] <= rows[1]:
            continue
        if not lo <= props[key] <= hi:
            continue
        i = int((log(props[key]) - log(lo)) / span * bins)
        if len(slots[i]) < per_bin:
            slots[i].append(got)
    raise RuntimeError(f"part {spec['part']!r} cannot be filled")


def generate(workload: str, seed: int) -> list[dict]:
    """Items of one workload: ``{"id", "part", "text", "props"}``, in run order."""
    items = []
    for spec in PARTS[workload]:
        part = spec["part"]
        rng = random.Random(f"{workload}/{part}/{seed}")
        for k, (text, props) in enumerate(_draw_part(rng, spec)):
            items.append({"id": f"{part}-{k:03d}", "part": part, "text": text,
                          "props": props})
    return items


def write(items: list[dict], directory: str) -> list[str]:
    """Write one ``<id>.game`` file per item plus ``manifest.json``."""
    os.makedirs(directory, exist_ok=True)
    paths = []
    for item in items:
        path = os.path.join(directory, item["id"] + ".game")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(item["text"])
        paths.append(path)
    manifest = [{"id": i["id"], "part": i["part"], "props": i["props"]}
                for i in items]
    with open(os.path.join(directory, "manifest.json"), "w",
              encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return paths
