"""Command-line front end.

Commands: ``analyze``, ``bounds``, ``nakamura``, ``census``, ``family``,
``csp-check``, ``maxnak``, ``conjectures``.  All outputs are deterministic:
rationals print as ``p/q``, infinite values as ``inf``, and JSON field
order is fixed (``schema`` versions the layout).  Exit codes: 0 success,
2 parse/input error, 3 capacity, 4 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction

from . import bounds as bounds_mod
from . import cutting, families, gamefiles
from .census import CENSUS_CAP, COMPLETE_R1, WEIGHTED_R1, census_rows
from .exact import nakamura_complete, nakamura_exact, verify_witness
from .games import (
    CapacityError,
    CompleteGame,
    GameError,
    InvalidGameError,
    InvariantError,
    SimpleGame,
    WeightedRep,
    classify_players,
    desirability_classes,
    expand_complete,
    game_from_weighted,
    players_from_mask,
    structure_flags,
)

SCHEMA = 1

# antichains larger than this are summarized, not echoed, in reports
_ECHO_CAP = 200


def _fmt(x) -> str:
    if x is None:
        return "inf"
    if isinstance(x, Fraction):
        return gamefiles.format_rational(x)
    return str(x)


def _coalitions(masks) -> list[list[int]]:
    return [list(players_from_mask(m)) for m in masks]


def _load(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise gamefiles.ParseError(0, f"cannot read {path}: {exc}") from exc
    return gamefiles.parse_game(text)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from exc


def _as_game(obj):
    """(game, input_kind, record); a csp input's record is its weighted game."""
    if isinstance(obj, WeightedRep):
        return game_from_weighted(obj), "weighted", obj
    if isinstance(obj, SimpleGame):
        return obj, "simple", obj
    if isinstance(obj, CompleteGame):
        return expand_complete(obj), "complete", obj
    if isinstance(obj, cutting.CspInstance):
        rep = cutting.game_from_instance(obj)
        return game_from_weighted(rep), "csp", rep
    raise InvalidGameError(f"unsupported record {type(obj).__name__}")


def _input_echo(kind, record) -> dict:
    if isinstance(record, WeightedRep):
        return {
            "kind": kind,
            "quota": _fmt(record.quota),
            "weights": [_fmt(w) for w in record.weights],
            "integral_input": record.integral_input,
        }
    if isinstance(record, CompleteGame):
        return {
            "kind": kind,
            "classes": list(record.class_sizes),
            "rows": [list(r) for r in record.shift_min],
        }
    return {"kind": kind, "players": record.n}


def _nakamura_result(game, record):
    if isinstance(record, CompleteGame):
        # the closed form and the prefix program never read the antichain
        return nakamura_complete(record)
    return nakamura_exact(game)


def _bounds_list(game, record, lpo) -> list[dict]:
    out = []
    if isinstance(record, WeightedRep):
        wb = bounds_mod.weighted_bounds(record)
        out.append(
            {"method": wb.method, "lower": _fmt(wb.lower), "upper": _fmt(wb.upper)}
        )
        out.append({"method": "greedy", "upper": _fmt(bounds_mod.greedy_upper(record))})
    cb = bounds_mod.cardinality_bounds(game)
    out.append(
        {
            "method": cb.method,
            "lower": _fmt(cb.lower),
            "upper": _fmt(cb.upper),
            "upper_is_heuristic": True,
            "vetoer": cb.vetoer,
        }
    )
    out.append({"method": "lp_quota", "lower": _fmt(lpo.nak_lower_bound)})
    try:
        alpha, weights = bounds_mod.critical_rough_representation(game)
    except CapacityError:
        alpha = None
    if alpha is not None and alpha > 0:
        ab = bounds_mod.alpha_roughly_bounds(weights, alpha)
        out.append(
            {
                "method": ab.method,
                "lower": _fmt(ab.lower),
                "upper": _fmt(ab.upper),
                "alpha": _fmt(alpha),
            }
        )
    return out


def _check_report(value, witness, game, bounds_list) -> None:
    if value is not None and not verify_witness(game, witness):
        raise InvariantError("witness failed verification")
    for b in bounds_list:
        if b["method"] == "cardinality":
            continue  # printed-form upper bound is heuristic by design
        lo = b.get("lower")
        hi = b.get("upper")
        v = "inf" if value is None else value
        if lo not in (None, "inf") and v != "inf" and int(lo) > v:
            raise InvariantError(f"{b['method']} lower bound exceeds the value")
        if hi not in (None, "inf") and v == "inf":
            raise InvariantError(f"{b['method']} upper bound finite on a vetoer game")
        if hi not in (None, "inf") and v != "inf" and v > int(hi):
            raise InvariantError(f"{b['method']} upper bound below the value")


def build_analysis(obj) -> dict:
    game, kind, record = _as_game(obj)
    cls = classify_players(game)
    flags = structure_flags(game)
    classes, is_complete = desirability_classes(game)
    result = _nakamura_result(game, record)
    lpo = bounds_mod.max_quota_lp(game)
    blist = _bounds_list(game, record, lpo)
    _check_report(result.value, result.witness, game, blist)
    count = game.view.coalition_count(game.view.winning)
    report = {
        "schema": SCHEMA,
        "input": _input_echo(kind, record),
        "game": {
            "players": game.n,
            "min_winning_count": count,
        },
        "classification": {
            "vetoers": list(players_from_mask(cls.vetoers)),
            "nulls": list(players_from_mask(cls.nulls)),
            "passers": list(players_from_mask(cls.passers)),
            "dictator": cls.dictator,
        },
        "flags": {
            "proper": flags.proper,
            "strong": flags.strong,
            "constant_sum": flags.constant_sum,
            "complete": is_complete,
        },
        "desirability_classes": [list(c) for c in classes],
        "nakamura": {
            "value": _fmt(result.value),
            "witness": _coalitions(result.witness),
        },
        "bounds": blist,
        "lp": {
            "max_quota": _fmt(lpo.optimum),
            "min_max_excess": _fmt(lpo.min_max_excess),
            "price_of_stability": _fmt(lpo.price_of_stability),
            "lower_bound": _fmt(lpo.nak_lower_bound),
            "weights": [_fmt(w) for w in lpo.weights],
        },
    }
    if count <= _ECHO_CAP:
        report["game"]["min_winning"] = _coalitions(game.min_winning)
    return report


def _print_human(report: dict, out) -> None:
    print(f"players: {report['game']['players']}", file=out)
    print(
        f"minimal winning coalitions: {report['game']['min_winning_count']}",
        file=out,
    )
    c = report["classification"]
    print(
        f"vetoers: {c['vetoers'] or '-'}  nulls: {c['nulls'] or '-'}  "
        f"passers: {c['passers'] or '-'}  dictator: {c['dictator'] or '-'}",
        file=out,
    )
    f = report["flags"]
    print(
        f"proper: {f['proper']}  strong: {f['strong']}  "
        f"constant-sum: {f['constant_sum']}  complete: {f['complete']}",
        file=out,
    )
    print(f"desirability classes: {report['desirability_classes']}", file=out)
    nak = report["nakamura"]
    print(f"nakamura number: {nak['value']}", file=out)
    if nak["witness"]:
        print(f"witness: {nak['witness']}", file=out)
    print("bounds:", file=out)
    for b in report["bounds"]:
        parts = [f"  {b['method']:<14}"]
        if "lower" in b:
            parts.append(f"lower {b['lower']}")
        if "upper" in b:
            parts.append(f"upper {b['upper']}")
        if b.get("upper_is_heuristic"):
            parts.append("(upper as printed, heuristic)")
        if b.get("alpha") is not None:
            parts.append(f"alpha {b['alpha']}")
        print(" ".join(parts), file=out)
    lp = report["lp"]
    print(
        f"quota LP: q* {lp['max_quota']}  e* {lp['min_max_excess']}  "
        f"price of stability {lp['price_of_stability']}  "
        f"bound {lp['lower_bound']}",
        file=out,
    )


def cmd_analyze(args) -> int:
    report = build_analysis(_load(args.file))
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        _print_human(report, sys.stdout)
    return 0


def cmd_bounds(args) -> int:
    game, _, record = _as_game(_load(args.file))
    rows = _bounds_list(game, record, bounds_mod.max_quota_lp(game))
    print(f"{'method':<16}{'lower':>8}{'upper':>8}")
    for b in rows:
        lo = b.get("lower", "-")
        hi = b.get("upper", "-")
        note = " (heuristic upper)" if b.get("upper_is_heuristic") else ""
        print(f"{b['method']:<16}{lo:>8}{hi:>8}{note}")
    return 0


def cmd_nakamura(args) -> int:
    game, _, record = _as_game(_load(args.file))
    result = _nakamura_result(game, record)
    print(_fmt(result.value))
    if args.witness and result.witness:
        for mask in result.witness:
            print(" ".join(str(p) for p in players_from_mask(mask)))
    return 0


def _census_columns(n_max: int) -> list:
    return [None] + list(range(2, n_max + 1))


def cmd_census(args) -> int:
    cap = 10 ** 9 if args.force else CENSUS_CAP
    rows = census_rows(args.nmin, args.nmax, args.klass, cap=cap)
    cols = _census_columns(args.nmax)
    if args.json:
        payload = [
            {
                "n": r.n,
                "class": r.klass,
                "counts": {("inf" if k is None else str(k)): v
                           for k, v in r.counts.items()},
            }
            for r in rows
        ]
        text = json.dumps(payload, indent=2)
    else:
        header = "n," + ",".join("inf" if c is None else str(c) for c in cols)
        lines = [header]
        for r in rows:
            lines.append(
                f"{r.n}," + ",".join(str(r.column(c)) for c in cols)
            )
        text = "\n".join(lines)
    if args.out:
        _write(args.out, text + "\n")
    else:
        print(text)
    return 0


def _family_params(args) -> dict:
    params = {}
    for key in ("n", "t", "k", "r"):
        val = getattr(args, key)
        if val is not None:
            params[key] = val
    if args.weights:
        params["weights"] = [int(x) for x in args.weights.split(",")]
    if args.qbar:
        try:
            params["qbar"] = Fraction(args.qbar)
        except (ValueError, ZeroDivisionError):
            raise InvalidGameError(f"--qbar {args.qbar!r} is not a rational")
    return params


def cmd_family(args) -> int:
    spec = families.FamilySpec(args.tag, _family_params(args))
    built = families.construct_family(spec)
    padded = isinstance(built, families.PaddedGame)
    record = built.rep if padded else built
    text = gamefiles.write_game(record)
    value = nakamura_exact(_as_game(record)[0]).value
    print(text, end="")
    print(f"# nakamura: {_fmt(value)}")
    if padded:
        print(f"# quota ceiling: {built.ceiling}")
        print(f"# padding threshold met: {built.threshold_met}")
        print(f"# ceiling attained: {value == built.ceiling}")
    if args.out:
        _write(args.out, text)
    return 0


def _roundup_fields(roundup: dict) -> dict:
    return {
        "z_b": _fmt(roundup["z_b"]),
        "z_c": _fmt(roundup["z_c"]),
        "irup": roundup["irup"],
        "mirup": roundup["mirup"],
    }


def cmd_csp_check(args) -> int:
    obj = _load(args.file)
    if not isinstance(obj, cutting.CspInstance):
        raise InvalidGameError("csp-check expects a csp record")
    game, _, rep = _as_game(obj)
    probe = cutting.conjecture_roundup_probe(game, obj)
    wb = bounds_mod.weighted_bounds(rep)
    payload = {
        "schema": SCHEMA,
        "instance": {
            "stock": _fmt(obj.stock),
            "lengths": [_fmt(x) for x in obj.lengths],
        },
        "game": {
            "quota": _fmt(rep.quota),
            "weights": [_fmt(w) for w in rep.weights],
        },
        "nakamura": _fmt(probe["nakamura"]),
        "z_b_game_patterns": _fmt(probe["nakamura"]),
        "z_c_game_patterns": _fmt(probe["z_c"]),
        "bounds": {"lower": _fmt(wb.lower), "upper": _fmt(wb.upper)},
        "roundup_bound": _fmt(probe["bound"]),
        "inside": probe["inside"],
        "instance_roundup": _roundup_fields(probe["instance"]),
    }
    print(json.dumps(payload, indent=2))
    return 0


def cmd_maxnak(args) -> int:
    res = families.max_nakamura(args.n, args.t, args.klass, mode=args.mode)
    kind = "exact maximum" if res.exact else "construction lower bound"
    print(f"{'none' if res.value is None else res.value} ({kind})")
    if res.family:
        print(f"family: {res.family}")
    if isinstance(res.witness, (WeightedRep, SimpleGame, CompleteGame)):
        print(gamefiles.write_game(res.witness), end="")
    return 0


def cmd_conjectures(args) -> int:
    target = args.target
    span = re.fullmatch(r"(\d+)\.\.(\d+)", target)
    if span:
        if args.t is None:
            raise InvalidGameError("range mode needs --t")
        lo, hi = map(int, span.groups())
        if lo > hi:
            raise ValueError(f"range start {lo} exceeds range end {hi}")
        probes = families.conjecture_band_probe(range(lo, hi + 1), args.t)
        print(json.dumps(probes, indent=2))
        return 0
    obj = _load(target)
    instance = obj if isinstance(obj, cutting.CspInstance) else None
    probe = cutting.conjecture_roundup_probe(_as_game(obj)[0], instance)
    printable = {
        "nakamura": _fmt(probe["nakamura"]),
        "z_c": _fmt(probe["z_c"]),
        "bound": _fmt(probe["bound"]),
        "inside": probe["inside"],
    }
    if instance is not None:
        printable["instance"] = _roundup_fields(probe["instance"])
    print(json.dumps(printable, indent=2))
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nakamura",
        description="Nakamura numbers, bounds, and censuses of voting games",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for a game file")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("bounds", help="bound table for a game file")
    p.add_argument("file")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("nakamura", help="exact Nakamura number")
    p.add_argument("file")
    p.add_argument("--witness", action="store_true")
    p.set_defaults(func=cmd_nakamura)

    p = sub.add_parser("census", help="census rows as CSV or JSON")
    p.add_argument("nmin", type=int)
    p.add_argument("nmax", type=int)
    p.add_argument(
        "klass", choices=[COMPLETE_R1, WEIGHTED_R1]
    )
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.add_argument("--force", action="store_true", help="ignore the size cap")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("family", help="instantiate a cataloged construction")
    p.add_argument("tag")
    p.add_argument("--n", type=int)
    p.add_argument("--t", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--weights", help="comma-separated integers")
    p.add_argument("--qbar", help="rational relative quota")
    p.add_argument("--out")
    p.set_defaults(func=cmd_family)

    p = sub.add_parser("csp-check", help="cutting-stock report for an instance")
    p.add_argument("file")
    p.set_defaults(func=cmd_csp_check)

    p = sub.add_parser("maxnak", help="maximum Nakamura number for (n, t)")
    p.add_argument("n", type=int)
    p.add_argument("t", type=int)
    p.add_argument("klass", choices=["S", "C", "T"])
    p.add_argument(
        "--mode",
        choices=["auto", "exhaustive", "construction"],
        default="auto",
    )
    p.set_defaults(func=cmd_maxnak)

    p = sub.add_parser(
        "conjectures", help="probe reports for a file or an n range (a..b)"
    )
    p.add_argument("target")
    p.add_argument("--t", type=int)
    p.set_defaults(func=cmd_conjectures)

    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.func(args)
    except gamefiles.ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 4
    except (InvalidGameError, GameError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
