"""Spans and counters recorded around the package's public functions.

``Tracer.install`` replaces each traced function at every binding site: the
defining module and every other ``nakamura`` module that imported it by
name.  Spans (name, start, end, parent, item id) are kept in memory and
written out once the run ends.  A wrapped call that raises is counted under
``raised`` and re-raised unchanged.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter_ns

# Layers are the package's modules.  ``cutting`` has no workload.
LAYERS = ("cli", "gamefiles", "games", "exact", "cover", "bounds", "lp",
          "census", "families")

# Public helpers called once per coalition, vector, number or census game.
# A span around each would cost more than the work it measures.
UNTRACED = {
    "gamefiles": {"format_rational"},
    "games": {"mask_from_players", "players_from_mask", "sort_coalitions",
              "prefix_sums", "shift_leq", "shift_incomparable",
              "vector_is_winning", "vector_of_mask"},
    "census": {"r1_value", "count_r1", "compositions"},
}


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_rows(c, args, kwargs):
    rows = len(_arg(args, kwargs, 1, "rows"))
    c["lp.solve_lp.rows"] += rows
    c["lp.solve_lp.cols"] += len(_arg(args, kwargs, 0, "costs"))
    c["lp.solve_lp.max_rows"] = max(c["lp.solve_lp.max_rows"], rows)


# counters of the work a call was given, recorded before it runs, so that
# calls which raise are counted too
ARG_COUNTERS = {
    "lp.solve_lp": _count_rows,
    "exact.solve_covering_ilp": lambda c, a, k: c.update(
        {"exact.solve_covering_ilp.columns": len(_arg(a, k, 0, "columns"))}),
    "cover.min_cover": lambda c, a, k: c.update(
        {"cover.min_cover.sets": len(_arg(a, k, 1, "sets"))}),
}

# counters of what a successful call returned
RESULT_COUNTERS = {
    "games.game_from_weighted": lambda c, r: c.update(
        {"games.coalitions_built": len(r.min_winning)}),
    "games.expand_complete": lambda c, r: c.update(
        {"games.coalitions_built": len(r.min_winning)}),
    "games.maximal_losing": lambda c, r: c.update(
        {"games.maximal_losing.coalitions": len(r)}),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, item]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.item = None
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn):
        tracer = self
        count_args = ARG_COUNTERS.get(name)
        count_result = RESULT_COUNTERS.get(name)
        if inspect.isgeneratorfunction(fn):
            # a span would cover only the generator's creation: count yields
            def gen_wrapper(*args, **kwargs):
                for x in fn(*args, **kwargs):
                    tracer.counts[name + ".yields"] += 1
                    yield x
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if count_args is not None:
                count_args(tracer.counts, args, kwargs)
            span = [name, 0, 0, tracer.stack[-1] if tracer.stack else -1,
                    tracer.item]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span[2] = perf_counter_ns()
                tracer.stack.pop()
            if count_result is not None:
                count_result(tracer.counts, result)
            return result
        return wrapper

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if k == "nakamura" or k.startswith("nakamura.")]
        for layer in LAYERS:
            mod = sys.modules["nakamura." + layer]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or attr in UNTRACED.get(layer, ())):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for site in modules:
                    for name, value in list(vars(site).items()):
                        if value is fn:
                            self._patched.append((site, name, fn))
                            setattr(site, name, wrapper)

    def uninstall(self) -> None:
        for site, name, fn in reversed(self._patched):
            setattr(site, name, fn)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")

    def per_function(self) -> dict:
        """name -> {"calls", "total_s", "self_s"}; self time is the span's
        duration minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                         "self_s": 0.0})
        for i, (name, start, end, _, _) in enumerate(self.spans):
            rec = out[name]
            rec["calls"] += 1
            rec["total_s"] += (end - start) / 1e9
            rec["self_s"] += (end - start - child[i]) / 1e9
        return out

    def layer_metrics(self, overhead_ratio: float) -> dict:
        """Every per-layer metric of the benchmark, by name."""
        fn = self.per_function()
        c = self.counts

        def self_s(name):
            return fn[name]["self_s"] if name in fn else 0.0

        def calls(name):
            return fn[name]["calls"] if name in fn else 0

        m = {}
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum(
                r["self_s"] for k, r in fn.items() if k.split(".")[0] == layer)
        for name in ("gamefiles.parse_game", "games.game_from_weighted",
                     "games.expand_complete", "games.structure_flags",
                     "games.desirability_classes", "games.maximal_losing",
                     "exact.nakamura_exact", "exact.solve_covering_ilp",
                     "exact.nakamura_complete", "cover.min_cover",
                     "cover.greedy_cover",
                     "bounds.critical_rough_representation",
                     "bounds.max_quota_lp", "bounds.is_weighted_vectors",
                     "lp.solve_lp", "census.census", "families.max_nakamura"):
            m[name + ".self_s"] = self_s(name)
        for name in ("exact.nakamura_exact", "exact.nakamura_by_vectors",
                     "bounds.critical_rough_representation",
                     "bounds.max_quota_lp", "bounds.is_weighted_vectors",
                     "lp.solve_lp"):
            m[name + ".calls"] = calls(name)
        for name in ("games.coalitions_built", "games.maximal_losing.coalitions",
                     "exact.solve_covering_ilp.columns", "cover.min_cover.sets",
                     "lp.solve_lp.rows", "lp.solve_lp.cols",
                     "lp.solve_lp.max_rows"):
            m[name] = c[name]
        crit = "bounds.critical_rough_representation"
        m[crit + ".skipped"] = c[crit + ".raised.CapacityError"]
        m["bounds.critical_skip_ratio"] = (
            m[crit + ".skipped"] / calls(crit) if calls(crit) else 0.0)
        m["exact.solve_covering_ilp.raised"] = sum(
            v for k, v in c.items()
            if k.startswith("exact.solve_covering_ilp.raised."))
        m["census.games_enumerated"] = (c["census.enumerate_r1.yields"]
                                        + c["census.enumerate_complete.yields"])
        m["families.games_enumerated"] = c["families.all_simple_games.yields"]
        m["trace.overhead_ratio"] = overhead_ratio
        return m
