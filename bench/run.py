"""Benchmark of the ``nakamura`` command-line tool.

    python3 bench/run.py [--workload analyze|nakamura|census|all]
                         [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Each workload is a closed loop with one
client: one process, one thread, and each command starts only after the
previous one returned.  Every command is a real CLI call made in-process
through ``nakamura.cli.main(argv)`` with stdout captured; its output is
checked after the timed pass by ``bench/check.py``.

Timed metrics are given in reference seconds.  On a shared two-vCPU Xeon
guest the same code ran up to ~1.8x slower from one minute to the next, so
a fixed pure-Python reference loop (``reference_work``) is timed between
commands and, from a SIGALRM handler, every ``SAMPLE_EVERY_S`` while one
runs.  Each command's wall time, less those sampled loops, is scaled by
``REF_NOMINAL_S`` over the mean reference time measured around and during
it; set-up time is scaled the same way.  A command that does more work
reads slower; the host's speed swings cancel.  The report lines print the
raw seconds too.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of one traced pass (``bench/tracing.py``).  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--workload all`` runs the three workloads one after another,
each in its own process, and prints every metric.

An item fails when it raises, returns an exit code other than 0, exceeds
its timeout, or fails a check; it is never dropped or retried.  Corpus
files, span dumps, and per-item latencies and failures go to
``bench/_work/``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import check  # noqa: E402
import corpus  # noqa: E402

WORKLOADS = ("analyze", "nakamura", "census")
COMMANDS = {
    "analyze": ["analyze", "{file}", "--json"],
    "nakamura": ["nakamura", "{file}", "--witness"],
}
# the census workload is a fixed command list; its seed is unused
CENSUS_COMMANDS = (
    ("census 1 10 weighted_r1", ["census", "1", "10", "weighted_r1"]),
    ("census 1 16 complete_r1", ["census", "1", "16", "complete_r1"]),
    ("maxnak 6 3 T", ["maxnak", "6", "3", "T"]),
    ("maxnak 5 3 S", ["maxnak", "5", "3", "S"]),
)
ITEM_TIMEOUT_S = {"analyze": 10.0, "nakamura": 10.0, "census": 60.0}
# no item starts later than this after the process started, so every run
# ends well inside three minutes; items left over fail as "deadline"
RUN_LIMIT_S = 140.0
SETUP_PROBES = 5
# traced passes run slower; the untraced passes leave room for one
TRACE_SLOWDOWN = 1.5
# The reference loop: REF_LOOPS iterations take REF_NOMINAL_S on an unloaded
# two-vCPU Xeon guest.  REF_RUNS loops are timed in each gap between
# commands, and one every SAMPLE_EVERY_S seconds while a command runs.
REF_LOOPS = 2000
REF_NOMINAL_S = 0.001
REF_RUNS = 3
SAMPLE_EVERY_S = 0.05
END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "latency_p50_ms": "ms",
    "latency_p90_ms": "ms", "games_per_s": "1/s", "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)


class ItemTimeout(BaseException):
    """Raised by SIGALRM inside a command that ran past its timeout."""


class Sampler:
    """SIGALRM handler for the timed region of one command or set-up.

    It raises ItemTimeout once the deadline has passed.  While ``sampling``
    is on, the alarm repeats every SAMPLE_EVERY_S seconds and each alarm
    times one reference loop, so a long command's speed is sampled while it
    runs; ``spent`` is the time those loops took, to be taken off the
    command's latency.
    """

    def __init__(self, sampling: bool = True):
        self.sampling = sampling
        self.deadline = 0.0
        self.samples: list[float] = []
        self.spent = 0.0

    def start(self, timeout: float) -> None:
        self.deadline = time.perf_counter() + timeout
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self)
        if self.sampling:
            signal.setitimer(signal.ITIMER_REAL, min(SAMPLE_EVERY_S, timeout),
                             SAMPLE_EVERY_S)
        else:
            signal.setitimer(signal.ITIMER_REAL, timeout)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def __call__(self, signum, frame):
        now = time.perf_counter()
        # without sampling the only alarm is the timeout itself
        if not self.sampling or now >= self.deadline:
            raise ItemTimeout()
        self.samples.append(reference_seconds(1))
        self.spent += time.perf_counter() - now


def import_cli():
    """``nakamura.cli`` from this checkout's ``src``, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "nakamura", "cli.py")):
        sys.exit(f"error: {SRC}/nakamura not found; run from a full checkout")
    sys.path.insert(0, SRC)
    import nakamura.cli

    if not os.path.abspath(nakamura.cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"error: imported nakamura from {nakamura.cli.__file__}")
    return nakamura.cli


def build_items(workload: str, seed: int, directory: str) -> list[dict]:
    """Items in run order: ``{"id", "argv", "game"}``; writes corpus files."""
    if workload == "census":
        return [{"id": name, "argv": argv, "game": None}
                for name, argv in CENSUS_COMMANDS]
    shutil.rmtree(directory, ignore_errors=True)
    generated = corpus.generate(workload, seed)
    paths = corpus.write(generated, directory)
    return [{"id": g["id"], "game": g["text"],
             "argv": [a.format(file=p) for a in COMMANDS[workload]]}
            for g, p in zip(generated, paths)]


def reference_work(loops: int = REF_LOOPS) -> tuple:
    """Fixed pure-Python work of the kind the program does: small frozensets
    as dict keys, counts, and an occasional Fraction sum."""
    counts: dict = {}
    total = Fraction(0)
    for i in range(loops):
        key = frozenset((i % 11, i % 7, i % 5))
        counts[key] = counts.get(key, 0) + 1
        if i % 32 == 0:
            total += Fraction(i % 13 + 1, i % 17 + 2)
    return len(counts), total


def reference_seconds(runs: int = REF_RUNS) -> float:
    """Mean wall time of ``runs`` reference loops, timed one after another."""
    start = time.perf_counter()
    for _ in range(runs):
        reference_work()
    return (time.perf_counter() - start) / runs


def scale(seconds: float, refs: list) -> float:
    """``seconds`` in reference seconds, given the reference loop times
    measured around and during them."""
    return seconds * REF_NOMINAL_S / statistics.mean(refs)


def run_item(cli, argv: list, timeout: float, sampler: Sampler) -> dict:
    out, err = io.StringIO(), io.StringIO()
    kind = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            sampler.start(timeout)
            try:
                rc = cli.main(argv)
            finally:
                sampler.stop()
        if rc != 0:
            kind = f"exit_{rc}"
    except ItemTimeout:
        kind = "timeout"
    except Exception as exc:  # any uncaught error is the item's outcome
        kind = type(exc).__name__
    latency = time.perf_counter() - start - sampler.spent
    return {"latency": latency, "kind": kind, "stdout": out.getvalue(),
            "stderr": err.getvalue()[-300:], "samples": sampler.samples}


def run_pass(cli, items: list, workload: str, deadline: float,
             tracer=None) -> tuple[float, float, list]:
    """One closed-loop pass, with the reference loop timed before every item
    and after the last.  Each result also carries ``scaled``, its latency
    in reference seconds, scaled by the reference times just before, during
    and just after it.  The traced pass samples only between items, so
    that no span holds reference loops.  Returns the pass's raw and scaled
    wall time (the sums of its item latencies) and the per-item results."""
    gc.collect()
    sampler = Sampler(sampling=tracer is None)
    results, refs = [], [reference_seconds()]
    for item in items:
        left = deadline - time.monotonic()
        if left <= 0:
            results.append({"latency": 0.0, "kind": "deadline", "stdout": "",
                            "stderr": "", "samples": []})
        else:
            if tracer is not None:
                tracer.item = item["id"]
            results.append(run_item(cli, item["argv"],
                                    min(ITEM_TIMEOUT_S[workload], left),
                                    sampler))
        refs.append(reference_seconds())
    for res, before, after in zip(results, refs, refs[1:]):
        res["scaled"] = scale(res["latency"],
                              [before, after] + res.pop("samples"))
    return (sum(r["latency"] for r in results),
            sum(r["scaled"] for r in results), results)


def check_item(workload: str, item: dict, result: dict) -> str | None:
    """Failure reason for one result, or None.  Outside any timed region."""
    if result["kind"] is not None:
        return result["kind"]
    try:
        if workload == "census":
            bad = check.check_fixed(result["stdout"], EXPECTED[item["id"]])
            if bad is None and item["id"].endswith("complete_r1"):
                bad = check.check_census_totals(result["stdout"])
        else:
            game = check.parse_input(item["game"])
            verify = (check.check_analyze if workload == "analyze"
                      else check.check_nakamura)
            bad = verify(game, result["stdout"])
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        bad = f"unreadable output ({type(exc).__name__}: {exc})"
    return None if bad is None else "check: " + bad


def setup_probe(workload: str, seed: int, directory: str) -> None:
    """The set-up a user pays before the first command: import the package,
    generate and write the corpus.  Prints, as JSON, the monotonic clock
    when done and the reference loops sampled on the way."""
    sampler = Sampler()
    sampler.start(30.0)
    try:
        import_cli()
        build_items(workload, seed, directory)
    finally:
        sampler.stop()
    print(json.dumps({"done_ns": time.monotonic_ns(), "spent": sampler.spent,
                      "samples": sampler.samples}))


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Set-up seconds of one fresh interpreter, from its start to ready:
    raw, and in reference seconds, scaled by the reference loops timed
    just before, during and just after it."""
    directory = os.path.join(WORK, f"{workload}-{seed}-probe")
    before = reference_seconds()
    try:
        start = time.monotonic_ns()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             directory, "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=30, check=True)
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    raw = (probe["done_ns"] - start) / 1e9 - probe["spent"]
    return raw, scale(raw, [before, reference_seconds()] + probe["samples"])


def quantile(values: list, q: int) -> float:
    """The q-th decile (q in 1..9) of ``values``, interpolated between the
    order statistics so that it never leaves their range."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[q - 1]


def run_workload(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    cli = import_cli()
    directory = os.path.join(WORK, f"{args.workload}-{args.seed}")
    items = build_items(args.workload, args.seed, directory)
    walls, raw_walls, setup = [], [], []
    per_item, raw_item = [[] for _ in items], [[] for _ in items]
    failures = []
    wrong = attempted = 0
    traced_wall = tracer = None

    def record(results, label):
        nonlocal wrong, attempted
        for i, (item, res) in enumerate(zip(items, results)):
            attempted += 1
            if label != "traced":
                per_item[i].append(res["scaled"])
                raw_item[i].append(res["latency"])
            reason = check_item(args.workload, item, res)
            if reason is not None:
                wrong += reason.startswith("check: ")
                failures.append({"pass": label, "id": item["id"],
                                 "kind": reason, "stderr": res["stderr"]})

    start = time.monotonic()
    laps = []  # each pass with its set-up probe, reference loops and checks
    while True:
        lap = time.monotonic()
        if not args.trace:
            # one probe per pass spreads them over the run
            setup.append(setup_seconds(args.workload, args.seed))
        raw_wall, wall, results = run_pass(cli, items, args.workload,
                                           deadline)
        walls.append(wall)
        raw_walls.append(raw_wall)
        record(results, len(walls))
        laps.append(time.monotonic() - lap)
        est = statistics.median(laps) * (1 + TRACE_SLOWDOWN * args.trace)
        if time.monotonic() - start + est > args.seconds:
            break
    while (not args.trace and len(setup) < SETUP_PROBES
           and time.monotonic() < deadline):
        setup.append(setup_seconds(args.workload, args.seed))

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            _, traced_wall, results = run_pass(cli, items, args.workload,
                                               deadline, tracer)
        finally:
            tracer.uninstall()
        record(results, "traced")
        tracer.write(os.path.join(WORK, f"spans-{args.workload}-{args.seed}.jsonl"))

    os.makedirs(WORK, exist_ok=True)
    with open(os.path.join(WORK, f"items-{args.workload}-{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"pass_walls_s": walls, "raw_pass_walls_s": raw_walls,
                   "traced_wall_s": traced_wall, "setup_s": setup,
                   "latencies_s": {item["id"]: lat
                                   for item, lat in zip(items, per_item)},
                   "raw_latencies_s": {item["id"]: lat
                                       for item, lat in zip(items, raw_item)},
                   "failures": failures}, fh, indent=1)

    if args.trace:
        metrics = tracer.layer_metrics(traced_wall / statistics.median(walls) - 1)
        units = {k: _layer_unit(k) for k in metrics}
    else:
        # in reference seconds: the median pass, and percentiles over every
        # command of every untraced pass
        wall_s = statistics.median(walls)
        latencies = [x * 1000 for lat in per_item for x in lat]
        games = (EXPECTED["games_per_pass"] if args.workload == "census"
                 else len(items))
        metrics = {
            "setup_s": statistics.median(x for _, x in setup),
            "wall_s": wall_s,
            "latency_p50_ms": statistics.median(latencies),
            "latency_p90_ms": quantile(latencies, 9),
            "games_per_s": games / wall_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_ratio": 1 - len(failures) / attempted,
        }
        units = END_TO_END_UNITS

    kinds = {}
    for f in failures:
        kinds[f["kind"]] = kinds.get(f["kind"], 0) + 1
    print(f"workload {args.workload}: seed {args.seed}, {len(items)} items, "
          f"pass walls {', '.join(f'{w:.3f}' for w in walls)} s "
          f"(raw {', '.join(f'{w:.3f}' for w in raw_walls)} s)"
          + (f", traced pass {traced_wall:.3f} s" if args.trace else ""))
    if not args.trace:
        print(f"  latency percentiles over {len(latencies)} commands: "
              f"{len(items)} items x {len(walls)} passes; failed_ratio "
              f"{len(failures) / attempted:.4f}; setup probes "
              f"{', '.join(f'{x:.3f}' for _, x in setup)} s "
              f"(raw {', '.join(f'{x:.3f}' for x, _ in setup)} s)")
    for kind, n in sorted(kinds.items()):
        print(f"  failed: {n} x {kind}")
    for name, value in metrics.items():
        print(f"  {args.workload} {name} = {value:.6g} {units[name]}")
    print(json.dumps({"correct": wrong == 0, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=200)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=40)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.setup_probe)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
