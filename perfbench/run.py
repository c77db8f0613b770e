"""The lexbdd benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere; it imports ``lexbdd`` from the ``src/`` directory
next to ``perfbench/`` and from nowhere else.  Workloads:

* ``connect4x3-none`` - ``lexbdd solve`` on connect-3 with gravity on a
  4x3 board, no partitioning (compile and the ite/apply kernel).
* ``lightsout4-fold8`` - ``lexbdd solve`` on 4x4 lights-out, at most 7
  presses, under ``fold-states-lex:8`` (partition, counting, images).
* ``tictactoe-query`` - lookups in the solved bundled tictactoe: state
  by rank (``unrank`` then ``value_of``) and rank by state
  (``member_rank_or_none``, reachable half the time).

The seed permutes the action declarations of the generated games and
drives the query stream.  Every call is checked, outside its timing,
against the answers of the explicit-state oracle in ``expected/``.

With ``--trace 0`` the last line holds the end-to-end metrics, with
``--trace 1`` the per-module metrics of a traced run; see README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import gc
import io
import json
import math
import random
import resource
import signal
import statistics
import sys
import tempfile
import time
from array import array
from pathlib import Path

import gen
import oracle
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_DIR = HERE / "_work"

SOLVE_SETUPS = 9
QUERY_SETUPS = 9
QUERY_BLOCK = 4096  # distinct queries; one pass over them is one measured section
PROBE_LOOPS = 4000
PROBE_TABLE = tuple(range(256))
PROBE_EVERY_S = 0.05  # speed probes inside a measured section
PROBE_ENDS = 3        # speed probes just before and just after a measured section
PROBE_REF_S = 0.00035  # a fixed scale: about the probe's mean where this was tuned

# workload -> (name of its expected answers, game generator, partition strategy)
SOLVE_WORKLOADS = {
    "connect4x3-none": ("connect4x3", lambda seed: gen.connect_game(4, 3, 3, seed), "none"),
    "lightsout4-fold8": ("lightsout4", lambda seed: gen.lightsout_game(4, 7, seed),
                         "fold-states-lex:8"),
}
QUERY_WORKLOAD = "tictactoe-query"
WORKLOADS = (*SOLVE_WORKLOADS, QUERY_WORKLOAD)

# per-module metric -> its key in the tracer's read-out
PER_LAYER = {
    "games.parse_s": "games.parse.total_s",
    "games.compile_s": "games.compile.total_s",
    "games.relation_nodes": "games.relation_nodes",
    "games.solve_s": "games.solve.total_s",
    "games.value_of_s": "games.value_of.total_s",
    "games.value_of_calls": "games.value_of.calls",
    "search.bfs_s": "search.bfs.total_s",
    "search.parts_of_s": "search.parts_of.total_s",
    "partition.split_s": "partition.split.self_s",
    "partition.parts": "partition.parts",
    "partition.part_states_spread": "partition.part_states_spread",
    "partition.part_nodes_max": "partition.part_nodes_max",
    "counting.precompute_s": "counting.precompute.total_s",
    "counting.precompute_calls": "counting.precompute.calls",
    "ranking.unrank_s": "ranking.unrank.total_s",
    "ranking.unrank_calls": "ranking.unrank.calls",
    "ranking.rank_s": "ranking.rank.total_s",
    "ranking.rank_calls": "ranking.rank.calls",
    "bdd.nodes": "bdd.nodes",
    "bdd.apply_s": "bdd.apply.total_s",
    "bdd.apply_calls": "bdd.apply.calls",
    "bdd.and_exists_s": "bdd.and_exists.total_s",
    "bdd.and_exists_calls": "bdd.and_exists.calls",
    "bdd.and_exists_nonempty_ratio": None,
    "bdd.and_exists_peak_nodes": "bdd.and_exists_peak_nodes",
    "bdd.rename_s": "bdd.rename.total_s",
    "bdd.size_s": "bdd.size.total_s",
    "bdd.size_calls": "bdd.size.calls",
    "bdd.evaluate_s": "bdd.evaluate.total_s",
    "cli.self_s": "cli.main.self_s",
    "trace.overhead_s": None,
}


def _probe() -> float:
    """One timing of a fixed integer loop: how fast the machine runs now.

    The loop keeps no object past one iteration and touches a few cache
    lines, so its speed does not depend on the measured program's heap (a
    dict-filling probe ran 1.7x slower inside a large solve than outside).
    The cyclic GC is off meanwhile, so that a collection due in the measured
    code is neither charged to the probe nor left out of the code's time.
    """
    table = PROBE_TABLE
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(PROBE_LOOPS):
            acc = (acc * 31 + table[i & 255]) & 1023
        return time.perf_counter() - start
    finally:
        gc.enable()


class Run:
    """Measurements of one run: set-ups, timed calls and their verdicts.

    Times are kept in reference seconds: each measured section (a set-up,
    a solve, a pass over the queries) is scaled by ``PROBE_REF_S`` over the
    mean of the speed probes taken just before it, every ``PROBE_EVERY_S``
    during it (from a SIGALRM handler, whose time ``now`` leaves out) and
    just after it.  The shared machine this was tuned on changed speed by
    up to 2x within fractions of a second and for minutes at a time, which
    moved raw medians between runs by more than any bound.  The tracer's
    clock is ``now`` too, so spans hold no probes.
    """

    def __init__(self, tracing: bool):
        self.tracer = Tracer(clock=self.now) if tracing else None
        self.probe_s: list[float] = []  # every probe of the run
        self.hidden_s = 0.0             # time spent in probes inside sections
        self._section_probes: list[float] = []
        self.scales: list[float] = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        self.setup_s: list[float] = []
        self.solve_s: list[float] = []
        # untraced latencies: one per solve, or per query input the median of its repeats
        self.latency_us: list[float] = []
        self.attempted = 0       # timed calls, traced or not
        self.untraced_calls = 0
        self.untraced_s = 0.0    # time spent inside the untraced calls
        self.traced_calls = 0
        self.overhead_s = 0.0    # median traced call minus median untraced call
        self.all_samples_p99_us = 0.0  # tail over every untraced call, for information
        self.peak_rss_mb = 0.0
        self.failures: list[str] = []
        self.failed_calls = 0
        self.max_image_nodes = 0

    def now(self) -> float:
        """``perf_counter`` without the time spent in probes inside sections."""
        return time.perf_counter() - self.hidden_s

    def _probe_ends(self) -> None:
        for _ in range(PROBE_ENDS):
            self._section_probes.append(_probe())

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        self._section_probes.append(_probe())
        self.hidden_s += time.perf_counter() - start

    def begin(self) -> None:
        """Start a measured section."""
        self._section_probes = []
        self._probe_ends()
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def end(self) -> float:
        """End the section; return its scale to reference seconds."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._probe_ends()
        self.probe_s += self._section_probes
        self.scales.append(PROBE_REF_S / statistics.mean(self._section_probes))
        return self.scales[-1]

    def check(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)

    def call_failed(self, what: str) -> None:
        self.failed_calls += 1
        self.check(False, what)

    @contextlib.contextmanager
    def traced(self, on: bool, scope: str):
        """Trace the enclosed calls when ``on``; charge spans to ``scope``."""
        if not on:
            yield
            return
        self.tracer.scope = scope
        self.tracer.install()
        try:
            yield
        finally:
            self.tracer.uninstall()


def _import_lexbdd() -> None:
    """Import the package anew from this checkout's ``src/``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "lexbdd" or n.startswith("lexbdd.")]:
        del sys.modules[name]
    import lexbdd
    import lexbdd.cli  # noqa: F401  (the solve entry point)
    if not Path(lexbdd.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: lexbdd was imported from {lexbdd.__file__}, not {SRC}")


def _window(seconds: float):
    """Yield call indexes until ``seconds`` have passed; always at least two calls."""
    end = time.perf_counter() + seconds
    i = 0
    while i < 2 or time.perf_counter() < end:
        yield i
        i += 1


def _run_solves(run: Run, workload: str, seed: int, seconds: float, tracing: bool) -> None:
    game, make, partition = SOLVE_WORKLOADS[workload]
    expected = oracle.load_expected(game)
    want_value = "/".join(str(v) for v in expected["initial_value"])
    WORK_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK_DIR) as tmp:
        game_path = Path(tmp) / f"{game}.game"
        csv_path = Path(tmp) / "report.csv"
        for _ in range(SOLVE_SETUPS):
            run.begin()
            start = run.now()
            _import_lexbdd()
            game_path.write_text(make(seed), encoding="utf-8")
            elapsed = run.now() - start
            run.setup_s.append(elapsed * run.end())

        import lexbdd.cli

        argv = ["solve", str(game_path), "--partition", partition, "--csv", str(csv_path)]
        latency_s: dict[bool, list[float]] = {False: [], True: []}
        for i in _window(seconds):
            # in a traced run every other call is traced, to measure the overhead
            traced = tracing and i % 2 == 1
            out = io.StringIO()
            gc.collect()
            run.begin()
            with run.traced(traced, "timed"), contextlib.redirect_stdout(out):
                start = run.now()
                try:
                    code = lexbdd.cli.main(argv)
                except Exception as exc:  # a crash fails this call, not the benchmark
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = run.now() - start
            latency_s[traced].append(elapsed * run.end())
            _check_solve(run, code, out.getvalue(), csv_path, expected, want_value)
            csv_path.unlink(missing_ok=True)
    run.peak_rss_mb = _peak_rss_mb()
    run.solve_s = latency_s[False]
    run.latency_us = [t * 1e6 for t in latency_s[False]]
    run.untraced_calls, run.untraced_s = len(latency_s[False]), sum(latency_s[False])
    run.all_samples_p99_us = _tail(run.latency_us)
    run.traced_calls = len(latency_s[True])
    run.attempted = run.untraced_calls + run.traced_calls
    if tracing:
        run.overhead_s = statistics.median(latency_s[True]) - statistics.median(latency_s[False])


def _check_solve(run: Run, code: int, stdout: str, csv_path: Path, expected: dict,
                 want_value: str) -> None:
    if code != 0 or not csv_path.exists():
        run.call_failed(f"solve exited with {code}")
        return
    with open(csv_path, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    forward = [int(r["layer_states"]) for r in rows if r["direction"] == "forward"]
    backward = sorted(int(r["layer"]) for r in rows if r["direction"] == "backward")
    run.max_image_nodes = max(run.max_image_nodes,
                              max(int(r["max_image_nodes"]) for r in rows))
    if forward != expected["layer_states"]:
        run.call_failed(f"forward layer states {forward}")
    elif backward != list(range(len(forward))):
        run.call_failed(f"backward layers {backward}")
    elif f"initial_value={want_value}" not in stdout.split():
        run.call_failed(f"solve printed {stdout!r}")


def _solve_tictactoe(run: Run, tracing: bool, expected: dict):
    """One set-up: import, solve the bundled tictactoe and hash its reachable states."""
    run.begin()
    start = run.now()
    _import_lexbdd()
    import lexbdd

    with run.traced(tracing, "setup"):
        imported = run.now()
        spec = lexbdd.load_game(lexbdd.bundled_game_path("tictactoe"))
        ts = lexbdd.compile_game(spec)
        layers = lexbdd.layered_bfs(ts, lexbdd.initial_edge(ts, spec))
        solution = lexbdd.solve(ts, spec, layers)
        solved = run.now()
        table = lexbdd.precompute_counts(ts.store, layers.reached, ts.current)
        done = run.now()
    scale = run.end()
    run.solve_s.append((solved - imported) * scale)
    run.setup_s.append((done - start) * scale)
    run.check(layers.complete and solution.complete, "set-up solve incomplete")
    run.check([s.states for s in layers.stats] == expected["layer_states"],
              "set-up layer states")
    run.check(list(solution.initial_value()) == expected["initial_value"],
              "set-up initial value")
    run.check(table.root_count == len(expected["states"]), "count table size")
    run.max_image_nodes = max(s.max_image_nodes for s in layers.stats + solution.stats)
    return solution, table


def _make_queries(rng: random.Random, expected: dict, width: int) -> list[tuple]:
    """QUERY_BLOCK seeded queries: (rank, target bits, state of rank, its value, target's rank)."""
    states = expected["states"]
    state_set = set(states)
    values = [tuple(expected["classes"][int(c)]) for c in expected["values"]]

    def to_bits(x: int) -> tuple[int, ...]:
        return tuple(x >> (width - 1 - i) & 1 for i in range(width))

    queries = []
    for _ in range(QUERY_BLOCK):
        r = rng.randrange(len(states))
        if rng.random() < 0.5:
            want_rank = rng.randrange(len(states))
            target = states[want_rank]
        else:
            want_rank = None
            target = rng.getrandbits(width)
            while target in state_set:
                target = rng.getrandbits(width)
        queries.append((r, to_bits(target), to_bits(states[r]), values[r], want_rank))
    return queries


def _run_queries(run: Run, seed: int, seconds: float, tracing: bool) -> None:
    """QUERY_SETUPS rounds, each a set-up and then passes over the queries for its share
    of the window, so that set-ups are sampled across the whole run."""
    expected = oracle.load_expected("tictactoe")
    rng = random.Random(seed)
    queries: list[tuple] = []
    order: list[int] = []
    # traced? -> per query, its latencies in seconds
    samples: dict[bool, list[array]] = {}
    for _ in range(QUERY_SETUPS):
        solution = table = store = None  # drop the previous set-up first, so peak RSS holds one
        gc.collect()
        solution, table = _solve_tictactoe(run, tracing, expected)
        if not queries:
            queries = _make_queries(rng, expected, table.n)
            order = list(range(len(queries)))
            samples = {traced: [array("d") for _ in queries] for traced in (False, True)}
        import lexbdd

        store = table.store
        nodes_before = store.node_count()
        gc.collect()
        for block in _window(seconds / QUERY_SETUPS):
            traced = tracing and block % 2 == 1
            rng.shuffle(order)
            latencies = []
            run.begin()
            with run.traced(traced, "timed"):
                for q in order:
                    r, target_bits, want_bits, want_value, want_rank = queries[q]
                    start = run.now()
                    try:
                        bits = lexbdd.unrank(table, r)
                        value = solution.value_of(bits)
                        got_rank = lexbdd.member_rank_or_none(table, target_bits)
                    except Exception as exc:  # a crash fails this query, not the benchmark
                        bits = value = got_rank = exc
                    latencies.append(run.now() - start)
                    if bits != want_bits or value != want_value or got_rank != want_rank:
                        run.call_failed(f"query rank={r} target={target_bits}: "
                                        f"{bits} {value} {got_rank}")
            scale = run.end()
            for q, t in zip(order, latencies):
                samples[traced][q].append(t * scale)
        run.check(store.node_count() == nodes_before, "queries created nodes")
    run.peak_rss_mb = _peak_rss_mb()

    # A query's latency is the median of its repeats: the tail then shows the
    # slow queries, not the moments the shared machine paused the process.
    medians = {traced: [statistics.median(s) for s in per_query if s]
               for traced, per_query in samples.items()}
    run.latency_us = [t * 1e6 for t in medians[False]]
    untraced = [t for s in samples[False] for t in s]
    run.untraced_calls, run.untraced_s = len(untraced), sum(untraced)
    run.all_samples_p99_us = _tail(untraced) * 1e6
    run.traced_calls = sum(len(s) for s in samples[True])
    run.attempted = run.untraced_calls + run.traced_calls
    if tracing:
        run.overhead_s = statistics.median(medians[True]) - statistics.median(medians[False])


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted(SRC.rglob("*.py")))


def _tail(values: list[float]) -> float:
    """The 99th percentile, or the highest whole percentile that leaves ten samples above it.

    With 20 samples or fewer (a solve workload's calls) that is the median.
    """
    k = max(50, min(99, math.floor(100 * (1 - 10 / len(values)))))
    if k == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[k - 1]


def end_to_end(run: Run) -> dict[str, float]:
    return {
        "setup_s": statistics.median(run.setup_s),
        "solve_s": statistics.median(run.solve_s),
        "peak_rss_mb": run.peak_rss_mb,
        "max_image_nodes": run.max_image_nodes,
        "query_us_p50": statistics.median(run.latency_us),
        "query_us_p99": _tail(run.latency_us),
        "queries_per_s": run.untraced_calls / run.untraced_s,
    }


def per_layer(run: Run, setups: int) -> dict[str, float]:
    tracer = run.tracer
    values = tracer.per_unit({"setup": setups, "timed": run.traced_calls})
    values.update(tracer.peaks)
    calls = values.get("bdd.and_exists.calls", 0.0)
    out = {}
    for name, key in PER_LAYER.items():
        if name == "bdd.and_exists_nonempty_ratio":
            out[name] = values.get("bdd.and_exists_nonempty", 0.0) / calls if calls else 0.0
        elif name == "trace.overhead_s":
            out[name] = run.overhead_s
        else:
            out[name] = values.get(key, 0.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lexbdd" / "__init__.py").is_file():
        raise SystemExit(f"error: no lexbdd sources under {SRC}")
    sys.path.insert(0, str(SRC))
    tracing = args.trace == 1
    run = Run(tracing)
    wall_start = time.perf_counter()
    if args.workload == QUERY_WORKLOAD:
        _run_queries(run, args.seed, args.seconds, tracing)
        setups = QUERY_SETUPS
    else:
        _run_solves(run, args.workload, args.seed, args.seconds, tracing)
        setups = SOLVE_SETUPS
    wall_s = time.perf_counter() - wall_start

    if tracing:
        self_s = run.tracer.self_seconds()
        run.check(self_s <= wall_s, f"span self time {self_s:.3f}s exceeds wall {wall_s:.3f}s")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    e2e = end_to_end(run)
    for failure in run.failures[:10]:
        print(f"check failed: {failure}")
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"calls={run.attempted} src_lines={src_lines()} "
          f"error_rate={run.failed_calls / run.attempted:.6f}")
    print(f"speed probe: median {statistics.median(run.probe_s) * 1e3:.3f} ms against "
          f"{PROBE_REF_S * 1e3:g} ms; times below are scaled by {min(run.scales):.3f}.."
          f"{max(run.scales):.3f} (median {statistics.median(run.scales):.3f})")
    print(f"latency: {len(run.latency_us)} samples (untraced solves, or query inputs as the "
          f"median of their repeats) from {run.untraced_calls} untraced calls; "
          f"p99 over every untraced call {run.all_samples_p99_us:.6g} us")
    print(", ".join(f"{k}={v:.6g} {units[k]}" for k, v in e2e.items()))

    if tracing:
        for line in run.tracer.summary_lines():
            print(line)
        print(f"trace self_s_sum={self_s:.6f} wall_s={wall_s:.6f}")
        metrics = per_layer(run, setups)
    else:
        metrics = e2e
    metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed_calls, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
