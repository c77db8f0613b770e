"""Spans around calls into lexbdd's modules, recorded from outside the package.

``Tracer.install`` replaces a fixed set of public functions and methods
with wrappers, wherever a ``lexbdd`` module holds a reference to them;
``uninstall`` puts the originals back.  Each wrapper times its call and
charges the time to the innermost open span, so a span's self time is
its duration minus the time covered by its child spans.  Spans are
folded into per-name totals in memory as they close, and the totals are
read out once at the end of the run.

Some wrappers also record a count after the call (diagram sizes, part
balance).  That bookkeeping is hidden from every span: the tracer's
clock runs behind the clock it is given (``perf_counter`` by default) by
the time bookkeeping took.

``BddStore.ite``, ``mk_node``, ``node`` and ``level_of_edge`` carry no
span: the kernel recurses through them millions of times per solve, so
a span would cost more than the work it measures.  Their time shows in
the spans of their callers (``apply``, ``compile_game``, ...).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# span name -> (module, attribute path) of the traced callable
TARGETS = {
    "cli.main": ("lexbdd.cli", "main"),
    "games.parse": ("lexbdd.games", "parse_game"),
    "games.compile": ("lexbdd.games", "compile_game"),
    "games.solve": ("lexbdd.games", "solve"),
    "games.value_of": ("lexbdd.games", "SolutionTable.value_of"),
    "search.bfs": ("lexbdd.search", "layered_bfs"),
    "search.parts_of": ("lexbdd.search", "PartitionStrategy.parts_of"),
    "partition.split": ("lexbdd.partition", "split"),
    "counting.precompute": ("lexbdd.counting", "precompute_counts"),
    "ranking.unrank": ("lexbdd.ranking", "unrank"),
    "ranking.rank": ("lexbdd.ranking", "rank"),
    "bdd.apply": ("lexbdd.bdd", "BddStore.apply"),
    "bdd.and_exists": ("lexbdd.bdd", "BddStore.and_exists"),
    "bdd.rename": ("lexbdd.bdd", "BddStore.rename"),
    "bdd.size": ("lexbdd.bdd", "BddStore.size"),
    "bdd.evaluate": ("lexbdd.bdd", "BddStore.evaluate"),
}


class Tracer:
    """Per-name span totals, kept apart for set-up and for the timed calls."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.scope = "setup"
        # scope -> span name -> [calls, total seconds, self seconds]
        self.spans = {"setup": defaultdict(lambda: [0, 0.0, 0.0]),
                      "timed": defaultdict(lambda: [0, 0.0, 0.0])}
        self.counts = {"setup": defaultdict(int), "timed": defaultdict(int)}
        self.peaks: dict[str, int] = defaultdict(int)
        self._hidden = 0.0
        self._open: list[float] = []  # child time of each open span
        self._originals: list[tuple[object, str, object]] = []
        self._counting = None
        self._false = None

    # ------------------------------------------------------------------
    # bookkeeping after a call, hidden from the spans

    def _peak(self, name: str, value: int) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    def _after_compile(self, ts, *args, **kwargs) -> None:
        store = ts.store
        self._peak("games.relation_nodes",
                   sum(len(store.descendants(r.edge)) for r in ts.relations))

    def _after_solve(self, table, ts, *args, **kwargs) -> None:
        self._peak("bdd.nodes", ts.store.node_count())

    def _after_parts_of(self, parts, strategy, store, f, levels) -> None:
        counts = self.counts[self.scope]
        counts["partition.parts"] += len(parts)
        states = [self._counting(store, p, levels).root_count for p in parts]
        self._peak("partition.part_states_spread", max(states) - min(states))
        self._peak("partition.part_nodes_max",
                   max(len(store.descendants(p)) for p in parts))

    def _after_and_exists(self, result, store, *args, **kwargs) -> None:
        if result != self._false:
            self.counts[self.scope]["bdd.and_exists_nonempty"] += 1
        self._peak("bdd.and_exists_peak_nodes", len(store.descendants(result)))

    # ------------------------------------------------------------------
    # wrappers

    def _wrap(self, name: str, fn, after=None):
        tracer = self
        clock = self.clock
        open_spans = self._open

        def traced(*args, **kwargs):
            start = clock() - tracer._hidden
            open_spans.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - tracer._hidden - start
                child = open_spans.pop()
                if open_spans:
                    open_spans[-1] += duration
                totals = tracer.spans[tracer.scope][name]
                totals[0] += 1
                totals[1] += duration
                totals[2] += duration - child
            if after is not None:
                t0 = clock()
                after(result, *args, **kwargs)
                tracer._hidden += clock() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every traced callable for its wrapper in all lexbdd modules."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        after = {"games.compile": self._after_compile, "games.solve": self._after_solve,
                 "search.parts_of": self._after_parts_of,
                 "bdd.and_exists": self._after_and_exists}
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lexbdd" or n.startswith("lexbdd."))]
        self._counting = sys.modules["lexbdd.counting"].precompute_counts
        self._false = sys.modules["lexbdd.bdd"].FALSE
        for name, (module_name, path) in TARGETS.items():
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                self._swap(cls, attr, self._wrap(name, original, after.get(name)))
                continue
            original = getattr(owner, path)
            wrapper = self._wrap(name, original, after.get(name))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._swap(module, attr, wrapper)

    def _swap(self, owner, attr: str, value) -> None:
        self._originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, value = self._originals.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # read-out

    def self_seconds(self) -> float:
        """Sum of self time over every span; cannot exceed the traced wall time."""
        return sum(t[2] for scope in self.spans.values() for t in scope.values())

    def per_unit(self, units: dict[str, int]) -> dict[str, float]:
        """Span totals and counts, each scope divided by its number of units.

        ``units`` gives the number of set-ups and of traced timed calls,
        so a value is a cost per set-up plus a cost per timed call.
        """
        out: dict[str, float] = defaultdict(float)
        for scope, n in units.items():
            if n == 0:
                continue
            for name, (calls, total, own) in self.spans[scope].items():
                out[name + ".calls"] += calls / n
                out[name + ".total_s"] += total / n
                out[name + ".self_s"] += own / n
            for name, count in self.counts[scope].items():
                out[name] += count / n
        return out

    def summary_lines(self) -> list[str]:
        lines = []
        for scope, spans in self.spans.items():
            for name in sorted(spans):
                calls, total, own = spans[name]
                lines.append(f"span scope={scope} name={name} calls={calls} "
                             f"total_s={total:.6f} self_s={own:.6f}")
        return lines
