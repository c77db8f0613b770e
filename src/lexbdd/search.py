"""Image computation over disjunctive transition relations and layered BFS.

The transition relation is kept as one BDD per action and never built
monolithically.  States without successors are kept out of the
relations as a separate sink set, masked at image time.  An image
distributes over both the action relations and an optional partition
of the source set, computes one relational product per (action, part)
pair and ORs each subimage into the image as it is made.  Forward
subimages are merged over the next-state variables, where the
relational product leaves them, and the merged image is renamed back
to the current variables once.  The breadth-first search stores each
depth layer as its own BDD and subtracts everything seen before, so
layers are disjoint and layer index equals BFS depth.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from .bdd import FALSE, BddStore
from .counting import CountTable, precompute_counts
from .partition import disj_var, fold_states_lex, states_lex_bounded

STRATEGY_KINDS = ("none", "fold-states-lex", "states-lex", "disj-var")


@dataclass(frozen=True)
class Relation:
    """One action's transition relation over current and next variables."""
    name: str
    edge: int
    player: int | None = None


@dataclass(frozen=True)
class TransitionSystem:
    """Action relations over current/next variables, plus a sink set.

    ``sink`` holds the current states that have no successors whatever
    the relations say; ``image`` and ``preimage`` mask it out.
    """
    store: BddStore
    current: tuple[int, ...]
    nxt: tuple[int, ...]
    relations: tuple[Relation, ...]
    sink: int = FALSE

    def __post_init__(self):
        if len(self.current) != len(self.nxt):
            raise ValueError("current and next variable lists differ in length")
        n = self.store.n
        for name, levels in (("current", self.current), ("next", self.nxt)):
            if len(set(levels)) != len(levels):
                raise ValueError(f"{name} variable list repeats a level: {list(levels)}")
            outside = [lvl for lvl in levels if not 0 <= lvl < n]
            if outside:
                raise ValueError(f"{name} variable list names levels {outside} "
                                 f"outside the store's 0..{n - 1}")
        shared = set(self.current) & set(self.nxt)
        if shared:
            raise ValueError(f"levels {sorted(shared)} are both current and next")
        allowed = set(self.current) | set(self.nxt)
        for rel in self.relations:
            support = self.store.support_levels(rel.edge)
            if not support <= allowed:
                raise ValueError(
                    f"relation {rel.name} mentions non-state levels "
                    f"{sorted(support - allowed)}")
        stray = self.store.support_levels(self.sink) - set(self.current)
        if stray:
            raise ValueError(f"sink set mentions non-current levels {sorted(stray)}")

    @property
    def to_next(self) -> dict[int, int]:
        return dict(zip(self.current, self.nxt))

    @property
    def to_current(self) -> dict[int, int]:
        return dict(zip(self.nxt, self.current))


@dataclass(frozen=True)
class PartitionStrategy:
    """How to partition a state set before computing its image."""
    kind: str = "none"
    param: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}, expected {STRATEGY_KINDS}")
        if self.kind in ("fold-states-lex", "states-lex"):
            if self.param is None or self.param < 1:
                raise ValueError(f"strategy {self.kind} needs a parameter >= 1")
        elif self.param is not None:
            raise ValueError(f"strategy {self.kind} takes no parameter")

    @classmethod
    def parse(cls, text: str) -> "PartitionStrategy":
        kind, sep, param = text.partition(":")
        if not sep:
            return cls(kind)
        return cls(kind, int(param))

    def __str__(self) -> str:
        if self.param is None:
            return self.kind
        return f"{self.kind}:{self.param}"

    def parts_of(self, store: BddStore, f: int | CountTable,
                 levels: tuple[int, ...]) -> list[int]:
        """Partition ``f`` (a state set over ``levels``) into disjoint parts.

        ``f`` may also be a :class:`CountTable` of the state set over
        ``levels``; the lex strategies then use its counts instead of
        counting the set again.
        """
        table = None
        if isinstance(f, CountTable):
            table = f
            f = table.root
        if self.kind == "none" or f == FALSE:
            return [f]
        if self.kind == "disj-var":
            pair = disj_var(store, f, levels)
            return [pair.left, pair.right]
        if table is None:
            table = precompute_counts(store, f, levels)
        if self.kind == "fold-states-lex":
            return list(fold_states_lex(table, self.param).parts)
        return list(states_lex_bounded(table, self.param).parts)


NO_PARTITION = PartitionStrategy("none")


@dataclass(frozen=True)
class SearchLimits:
    """Wall-clock and store-size budget for one exploration.

    ``None`` means unbounded.  A budget must be a number ``>= 0``; a
    NaN budget would never bind, so it is rejected too.
    """
    time_s: float | None = None
    max_nodes: int | None = None

    def __post_init__(self):
        if self.time_s is not None and not self.time_s >= 0:
            raise ValueError(f"time budget must be >= 0 seconds, got {self.time_s}")
        if self.max_nodes is not None and not self.max_nodes >= 0:
            raise ValueError(f"node budget must be >= 0, got {self.max_nodes}")

    def deadline(self) -> float | None:
        if self.time_s is None:
            return None
        return time.perf_counter() + self.time_s

    def nodes_exceeded(self, store: BddStore) -> bool:
        return self.max_nodes is not None and store.node_count() > self.max_nodes


@dataclass
class LayerStat:
    """Per-layer measurements of one search direction.

    ``max_image_nodes`` is the largest diagram, in nodes, among the
    layer's subimages and the images they merge into; it does not
    depend on the order of the actions or of the merge.
    """
    direction: str
    index: int
    time_ms: float
    total_nodes: int
    max_image_nodes: int
    states: int


@dataclass
class LayerSequence:
    """Breadth-first layers plus their metrics; ``reached`` is the union."""
    layers: list[int]
    stats: list[LayerStat]
    reached: int
    complete: bool


def _subimages(ts: TransitionSystem, parts: list[int], forward: bool,
               relations: tuple[Relation, ...] | None = None) -> tuple[int, int]:
    """Per-action, per-part relational products ORed into one set as they are made.

    Forward masks the sink set out of each part and quantifies the
    current variables; the pieces, over the next variables, are merged
    there and the merged image is renamed back to the current variables
    once.  Backward renames the sources first, quantifies the next
    variables and masks the sink set out of each result.  Returns the
    image and its peak: the largest diagram among the subimages and the
    merged image, each sized once.  The peak does not depend on the
    order of the parts or the actions.  In the interleaved order of
    ``compile_game`` the forward rename moves every level one position
    up and keeps their order, so a diagram has as many nodes over the
    next variables as over the current ones.
    """
    store = ts.store
    if relations is None:
        relations = ts.relations
    quantified = set(ts.current) if forward else set(ts.nxt)
    to_next = ts.to_next
    live = -ts.sink
    merged, peak = FALSE, 0
    for part in parts:
        source = store.apply("and", part, live) if forward else store.rename(part, to_next)
        if source == FALSE:
            continue
        for rel in relations:
            sub = store.and_exists(quantified, rel.edge, source)
            if not forward:
                sub = store.apply("and", sub, live)
            peak = max(peak, store.size(sub))
            merged = store.apply("or", merged, sub)
    peak = max(peak, store.size(merged))
    if forward:
        merged = store.rename(merged, ts.to_current)
    return merged, peak


def image(ts: TransitionSystem, s: int,
          strategy: PartitionStrategy = NO_PARTITION) -> int:
    """One-step successors of the state set ``s`` (over current variables).

    ``s`` is partitioned by ``strategy`` and the subimages of its parts
    are merged; the result does not depend on the strategy.
    """
    result, _ = _subimages(ts, strategy.parts_of(ts.store, s, ts.current), forward=True)
    return result


def preimage(ts: TransitionSystem, s: int,
             strategy: PartitionStrategy = NO_PARTITION) -> int:
    """One-step predecessors of the state set ``s`` (over current variables).

    ``s`` is partitioned by ``strategy`` as in :func:`image`.
    """
    result, _ = _subimages(ts, strategy.parts_of(ts.store, s, ts.current), forward=False)
    return result


def layered_bfs(ts: TransitionSystem, init: int,
                strategy: PartitionStrategy = NO_PARTITION,
                limits: SearchLimits | None = None) -> LayerSequence:
    """Explore forward from ``init``, one disjoint BDD per depth layer.

    Each new layer is the image of the previous one minus every state
    seen so far; the search stops at the fix point or when a budget runs
    out, in which case the sequence is flagged incomplete.
    """
    if init == FALSE:
        raise ValueError("initial state set is empty")
    store = ts.store
    limits = limits or SearchLimits()
    deadline = limits.deadline()

    # each layer is counted once, for its LayerStat and as the next source
    table = precompute_counts(store, init, ts.current)
    layers = [init]
    stats = [LayerStat("forward", 0, 0.0, store.node_count(), 0, table.root_count)]
    reached = init
    while True:
        if deadline is not None and time.perf_counter() > deadline:
            return LayerSequence(layers, stats, reached, complete=False)
        if limits.nodes_exceeded(store):
            return LayerSequence(layers, stats, reached, complete=False)
        t0 = time.perf_counter()
        parts = strategy.parts_of(store, table, ts.current)
        successors, peak = _subimages(ts, parts, forward=True)
        frontier = store.apply("and", successors, -reached)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        if frontier == FALSE:
            return LayerSequence(layers, stats, reached, complete=True)
        layers.append(frontier)
        reached = store.apply("or", reached, frontier)
        table = precompute_counts(store, frontier, ts.current)
        stats.append(LayerStat("forward", len(layers) - 1, elapsed_ms,
                               store.node_count(), peak, table.root_count))
