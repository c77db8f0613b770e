"""Image computation over disjunctive transition relations and layered BFS.

The transition relation is given as one BDD per player, its move
relation, and never built monolithically.  Variable ``i`` sits at level
``2i`` and its next copy at ``2i + 1``.  A move relation writes the
variables listed beside it and keeps every other variable implicitly,
with no frame axiom for it.  States without successors are
kept out of the relations as a separate sink set: it is masked out of
each forward source part, and a backward product excludes it through
its care set, during the product rather than after it.  The forward
search masks each layer once, keeps that non-terminal half beside the
layer, and masks each of the layer's parts with it, so a backward solve
reads both halves of a layer without walking the sink set.  An image
distributes over both the players' move relations and an optional
partition of the source set, computes one relational product per
(part, player) pair and ORs each subimage into the image as it is made.
Each product quantifies only the levels its player writes and
moves those variables between their current and next copies itself, so
every subimage comes out over the current variables and nothing is
renamed.
The breadth-first search stores each depth layer as its own BDD and
subtracts everything seen before, so layers are disjoint and layer
index equals BFS depth.  What happens between two layer steps, of the
search and of the backward solve alike, is up to :class:`_LayerSteps`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .bdd import FALSE, TRUE, BddStore
from .counting import CountTable, precompute_counts
from .partition import disj_var, fold_states_lex, states_lex_bounded

STRATEGY_KINDS = ("none", "fold-states-lex", "states-lex", "disj-var")


class Move(NamedTuple):  # not a dataclass: building one at import costs 7x as much
    """One player's move relation over current and next variables.

    ``written`` holds, sorted, the current levels of the variables that
    some action of ``player`` writes.  ``edge`` reads the next copy of
    no other variable and keeps every variable outside ``written``
    implicitly: an image moves only the written ones.  ``written`` is
    kept beside the edge because the edge's support does not tell it:
    ``low ∨ high`` may no longer mention ``m'`` although both actions
    write ``m``.  A written level that the edge does not read is left
    arbitrary.
    """
    player: int
    edge: int
    written: tuple[int, ...]


@dataclass(frozen=True)
class TransitionSystem:
    """The transition relation, one :class:`Move` per player, plus a sink set.

    Variable ``i`` sits at level ``2i`` (``current``) and its next copy
    at ``2i + 1``, so the store holds an even number of levels.
    ``relations`` partition the transition relation by player; an image
    ORs their products.  ``sink`` holds the current states
    that have no successors whatever the relations say; ``image`` and
    ``preimage`` mask it out.  A relation whose ``written`` is not a
    sorted tuple of distinct current levels, or whose edge reads the
    next copy of a variable it does not write, is rejected.
    """
    store: BddStore
    relations: tuple[Move, ...]
    sink: int = FALSE
    current: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n = self.store.n
        if n % 2:
            raise ValueError(f"store has {n} levels, not a current and a next one per variable")
        stray = sorted(lvl for lvl in self.store.support_levels(self.sink) if lvl % 2)
        if stray:
            raise ValueError(f"sink set mentions next levels {stray}")
        current = tuple(range(0, n, 2))
        for rel in self.relations:
            if tuple(rel.written) != tuple(lvl for lvl in current if lvl in rel.written):
                raise ValueError(f"relation of player {rel.player} writes levels "
                                 f"{tuple(rel.written)}, not sorted distinct current levels")
            stray = sorted(lvl for lvl in self.store.support_levels(rel.edge)
                           if lvl % 2 and lvl - 1 not in rel.written)
            if stray:
                raise ValueError(f"relation of player {rel.player} reads next levels "
                                 f"{stray} of variables it does not write")
        object.__setattr__(self, "current", current)


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
        if kind not in ("fold-states-lex", "states-lex"):
            return cls(kind, param)  # rejected for its kind, whatever the parameter
        try:
            value = int(param)
        except ValueError:
            raise ValueError(
                f"strategy {kind} needs an integer parameter, got {param!r}") from None
        return cls(kind, value)

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

    The node budget bounds :meth:`BddStore.node_count` when a layer
    step begins; both budgets are checked there only (see
    :class:`_LayerSteps`).  ``None`` means unbounded.  A
    budget must be a number ``>= 0``; a NaN budget would never bind,
    so it is rejected too.
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


class _LayerSteps:
    """What happens between the layer steps of one search or solve.

    Each step starts with :meth:`start`, which empties the kernel
    caches, so no cache entry outlives the step that made it.  Once the
    store holds more than twice the nodes it held after the last
    compaction (or when the search began), ``start`` also compacts the
    nodes made since the search began, keeping the edges the caller
    hands it; every edge made before the search keeps its meaning.
    :meth:`exhausted` then applies both budgets of ``limits``.
    """

    def __init__(self, store: BddStore, limits: SearchLimits | None):
        self.store = store
        self.limits = limits or SearchLimits()
        self.since = self.kept = store.node_count()
        self.deadline = self.limits.deadline()

    def start(self, roots: list[int]) -> list[int]:
        """Begin a step; returns ``roots``, remapped if the store was compacted."""
        store = self.store
        store.clear_caches()
        if store.node_count() > 2 * self.kept:
            roots = store.compact(self.since, roots)
            self.kept = store.node_count()
        return roots

    def exhausted(self) -> bool:
        """Whether the time or the node budget has run out."""
        return (self.deadline is not None and time.perf_counter() > self.deadline) \
            or self.limits.nodes_exceeded(self.store)


@dataclass
class LayerStat:
    """Per-layer measurements of one search direction.

    ``max_image_nodes`` is the largest diagram, in nodes, among the
    layer's subimages, one per (part, player), and the images they
    merge into; it does not depend on the order of the actions, the
    players or the merge.  A backward row counts only the preimages
    built; a player's last class takes its states without one.
    ``total_nodes`` is the store's node count at the end of the step,
    after any compaction at its start.
    """
    direction: str
    index: int
    time_ms: float
    total_nodes: int
    max_image_nodes: int
    states: int


@dataclass
class LayerSequence:
    """Breadth-first layers plus their metrics; ``reached`` is the union.

    ``nonterminal[d]`` is the non-terminal half of ``layers[d]``, its
    states outside the sink set, which the search built as the source of
    the layer's image; the terminal half is ``layers[d] ∧ ¬nonterminal[d]``.
    A complete sequence holds one per layer; an incomplete one lacks it
    for the last layer, whose image the search never began.
    ``leads_back`` lists the layers whose image met ``reached``, where
    a move leads back to that layer or an earlier one; every move from
    any other layer leads to the next.
    """
    layers: list[int]
    nonterminal: list[int]
    leads_back: list[int]
    stats: list[LayerStat]
    reached: int
    complete: bool


def _subimages(ts: TransitionSystem, s: int | CountTable, strategy: PartitionStrategy,
               forward: bool, relations: tuple[Move, ...] | None = None,
               care: int | None = None) -> tuple[int, int]:
    """Partition ``s`` and OR its per-part, per-player relational products into one set.

    ``s`` (a state set or its :class:`CountTable`) is partitioned over
    the current variables; ``relations`` defaults to ``ts.relations``,
    one :class:`Move` per player.  ``care`` is a set over the current
    variables.  Forward images only the states of ``s`` in ``care``:
    ``care`` must lie inside ``s``, and defaults to ``s`` outside the
    sink set.  Each part is masked with it, and a part that is all of
    ``s`` is ``care`` itself, with no AND.  Forward then quantifies the
    current levels the player writes and makes each written next level
    at its current level.  Backward reads the part's written current
    levels as next levels, quantifies those, and takes the ternary
    product with ``care`` (default: every state outside the sink set),
    so each preimage is restricted to ``care`` as it is built and is
    never taken over the whole state space.  A relation
    that writes nothing is a plain conjunction.  Every subimage comes out
    over the current variables, the same function, and so of the same
    size, as the player's framed product renamed back.  Returns the
    image and its peak: the largest diagram among the (part, player)
    subimages and the merged image, whatever the order of the parts and
    the players.
    """
    store = ts.store
    if relations is None:
        relations = ts.relations
    parts = strategy.parts_of(store, s, ts.current)
    if forward:
        whole = s.root if isinstance(s, CountTable) else s
        if care is None:
            care = store.apply("and", whole, -ts.sink)
        parts = [care if part == whole else store.apply("and", part, care) for part in parts]
        care = TRUE
    elif care is None:
        care = -ts.sink
    products = []  # (edge, quantified levels, read map, write map) per player
    for rel in relations:
        shift = {w: w + 1 for w in rel.written}
        back = {w + 1: w for w in rel.written}
        products.append((rel.edge, shift, None, back) if forward else (rel.edge, back, shift, None))
    merged, peak = FALSE, 0
    for part in parts:
        if part == FALSE:
            continue
        for edge, quantified, read, write in products:
            sub = store.and_exists(quantified, edge, part, care, read, write)
            peak = max(peak, store.size(sub))
            merged = store.apply("or", merged, sub)
    peak = max(peak, store.size(merged))
    return merged, peak


def image(ts: TransitionSystem, s: int,
          strategy: PartitionStrategy = NO_PARTITION) -> int:
    """One-step successors of the state set ``s`` (over current variables).

    ``s`` is partitioned by ``strategy`` and the subimages of its parts
    are merged; the result does not depend on the strategy.
    """
    result, _ = _subimages(ts, s, strategy, forward=True)
    return result


def preimage(ts: TransitionSystem, s: int,
             strategy: PartitionStrategy = NO_PARTITION) -> int:
    """One-step predecessors of the state set ``s`` (over current variables).

    ``s`` is partitioned by ``strategy`` as in :func:`image`.
    """
    result, _ = _subimages(ts, s, strategy, forward=False)
    return result


def layered_bfs(ts: TransitionSystem, init: int,
                strategy: PartitionStrategy = NO_PARTITION,
                limits: SearchLimits | None = None) -> LayerSequence:
    """Explore forward from ``init``, one disjoint BDD per depth layer.

    Each new layer is the image of the previous one minus every state
    seen so far; the search stops at the fix point or when a budget runs
    out, in which case the sequence is flagged incomplete.  Each step
    first builds the layer's non-terminal half, ``layer ∧ ¬sink``, once:
    it is the source of the image and is kept in
    :attr:`LayerSequence.nonterminal`; a step whose image met
    ``reached`` is listed in :attr:`LayerSequence.leads_back`.  Between steps,
    :class:`_LayerSteps` keeps the layers, their non-terminal halves and
    ``reached``, so every edge made before the call keeps its meaning,
    and so does every edge it returns.
    """
    if init == FALSE:
        raise ValueError("initial state set is empty")
    store = ts.store
    steps = _LayerSteps(store, limits)
    layers = [init]
    nonterminal = []
    leads_back = []
    reached = init
    stats = []
    made = (0.0, store.node_count(), 0)  # time_ms, total_nodes, peak of the newest layer
    while True:
        roots = steps.start([*layers, *nonterminal, reached])
        layers, nonterminal, reached = roots[:len(layers)], roots[len(layers):-1], roots[-1]
        # each layer is counted once, after any compaction, for its
        # LayerStat and as the next source, and masked once
        table = precompute_counts(store, layers[-1], ts.current)
        stats.append(LayerStat("forward", len(layers) - 1, *made, table.root_count))
        if steps.exhausted():
            return LayerSequence(layers, nonterminal, leads_back, stats, reached, complete=False)
        t0 = time.perf_counter()
        nonterminal.append(store.apply("and", layers[-1], -ts.sink))
        successors, peak = _subimages(ts, table, strategy, forward=True, care=nonterminal[-1])
        frontier = store.apply("and", successors, -reached)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        if frontier != successors:
            leads_back.append(len(layers) - 1)
        if frontier == FALSE:
            return LayerSequence(layers, nonterminal, leads_back, stats, reached, complete=True)
        layers.append(frontier)
        reached = store.apply("or", reached, frontier)
        made = (elapsed_ms, store.node_count(), peak)
