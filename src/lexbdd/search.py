"""Image computation over disjunctive transition relations and layered BFS.

The transition relation is given as one BDD per action and never built
monolithically.  Variable ``i`` sits at level ``2i`` and its next copy
at ``2i + 1``.  An action's relation holds no frame axioms: it writes
exactly the variables whose next copy it mentions, and every other
variable keeps its value implicitly.  The actions of one player are
joined, once, into that player's move relation: each action is framed
only on the variables its fellow actions write, and the framed
relations are ORed.  States without successors are
kept out of the relations as a separate sink set: it is masked out of
each forward source part, and a backward product excludes it through
its care set, during the product rather than after it.  An image
distributes over both the players' move relations and an optional
partition of the source set, computes one relational product per
(part, player) pair and ORs each subimage into the image as it is made.
Each product quantifies only the levels its player's actions write and
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


@dataclass(frozen=True)
class Relation:
    """One action's transition relation over current and next variables.

    ``edge`` has no frame axioms: the action writes exactly the
    variables whose next copy it mentions, and every other variable
    keeps its value.  So no relation can leave a variable arbitrary:
    an edge that does not depend on ``w'`` keeps ``w``.  The relations
    of one ``player`` (``None`` is a player too) are searched together,
    as that player's :class:`Move`.
    """
    name: str
    edge: int
    player: int | None = None


class Move(NamedTuple):  # not a dataclass: building one at import costs 7x as much
    """One player's move relation: the OR of its actions, each framed on its fellows' writes.

    ``written`` holds the current levels that some action of the player
    writes.  Each action's edge is conjoined with ``w' <-> w`` for every
    level ``w`` in ``written`` that the action leaves alone, so ``edge``
    keeps every variable outside ``written`` implicitly, as a
    :class:`Relation` does.  ``written`` is kept beside the edge because
    the edge's support does not tell it: ``low ∨ high`` may no longer
    mention ``m'`` although both actions write ``m``.
    """
    edge: int
    written: tuple[int, ...]


@dataclass(frozen=True)
class TransitionSystem:
    """Action relations over interleaved current/next variables, plus a sink set.

    Variable ``i`` sits at level ``2i`` (``current``) and its next copy
    at ``2i + 1`` (``nxt``), so the store holds an even number of
    levels.  ``written`` maps each relation to the current levels of the
    variables it writes, derived once from the next levels its edge
    mentions.  ``moves`` maps each player, in the order of its first
    relation, to its :class:`Move`, built once here, before any search
    can compact the store; each frame axiom is conjoined deepest level
    first, which leaves fewer dead nodes behind.  ``sink`` holds the
    current states that have no successors whatever the relations say;
    ``image`` and ``preimage`` mask it out.
    """
    store: BddStore
    relations: tuple[Relation, ...]
    sink: int = FALSE
    current: tuple[int, ...] = field(init=False)
    nxt: tuple[int, ...] = field(init=False)
    written: dict[Relation, tuple[int, ...]] = field(init=False, repr=False, compare=False)
    moves: dict[int | None, Move] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.store.n
        if n % 2:
            raise ValueError(f"store has {n} levels, not a current and a next one per variable")
        stray = sorted(lvl for lvl in self.store.support_levels(self.sink) if lvl % 2)
        if stray:
            raise ValueError(f"sink set mentions next levels {stray}")
        object.__setattr__(self, "current", tuple(range(0, n, 2)))
        object.__setattr__(self, "nxt", tuple(range(1, n, 2)))
        store = self.store
        written = {rel: tuple(sorted(lvl - 1 for lvl in store.support_levels(rel.edge) if lvl % 2))
                   for rel in self.relations}
        moves = {}
        for player in dict.fromkeys(rel.player for rel in self.relations):
            rels = [rel for rel in self.relations if rel.player == player]
            union = sorted(set().union(*(written[rel] for rel in rels)))
            edge = FALSE
            for rel in rels:
                framed = rel.edge
                for w in reversed(union):
                    if w not in written[rel]:
                        frame = store.ite(store.var(w + 1), store.var(w), -store.var(w))
                        framed = store.apply("and", framed, frame)
                edge = store.apply("or", edge, framed)
            moves[player] = Move(edge, tuple(union))
        object.__setattr__(self, "written", written)
        object.__setattr__(self, "moves", moves)


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
    players or the merge.
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
    """Breadth-first layers plus their metrics; ``reached`` is the union."""
    layers: list[int]
    stats: list[LayerStat]
    reached: int
    complete: bool


def _subimages(ts: TransitionSystem, s: int | CountTable, strategy: PartitionStrategy,
               forward: bool, moves: tuple[Move, ...] | None = None,
               care: int | None = None) -> tuple[int, int]:
    """Partition ``s`` and OR its per-part, per-player relational products into one set.

    ``s`` (a state set or its :class:`CountTable`) is partitioned over
    the current variables; ``moves`` defaults to every player's
    :class:`Move`.  Forward masks the sink set out of each part,
    quantifies the current levels the player's actions write and makes
    each written next level at its current level.  Backward reads the
    part's written current levels as next levels, quantifies those, and
    takes the ternary product with ``care``, a set over the current
    variables (default: every state outside the sink set; forward
    ignores it), so each preimage is restricted to ``care`` as it is
    built and is never taken over the whole state space.  A move that
    writes nothing is a plain conjunction.  Every subimage comes out
    over the current variables, the same function, and so of the same
    size, as the player's framed product renamed back.  Returns the
    image and its peak: the largest diagram among the (part, player)
    subimages and the merged image, whatever the order of the parts and
    the players.
    """
    store = ts.store
    if moves is None:
        moves = tuple(ts.moves.values())
    if forward:
        parts = [store.apply("and", part, -ts.sink)
                 for part in strategy.parts_of(store, s, ts.current)]
        care = TRUE
    else:
        parts = strategy.parts_of(store, s, ts.current)
        if care is None:
            care = -ts.sink
    products = []  # (edge, quantified levels, read map, write map) per player
    for move in moves:
        shift = {w: w + 1 for w in move.written}
        back = {w + 1: w for w in move.written}
        products.append((move.edge, shift, None, back) if forward else (move.edge, back, shift, None))
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
    out, in which case the sequence is flagged incomplete.  Between
    steps, :class:`_LayerSteps` keeps the layers and ``reached``, so
    every edge made before the call keeps its meaning, and so does every
    edge it returns.
    """
    if init == FALSE:
        raise ValueError("initial state set is empty")
    store = ts.store
    steps = _LayerSteps(store, limits)
    layers = [init]
    reached = init
    stats = []
    made = (0.0, store.node_count(), 0)  # time_ms, total_nodes, peak of the newest layer
    while True:
        *layers, reached = steps.start([*layers, reached])
        # each layer is counted once, after any compaction, for its
        # LayerStat and as the next source
        table = precompute_counts(store, layers[-1], ts.current)
        stats.append(LayerStat("forward", len(layers) - 1, *made, table.root_count))
        if steps.exhausted():
            return LayerSequence(layers, stats, reached, complete=False)
        t0 = time.perf_counter()
        successors, peak = _subimages(ts, table, strategy, forward=True)
        frontier = store.apply("and", successors, -reached)
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        if frontier == FALSE:
            return LayerSequence(layers, stats, reached, complete=True)
        layers.append(frontier)
        reached = store.apply("or", reached, frontier)
        made = (elapsed_ms, store.node_count(), peak)
