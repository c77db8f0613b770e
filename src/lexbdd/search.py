"""Image computation over disjunctive transition relations and layered BFS.

The transition relation is given as one BDD per player, its move
relation, and never built monolithically.  Variable ``i`` sits at level
``2i`` and its next copy at ``2i + 1``.  A move relation writes the
variables listed beside it and keeps every other variable implicitly,
with no frame axiom for it.  States without successors are
kept out of the relations as a separate sink set, held as its disjuncts
and never built whole: each forward source part is ANDed with each
disjunct's complement, and a backward product excludes the sink through
its care set, during the product rather than after it.  An image
distributes over both the players' move relations and an optional
partition of the source set, and computes one relational product per
(part, player that can move there) pair; a preimage takes one product
per player and never partitions its target set.  Which players can move
is read off the move relations: a state that a move just made carries
the next-state literals its relation fixes, such as a turn-taking game's
control variable, and a relation that requires the other value cannot
move there (see :func:`_followers`).  So after its first layer the
search takes products only for the relations that can follow the ones
that moved, and leaves out only products that are empty.  Each product
quantifies only the levels its player writes and moves those variables
between their current and next copies itself, so every subimage comes
out over the current variables and nothing is renamed.
The breadth-first search stores each depth layer as a tuple of lex
windows, disjoint sets in ascending lex order whose OR is the layer,
and subtracts everything seen before from each, so layers are disjoint
and layer index equals BFS depth.  Under a lex strategy the windows of
a layer end where the parts of the layer before it end: each subimage
is split at those cuts and each piece ORed into its window, so no step
builds its merged image, and the next step cuts the windows into the
parts it would cut their OR into.  Under ``none`` and ``disj-var`` a
layer is one window.  Each step masks its parts (or its one window)
with the complement of the sink set once and keeps the masked windows
beside the layer, so a backward solve reads both halves of a layer
without walking the sink set.  What happens between two layer steps,
of the search and of the backward solve alike, is up to
:class:`_LayerSteps`.
"""

from __future__ import annotations

import itertools
import time
from bisect import bisect_left
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

from .bdd import FALSE, TRUE, BddStore
from .counting import CountTable, count_windows, precompute_counts
from .partition import (_split_walk, disj_var, extreme_member, fold_states_lex, join_windows,
                        states_lex_bounded)

STRATEGY_KINDS = ("none", "fold-states-lex", "states-lex", "disj-var")
LEX_KINDS = ("fold-states-lex", "states-lex")


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
    ORs their products.  ``sink`` holds edges over the current variables
    whose OR, never built, is the set of states with no successors
    whatever the relations say; ``image`` and ``preimage`` mask each out.
    A ``sink`` that is not a tuple of store edges, and a relation whose
    ``written`` is not a sorted tuple of distinct current levels, or
    whose edge reads the next copy of a variable it does not write, are
    rejected.
    """
    store: BddStore
    relations: tuple[Move, ...]
    sink: tuple[int, ...] = ()
    current: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        n, slots = self.store.n, self.store.node_count() + 2
        if n % 2:
            raise ValueError(f"store has {n} levels, not a current and a next one per variable")
        if type(self.sink) is not tuple or any(type(e) is not int or not 0 < abs(e) < slots
                                               for e in self.sink):
            raise ValueError(f"sink {self.sink!r} is not a tuple of edges of the store")
        stray = sorted({lvl for e in self.sink for lvl in self.store.support_levels(e) if lvl % 2})
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
        if self.kind in LEX_KINDS:
            if self.param is None or self.param < 1:
                raise ValueError(f"strategy {self.kind} needs a parameter >= 1")
        elif self.param is not None:
            raise ValueError(f"strategy {self.kind} takes no parameter")

    @classmethod
    def parse(cls, text: str) -> "PartitionStrategy":
        kind, sep, param = text.partition(":")
        if not sep:
            return cls(kind)
        if kind not in LEX_KINDS:
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

    def parts_of(self, store: BddStore, tables: Sequence[CountTable],
                 levels: tuple[int, ...]) -> list[int]:
        """Partition a state set over ``levels`` into disjoint parts.

        ``tables`` count the set's lex windows over ``levels`` (see
        :class:`LayerSequence`).  The lex strategies cut the windows
        where they would cut the windows' OR, into the same parts,
        without building it.  ``none`` and ``disj-var`` take one window.
        Only the forward image partitions its sources.
        """
        if self.kind == "fold-states-lex":
            return list(fold_states_lex(tables, self.param).parts)
        if self.kind == "states-lex":
            return list(states_lex_bounded(tables, self.param).parts)
        if len(tables) != 1:
            raise ValueError(f"strategy {self} partitions one set, not {len(tables)}")
        f = tables[0].root
        if self.kind == "none" or f == FALSE:
            return [f]
        pair = disj_var(store, f, levels)
        return [pair.left, pair.right]


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
    images a step builds.  Forward, those are the layer's subimages,
    one per (part, player), and the lex windows they are ORed into, of
    which there is one under ``none`` and ``disj-var`` (see
    :class:`LayerSequence`); no forward step builds its merged image.
    Backward, they are the preimages of the classes, each through one
    player's relation in one product whatever the strategy; a player's
    last class takes its states without one.  It does not depend on the
    order of the actions, the players or the merge.  ``total_nodes`` is
    the store's node count at the end of the step, after any compaction
    at its start.
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

    Each layer is a tuple of lex windows: non-empty, pairwise disjoint
    state sets in ascending lex order over the current variables, whose
    OR is the layer.  Under ``none`` and ``disj-var`` a layer is one
    window; under a lex strategy a layer has a window per part of the
    layer before it that has successors here, so no layer is built
    merged.  ``nonterminal[d]`` holds the windows of the non-terminal
    half of ``layers[d]``, its states outside the sink set, which the
    search built as the sources of the layer's image: one per part under
    a lex strategy (lex-ascending and disjoint too), else the layer's
    one window masked, with empty windows dropped.  The terminal half is
    the layer minus their OR.  A complete sequence holds them for every
    layer; an incomplete one lacks them for the last layer, whose image
    the search never began.  ``movers[d]``, one per ``nonterminal[d]``,
    holds the players whose relational product from layer ``d`` was
    non-empty: exactly the players that can move in some non-terminal
    state of the layer.  ``leads_back`` lists the layers whose image
    met ``reached``, where a move leads back to that layer or an earlier
    one; every move from any other layer leads to the next.
    """
    layers: list[tuple[int, ...]]
    nonterminal: list[tuple[int, ...]]
    movers: list[frozenset[int]]
    leads_back: list[int]
    stats: list[LayerStat]
    reached: int
    complete: bool


def _outside_sink(ts: TransitionSystem, f: int) -> int:
    """``f`` without the sink set: ANDed with each disjunct's complement in turn."""
    for disjunct in ts.sink:
        f = ts.store.apply("and", f, -disjunct)
    return f


def _fixed_literals(store: BddStore, f: int) -> tuple[int, int]:
    """Bit masks of the levels that every satisfying assignment of ``f`` sets to 1 and to 0.

    One pass over the descendants in slot order, children first, for
    both signs of each slot; it makes no node.  A node fixes its own
    level when one branch is ``FALSE``, and a level below it when both
    branches fix that level the same way.  ``TRUE`` and ``FALSE`` fix
    nothing.
    """
    fixed = {1: (0, 0), -1: (0, 0)}
    for slot in sorted(store.descendants(f)):
        level, t, e = store.node(slot)
        bit = 1 << level
        for sign in (1, -1):
            st, se = sign * t, sign * e
            if st == -1:
                ones, zeros = fixed[se]
                zeros |= bit
            elif se == -1:
                ones, zeros = fixed[st]
                ones |= bit
            else:
                (ones_t, zeros_t), (ones_e, zeros_e) = fixed[st], fixed[se]
                ones, zeros = ones_t & ones_e, zeros_t & zeros_e
            fixed[sign * slot] = (ones, zeros)
    return fixed[f]


def _followers(ts: TransitionSystem) -> list[tuple[int, ...]]:
    """For each relation, the indices of the relations that can move right after it.

    A state that relation ``i`` just made carries each next-level
    literal that ``i``'s edge fixes, moved to its current level.
    Relation ``j`` cannot move there when its edge fixes one of those
    current levels to the other value.  This is the two-player turn
    rule: each move sets the control variable, and the other player's
    preconditions require that value.  A ``FALSE`` relation fixes
    nothing, so it follows and is followed by every relation.
    """
    current = sum(1 << lvl for lvl in ts.current)
    fixed = [_fixed_literals(ts.store, rel.edge) for rel in ts.relations]
    followers = []
    for ones, zeros in fixed:
        made_ones, made_zeros = (ones >> 1) & current, (zeros >> 1) & current
        followers.append(tuple(j for j, (needs_ones, needs_zeros) in enumerate(fixed)
                               if not made_ones & needs_zeros and not made_zeros & needs_ones))
    return followers


def _image_windows(ts: TransitionSystem, windows: list[CountTable],
                   strategy: PartitionStrategy, tried: Sequence[int]
                   ) -> tuple[tuple[int, ...], list[int], int, tuple[int, ...]]:
    """One forward step from a layer's windows, given as their count tables.

    Under a lex strategy the parts are masked with the complement of the
    sink set and kept as the layer's non-terminal windows; image window
    ``i`` takes the states in ``(cuts[i - 1], cuts[i]]``, ``cuts[i]``
    being part ``i``'s lex-greatest member.  Each (part, player)
    subimage is split only at the cuts between its lex-least and
    lex-greatest members, skipping the windows a split finds empty, and
    each piece is ORed into its window.  Under ``none`` and ``disj-var``
    the one window is masked once, each part with it, and every subimage
    is ORed into one image.  Only the relations whose indices ``tried``
    lists, in ascending order, take a product; the caller leaves out
    those whose products it knows to be empty.  Returns the non-empty
    non-terminal windows, the image windows (some may be empty), the
    peak (the largest subimage or window image) and the indices of the
    tried relations with a non-empty product.
    """
    store, levels = ts.store, ts.current
    if strategy.kind in LEX_KINDS:
        parts = strategy.parts_of(store, windows, levels)
        nonterminal = sources = [_outside_sink(ts, part) for part in parts]
        cuts = [extreme_member(store, part, levels, 1) for part in parts[:-1]]
    else:
        whole = windows[0].root
        care = _outside_sink(ts, whole)
        sources = [care if part == whole else store.apply("and", part, care)
                   for part in strategy.parts_of(store, windows, levels)]
        nonterminal, cuts = [care], []
    products = []
    for index in tried:
        rel = ts.relations[index]
        products.append((index, rel.edge, {w: w + 1 for w in rel.written},
                         {w + 1: w for w in rel.written}))
    images = [FALSE] * (len(cuts) + 1)
    peak = 0
    moved = set()
    for part in sources:
        if part == FALSE:
            continue
        for index, edge, shift, back in products:
            sub = store.and_exists(shift, edge, part, TRUE, None, back)
            if sub == FALSE:
                continue
            moved.add(index)
            peak = max(peak, store.size(sub))
            i = 0
            if cuts:
                i = bisect_left(cuts, extreme_member(store, sub, levels, 0))
                last = bisect_left(cuts, extreme_member(store, sub, levels, 1))
                while i < last:
                    pair = _split_walk(store, sub, cuts[i], levels)
                    if pair.left == FALSE:
                        # skip every window below the least state left
                        i = bisect_left(cuts, extreme_member(store, sub, levels, 0), i + 1)
                        continue
                    images[i] = store.apply("or", images[i], pair.left)
                    sub, i = pair.right, i + 1
            images[i] = store.apply("or", images[i], sub)
    peak = max(peak, *map(store.size, images))
    return tuple(w for w in nonterminal if w != FALSE), images, peak, tuple(sorted(moved))


def _preimages(ts: TransitionSystem, s: int, relations: tuple[Move, ...] | None = None,
               care: int = TRUE) -> int:
    """The OR of the preimages of ``s`` through each relation, one product each.

    ``s`` is a set over the current variables, never partitioned;
    ``relations`` defaults to ``ts.relations``, one :class:`Move` per
    player.  Each product reads ``s``'s written current levels as next
    levels, quantifies those, and takes the ternary product with
    ``care``, a set over the current variables (default: every state),
    so each preimage is restricted to ``care`` as it is built.  A
    relation that writes nothing is a plain conjunction.  The result is
    over the current variables.
    """
    store = ts.store
    merged = FALSE
    for rel in ts.relations if relations is None else relations:
        sub = store.and_exists({w + 1: w for w in rel.written}, rel.edge, s, care,
                               {w: w + 1 for w in rel.written}, None)
        merged = store.apply("or", merged, sub)
    return merged


def image(ts: TransitionSystem, s: int,
          strategy: PartitionStrategy = NO_PARTITION) -> int:
    """One-step successors of the state set ``s`` (over current variables).

    ``s`` is partitioned by ``strategy`` and the subimages of its parts
    are merged; the result does not depend on the strategy.
    """
    _, images, _, _ = _image_windows(ts, [precompute_counts(ts.store, s, ts.current)], strategy,
                                     range(len(ts.relations)))
    return join_windows(ts.store, images)


def preimage(ts: TransitionSystem, s: int) -> int:
    """One-step predecessors of the state set ``s`` (over current variables).

    One relational product per player, ``s`` never partitioned; the sink
    set is masked out of the merged preimage, one disjunct at a time.
    """
    return _outside_sink(ts, _preimages(ts, s))


def layered_bfs(ts: TransitionSystem, init: int,
                strategy: PartitionStrategy = NO_PARTITION,
                limits: SearchLimits | None = None) -> LayerSequence:
    """Explore forward from ``init``, one disjoint layer of lex windows per depth.

    Each new layer is the image of the previous one (see
    :func:`_image_windows`) minus every state seen so far, window by
    window, with empty windows dropped; ``reached`` stays one set.  The
    search stops at the fix point or when a budget runs out, in which
    case the sequence is flagged incomplete.  Each step keeps its masked
    sources in :attr:`LayerSequence.nonterminal` and the players that
    moved from them in :attr:`LayerSequence.movers`; a step whose image
    met ``reached`` is listed in :attr:`LayerSequence.leads_back`.  The
    first step tries every relation; each later step tries only the
    followers (see :func:`_followers`, computed once per search) of the
    relations whose product was non-empty in the step before, as every
    state of the new layer was made by one of those.  The products it
    leaves out are empty.  Between steps, :class:`_LayerSteps` keeps the
    layers, their non-terminal windows and ``reached``, so every edge
    made before the call keeps its meaning, and so does every edge it
    returns.
    """
    if init == FALSE:
        raise ValueError("initial state set is empty")
    store = ts.store
    steps = _LayerSteps(store, limits)
    followers = _followers(ts)
    tried = range(len(ts.relations))
    layers = [(init,)]
    nonterminal = []
    movers = []
    leads_back = []
    reached = init
    stats = []
    made = (0.0, store.node_count(), 0)  # time_ms, total_nodes, peak of the newest layer
    while True:
        held = [*layers, *nonterminal, (reached,)]
        edges = iter(steps.start([e for windows in held for e in windows]))
        held = [tuple(itertools.islice(edges, len(windows))) for windows in held]
        layers, nonterminal, reached = held[:len(layers)], held[len(layers):-1], held[-1][0]
        # the windows are counted once, after any compaction, for the
        # LayerStat and as the sources' windows
        tables = count_windows(store, layers[-1], ts.current)
        stats.append(LayerStat("forward", len(layers) - 1, *made,
                               sum(table.root_count for table in tables)))
        if steps.exhausted():
            return LayerSequence(layers, nonterminal, movers, leads_back, stats, reached,
                                 complete=False)
        t0 = time.perf_counter()
        kept, images, peak, moved = _image_windows(ts, tables, strategy, tried)
        nonterminal.append(kept)
        movers.append(frozenset(ts.relations[i].player for i in moved))
        tried = sorted({j for i in moved for j in followers[i]})
        frontier = [store.apply("and", img, -reached) for img in images]
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        if frontier != images:
            leads_back.append(len(layers) - 1)
        frontier = tuple(w for w in frontier if w != FALSE)
        if not frontier:
            return LayerSequence(layers, nonterminal, movers, leads_back, stats, reached,
                                 complete=True)
        layers.append(frontier)
        for w in frontier:
            reached = store.apply("or", reached, w)
        made = (elapsed_ms, store.node_count(), peak)
