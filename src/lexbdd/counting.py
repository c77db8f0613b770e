"""Model counts per signed edge, cached for ranking and splitting.

Counts are computed once per root, in one loop over the signed edges
reached from it in slot order, and stored per *signed* edge, so a node
reached both regularly and complemented gets two independent entries.
Keying by the signed edge (instead of storing one value and
complementing on demand) keeps every cached value bounded by the root's
own count, which is what makes the cache safe to reuse as the weight
table of the rank/unrank walks.

A count table can be restricted to a subset of the store's variables
(the ``levels`` argument).  That subset is the assignment universe:
counts, ranks and cut assignments are all taken over those positions
only.  This is how state-set operations ignore the interleaved
next-state variables of a transition-relation store.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .bdd import FALSE, TRUE, BddStore


@dataclass
class CountTable:
    """Satisfying-assignment counts for one root edge.

    ``counts`` maps signed edges visited by the precompute pass to the
    number of satisfying assignments of the sub-function over the
    variable positions strictly below the edge's own position.  Tables
    made by one :func:`count_windows` pass share it, so it may also
    hold edges that only another root reaches.
    ``root_count`` is the total over the full universe and ``pos`` the
    position map built by :func:`universe`.  Instances are immutable
    after construction and safe to share across threads.
    """

    store: BddStore
    root: int
    levels: tuple[int, ...]
    counts: dict[int, int]
    root_count: int
    pos: dict[int, int]

    @property
    def n(self) -> int:
        """Number of variable positions in the universe."""
        return len(self.levels)


def universe(store: BddStore,
             levels: Sequence[int] | None = None) -> tuple[tuple[int, ...], dict[int, int]]:
    """Sorted, checked assignment universe and its level -> position map.

    ``levels`` defaults to every store variable.  The map also sends the
    sinks' level ``store.n`` to position ``len(levels)``, so
    ``pos[store.level_of_edge(e)]`` is the position of any edge whose
    target is a sink or a node inside the universe.
    """
    if levels is None:
        levels = range(store.n)
    levels = tuple(sorted(store.validate_levels(levels)))
    pos = {lvl: i for i, lvl in enumerate(levels)}
    pos[store.n] = len(levels)
    return levels, pos


def precompute_counts(store: BddStore, f: int,
                      levels: Sequence[int] | None = None) -> CountTable:
    """Count satisfying assignments of ``f`` and of every sub-function.

    Returns a :class:`CountTable` whose root count is the number of
    satisfying assignments over the (possibly restricted) universe.
    Reduction gaps are paid for here: a child sitting ``g`` positions
    below its parent contributes its count times ``2**(g-1)`` free
    choices for the skipped variables.  Complement marks are pushed down
    the walk, so they resolve only at the sinks.  Nothing recurses, so
    the depth of the variable order is not limited.  Raises
    ``ValueError`` when ``f`` depends on a level outside the universe.
    """
    return count_windows(store, (f,), levels)[0]


def count_windows(store: BddStore, roots: Sequence[int],
                  levels: Sequence[int] | None = None) -> list[CountTable]:
    """:func:`precompute_counts` of each root, in one pass over their edges.

    The lex windows of one set share the sub-functions below their cuts;
    each such edge is counted once, and the tables share one ``counts``
    dict.
    """
    levels, pos = universe(store, levels)
    nodes = store._nodes
    level = store._level
    # collect the signed edges reached from the roots, then count them in
    # slot order: children always sit in lower slots than their parents
    reached: set[int] = set()
    for f in roots:
        stack = [f]
        while stack:
            e = stack.pop()
            if e in reached or e == TRUE or e == FALSE:
                continue
            lvl, t, el = nodes[abs(e)]
            if lvl not in pos:
                raise ValueError(
                    f"support of root {f} reaches level {lvl}, "
                    f"outside the counting universe {list(levels)}")
            reached.add(e)
            if e < 0:
                t, el = -t, -el
            stack.append(t)
            stack.append(el)
    counts: dict[int, int] = {TRUE: 1, FALSE: 0}
    for e in sorted(reached, key=abs):
        lvl, t, el = nodes[abs(e)]
        if e < 0:
            t, el = -t, -el
        i = pos[lvl]
        counts[e] = (counts[t] << (pos[level[abs(t)]] - i - 1)) \
            + (counts[el] << (pos[level[abs(el)]] - i - 1))
    root_counts = [counts[f] << pos[level[abs(f)]] for f in roots]
    # no count exceeds the count of a root that reaches it; the sink seeds
    # are exempt: for the constant-false root the 1-sink entry (1)
    # legitimately exceeds the root count (0)
    assert all(c <= max(root_counts) for e, c in counts.items() if abs(e) != 1), \
        "internal count exceeds root count"
    return [CountTable(store=store, root=f, levels=levels, counts=counts,
                       root_count=c, pos=pos) for f, c in zip(roots, root_counts)]
