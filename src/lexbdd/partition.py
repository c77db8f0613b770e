"""Lexicographic splitting of a BDD and the partitioning schemes on top.

``split`` cuts a satisfying set at an arbitrary assignment ``s`` into
the part at or below ``s`` (lexicographically) and the part above it,
in one pass along the path of ``s``.  Combined with ``unrank`` this
gives cuts at exact satisfying-set counts, and by repeating them a
partition of a BDD into lexicographically contiguous parts of equal
state counts.  A variable-balanced two-way decomposition is included as
the baseline scheme.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .bdd import FALSE, TRUE, BddStore
from .counting import CountTable, universe
from .ranking import unrank


@dataclass(frozen=True)
class SplitPair:
    """Left gets the assignments at or below the cut, right all others."""
    left: int
    right: int


@dataclass(frozen=True)
class LexPartition:
    """Disjoint lexicographically contiguous cover of one function.

    ``parts[i]`` holds exactly the satisfying assignments in the window
    ``(cuts[i-1], cuts[i]]``; the last cut is the all-ones assignment so
    the windows cover the whole cube.
    """
    cuts: tuple[tuple[int, ...], ...]
    parts: tuple[int, ...]

    def __post_init__(self):
        if len(self.cuts) != len(self.parts):
            raise ValueError("cuts and parts must pair up")

    def __len__(self) -> int:
        return len(self.parts)


def split(store: BddStore, f: int, bits: Sequence,
          levels: Sequence[int] | None = None) -> SplitPair:
    """Split ``f`` at the cut assignment ``bits``.

    Descends the path of ``bits`` once.  At a node on the path the
    off-path child moves wholly to one side (a 0-cofactor is entirely
    below a cut with a 1 there, and vice versa) and the on-path child is
    split further down.  A position skipped by reduction behaves like a
    node whose both children are the current function.  Every created
    node goes through the unique table, so both results are reduced and
    at most two nodes per position are added to the shared store.

    The cut may be any assignment; membership in the satisfying set is
    not required.
    """
    levels, pos_by_level = universe(store, levels)
    m = len(levels)
    if len(bits) != m:
        raise ValueError(f"cut has {len(bits)} bits, universe has {m}")
    # the walk below visits only the cut's path, so check the whole support
    support = store.support_levels(f)
    if not support <= pos_by_level.keys():
        raise ValueError(
            f"support {sorted(support)} not within split universe {list(levels)}")
    return _split_walk(store, f, bits, levels)


def _split_walk(store: BddStore, f: int, bits: Sequence, levels: tuple[int, ...]) -> SplitPair:
    """The split itself, for a checked universe, cut and support.

    Walks down the cut's path once, keeping each position's level, cut
    bit and off-path child, then builds both results bottom-up.
    """
    steps = []
    e = f
    for v, bit in zip(levels, bits):
        if store.level_of_edge(e) == v:
            _, t, el = store.node(e)
            if e < 0:
                t, el = -t, -el
        else:
            # position skipped by reduction: both cofactors equal e
            t = el = e
        steps.append((v, bit, el if bit else t))
        e = t if bit else el
    # the cut's own suffix lands in the left part
    left, right = e, FALSE
    for v, bit, off in reversed(steps):
        if bit:
            left, right = store.mk_node(v, left, off), store.mk_node(v, right, FALSE)
        else:
            left, right = store.mk_node(v, FALSE, left), store.mk_node(v, off, right)
    return SplitPair(left, right)


def split_at_count(table: CountTable, m: int) -> SplitPair:
    """Split so that the left part holds exactly the ``m`` smallest members.

    Cutting at the assignment of rank ``m - 1`` puts ranks ``0..m-1``
    (and nothing else) at or below the cut.  ``m`` must lie in
    ``1 .. root_count``.
    """
    if not 1 <= m <= table.root_count:
        raise ValueError(f"count {m} out of range 1..{table.root_count}")
    cut = unrank(table, m - 1)
    # precompute_counts checked the root's support, see _partition_at_positions
    return _split_walk(table.store, table.root, cut, table.levels)


def _partition_at_positions(table: CountTable, positions: Sequence[int]) -> LexPartition:
    """Cut at the given strictly increasing 1-based member positions.

    The last position must equal the root count; its cut is replaced by
    the all-ones assignment so the final window reaches the top of the
    cube.
    """
    store = table.store
    all_ones = (1,) * table.n
    cuts = [unrank(table, p - 1) for p in positions[:-1]]
    cuts.append(all_ones)
    parts = []
    # precompute_counts checked the root's support against the universe,
    # and a split adds nodes only at universe levels, so no remainder needs
    # the whole-support check of split
    remainder = table.root
    for cut in cuts:
        pair = _split_walk(store, remainder, cut, table.levels)
        parts.append(pair.left)
        remainder = pair.right
    assert remainder == FALSE
    return LexPartition(cuts=tuple(cuts), parts=tuple(parts))


def fold_states_lex(table: CountTable, k: int) -> LexPartition:
    """Partition into ``k`` lex-contiguous folds of near-equal state count.

    Fold ``i`` ends at the member in position ``ceil(i * count / k)``,
    so fold sizes differ by at most one.  When the set has fewer than
    ``k`` members, ``k`` drops to the member count and every fold holds
    one member; the empty set is one empty fold.
    """
    if k < 1:
        raise ValueError(f"fold count must be >= 1, got {k}")
    c = table.root_count
    k = max(1, min(k, c))  # with k <= c the positions strictly increase
    return _partition_at_positions(table, [-(-i * c // k) for i in range(1, k + 1)])


def states_lex_bounded(table: CountTable, bound: int) -> LexPartition:
    """Partition into as many lex-contiguous parts as needed.

    Every part holds at most ``bound`` members; all but the last hold
    exactly ``bound``.
    """
    if bound < 1:
        raise ValueError(f"state bound must be >= 1, got {bound}")
    c = table.root_count
    positions = list(range(bound, c, bound))
    positions.append(c)
    return _partition_at_positions(table, positions)


def disj_var(store: BddStore, f: int,
             levels: Sequence[int] | None = None) -> SplitPair:
    """Two-way decomposition on the best single variable.

    Returns ``(f and not x, f and x)`` for the variable ``x`` that
    minimizes the larger of the two diagram sizes; ties go to the
    earliest variable in the order.  A constant ``f`` has nothing to
    decompose on and comes back as ``(f, false)``.
    """
    if f == TRUE or f == FALSE:
        return SplitPair(f, FALSE)
    if levels is None:
        levels = range(store.n)
    best = None
    best_size = None
    for lvl in sorted(set(levels)):
        x = store.var(lvl)
        neg_part = store.apply("and", f, -x)
        pos_part = store.apply("and", f, x)
        worst = max(store.size(neg_part), store.size(pos_part))
        if best_size is None or worst < best_size:
            best = SplitPair(neg_part, pos_part)
            best_size = worst
    return best
