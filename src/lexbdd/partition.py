"""Lexicographic splitting of a BDD and the partitioning schemes on top.

``split`` cuts a satisfying set at an arbitrary assignment ``s`` into
the part at or below ``s`` (lexicographically) and the part above it,
in one pass along the path of ``s``.  Combined with ``unrank`` this
gives cuts at exact satisfying-set counts, and by repeating them a
partition of a BDD into lexicographically contiguous parts of equal
state counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from .bdd import FALSE, BddStore
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
    bit and off-path child, then builds both results bottom-up.  The
    walk stops where the path leaves ``f``: below that point both
    results are empty.
    """
    nodes, level = store._nodes, store._level
    steps = []
    e = f
    for v, bit in zip(levels, bits):
        if e == FALSE:
            break
        if level[e if e > 0 else -e] == v:
            _, t, el = nodes[e if e > 0 else -e]
            if e < 0:
                t, el = -t, -el
        else:
            # position skipped by reduction: both cofactors equal e
            t = el = e
        steps.append((v, bit, el if bit else t))
        e = t if bit else el
    # the cut's own suffix lands in the left part
    left, right = e, FALSE
    mk_node = store.mk_node
    for v, bit, off in reversed(steps):
        if bit:
            left = mk_node(v, left, off)
            if right != FALSE:
                right = mk_node(v, right, FALSE)
        else:
            if left != FALSE:
                left = mk_node(v, FALSE, left)
            right = mk_node(v, off, right)
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


def _partition_at_positions(tables: Sequence[CountTable],
                            positions: Sequence[int]) -> LexPartition:
    """Cut the windows ``tables`` at the given strictly increasing 1-based member positions.

    ``tables`` count the lex windows of one set over one universe:
    disjoint and in ascending lex order.  A position counts the members
    of the whole set, so the parts are those of the merged set, which is
    never built; a part that spans windows is the OR of its pieces.  The
    last position must equal the total count; its cut is replaced by the
    all-ones assignment so the final window reaches the top of the cube.
    """
    store, levels = tables[0].store, tables[0].levels
    windows = iter(tables)
    table = next(windows)
    remainder, before = table.root, 0  # members of the windows before ``table``
    cuts, parts = [], []
    # precompute_counts checked each root's support against the universe,
    # and a split adds nodes only at universe levels, so no remainder needs
    # the whole-support check of split
    for p in positions[:-1]:
        pieces = []
        while p > before + table.root_count:
            pieces.append(remainder)
            before += table.root_count
            table = next(windows)
            remainder = table.root
        cut = unrank(table, p - before - 1)
        pair = _split_walk(store, remainder, cut, levels)
        pieces.append(pair.left)
        remainder = pair.right
        cuts.append(cut)
        parts.append(join_windows(store, pieces))
    cuts.append((1,) * len(levels))
    parts.append(join_windows(store, [remainder, *(t.root for t in windows)]))
    return LexPartition(cuts=tuple(cuts), parts=tuple(parts))


def _windows(table: CountTable | Sequence[CountTable]) -> tuple[CountTable, ...]:
    tables = (table,) if isinstance(table, CountTable) else tuple(table)
    if not tables:
        raise ValueError("no count tables to partition, expected at least one")
    return tables


def fold_states_lex(table: CountTable | Sequence[CountTable], k: int) -> LexPartition:
    """Partition into ``k`` lex-contiguous folds of near-equal state count.

    Fold ``i`` ends at the member in position ``ceil(i * count / k)``,
    so fold sizes differ by at most one.  When the set has fewer than
    ``k`` members, ``k`` drops to the member count and every fold holds
    one member; the empty set is one empty fold.  ``table`` may also be
    the count tables of a set's lex windows (see
    :func:`_partition_at_positions`); the folds are those of their OR.
    """
    if k < 1:
        raise ValueError(f"fold count must be >= 1, got {k}")
    tables = _windows(table)
    c = sum(t.root_count for t in tables)
    k = max(1, min(k, c))  # with k <= c the positions strictly increase
    return _partition_at_positions(tables, [-(-i * c // k) for i in range(1, k + 1)])


def states_lex_bounded(table: CountTable | Sequence[CountTable], bound: int) -> LexPartition:
    """Partition into as many lex-contiguous parts as needed.

    Every part holds at most ``bound`` members; all but the last hold
    exactly ``bound``.  ``table`` may also be the count tables of a
    set's lex windows, as in :func:`fold_states_lex`.
    """
    if bound < 1:
        raise ValueError(f"state bound must be >= 1, got {bound}")
    tables = _windows(table)
    c = sum(t.root_count for t in tables)
    positions = list(range(bound, c, bound))
    positions.append(c)
    return _partition_at_positions(tables, positions)


def join_windows(store: BddStore, windows: Sequence[int]) -> int:
    """The OR of lex windows; one non-empty window is returned as it is, none as false."""
    union = FALSE
    for w in windows:
        if w != FALSE:
            union = w if union == FALSE else store.apply("or", union, w)
    return union


def extreme_member(store: BddStore, f: int, levels: Sequence[int], bit: int) -> tuple[int, ...]:
    """The lex-least (``bit`` 0) or lex-greatest (``bit`` 1) member of ``f``.

    ``f`` must be non-empty and lie within the sorted universe
    ``levels``.  One walk down: each position takes the ``bit`` branch
    unless it is empty, and a position skipped by reduction takes
    ``bit``.
    """
    nodes, level = store._nodes, store._level
    bits = []
    e = f
    for v in levels:
        if level[e if e > 0 else -e] == v:
            _, t, el = nodes[e if e > 0 else -e]
            if e < 0:
                t, el = -t, -el
            b = bit if (t if bit else el) != FALSE else 1 - bit
            e = t if b else el
        else:
            b = bit
        bits.append(b)
    return tuple(bits)
