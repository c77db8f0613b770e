"""Invertible minimal perfect hash over the satisfying assignments.

``rank`` maps a satisfying assignment to its 0-based position in the
lexicographic order of all satisfying assignments; ``unrank`` inverts
it.  Both are single root-to-sink walks over a precomputed
:class:`~lexbdd.counting.CountTable`, so they cost one node visit per
variable at most.

Both walks share the same accounting: descending the Then-edge of a
node first skips over the whole Else-mass (every assignment with a 0
at that position is lexicographically smaller), and a reduction gap of
``g`` skipped positions turns into a factor ``2**g`` block of equal
sub-ranks, addressed by the binary value of the skipped bits.

The walks are flat loops over the store's node and level arrays: an
edge's universe position is ``pos[level[abs(e)]]``, which also holds for
the sink, as the universe maps the sink's level to ``n``.  The block
arithmetic runs only where a gap is non-zero, which on the reachable
states of the bundled tictactoe never happens.  A non-member ends its rank walk at the 0-sink and the
walk reports it as ``None``, so :func:`member_rank_or_none` answers
without raising; only :func:`rank` turns it into
:class:`NotAMemberError`.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence

from .counting import CountTable


class NotAMemberError(ValueError):
    """The assignment does not satisfy the hashed function."""


def bits_to_int(bits: Sequence) -> int:
    """Binary value of a bit vector, first bit most significant."""
    value = 0
    for b in bits:
        value = (value << 1) | (1 if b else 0)
    return value


def int_to_bits(value: int, width: int) -> tuple[int, ...]:
    """Inverse of :func:`bits_to_int`; raises if ``value`` needs more bits."""
    if value >> width:
        raise ValueError(f"{value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def rank(table: CountTable, bits: Sequence) -> int:
    """Position of a satisfying assignment in lexicographic order.

    Raises :class:`NotAMemberError` when the walk reaches the 0-sink,
    i.e. the assignment does not satisfy the function.
    """
    value, _ = _rank_walk(table, bits)
    if value is None:
        raise NotAMemberError(f"assignment {tuple(bits)} does not satisfy the root")
    return value


def _rank_walk(table: CountTable, bits: Sequence) -> tuple[int | None, int]:
    """Rank of ``bits`` (``None`` for a non-member) and the number of nodes visited."""
    m = table.n
    if len(bits) != m:
        raise ValueError(f"assignment has {len(bits)} bits, universe has {m}")
    store = table.store
    nodes = store._nodes
    level = store._level
    pos = table.pos
    counts = table.counts
    e = table.root
    i = pos[level[e if e > 0 else -e]]
    # head gap: every assignment of the variables above the root repeats
    # the full satisfying set of the root once
    acc = bits_to_int(bits[:i]) * counts[e] if i else 0
    visits = 0
    while e != 1 and e != -1:
        visits += 1
        if e > 0:
            _, t, el = nodes[e]
        else:
            _, t, el = nodes[-e]
            t, el = -t, -el
        j = pos[level[el if el > 0 else -el]]
        if bits[i]:
            k = pos[level[t if t > 0 else -t]]
            acc += counts[el] << (j - i - 1)
            if k > i + 1:
                acc += bits_to_int(bits[i + 1:k]) * counts[t]
            e, i = t, k
        else:
            if j > i + 1:
                acc += bits_to_int(bits[i + 1:j]) * counts[el]
            e, i = el, j
    assert visits <= m
    if e == -1:
        return None, visits
    return acc, visits


def unrank(table: CountTable, r: int) -> tuple[int, ...]:
    """The unique satisfying assignment with the given rank.

    ``r`` must be an integer in ``0 .. root_count - 1``; anything else
    raises ``TypeError`` or ``ValueError``.
    """
    bits, _ = _unrank_walk(table, r)
    return bits


def _unrank_walk(table: CountTable, r: int) -> tuple[tuple[int, ...], int]:
    """Assignment of rank ``r`` and the number of nodes visited."""
    r = operator.index(r)
    if not 0 <= r < table.root_count:
        raise ValueError(f"rank {r} out of range 0..{table.root_count - 1}")
    store = table.store
    nodes = store._nodes
    level = store._level
    pos = table.pos
    counts = table.counts
    m = table.n
    bits = [0] * m
    e = table.root
    i = pos[level[e if e > 0 else -e]]
    if i:
        d, r = divmod(r, counts[e])
        bits[:i] = int_to_bits(d, i)
    visits = 0
    while e != 1 and e != -1:
        visits += 1
        if e > 0:
            _, t, el = nodes[e]
        else:
            _, t, el = nodes[-e]
            t, el = -t, -el
        j = pos[level[el if el > 0 else -el]]
        else_mass = counts[el] << (j - i - 1)
        if r < else_mass:
            if j > i + 1:  # with no gap the sub-rank is already ``r``
                d, r = divmod(r, counts[el])
                bits[i + 1:j] = int_to_bits(d, j - i - 1)
            e, i = el, j
        else:
            bits[i] = 1
            r -= else_mass
            k = pos[level[t if t > 0 else -t]]
            if k > i + 1:
                d, r = divmod(r, counts[t])
                bits[i + 1:k] = int_to_bits(d, k - i - 1)
            e, i = t, k
    assert e == 1 and r == 0, "unrank walk left the satisfying set"
    assert visits <= m
    return tuple(bits), visits


def member_rank_or_none(table: CountTable, bits: Sequence) -> int | None:
    """Total variant of :func:`rank`: ``None`` for non-members."""
    return _rank_walk(table, bits)[0]
