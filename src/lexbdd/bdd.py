"""Shared reduced ordered BDD store with complement edges.

Edges are signed integers: ``abs(e)`` is a node slot and a negative sign
means the pointed-to function is complemented.  Slot 1 is the only
physical sink, so ``+1`` is the constant true function and ``-1`` the
constant false one.  Stored nodes never carry a complemented Then-edge;
together with the two classic reduction rules this keeps the
representation canonical, so two edges denote the same function exactly
when they are the same integer.

Besides the node triples the store keeps a parallel level array with
one entry per slot, the sink's entry being ``n``, so the level of any
edge is one list index.  ``ite`` brings its arguments to the standard
triples of Brace, Rudell and Bryant ("Efficient Implementation of a BDD
Package", DAC 1990) before it consults its cache: an argument equal to
``f`` or ``not f`` becomes a constant, ``f`` is made regular by swapping
the branches, and ``g`` is made regular by complementing both branches
and the result.  ``ite(f, g, h)``, ``ite(not f, h, g)`` and
``not ite(f, not g, not h)`` therefore share one cache line.

The relational product ``and_exists`` runs one recursion to the sinks
for every call.  It and ``ite`` make their nodes inline, with the
reduction rule, complement normalisation and unique-table lookup of
``mk_node`` but not its ordering check: children are cofactors below
the node's level (level maps keep the order), and ``check`` re-verifies.
``ite`` also skips the normalisation: its Then-result is always regular.

All BDDs in one store share a single fixed variable order.  Variables
are identified by their level (position in that order); names are
cosmetic and only used for display and DOT export.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

TRUE = 1
FALSE = -1

_APPLY_OPS = ("and", "or", "xor")


class BddStore:
    """Shared node store with a unique table.

    The store is single-writer: every operation that may create nodes
    or remove them needs exclusive access.  A store that is no longer
    mutated can be read (``evaluate``, ``size``, traversals) from any
    number of threads.  Nodes are appended; only :meth:`compact`
    removes them, and only nodes made after a point its caller names
    and no longer holds.  The ``ite`` and relational-product caches are
    memo tables only: a dropped result is made again as the same
    function.  ``search._LayerSteps`` decides when the layer loops
    clear the caches and compact.
    """

    def __init__(self, variables: int | Iterable[str]):
        if isinstance(variables, int):
            names = [f"x{i}" for i in range(variables)]
        else:
            names = [str(v) for v in variables]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variable names in {names}")
        self._names = names
        self._level_by_name = {v: i for i, v in enumerate(names)}
        # slot 0 is unused, slot 1 is the sink sentinel; ``_level`` is
        # parallel to ``_nodes``, with the sink at level n and slot 0 at -1
        # so that an edge 0 fails every ordering check
        self._nodes: list[tuple[int, int, int] | None] = [None, None]
        self._level: list[int] = [-1, len(names)]
        self._unique: dict[tuple[int, int, int], int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        # relational products only: (product token, f, g, c) -> result
        self._op_cache: dict[tuple[int, int, int, int], int] = {}
        # (levels, read map, write map) -> cache token and per-level tables
        self._products: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    # introspection

    @property
    def n(self) -> int:
        """Number of variables in the fixed order."""
        return len(self._names)

    def node_count(self) -> int:
        """Number of internal nodes the store holds; only :meth:`compact` lowers it."""
        return len(self._nodes) - 2

    def node(self, slot: int) -> tuple[int, int, int]:
        """Return ``(level, then_edge, else_edge)`` for a slot."""
        t = self._nodes[abs(slot)]
        if t is None:
            raise ValueError(f"{slot} is not a node slot")
        return t

    def level_of_edge(self, e: int) -> int:
        """Level of the edge's target node; sinks sit at level ``n``."""
        return self._level[e if e > 0 else -e]

    # ------------------------------------------------------------------
    # construction

    def mk_node(self, level: int, then_edge: int, else_edge: int) -> int:
        """Return the canonical edge for ``(level ? then : else)``.

        Applies both reduction rules and normalizes complement marks so
        that the stored Then-edge is always regular.  Raises
        ``ValueError`` when the children do not lie strictly below
        ``level`` in the variable order.
        """
        levels = self._level
        n = len(self._names)
        if not 0 <= level < n:
            raise ValueError(f"level {level} out of range 0..{n - 1}")
        lt = levels[then_edge if then_edge > 0 else -then_edge]
        le = levels[else_edge if else_edge > 0 else -else_edge]
        if lt <= level or le <= level:
            raise ValueError(
                f"ordering violation: node at level {level} may not point to "
                f"levels {lt} / {le}")
        if then_edge == else_edge:
            return then_edge
        if then_edge < 0:
            sign = -1
            then_edge = -then_edge
            else_edge = -else_edge
        else:
            sign = 1
        key = (level, then_edge, else_edge)
        slot = self._unique.get(key)
        if slot is None:
            slot = len(self._nodes)
            self._nodes.append(key)
            levels.append(level)
            self._unique[key] = slot
        return sign * slot

    def var(self, which: int | str) -> int:
        """Edge for the single-variable function at a level (or by name)."""
        level = self._level_by_name[which] if isinstance(which, str) else which
        return self.mk_node(level, TRUE, FALSE)

    def cube(self, literals: Mapping[int, bool]) -> int:
        """Conjunction of literals given as ``{level: polarity}``."""
        e = TRUE
        for level in sorted(literals, reverse=True):
            if literals[level]:
                e = self.mk_node(level, e, FALSE)
            else:
                e = self.mk_node(level, FALSE, e)
        return e

    # ------------------------------------------------------------------
    # boolean operations

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f and g) or (not f and h)``.

        Equivalent calls share one cache line: the arguments are brought
        to a standard triple first (see the module docstring).
        """
        if f == 1:
            return g
        if f == -1:
            return h
        if g == f:
            g = 1
        elif g == -f:
            g = -1
        if h == f:
            h = -1
        elif h == -f:
            h = 1
        if g == h:
            return g
        if g == 1 and h == -1:
            return f
        if g == -1 and h == 1:
            return -f
        if f < 0:
            f = -f
            g, h = h, g
        if g < 0:
            g = -g
            h = -h
            sign = -1
        else:
            sign = 1
        key = (f, g, h)
        r = self._ite_cache.get(key)
        if r is not None:
            return sign * r
        nodes = self._nodes
        levels = self._level
        ah = h if h > 0 else -h
        lf = levels[f]
        lg = levels[g]
        lh = levels[ah]
        top = lf if lf < lg else lg
        if lh < top:
            top = lh
        if lf == top:
            _, f1, f0 = nodes[f]
        else:
            f1 = f0 = f
        if lg == top:
            _, g1, g0 = nodes[g]
        else:
            g1 = g0 = g
        if lh == top:
            _, h1, h0 = nodes[ah]
            if h < 0:
                h1 = -h1
                h0 = -h0
        else:
            h1 = h0 = h
        # a constant condition or equal branches need no call, which would
        # return before reading the cache; f1 is regular, so not FALSE
        t = g1 if f1 == 1 or g1 == h1 else self.ite(f1, g1, h1)
        e = g0 if f0 == 1 or g0 == h0 else h0 if f0 == -1 else self.ite(f0, g0, h0)
        # mk_node inline; t needs no complement normalisation, as f1 and g1
        # are regular and so ite(f1, g1, h1) is true on the all-ones assignment
        if t == e:
            r = t
        else:
            node = (top, t, e)
            r = self._unique.get(node)
            if r is None:
                r = len(nodes)
                nodes.append(node)
                levels.append(top)
                self._unique[node] = r
        self._ite_cache[key] = r
        return sign * r

    def apply(self, op: str, f: int, g: int) -> int:
        """Binary operation ``op`` in {'and', 'or', 'xor'}."""
        # commutative: sort operands so both argument orders share a cache line
        a, b = (f, g) if f <= g else (g, f)
        if op == "and":
            return self.ite(a, b, FALSE)
        if op == "or":
            return self.ite(a, TRUE, b)
        if op == "xor":
            return self.ite(a, -b, b)
        raise ValueError(f"unknown operation {op!r}, expected one of {_APPLY_OPS}")

    def validate_levels(self, levels: Iterable[int]) -> frozenset[int]:
        """Check that every level names a store variable; returns them frozen."""
        q = frozenset(levels)
        n = len(self._names)
        bad = [lvl for lvl in q if not 0 <= lvl < n]
        if bad:
            raise ValueError(f"levels {sorted(bad)} are not store variables (n={n})")
        return q

    def and_exists(self, levels: Iterable[int], f: int, g: int, c: int = TRUE,
                   read: Mapping[int, int] | None = None,
                   write: Mapping[int, int] | None = None) -> int:
        """Relational product: ``exists(levels, f and g and c)`` without the full conjunction.

        ``c`` is a care set: the product is taken only where ``c`` holds,
        and a branch on which ``c`` is ``FALSE`` is cut off before it is
        expanded.  ``c`` may depend on quantified levels too; the result
        is the exact ternary product, not an approximation.

        Level maps save a :meth:`rename`: ``g``'s node at level ``l`` acts
        as one at ``read[l]``, and a result node at level ``l`` is made at
        ``write[l]``; ``levels`` are taken between the two.  A map that
        would reorder two levels raises ``ValueError``; two levels a map
        sends to one must not both occur (in ``g``, or in the result).
        No two operands are compared, only each with the constants: a
        mapped ``g`` is not the function its edge names.  Plain
        quantification is the product with ``g = c = TRUE``.
        """
        q = self.validate_levels(levels)
        read, write = (tuple(sorted((k, v) for k, v in (m or {}).items() if k != v))
                       for m in (read, write))
        product = self._products.get((q, read, write))
        if product is None:
            self.validate_levels(lvl for pair in read + write for lvl in pair)
            rlev, wlev = ([dict(m).get(lvl, lvl) for lvl in range(len(self._names) + 1)]
                          for m in (read, write))
            if any(a > b for m in (rlev, wlev) for a, b in zip(m, m[1:])):
                raise ValueError(f"level map {dict(read)} or {dict(write)} reorders levels")
            quant = [lvl in q for lvl in range(len(rlev))]
            product = (len(self._products), quant, rlev, wlev)
            self._products[q, read, write] = product
        return self._and_exists_rec(product, f, g, c)

    def _and_exists_rec(self, product: tuple, f: int, g: int, c: int) -> int:
        tok, quant, rlev, wlev = product
        if f == -1 or g == -1 or c == -1:
            return FALSE
        if f == 1 and g == 1 and c == 1:
            return TRUE
        levels = self._level
        af = f if f > 0 else -f
        ag = g if g > 0 else -g
        ac = c if c > 0 else -c
        lf = levels[af]
        lg = rlev[levels[ag]]
        lc = levels[ac]
        top = lf if lf < lg else lg
        if lc < top:
            top = lc
        key = (tok, f, g, c)
        r = self._op_cache.get(key)
        if r is not None:
            return r
        nodes = self._nodes
        if lf == top:
            _, f1, f0 = nodes[af]
            if f < 0:
                f1 = -f1
                f0 = -f0
        else:
            f1 = f0 = f
        if lg == top:
            _, g1, g0 = nodes[ag]
            if g < 0:
                g1 = -g1
                g0 = -g0
        else:
            g1 = g0 = g
        if lc == top:
            _, c1, c0 = nodes[ac]
            if c < 0:
                c1 = -c1
                c0 = -c0
        else:
            c1 = c0 = c
        # a branch with a FALSE operand is FALSE without a call
        if quant[top]:
            r0 = FALSE if f0 == -1 or g0 == -1 or c0 == -1 else \
                self._and_exists_rec(product, f0, g0, c0)
            if r0 == TRUE:
                r = TRUE
            else:
                r1 = FALSE if f1 == -1 or g1 == -1 or c1 == -1 else \
                    self._and_exists_rec(product, f1, g1, c1)
                # an OR with FALSE is the other side, with no ite call
                r = r1 if r0 == FALSE else r0 if r1 == FALSE else self.ite(r1, TRUE, r0)
        else:
            r1 = FALSE if f1 == -1 or g1 == -1 or c1 == -1 else \
                self._and_exists_rec(product, f1, g1, c1)
            r0 = FALSE if f0 == -1 or g0 == -1 or c0 == -1 else \
                self._and_exists_rec(product, f0, g0, c0)
            # mk_node inline, as in ite, at the written level
            if r1 == r0:
                r = r1
            else:
                lvl = wlev[top]
                if r1 < 0:
                    node = (lvl, -r1, -r0)
                else:
                    node = (lvl, r1, r0)
                r = self._unique.get(node)
                if r is None:
                    r = len(nodes)
                    nodes.append(node)
                    levels.append(lvl)
                    self._unique[node] = r
                if r1 < 0:
                    r = -r
        self._op_cache[key] = r
        return r

    def rename(self, f: int, mapping: Mapping[int | str, int | str]) -> int:
        """Substitute variables per ``mapping`` (level or name keys).

        Every node of ``f`` is rebuilt at its renamed level through
        ``mk_node``, so a mapping that would put a node at or below one of
        its renamed children raises ``ValueError``; for every mapping it
        accepts the result is the exact substitution.  Interleaved
        current/next state variables pass for the usual one-position
        shifts.  The nodes are rebuilt in one loop in slot order, which
        puts every child before its parents, as the store keeps every
        child in a lower slot; no cache is kept across calls.
        """
        levels: dict[int, int] = {}
        for k, v in mapping.items():
            kl = self._level_by_name[k] if isinstance(k, str) else k
            vl = self._level_by_name[v] if isinstance(v, str) else v
            self.validate_levels((kl, vl))
            levels[kl] = vl
        levels = {k: v for k, v in levels.items() if k != v}
        if len(set(levels.values())) != len(levels):
            raise ValueError("rename mapping is not injective")
        if not levels:
            return f
        nodes = self._nodes
        renamed = {1: 1}
        for slot in sorted(self.descendants(f)):
            lvl, t, el = nodes[slot]
            el = renamed[el] if el > 0 else -renamed[-el]
            renamed[slot] = self.mk_node(levels.get(lvl, lvl), renamed[t], el)
        return renamed[f] if f > 0 else -renamed[-f]

    def clear_caches(self) -> None:
        """Drop the ``ite`` and relational-product caches.

        Every edge made so far stays valid, as the node list and the
        unique table are kept: a dropped result is recomputed to the
        same function.
        """
        self._ite_cache.clear()
        self._op_cache.clear()

    def compact(self, since: int, roots: Iterable[int]) -> list[int]:
        """Remove the nodes made after the first ``since`` that no root reaches.

        ``since`` is a past :meth:`node_count`.  The first ``since``
        nodes never move, so every edge that existed when the store held
        that many keeps its meaning.  Each surviving later node moves
        down to its rank among the survivors, which keeps children in
        lower slots.  Both caches are emptied, as their keys may name
        removed or moved slots.  Returns ``roots`` remapped, in order;
        only those edges stay valid among the ones made after ``since``.
        The pass loops over the later slots and never recurses, so its
        cost grows with the nodes made after ``since``, not with the
        store.  Raises ``ValueError`` for a ``since`` above the count or
        a root that is not an edge of the store.
        """
        nodes, levels, unique = self._nodes, self._level, self._unique
        base, end = since + 2, len(nodes)
        if not 2 <= base <= end:
            raise ValueError(f"since must be in 0..{end - 2}, got {since}")
        roots = list(roots)
        live = bytearray(end - base)
        for e in roots:
            a = e if e > 0 else -e
            if not 1 <= a < end:
                raise ValueError(f"root {e} is not an edge of this store")
            if a >= base:
                live[a - base] = 1
        # children sit in lower slots, so one downward sweep marks them all
        for slot in range(end - 1, base - 1, -1):
            if live[slot - base]:
                _, t, el = nodes[slot]
                if t >= base:
                    live[t - base] = 1
                if el < 0:
                    el = -el
                if el >= base:
                    live[el - base] = 1
        # slots below the first removed one keep their place; a moved
        # node's new key may equal a later node's old one, so every old
        # key from there on goes before any new one comes in
        cut = live.find(0)
        cut = end if cut < 0 else base + cut
        for slot in range(cut, end):
            del unique[nodes[slot]]
        moved = [0] * (end - cut)
        top = cut
        for slot in range(cut, end):
            if live[slot - base]:
                lvl, t, el = nodes[slot]
                if t >= cut:
                    t = moved[t - cut]
                if el >= cut:
                    el = moved[el - cut]
                elif el <= -cut:
                    el = -moved[-el - cut]
                key = (lvl, t, el)
                nodes[top] = key
                levels[top] = lvl
                unique[key] = top
                moved[slot - cut] = top
                top += 1
        del nodes[top:]
        del levels[top:]
        # a dict keeps the room of its deleted keys and, once that fills,
        # grows to a table sized for more than it holds; when more nodes
        # went than stayed, a copy sized to the survivors costs less than
        # the removal did
        if end - top > top:
            self._unique = dict(unique)
        self._ite_cache.clear()
        self._op_cache.clear()
        return [e if -cut < e < cut else moved[e - cut] if e > 0 else -moved[-e - cut]
                for e in roots]

    # ------------------------------------------------------------------
    # read-only queries

    def evaluate(self, e: int, bits: Sequence) -> bool:
        """Evaluate ``e`` on an assignment indexed by level.

        Walks one root-to-sink path, xor-ing complement marks along the
        way.  ``bits`` must cover every level in the support; extra
        entries are ignored.
        """
        nodes = self._nodes
        neg = False
        while e != 1 and e != -1:
            if e < 0:
                neg = not neg
                e = -e
            lvl, t, el = nodes[e]
            e = t if bits[lvl] else el
        return (e == 1) != neg

    def descendants(self, *roots: int) -> set[int]:
        """Slots of all internal nodes reachable from the given edges."""
        # the sink is seen from the start and each child is tested once, before
        # it is pushed; Then-edges are regular, so only Else-edges drop a sign
        stack = list({abs(e) for e in roots} - {1})
        seen = {1, *stack}
        nodes = self._nodes
        while stack:
            _, t, el = nodes[stack.pop()]
            if t not in seen:
                seen.add(t)
                stack.append(t)
            if el < 0:
                el = -el
            if el not in seen:
                seen.add(el)
                stack.append(el)
        seen.discard(1)
        return seen

    def size(self, e: int) -> int:
        """Number of internal nodes of the diagram."""
        return len(self.descendants(e))

    def support_levels(self, e: int) -> frozenset[int]:
        """Levels of the variables the function actually depends on."""
        return frozenset(self._nodes[a][0] for a in self.descendants(e))

    def check(self) -> None:
        """Verify the structural store invariants; raises on corruption."""
        n = len(self._names)
        if len(self._level) != len(self._nodes) or self._level[1] != n:
            raise AssertionError(
                f"level array has {len(self._level)} slots for {len(self._nodes)} "
                f"and the sink at level {self._level[1]}, not {n}")
        for slot in range(2, len(self._nodes)):
            lvl, t, el = self._nodes[slot]
            if t < 0:
                raise AssertionError(f"slot {slot}: complemented Then-edge {t}")
            if t == el:
                raise AssertionError(f"slot {slot}: redundant node")
            if not (0 <= lvl < n):
                raise AssertionError(f"slot {slot}: bad level {lvl}")
            if self._level[slot] != lvl:
                raise AssertionError(f"slot {slot}: level array says {self._level[slot]}, node {lvl}")
            for child in (t, el):
                # rename, compact and precompute_counts rely on this:
                # children sit in lower slots
                if not 1 <= abs(child) < slot:
                    raise AssertionError(f"slot {slot}: edge {child} to a dangling or higher slot")
                if self.level_of_edge(child) <= lvl:
                    raise AssertionError(f"slot {slot}: order violation to {child}")
            if self._unique.get((lvl, t, el)) != slot:
                raise AssertionError(f"slot {slot}: unique table out of sync")
        if len(self._unique) != len(self._nodes) - 2:
            raise AssertionError("duplicate triples in store")

    # ------------------------------------------------------------------
    # export

    def to_dot(self, roots: Mapping[str, int]) -> str:
        """DOT text for the given root edges.

        Solid arrows are Then-edges, dashed ones Else-edges, and a dot
        arrowtail marks a complemented edge.
        """
        lines = [
            "digraph bdd {",
            '  1 [shape=box, label="1"];',
        ]

        def edge_attr(e: int, style: str) -> str:
            attrs = []
            if style == "else":
                attrs.append("style=dashed")
            if e < 0:
                attrs.append("dir=both")
                attrs.append("arrowtail=dot")
            return f" [{', '.join(attrs)}]" if attrs else ""

        for slot in sorted(self.descendants(*roots.values())):
            lvl, t, el = self._nodes[slot]
            lines.append(f'  {slot} [shape=circle, label="{self._names[lvl]}"];')
            lines.append(f"  {slot} -> {abs(t)}{edge_attr(t, 'then')};")
            lines.append(f"  {slot} -> {abs(el)}{edge_attr(el, 'else')};")
        for label, e in roots.items():
            name = f'root_{label}'
            lines.append(f'  "{name}" [shape=plaintext, label="{label}"];')
            lines.append(f'  "{name}" -> {abs(e)}{edge_attr(e, "then")};')
        lines.append("}")
        return "\n".join(lines) + "\n"
