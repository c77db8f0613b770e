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

``ite`` and the unquantified levels of the relational product make
their nodes inline, with the reduction rule, complement normalisation
and unique-table lookup of ``mk_node`` but not its ordering check:
their children are built from cofactors below the node's level, and
``check`` re-verifies the whole store.  ``ite`` leaves out the
normalisation too, as its Then-result is always regular (see there).

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
    """Append-only shared node store with a unique table.

    The store is single-writer: every operation that may create nodes
    needs exclusive access.  A store that is no longer mutated can be
    read (``evaluate``, ``size``, traversals) from any number of
    threads.  There is no garbage collection; throw the store away and
    build a fresh one between independent workloads.
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
        self._op_cache: dict[tuple, int] = {}
        self._varset_tokens: dict[frozenset[int], int] = {}

    # ------------------------------------------------------------------
    # introspection

    @property
    def n(self) -> int:
        """Number of variables in the fixed order."""
        return len(self._names)

    @property
    def var_names(self) -> tuple[str, ...]:
        return tuple(self._names)

    def node_count(self) -> int:
        """Number of internal nodes ever created (the store never shrinks)."""
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

    @staticmethod
    def negate(e: int) -> int:
        """Complement a function; constant time, never allocates."""
        return -e

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

    def from_truth_table(self, table: Sequence) -> int:
        """Build the canonical BDD of a full truth table.

        ``table[i]`` is the value of the function on the assignment
        whose bits (level 0 first, most significant) encode ``i``.
        """
        n = len(self._names)
        if len(table) != 1 << n:
            raise ValueError(f"need {1 << n} entries, got {len(table)}")

        row = [TRUE if v else FALSE for v in table]
        for level in range(n - 1, -1, -1):
            row = [self.mk_node(level, row[i + 1], row[i]) for i in range(0, len(row), 2)]
        return row[0]

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
        t = self.ite(f1, g1, h1)
        e = self.ite(f0, g0, h0)
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

    def _varset_token(self, levels: frozenset[int]) -> int:
        tok = self._varset_tokens.get(levels)
        if tok is None:
            tok = len(self._varset_tokens)
            self._varset_tokens[levels] = tok
        return tok

    def validate_levels(self, levels: Iterable[int]) -> frozenset[int]:
        """Check that every level names a store variable; returns them frozen."""
        q = frozenset(levels)
        n = len(self._names)
        bad = [lvl for lvl in q if not 0 <= lvl < n]
        if bad:
            raise ValueError(f"levels {sorted(bad)} are not store variables (n={n})")
        return q

    def and_exists(self, levels: Iterable[int], f: int, g: int) -> int:
        """Relational product: ``exists(levels, f and g)`` without the full conjunction.

        This is the store's only quantification kernel; :meth:`exists`
        calls it with ``g = TRUE``.
        """
        q = self.validate_levels(levels)
        if not q:
            return self.apply("and", f, g)
        tok = self._varset_token(q)
        return self._and_exists_rec(q, max(q), tok, f, g)

    def exists(self, levels: Iterable[int], f: int) -> int:
        """Quantify ``levels`` out of ``f``: the relational product with ``TRUE``."""
        return self.and_exists(levels, f, TRUE)

    def _and_exists_rec(self, q: frozenset[int], maxq: int, tok: int, f: int, g: int) -> int:
        if f == -1 or g == -1 or f == -g:
            return FALSE
        if f == g:
            g = TRUE
        if f == 1 and g == 1:
            return TRUE
        if g < f:
            f, g = g, f
        levels = self._level
        af = f if f > 0 else -f
        ag = g if g > 0 else -g
        lf = levels[af]
        lg = levels[ag]
        top = lf if lf < lg else lg
        if top > maxq:
            # no quantified variable can occur below this level
            return self.ite(f, g, FALSE)
        key = ("ae", tok, f, g)
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
        if top in q:
            r0 = self._and_exists_rec(q, maxq, tok, f0, g0)
            if r0 == TRUE:
                r = TRUE
            else:
                r1 = self._and_exists_rec(q, maxq, tok, f1, g1)
                r = self.ite(r1, TRUE, r0)
        else:
            r1 = self._and_exists_rec(q, maxq, tok, f1, g1)
            r0 = self._and_exists_rec(q, maxq, tok, f0, g0)
            # mk_node inline, as in ite
            if r1 == r0:
                r = r1
            else:
                if r1 < 0:
                    node = (top, -r1, -r0)
                else:
                    node = (top, r1, r0)
                r = self._unique.get(node)
                if r is None:
                    r = len(nodes)
                    nodes.append(node)
                    levels.append(top)
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
        shifts.
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
        tok = self._varset_token(frozenset(levels.items()))
        return self._rename_rec(levels, tok, f)

    def _rename_rec(self, levels: dict[int, int], tok: int, e: int) -> int:
        if e == 1 or e == -1:
            return e
        key = ("rn", tok, e)
        r = self._op_cache.get(key)
        if r is not None:
            return r
        a = -e if e < 0 else e
        lvl, t, el = self._nodes[a]
        if e < 0:
            t, el = -t, -el
        r = self.mk_node(levels.get(lvl, lvl),
                         self._rename_rec(levels, tok, t),
                         self._rename_rec(levels, tok, el))
        self._op_cache[key] = r
        return r

    def clear_caches(self) -> None:
        """Drop all memoization tables (results stay valid)."""
        self._ite_cache.clear()
        self._op_cache.clear()

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
                if not 1 <= abs(child) < len(self._nodes):
                    raise AssertionError(f"slot {slot}: dangling edge {child}")
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
