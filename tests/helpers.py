"""Shared test utilities: random function corpora and enumeration oracles.

The oracles here deliberately avoid the code paths they check: counts,
ranks and set identities are derived by enumerating all assignments and
evaluating the BDD by path walk.
"""

import itertools
import random

from lexbdd import BddStore
from lexbdd.bdd import FALSE, TRUE
from lexbdd.games import formula_edge


def from_truth_table(store: BddStore, table) -> int:
    """Build the canonical BDD of a full truth table over all of the store's levels.

    ``table[i]`` is the value of the function on the assignment whose
    bits (level 0 first, most significant) encode ``i``.
    """
    n = store.n
    if len(table) != 1 << n:
        raise ValueError(f"need {1 << n} entries, got {len(table)}")
    row = [TRUE if v else FALSE for v in table]
    for level in range(n - 1, -1, -1):
        row = [store.mk_node(level, row[i + 1], row[i]) for i in range(0, len(row), 2)]
    return row[0]


def exists(store: BddStore, levels, f: int) -> int:
    """Quantify ``levels`` out of ``f``: the relational product with ``TRUE``."""
    return store.and_exists(levels, f, TRUE)


def action_relations(ts, spec):
    """Each action's relation, compiled on its own: ``(player, edge, written)`` per action.

    ``edge`` is the precondition and one biconditional ``v' <-> rhs``
    per variable ``v`` the action assigns, with no frame axioms, and
    ``written`` holds the current levels of those variables.  This is
    the per-action form that a player's move relation frames and ORs.
    """
    store = ts.store
    out = []
    for action in spec.actions:
        effects = dict(action.effects)
        edge = formula_edge(ts, spec, action.precondition)
        written = []
        for lvl, v in zip(ts.current, spec.variables):
            if v in effects:
                rhs = formula_edge(ts, spec, effects[v])
                edge = store.apply("and", edge, store.ite(store.var(lvl + 1), rhs, -rhs))
                written.append(lvl)
        out.append((action.player, edge, tuple(written)))
    return out


def merged(store: BddStore, windows) -> int:
    """The OR of a forward layer's windows, one ``apply`` at a time."""
    union = FALSE
    for w in windows:
        union = store.apply("or", union, w)
    return union


def negate(e: int) -> int:
    """Complement a function; constant time, never allocates."""
    return -e


def random_table(rng: random.Random, n: int, density: float = 0.5):
    return [rng.random() < density for _ in range(1 << n)]


def random_function(rng: random.Random, n: int, density: float = 0.5,
                    complemented: bool = False):
    """Fresh store plus a random function built from a truth table."""
    store = BddStore(n)
    table = random_table(rng, n, density)
    f = from_truth_table(store, table)
    if complemented:
        # exercise functions reached only through a complement mark
        f = -f
        table = [not v for v in table]
    return store, f, table


def corpus(seed: int, count: int, sizes=range(4, 13)):
    """Deterministic stream of (store, f, n) with varied size and density."""
    rng = random.Random(seed)
    sizes = list(sizes)
    for i in range(count):
        n = rng.choice(sizes)
        density = rng.choice((0.1, 0.3, 0.5, 0.7, 0.9))
        store, f, _ = random_function(rng, n, density, complemented=i % 2 == 1)
        yield store, f, n


def all_assignments(n: int):
    """Every n-bit assignment, in lexicographic order."""
    return itertools.product((0, 1), repeat=n)


def satisfying(store: BddStore, f: int, n: int | None = None):
    """Lex-ordered satisfying assignments, by exhaustive evaluation."""
    if n is None:
        n = store.n
    return [bits for bits in all_assignments(n) if store.evaluate(f, bits)]


def enum_count(store: BddStore, f: int, n: int | None = None) -> int:
    return len(satisfying(store, f, n))


def check_lex_partition(store, f, n, part, total, k):
    """Assert the five defining conditions of a lex partition, by enumeration.

    1. every part lives in the same store and order (structural given);
    2. cuts strictly increase and end at all-ones;
    3. the parts disjoin to f;
    4. parts are pairwise disjoint;
    5. each part is exactly f within its half-open lex window.
    """
    cuts, parts = part.cuts, part.parts
    assert cuts[-1] == (1,) * n
    assert all(a < b for a, b in zip(cuts, cuts[1:]))
    union = FALSE
    for p in parts:
        union = store.apply("or", union, p)
    assert union == f
    for i, p in enumerate(parts):
        for q in parts[i + 1:]:
            assert store.apply("and", p, q) == FALSE
    sats = satisfying(store, f, n)
    lower = None
    for cut, p in zip(cuts, parts):
        expected = [b for b in sats if (lower is None or b > lower) and b <= cut]
        assert satisfying(store, p, n) == expected
        lower = cut
    if total:
        sizes = [enum_count(store, p, n) for p in parts]
        assert max(sizes) - min(sizes) <= 1
        assert len(parts) == min(k, total)
