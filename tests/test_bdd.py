"""Store, node construction, and boolean operation tests."""

import gc
import itertools
import random
import weakref

import pytest

from lexbdd import BddStore
from lexbdd.bdd import FALSE, TRUE

from helpers import all_assignments, enum_count, exists, from_truth_table, negate, \
    random_function, random_table, satisfying


def test_sink_conventions():
    store = BddStore(2)
    assert store.level_of_edge(TRUE) == 2
    assert store.level_of_edge(FALSE) == 2
    assert store.evaluate(TRUE, (0, 0)) is True
    assert store.evaluate(FALSE, (1, 1)) is False


def test_mk_node_elimination_rule():
    store = BddStore(2)
    assert store.mk_node(0, TRUE, TRUE) == TRUE
    assert store.mk_node(1, FALSE, FALSE) == FALSE
    assert store.node_count() == 0


def test_mk_node_unique_table():
    store = BddStore(3)
    a = store.mk_node(1, TRUE, FALSE)
    b = store.mk_node(1, TRUE, FALSE)
    assert a == b
    assert store.node_count() == 1


def test_negation_reuses_the_slot():
    store = BddStore(2)
    x1 = store.mk_node(0, TRUE, FALSE)
    before = store.node_count()
    neg = -x1
    assert store.node_count() == before
    assert abs(neg) == abs(x1) and neg != x1
    # and the complemented node is the one the unique table produces directly
    assert store.mk_node(0, FALSE, TRUE) == neg


def test_mk_node_ordering_violation():
    store = BddStore(3)
    deep = store.var(2)
    with pytest.raises(ValueError):
        store.mk_node(2, deep, FALSE)


def test_complement_involution_and_cost():
    store = BddStore(4)
    f = store.apply("or", store.var(0), store.var(2))
    before = store.node_count()
    assert -(-f) == f
    assert negate(negate(f)) == f
    assert negate(FALSE) == TRUE
    assert store.node_count() == before


def test_apply_identities():
    store = BddStore(3)
    f = store.apply("or", store.var(0), store.var(1))
    assert store.apply("and", f, -f) == FALSE
    assert store.apply("or", f, FALSE) == f
    assert store.apply("and", f, TRUE) == f
    assert store.apply("or", f, -f) == TRUE
    with pytest.raises(ValueError):
        store.apply("nand", f, f)


def test_xor_has_two_models_over_two_vars():
    store = BddStore(2)
    f = store.apply("xor", store.var(0), store.var(1))
    assert enum_count(store, f) == 2


@pytest.mark.parametrize("op, fn", [
    ("and", lambda a, b: a and b),
    ("or", lambda a, b: a or b),
    ("xor", lambda a, b: a != b),
])
def test_apply_against_enumeration(op, fn):
    rng = random.Random(7)
    for _ in range(20):
        store, f, table_f = random_function(rng, 5)
        g = from_truth_table(store, random_table := [rng.random() < 0.5 for _ in range(32)])
        h = store.apply(op, f, g)
        for i, bits in enumerate(all_assignments(5)):
            assert store.evaluate(h, bits) == fn(bool(table_f[i]), bool(random_table[i]))


def test_ite_against_enumeration():
    # random f, g, h in every sign combination, plus the aliasing cases that
    # the standard triples rewrite: g, h in {f, not f, TRUE, FALSE}
    rng = random.Random(11)
    for _ in range(10):
        store = BddStore(5)
        tables = [[rng.random() < 0.5 for _ in range(32)] for _ in range(3)]
        f, g, h = (from_truth_table(store, t) for t in tables)
        rows = list(all_assignments(5))
        for sf, sg, sh in itertools.product((1, -1), repeat=3):
            fs = sf * f
            for gs in (sg * g, fs, -fs, TRUE, FALSE):
                for hs in (sh * h, fs, -fs, TRUE, FALSE):
                    r = store.ite(fs, gs, hs)
                    for bits in rows:
                        expected = store.evaluate(gs if store.evaluate(fs, bits) else hs, bits)
                        assert store.evaluate(r, bits) == expected
        for bits, tf, tg, th in zip(rows, *tables):
            assert store.evaluate(store.ite(f, g, h), bits) == (tg if tf else th)
        store.check()


def test_equivalent_ite_calls_share_one_cache_line():
    rng = random.Random(3)
    store = BddStore(6)
    f, g, h = (from_truth_table(store, [rng.random() < 0.5 for _ in range(64)])
               for _ in range(3))
    r = store.ite(f, g, h)
    cached = len(store._ite_cache)
    assert store.ite(-f, h, g) == r
    assert -store.ite(f, -g, -h) == r
    assert -store.ite(-f, -h, -g) == r
    assert len(store._ite_cache) == cached


def test_check_catches_a_stale_level_array():
    store = BddStore(3)
    x = store.apply("and", store.var(0), store.var(2))
    store.check()
    store._level[abs(x)] = 1
    with pytest.raises(AssertionError):
        store.check()


def test_check_catches_a_child_in_a_higher_slot():
    store = BddStore(2)
    child = store.var(1)
    parent = store.mk_node(0, child, FALSE)
    store.check()
    # swap the two slots: levels, edges and the unique table stay
    # consistent, but the parent now sits below its child
    store._nodes[child], store._nodes[parent] = (0, parent, FALSE), (1, TRUE, FALSE)
    store._level[child], store._level[parent] = 0, 1
    store._unique = {(0, parent, FALSE): child, (1, TRUE, FALSE): parent}
    with pytest.raises(AssertionError):
        store.check()


def test_exists_drops_an_independent_variable():
    store = BddStore(3)
    x, g = store.var(0), store.var(2)
    assert exists(store, [0], store.apply("and", x, g)) == g
    assert exists(store, [], g) == g


def test_exists_full_quantification():
    rng = random.Random(3)
    store, f, table = random_function(rng, 6, density=0.2)
    expected = TRUE if any(table) else FALSE
    assert exists(store, range(6), f) == expected


def test_exists_xor_example():
    store = BddStore(2)
    f = store.apply("xor", store.var(0), store.var(1))
    # any x1 value extends to a model once x2 is free
    assert exists(store, [1], f) == TRUE


def test_exists_matches_enumeration():
    rng = random.Random(11)
    for _ in range(15):
        store, f, _ = random_function(rng, 6)
        qvars = sorted(rng.sample(range(6), rng.randint(1, 3)))
        g = exists(store, qvars, f)
        for bits in all_assignments(6):
            expected = False
            for sub in itertools.product((0, 1), repeat=len(qvars)):
                probe = list(bits)
                for lvl, val in zip(qvars, sub):
                    probe[lvl] = val
                if store.evaluate(f, probe):
                    expected = True
                    break
            assert store.evaluate(g, bits) == expected


def test_exists_rejects_unknown_levels():
    store = BddStore(3)
    with pytest.raises(ValueError):
        exists(store, [5], TRUE)


def test_and_exists_base_cases():
    store = BddStore(4)
    f = store.var(0)
    g = store.var(3)
    assert store.and_exists(range(4), f, FALSE) == FALSE
    assert store.and_exists([], f, g) == store.apply("and", f, g)


def _projected(table, n, qvars):
    """Truth table of ``exists(qvars, table)``, by or-ing each quantified bit away."""
    for lvl in qvars:
        bit = 1 << (n - 1 - lvl)
        table = [v or table[i ^ bit] for i, v in enumerate(table)]
    return table


def _table_of(store, e, n):
    return [store.evaluate(e, bits) for bits in all_assignments(n)]


def test_and_exists_matches_enumeration():
    rng = random.Random(23)
    for _ in range(50):
        store, f, f_table = random_function(rng, 10, density=rng.choice((0.3, 0.5, 0.8)))
        g_table = [rng.random() < 0.5 for _ in range(1 << 10)]
        g = from_truth_table(store, g_table)
        qvars = rng.sample(range(10), rng.randint(1, 6))
        conj = [a and b for a, b in zip(f_table, g_table)]
        assert _table_of(store, store.and_exists(qvars, f, g), 10) == \
            _projected(conj, 10, qvars)


def test_and_exists_terminal_cases_match_enumeration():
    # a constant operand ends the recursion early; an equal or complementary one does not
    rng = random.Random(29)
    for _ in range(20):
        store, f, f_table = random_function(rng, 6, density=rng.choice((0.3, 0.5, 0.8)),
                                            complemented=rng.random() < 0.5)
        qvars = rng.sample(range(6), rng.randint(1, 4))
        for g, g_table in ((TRUE, [True] * 64), (FALSE, [False] * 64), (f, f_table),
                           (-f, [not v for v in f_table])):
            for a, b in ((f, g), (g, f)):
                conj = [x and y for x, y in zip(f_table, g_table)]
                assert _table_of(store, store.and_exists(qvars, a, b), 6) == \
                    _projected(conj, 6, qvars)
    store = BddStore(3)
    assert store.and_exists([0], TRUE, TRUE) == TRUE
    assert exists(store, [0, 2], TRUE) == TRUE
    assert exists(store, [1], FALSE) == FALSE


def _ternary_expected(tables, qvars):
    f_table, g_table, c_table = tables
    conj = [a and b and c for a, b, c in zip(f_table, g_table, c_table)]
    return _projected(conj, 10, qvars)


def test_ternary_and_exists_matches_enumeration():
    # the care set either depends on quantified levels or is free of them
    rng = random.Random(31)
    for i in range(40):
        store, f, f_table = random_function(rng, 10, density=rng.choice((0.3, 0.5, 0.8)),
                                            complemented=i % 2 == 1)
        g_table = [rng.random() < 0.5 for _ in range(1 << 10)]
        g = from_truth_table(store, g_table)
        qvars = rng.sample(range(10), rng.randint(1, 6))
        c_table = [rng.random() < rng.choice((0.3, 0.7)) for _ in range(1 << 10)]
        if i % 4 >= 2:
            c_table = [not v for v in _projected([not v for v in c_table], 10, qvars)]
        c = from_truth_table(store, c_table)
        assert (store.support_levels(c) & set(qvars) == set()) == (i % 4 >= 2)
        for c_edge, table in ((c, c_table), (-c, [not v for v in c_table])):
            r = store.and_exists(qvars, f, g, c_edge)
            assert _table_of(store, r, 10) == _ternary_expected((f_table, g_table, table), qvars)
            assert r == store.and_exists(qvars, store.apply("and", f, c_edge), g)
        store.check()


def test_ternary_and_exists_terminal_cases_match_enumeration():
    # a constant care set, or one equal or complementary to an operand
    rng = random.Random(37)
    for i in range(10):
        store, f, f_table = random_function(rng, 10, complemented=i % 2 == 1)
        g_table = [rng.random() < 0.5 for _ in range(1 << 10)]
        g = from_truth_table(store, g_table)
        not_f = [not v for v in f_table]
        not_g = [not v for v in g_table]
        cares = ((TRUE, [True] * 1024), (FALSE, [False] * 1024), (f, f_table),
                 (-f, not_f), (g, g_table), (-g, not_g))
        for qvars in (rng.sample(range(10), rng.randint(1, 6)), []):
            for c, c_table in cares:
                for a, b, tables in ((f, g, (f_table, g_table)), (g, f, (g_table, f_table))):
                    r = store.and_exists(qvars, a, b, c)
                    assert _table_of(store, r, 10) == \
                        _ternary_expected((*tables, c_table), qvars)
        store.check()
    store = BddStore(3)
    x = store.var(1)
    assert store.and_exists([1], TRUE, TRUE, x) == TRUE
    assert store.and_exists([0], TRUE, TRUE, x) == x
    assert store.and_exists([], TRUE, TRUE, x) == x
    assert store.and_exists([1], x, TRUE, -x) == FALSE


def _read_through(table, n, mapping):
    """Truth table of ``table`` with its variable ``l`` read at level ``mapping[l]``."""
    out = []
    for bits in all_assignments(n):
        index = 0
        for lvl in range(n):
            index = 2 * index + bits[mapping.get(lvl, lvl)]
        out.append(table[index])
    return out


def test_mapped_and_exists_matches_enumeration():
    # g read through one map, the result written through another; each map
    # moves a variable to its neighbour, as between current and next copies
    rng = random.Random(41)
    n = 10
    for i in range(36):
        pairs = [(2 * k, 2 * k + 1)[::rng.choice((1, -1))] for k in rng.sample(range(5), 4)]
        read = dict(pairs[:rng.randint(0 if i % 3 else 1, 2)])
        write = dict(pairs[2:2 + rng.randint(0 if i % 3 != 1 else 1, 2)])
        tables = [[rng.random() < 0.5 for _ in range(1 << n)] for _ in range(3)]
        if i % 4 == 3:
            # no quantified level: no operand may meet a written level's target
            levels = []
            tables = [_projected(t, n, write.values()) for t in tables]
        else:
            levels = rng.sample(range(n), rng.randint(1, 4)) + list(write.values())
        f_table, g_table, c_table = tables
        # g must not meet the level a read map sends one of its levels to
        g_table = _projected(g_table, n, read.values())
        if i % 2:
            c_table = [True] * (1 << n)
        store = BddStore(n)
        f, g, c = (from_truth_table(store, t) for t in (f_table, g_table, c_table))
        # one store, so a cache line shared by two of these products would show
        for rd, wr in ((read, write), (read, {}), ({}, write), ({}, {})):
            conj = [a and b and d for a, b, d in
                    zip(f_table, _read_through(g_table, n, rd), c_table)]
            expected = _read_through(_projected(conj, n, levels), n, wr)
            r = store.and_exists(levels, f, g, c, rd, wr)
            assert _table_of(store, r, n) == expected, (rd, wr, levels)
        store.check()


def test_mapped_and_exists_reads_f_and_g_apart():
    # f == g or f == -g as edges is not the same function once g is read through a map
    rng = random.Random(43)
    n = 9
    for i in range(12):
        store, f, f_table = random_function(rng, n, complemented=i % 2 == 1)
        read = {lvl: lvl + 1 for lvl in (0, 4)}
        g_table = _projected(f_table, n, read.values())
        g = from_truth_table(store, g_table)
        levels = rng.sample(range(n), rng.randint(0, 3))
        for sign in (1, -1):
            read_g = _read_through([v == (sign == 1) for v in g_table], n, read)
            conj = [a and b for a, b in zip(g_table, read_g)]
            r = store.and_exists(levels, g, sign * g, TRUE, read)
            assert _table_of(store, r, n) == _projected(conj, n, levels)
            # and as the care set
            r = store.and_exists(levels, TRUE, sign * g, g, read)
            assert _table_of(store, r, n) == _projected(conj, n, levels)
        store.check()


def test_and_exists_rejects_a_map_that_reorders_levels():
    store = BddStore(4)
    x = store.var(0)
    for read, write in (({0: 3}, None), (None, {3: 0}), ({1: 2, 2: 1}, None)):
        with pytest.raises(ValueError, match="reorders levels"):
            store.and_exists([1], x, x, TRUE, read, write)
    with pytest.raises(ValueError):
        store.and_exists([1], x, x, TRUE, {0: 4})
    # a level sent to its neighbour keeps every other level in order
    assert store.and_exists([], TRUE, x, TRUE, {0: 1}) == store.var(1)
    assert store.and_exists([0], x, store.var(1), TRUE, None, {1: 0}) == x


def test_rename_identity_and_inverse():
    store = BddStore(4)
    f = store.apply("xor", store.var(0), store.var(2))
    assert store.rename(f, {}) == f
    assert store.rename(f, {0: 0, 2: 2}) == f
    swapped = store.rename(f, {0: 1, 2: 3})
    assert swapped != f
    assert store.rename(swapped, {1: 0, 3: 2}) == f


def test_rename_single_variable():
    store = BddStore(["x1", "x1'"])
    f = store.var("x1")
    assert store.rename(f, {"x1": "x1'"}) == store.var("x1'")


def test_rename_rejects_order_breaking_map():
    store = BddStore(3)
    f = store.apply("and", store.var(0), store.var(1))
    with pytest.raises(ValueError):
        store.rename(f, {0: 2, 1: 2})  # not injective
    with pytest.raises(ValueError):
        store.rename(f, {0: 2})  # 0 would sink below 1


def test_rename_walks_deep_diagrams():
    # a cube over the even levels of 3,000 variables, shifted one level down
    n = 3000
    store = BddStore(n)
    rng = random.Random(5)
    polarity = [rng.random() < 0.5 for _ in range(n // 2)]
    even = store.cube({2 * i: p for i, p in enumerate(polarity)})
    odd = store.cube({2 * i + 1: p for i, p in enumerate(polarity)})
    shift = {2 * i: 2 * i + 1 for i in range(n // 2)}
    assert store.rename(even, shift) == odd
    assert store.rename(-even, shift) == -odd
    store.check()


def test_rename_accepts_maps_that_keep_every_node_above_its_children():
    # x0 ? x1 : x2 with x1 -> x3: the support order 0 < 1 < 2 becomes 0, 3, 2,
    # but x3 and x2 sit on different branches, so the diagram stays ordered
    store = BddStore(4)
    f = store.ite(store.var(0), store.var(1), store.var(2))
    g = store.rename(f, {1: 3})
    for bits in all_assignments(4):
        assert store.evaluate(g, bits) == bool(bits[3] if bits[0] else bits[2])
    # every single-variable map on sparse random functions: rejected, or exact
    rng = random.Random(17)
    for _ in range(30):
        store = BddStore(6)
        f = FALSE
        for _ in range(3):
            cube = {lvl: rng.random() < 0.5 for lvl in rng.sample(range(6), 2)}
            f = store.apply("or", f, store.cube(cube))
        for k, v in itertools.permutations(range(6), 2):
            try:
                g = store.rename(f, {k: v})
            except ValueError:
                continue
            for bits in all_assignments(6):
                moved = tuple(bits[v] if lvl == k else b for lvl, b in enumerate(bits))
                assert store.evaluate(g, bits) == store.evaluate(f, moved)
        store.check()


def test_canonicity_exhaustive_three_vars():
    store = BddStore(3)
    edges = {}
    for bits in itertools.product((0, 1), repeat=8):
        e = from_truth_table(store, bits)
        assert from_truth_table(store, bits) == e
        edges[bits] = e
    assert len(set(edges.values())) == 256
    for bits, e in edges.items():
        for i, a in enumerate(all_assignments(3)):
            assert store.evaluate(e, a) == bool(bits[i])
    store.check()


def test_canonicity_sampled_four_vars():
    rng = random.Random(5)
    store = BddStore(4)
    seen = {}
    for _ in range(500):
        bits = tuple(rng.random() < 0.5 for _ in range(16))
        e = from_truth_table(store, bits)
        if bits in seen:
            assert seen[bits] == e
        seen[bits] = e
    # distinct tables map to distinct edges
    assert len(set(seen.values())) == len(seen)
    store.check()


def test_no_stored_complemented_then_edges():
    rng = random.Random(9)
    store, f, _ = random_function(rng, 8)
    g = from_truth_table(store, [rng.random() < 0.5 for _ in range(256)])
    store.apply("xor", f, g)
    exists(store, [0, 3], f)
    store.check()  # covers reduction, merging, and complement normalization


def test_evaluate_matches_truth_table_large():
    rng = random.Random(13)
    for n in (10, 12):
        store, f, table = random_function(rng, n)
        for i, bits in enumerate(all_assignments(n)):
            assert store.evaluate(f, bits) == bool(table[i])


def test_support_and_size():
    store = BddStore(4)
    f = store.apply("and", store.var(1), store.var(3))
    assert store.support_levels(f) == frozenset({1, 3})
    assert store.size(f) == 2
    assert store.size(TRUE) == 0


def _reachable_slots(store, e, seen):
    """Slots under ``e`` by plain recursion over ``node``, the oracle for ``descendants``."""
    if e in (TRUE, FALSE) or abs(e) in seen:
        return seen
    seen.add(abs(e))
    _, t, el = store.node(e)
    _reachable_slots(store, t, seen)
    _reachable_slots(store, el, seen)
    return seen


def test_size_and_descendants_match_a_recursive_count():
    rng = random.Random(17)
    for trial in range(40):
        n = rng.choice((3, 5, 7, 9))
        store, f, _ = random_function(rng, n, rng.choice((0.2, 0.5, 0.8)),
                                      complemented=trial % 2 == 1)
        g = from_truth_table(store, [rng.random() < 0.5 for _ in range(1 << n)])
        h = store.apply("xor", f, g)
        for e in (f, -f, g, -g, h, -h, TRUE, FALSE):
            expected = _reachable_slots(store, e, set())
            assert store.descendants(e) == expected
            assert store.size(e) == len(expected)
        roots = (f, -g, h, TRUE, -h)
        union = set()
        for e in roots:
            _reachable_slots(store, e, union)
        assert store.descendants(*roots) == union
        assert store.descendants() == set()
        assert store.descendants(TRUE, FALSE) == set()


def test_from_truth_table_leaves_no_reference_cycle():
    # a store dies with its last reference, without waiting for the cycle collector
    enabled = gc.isenabled()
    gc.disable()
    try:
        store = BddStore(4)
        from_truth_table(store, [i % 3 == 0 for i in range(16)])
        ref = weakref.ref(store)
        del store
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_cube():
    store = BddStore(3)
    c = store.cube({0: True, 2: False})
    assert satisfying(store, c) == [(1, 0, 0), (1, 1, 0)]


def test_from_truth_table_size_check():
    store = BddStore(2)
    with pytest.raises(ValueError):
        from_truth_table(store, [0, 1])


def test_clear_caches_keeps_results():
    store = BddStore(4)
    f = store.apply("or", store.var(0), store.var(3))
    store.clear_caches()
    assert store.apply("or", store.var(0), store.var(3)) == f


def _truth_table(store, e, n):
    return [store.evaluate(e, bits) for bits in all_assignments(n)]


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("where", ["start", "middle", "end"])
def test_compact_keeps_roots_and_every_older_slot(seed, where, monkeypatch):
    # compact must empty the caches itself, not through clear_caches
    monkeypatch.setattr(BddStore, "clear_caches", lambda store: None)
    n = 10
    rng = random.Random(seed)
    store = BddStore(n)
    edges = []
    since = 0
    for i in range(8):
        if i == 4 and where == "middle":
            since = store.node_count()
        f = from_truth_table(store, random_table(rng, n, rng.choice((0.2, 0.5, 0.8))))
        if edges:
            # ite leaves dead intermediates and cache entries behind
            f = store.apply(rng.choice(("and", "or", "xor")), f, rng.choice(edges))
        edges.append(-f if rng.random() < 0.5 else f)
    if where == "end":
        since = store.node_count()
    assert store._ite_cache
    roots = rng.sample(edges, 3) + [TRUE, FALSE]
    tables = [_truth_table(store, e, n) for e in roots]
    older = [store.node(slot) for slot in range(2, since + 2)]
    later = store.node_count() - since
    remapped = store.compact(since, roots)
    assert [_truth_table(store, e, n) for e in remapped] == tables
    assert [store.node(slot) for slot in range(2, since + 2)] == older
    for e, new in zip(roots, remapped):
        if abs(e) < since + 2:
            assert new == e
    store.check()
    assert (len(store._ite_cache), len(store._op_cache)) == (0, 0)
    # only what the roots reach survives past since
    kept = {slot for slot in store.descendants(*remapped) if slot >= since + 2}
    assert store.node_count() == since + len(kept) <= since + later
    if where == "end":
        assert remapped == roots
    # the unique table finds every survivor again: a rebuild makes no node
    nodes = store.node_count()
    for e, table in zip(remapped, tables):
        assert from_truth_table(store, table) == e
    assert store.node_count() == nodes


def test_compact_walks_deep_chains_without_recursion():
    # 2,400 levels, far deeper than Python's recursion limit
    n = 2400
    store = BddStore(n)
    store.cube({lvl: lvl % 3 == 0 for lvl in range(n)})  # dead, below the chain
    bits = [lvl % 2 for lvl in range(n)]
    chain = store.cube({lvl: bool(b) for lvl, b in enumerate(bits)})
    [moved] = store.compact(0, [-chain])
    assert store.node_count() == n
    store.check()
    assert store.evaluate(moved, bits) is False
    assert store.evaluate(moved, [1 - b for b in bits]) is True
    assert store.cube({lvl: bool(b) for lvl, b in enumerate(bits)}) == -moved


def test_compact_rejects_bad_arguments():
    store = BddStore(3)
    f = store.apply("and", store.var(0), store.var(1))
    with pytest.raises(ValueError):
        store.compact(store.node_count() + 1, [f])
    with pytest.raises(ValueError):
        store.compact(-1, [f])
    for bad in (0, store.node_count() + 2):
        with pytest.raises(ValueError):
            store.compact(0, [bad])
    [g] = store.compact(0, [f])  # drops the unreachable node of x0
    assert store.node_count() == 2
    assert satisfying(store, g) == [(1, 1, 0), (1, 1, 1)]
    store.check()


def test_dot_export_conventions():
    store = BddStore(2)
    f = store.apply("or", store.var(0), -store.var(1))
    text = store.to_dot({"f": f})
    assert text.startswith("digraph")
    assert "style=dashed" in text       # Else-edges are dashed
    assert "arrowtail=dot" in text      # complement marks drawn as a dot
    assert '"root_f"' in text


def test_duplicate_variable_names_rejected():
    with pytest.raises(ValueError):
        BddStore(["a", "a"])
