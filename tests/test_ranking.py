"""Rank/unrank tests: bijection, order isomorphism, linear cost."""

import random

import pytest

from lexbdd import BddStore, NotAMemberError, member_rank_or_none, precompute_counts, \
    rank, unrank
from lexbdd.bdd import FALSE, TRUE
from lexbdd.ranking import _rank_walk, _unrank_walk, bits_to_int, int_to_bits

from helpers import all_assignments, corpus, from_truth_table, satisfying


def test_bit_conversions_roundtrip():
    assert bits_to_int((1, 0, 1)) == 5
    assert int_to_bits(5, 3) == (1, 0, 1)
    assert int_to_bits(0, 0) == ()
    for value in range(16):
        assert bits_to_int(int_to_bits(value, 4)) == value
    with pytest.raises(ValueError):
        int_to_bits(16, 4)


def test_full_cube_ranks_by_binary_value():
    store = BddStore(4)
    table = precompute_counts(store, TRUE)
    for bits in all_assignments(4):
        assert rank(table, bits) == bits_to_int(bits)
        assert unrank(table, bits_to_int(bits)) == bits


def test_two_variable_disjunction_example():
    store = BddStore(2)
    f = store.apply("or", store.var(0), store.var(1))
    table = precompute_counts(store, f)
    # oracle: enumerate and sort the satisfying assignments
    sats = satisfying(store, f)
    assert sats == [(0, 1), (1, 0), (1, 1)]
    for position, bits in enumerate(sats):
        assert rank(table, bits) == position
        assert unrank(table, position) == bits
    assert unrank(table, 1) == (1, 0)


def test_bijection_and_monotonicity_on_corpus():
    for store, f, n in corpus(seed=2024, count=40, sizes=range(4, 11)):
        table = precompute_counts(store, f)
        sats = satisfying(store, f, n)
        assert table.root_count == len(sats)
        ranks = [rank(table, bits) for bits in sats]
        # order isomorphism: lex-sorted input yields 0,1,2,...
        assert ranks == list(range(len(sats)))
        for position, bits in enumerate(sats):
            assert unrank(table, position) == bits


def test_non_member_is_rejected():
    store = BddStore(2)
    f = store.var(0)
    table = precompute_counts(store, f)
    with pytest.raises(NotAMemberError):
        rank(table, (0, 0))
    assert member_rank_or_none(table, (0, 0)) is None
    assert member_rank_or_none(table, (0, 1)) is None
    assert member_rank_or_none(table, (1, 0)) == 0
    assert member_rank_or_none(table, (1, 1)) == 1


def test_member_rank_agrees_with_rank():
    for store, f, n in corpus(seed=31, count=15, sizes=range(4, 9)):
        table = precompute_counts(store, f)
        for bits in all_assignments(n):
            maybe = member_rank_or_none(table, bits)
            if store.evaluate(f, bits):
                assert maybe == rank(table, bits)
            else:
                assert maybe is None


def test_unrank_range_check():
    store = BddStore(3)
    f = store.var(1)
    table = precompute_counts(store, f)
    with pytest.raises(ValueError):
        unrank(table, table.root_count)
    with pytest.raises(ValueError):
        unrank(table, -1)


def test_complement_robustness():
    rng = random.Random(88)
    for _ in range(10):
        n = rng.randint(4, 9)
        store = BddStore(n)
        g = from_truth_table(store, [rng.random() < 0.5 for _ in range(1 << n)])
        f = -g  # reached only through a complement mark
        table = precompute_counts(store, f)
        sats = satisfying(store, f, n)
        assert [rank(table, bits) for bits in sats] == list(range(len(sats)))
        # double complement changes nothing rank-visible
        table2 = precompute_counts(store, -(-f))
        assert [rank(table2, bits) for bits in sats] == list(range(len(sats)))


def test_walks_visit_at_most_n_nodes():
    for store, f, n in corpus(seed=404, count=20, sizes=range(5, 13)):
        table = precompute_counts(store, f)
        if table.root_count == 0:
            continue
        step = max(1, table.root_count // 7)
        for r in range(0, table.root_count, step):
            bits, visits = _unrank_walk(table, r)
            assert visits <= n
            value, visits = _rank_walk(table, bits)
            assert value == r
            assert visits <= n


def test_ranking_over_projected_universe():
    # states live on the even levels; odd levels are unconstrained
    store = BddStore(6)
    f = store.apply("or", store.var(0), store.var(4))
    table = precompute_counts(store, f, levels=(0, 2, 4))
    sats = [bits for bits in all_assignments(3)
            if store.evaluate(f, (bits[0], 0, bits[1], 0, bits[2], 0))]
    assert table.root_count == len(sats)
    for position, bits in enumerate(sats):
        assert rank(table, bits) == position
        assert unrank(table, position) == bits


def test_assignment_length_is_checked():
    store = BddStore(3)
    table = precompute_counts(store, TRUE)
    for bits in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError):
            rank(table, bits)
        with pytest.raises(ValueError):
            member_rank_or_none(table, bits)


def test_unrank_rejects_a_non_integer_rank():
    # parity has no gaps, so no block arithmetic would trip over a float
    store = BddStore(3)
    f = store.apply("xor", store.apply("xor", store.var(0), store.var(1)), store.var(2))
    table = precompute_counts(store, f)
    assert table.root_count == 4
    for r in (2.0, 2.5):
        with pytest.raises(TypeError):
            unrank(table, r)
    assert unrank(table, True) == unrank(table, 1)


def _walk_shapes(table):
    """Edge shapes the walks meet: gaps by kind, complement marks."""
    store = table.store
    root = table.root
    shapes = set()
    pos = table.pos
    if pos[store.level_of_edge(root)] > 0:
        shapes.add("head gap")
    if root < 0:
        shapes.add("complemented root")
    for slot in store.descendants(root):
        lvl, t, el = store.node(slot)
        for name, child in (("then", t), ("else", el)):
            gap = pos[store.level_of_edge(child)] - pos[lvl] - 1
            shapes.add(f"{name} gap {'zero' if gap == 0 else 'non-zero'}")
        if el < 0:
            shapes.add("complemented child")
    return shapes


def _random_cover(rng, store, levels):
    """A random disjunction of cubes over ``levels``, possibly complemented."""
    f = FALSE
    for _ in range(rng.randint(1, 4)):
        literals = {lvl: rng.random() < 0.5 for lvl in levels if rng.random() < 0.5}
        f = store.apply("or", f, store.cube(literals))
    return -f if rng.random() < 0.5 else f


def test_flat_walks_match_enumeration_on_projected_universes():
    # states on the even levels of an interleaved order, as in a game store
    rng = random.Random(5)
    shapes = set()
    for _ in range(60):
        m = rng.randint(2, 6)
        store = BddStore(2 * m)
        levels = tuple(range(0, 2 * m, 2))
        f = _random_cover(rng, store, levels)
        table = precompute_counts(store, f, levels=levels)
        shapes |= _walk_shapes(table)
        position = 0
        for bits in all_assignments(m):
            full = [0] * (2 * m)
            for lvl, b in zip(levels, bits):
                full[lvl] = b
            if store.evaluate(f, full):
                assert rank(table, bits) == position
                assert member_rank_or_none(table, bits) == position
                assert unrank(table, position) == bits
                position += 1
            else:
                assert member_rank_or_none(table, bits) is None
                assert _rank_walk(table, bits)[0] is None
                with pytest.raises(NotAMemberError):
                    rank(table, bits)
        assert position == table.root_count
    assert shapes == {"head gap", "complemented root", "complemented child",
                      "then gap zero", "then gap non-zero",
                      "else gap zero", "else gap non-zero"}
