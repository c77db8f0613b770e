"""Count table tests against the enumeration oracle."""

import random

import pytest

from lexbdd import BddStore, precompute_counts, rank, split, unrank
from lexbdd.counting import count_windows
from lexbdd.bdd import FALSE, TRUE

from helpers import corpus, enum_count, from_truth_table, random_function


def test_constant_true_counts_the_whole_cube():
    store = BddStore(5)
    table = precompute_counts(store, TRUE)
    assert table.root_count == 32
    assert precompute_counts(store, FALSE).root_count == 0


def test_single_variable_halves_the_cube():
    store = BddStore(5)
    f = store.var(2)
    assert precompute_counts(store, f).root_count == 16


def test_sink_entries_are_seeded():
    store = BddStore(3)
    table = precompute_counts(store, store.var(0))
    assert table.counts[TRUE] == 1
    assert table.counts[FALSE] == 0


def test_random_counts_match_enumeration():
    rng = random.Random(101)
    for _ in range(200):
        store, f, _ = random_function(rng, 8, density=rng.choice((0.2, 0.5, 0.8)),
                                      complemented=rng.random() < 0.5)
        assert precompute_counts(store, f).root_count == enum_count(store, f)


def test_complement_entries_partition_the_subcube():
    rng = random.Random(55)
    checked = 0
    for store, f, n in corpus(seed=56, count=40, sizes=range(4, 10)):
        table = precompute_counts(store, f)
        for e, value in table.counts.items():
            if abs(e) == 1 or -e not in table.counts:
                continue
            pos = table.pos[store.level_of_edge(e)]
            assert value + table.counts[-e] == 1 << (n - pos)
            checked += 1
    assert checked > 0


def test_dual_entries_stored_per_sign():
    # below the root of x0 xor g, the node of g is reached on both signs
    rng = random.Random(77)
    store = BddStore(7)
    g = from_truth_table(store, [rng.random() < 0.4 for _ in range(1 << 7)])
    f = store.apply("xor", store.var(0), g)
    table = precompute_counts(store, f)
    duals = [e for e in table.counts if e > 1 and -e in table.counts]
    assert duals, "no node was visited through both edge signs"
    n = store.n
    for e in duals:
        pos = table.pos[store.level_of_edge(e)]
        assert table.counts[e] + table.counts[-e] == 1 << (n - pos)


def test_boundedness_of_internal_entries():
    for store, f, _ in corpus(seed=99, count=60, sizes=range(4, 11)):
        table = precompute_counts(store, f)
        for e, value in table.counts.items():
            if abs(e) != 1:
                assert value <= table.root_count


def test_determinism():
    rng = random.Random(4)
    store, f, _ = random_function(rng, 9)
    a = precompute_counts(store, f)
    b = precompute_counts(store, f)
    assert a.counts == b.counts
    assert a.root_count == b.root_count


def test_projected_universe_counts_states_only():
    # a function over the even levels of a 6-level store, counted over those
    store = BddStore(6)
    f = store.apply("or", store.var(0), store.var(2))
    table = precompute_counts(store, f, levels=(0, 2, 4))
    assert table.n == 3
    assert table.root_count == 6  # 8 minus the two all-zero prefixes
    full = precompute_counts(store, f)
    assert full.root_count == 6 * 8


def test_projected_universe_rejects_outside_support():
    store = BddStore(4)
    f = store.var(1)
    with pytest.raises(ValueError):
        precompute_counts(store, f, levels=(0, 2))
    # the foreign level may sit below the root, on one branch only
    g = store.ite(store.var(0), store.var(1), store.var(2))
    with pytest.raises(ValueError):
        precompute_counts(store, g, levels=(0, 2, 3))


def test_deep_order_counts_without_recursion():
    # 1,200 counted levels: far deeper than Python's recursion limit
    store = BddStore(2400)
    evens = range(0, 2400, 2)
    bits = tuple(int(i % 3 == 0) for i in evens)
    f = store.cube({i: i % 3 == 0 for i in evens})
    table = precompute_counts(store, f, evens)
    assert table.root_count == 1
    assert unrank(table, 0) == bits
    assert rank(table, bits) == 0
    # the complement, and a cube that leaves every other counted level free
    rng = random.Random(2400)
    for g, count in ((-f, (1 << 1200) - 1),
                     (store.cube({i: i % 3 == 0 for i in range(0, 2400, 4)}), 1 << 600)):
        table = precompute_counts(store, g, evens)
        assert table.root_count == count
        for r in (0, count - 1, *(rng.randrange(count) for _ in range(20))):
            assert rank(table, unrank(table, r)) == r


def test_windows_counted_in_one_pass_match_their_own_tables():
    rng = random.Random(23)
    for store, f, n in corpus(seed=23, count=40, sizes=range(3, 10)):
        windows, rest = [], f
        for cut in sorted({tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(3)}):
            pair = split(store, rest, cut)
            windows.append(pair.left)
            rest = pair.right
        windows.append(rest)
        for window, table in zip(windows, count_windows(store, windows), strict=True):
            alone = precompute_counts(store, window)
            assert (table.root, table.root_count) == (window, alone.root_count)
            assert all(table.counts[e] == c for e, c in alone.counts.items())
            ranks = range(table.root_count)
            assert [unrank(table, r) for r in ranks] == [unrank(alone, r) for r in ranks]
            assert [rank(table, unrank(alone, r)) for r in ranks] == list(ranks)
