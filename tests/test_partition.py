"""Split identities, structural budgets, and partition schemes."""

import random
import signal

import pytest

from lexbdd import BddStore, PartitionStrategy, bundled_game_names, bundled_game_path, \
    compile_game, disj_var, fold_states_lex, initial_edge, layered_bfs, load_game, \
    precompute_counts, split, split_at_count, states_lex_bounded
from lexbdd.bdd import FALSE, TRUE
from lexbdd.partition import LexPartition, extreme_member

from helpers import all_assignments, check_lex_partition, corpus, from_truth_table, \
    merged, random_function, satisfying


def _counts(store, *edges):
    return [precompute_counts(store, e).root_count for e in edges]


def test_split_at_all_ones_keeps_everything_left():
    rng = random.Random(1)
    store, f, _ = random_function(rng, 6)
    pair = split(store, f, (1,) * 6)
    assert pair.left == f
    assert pair.right == FALSE


def test_two_variable_disjunction_split():
    store = BddStore(2)
    f = store.apply("or", store.var(0), store.var(1))
    pair = split(store, f, (0, 1))
    assert satisfying(store, pair.left) == [(0, 1)]
    assert satisfying(store, pair.right) == [(1, 0), (1, 1)]


def test_split_set_identities_random():
    rng = random.Random(314)
    for store, f, n in corpus(seed=314, count=60, sizes=range(4, 11)):
        cut = tuple(rng.randint(0, 1) for _ in range(n))
        pair = split(store, f, cut)
        sats = set(satisfying(store, f, n))
        left = set(satisfying(store, pair.left, n))
        right = set(satisfying(store, pair.right, n))
        assert left | right == sats
        assert left & right == set()
        assert all(bits <= cut for bits in left)
        assert all(bits > cut for bits in right)
        assert store.apply("or", pair.left, pair.right) == f
        assert store.apply("and", pair.left, pair.right) == FALSE


def test_split_works_on_non_member_cuts():
    store = BddStore(3)
    f = store.apply("and", store.var(0), store.var(2))  # {101, 111}
    pair = split(store, f, (1, 1, 0))  # 110 is not satisfying
    assert satisfying(store, pair.left) == [(1, 0, 1)]
    assert satisfying(store, pair.right) == [(1, 1, 1)]


def test_split_space_budget():
    for store, f, n in corpus(seed=77, count=40, sizes=range(4, 13)):
        rng = random.Random(n)
        cut = tuple(rng.randint(0, 1) for _ in range(n))
        size_f = store.size(f)
        before = store.node_count()
        pair = split(store, f, cut)
        created = store.node_count() - before
        assert created <= 2 * n
        assert store.size(pair.left) <= size_f + n
        assert store.size(pair.right) <= size_f + n


def test_split_outputs_are_canonical():
    rng = random.Random(21)
    for _ in range(15):
        n = rng.randint(4, 8)
        store, f, _ = random_function(rng, n)
        cut = tuple(rng.randint(0, 1) for _ in range(n))
        pair = split(store, f, cut)
        for part in (pair.left, pair.right):
            rebuilt = from_truth_table(store,
                [store.evaluate(part, bits) for bits in all_assignments(n)])
            assert rebuilt == part


def test_split_count_additivity():
    for store, f, n in corpus(seed=5150, count=30, sizes=range(4, 11)):
        cut = tuple(random.Random(n + 1).randint(0, 1) for _ in range(n))
        pair = split(store, f, cut)
        c_left, c_right = _counts(store, pair.left, pair.right)
        assert c_left + c_right == precompute_counts(store, f).root_count


def test_split_walks_deep_universes():
    # a random diagram over 3,000 levels, built with mk_node alone, as the
    # recursive kernels would not reach that deep; the oracle only evaluates
    n = 3000
    rng = random.Random(23)
    store = BddStore(n)
    recent = [TRUE, FALSE]
    for level in range(n - 1, -1, -1):
        then_edge, else_edge = rng.sample(recent[-4:], 2)
        if rng.random() < 0.3:
            else_edge = -else_edge
        recent.append(store.mk_node(level, then_edge, else_edge))
    f = recent[-1]
    cut = tuple(rng.randint(0, 1) for _ in range(n))
    pair = split(store, f, cut)
    for _ in range(200):
        # share a random prefix with the cut, so the comparison is decided deep
        k = rng.randint(0, n)
        x = cut[:k] + tuple(rng.randint(0, 1) for _ in range(n - k))
        inside = store.evaluate(f, x)
        assert store.evaluate(pair.left, x) == (inside and x <= cut)
        assert store.evaluate(pair.right, x) == (inside and x > cut)
    store.check()


def test_split_at_count_boundaries():
    rng = random.Random(33)
    store, f, _ = random_function(rng, 8)
    table = precompute_counts(store, f)
    c = table.root_count
    full = split_at_count(table, c)
    assert full.left == f and full.right == FALSE
    first = split_at_count(table, 1)
    assert satisfying(store, first.left) == [min(satisfying(store, f))]
    with pytest.raises(ValueError):
        split_at_count(table, 0)
    with pytest.raises(ValueError):
        split_at_count(table, c + 1)


def test_split_at_count_walks_only_the_cut_path(monkeypatch):
    # the count table already checked the support, so no whole-diagram walk
    rng = random.Random(34)
    store, f, _ = random_function(rng, 10)
    table = precompute_counts(store, f)
    walks = []
    descendants = BddStore.descendants
    monkeypatch.setattr(BddStore, "descendants",
                        lambda self, *roots: walks.append(roots) or descendants(self, *roots))
    split_at_count(table, table.root_count // 2)
    assert walks == []


def test_split_at_count_exact_and_half():
    for store, f, n in corpus(seed=808, count=25, sizes=range(4, 10)):
        table = precompute_counts(store, f)
        c = table.root_count
        if c < 2:
            continue
        for m in {1, c // 3 or 1, c // 2, c}:
            if m < 1:
                continue
            pair = split_at_count(table, m)
            c_left, c_right = _counts(store, pair.left, pair.right)
            assert c_left == m
            assert c_right == c - m
        half = split_at_count(table, c // 2)
        assert _counts(store, half.left, half.right) == [c // 2, -(-c // 2)]


def test_fold_single_part():
    rng = random.Random(3)
    store, f, _ = random_function(rng, 6)
    table = precompute_counts(store, f)
    part = fold_states_lex(table, 1)
    assert part.parts == (f,)
    assert part.cuts == ((1,) * 6,)


def test_fold_exact_thousand_into_eight():
    # craft a function with exactly 1000 models over 10 variables
    rng = random.Random(41)
    table_bits = [True] * 1000 + [False] * 24
    rng.shuffle(table_bits)
    store = BddStore(10)
    f = from_truth_table(store, table_bits)
    table = precompute_counts(store, f)
    assert table.root_count == 1000
    part = fold_states_lex(table, 8)
    assert [precompute_counts(store, p).root_count for p in part.parts] == [125] * 8


def test_fold_respects_all_definition_conditions():
    for store, f, n in corpus(seed=606, count=20, sizes=range(5, 10)):
        table = precompute_counts(store, f)
        for k in (2, 5):
            part = fold_states_lex(table, k)
            check_lex_partition(store, f, n, part, table.root_count, k)


def test_fold_on_empty_set():
    store = BddStore(4)
    table = precompute_counts(store, FALSE)
    part = fold_states_lex(table, 4)
    assert part == LexPartition(cuts=((1,) * 4,), parts=(FALSE,))
    assert states_lex_bounded(table, 3) == part
    with pytest.raises(ValueError):
        fold_states_lex(table, 0)


def _too_slow(signum, frame):
    raise TimeoutError


def test_fold_count_above_the_member_count_gives_single_member_folds():
    store = BddStore(4)
    f = store.apply("or", store.var(0), store.var(1))
    table = precompute_counts(store, f)
    previous = signal.signal(signal.SIGALRM, _too_slow)
    signal.alarm(5)
    timed_out = False
    try:
        part = fold_states_lex(table, 10 ** 12)
    except TimeoutError:
        timed_out = True
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert not timed_out, "fold_states_lex loops once per requested fold"
    assert len(part.parts) == table.root_count == 12
    check_lex_partition(store, f, 4, part, table.root_count, 10 ** 12)


def test_states_bounded_single_part():
    rng = random.Random(9)
    store, f, _ = random_function(rng, 6)
    table = precompute_counts(store, f)
    part = states_lex_bounded(table, table.root_count + 5)
    assert part.parts == (f,)


def test_states_bounded_ceiling_arithmetic():
    # exactly ten models split with bound three -> 3, 3, 3, 1
    rng = random.Random(12)
    bits = [True] * 10 + [False] * 54
    rng.shuffle(bits)
    store = BddStore(6)
    f = from_truth_table(store, bits)
    table = precompute_counts(store, f)
    part = states_lex_bounded(table, 3)
    assert [precompute_counts(store, p).root_count for p in part.parts] == [3, 3, 3, 1]


def test_states_bounded_cover_and_disjoint():
    for store, f, n in corpus(seed=700, count=15, sizes=range(5, 9)):
        table = precompute_counts(store, f)
        part = states_lex_bounded(table, 4)
        union = FALSE
        for p in part.parts:
            assert precompute_counts(store, p).root_count <= 4
            union = store.apply("or", union, p)
        assert union == f
        with pytest.raises(ValueError):
            states_lex_bounded(table, 0)


def test_disj_var_single_variable_function():
    store = BddStore(3)
    f = store.var(0)
    pair = disj_var(store, f)
    assert _counts(store, pair.left, pair.right) == [0, 4]
    assert pair.left == FALSE


def test_disj_var_identities_and_optimality():
    rng = random.Random(272)
    for _ in range(12):
        n = rng.randint(4, 10)
        store, f, _ = random_function(rng, n)
        pair = disj_var(store, f)
        assert store.apply("or", pair.left, pair.right) == f
        assert store.apply("and", pair.left, pair.right) == FALSE
        chosen = max(store.size(pair.left), store.size(pair.right))
        # exhaustive scan oracle over every variable
        best = min(
            max(store.size(store.apply("and", f, -store.var(lvl))),
                store.size(store.apply("and", f, store.var(lvl))))
            for lvl in range(n))
        assert chosen == best


def test_disj_var_constant_input():
    store = BddStore(2)
    pair = disj_var(store, TRUE)
    assert pair.left == TRUE and pair.right == FALSE
    pair = disj_var(store, FALSE)
    assert pair.left == FALSE and pair.right == FALSE


def test_split_over_projected_universe():
    # split a current-variable state set inside an interleaved store
    store = BddStore(6)
    current = (0, 2, 4)
    f = store.apply("or", store.var(0), store.apply("and", store.var(2), store.var(4)))
    table = precompute_counts(store, f, levels=current)
    pair = split_at_count(table, 2)
    left_states = [bits for bits in all_assignments(3)
                   if store.evaluate(pair.left, (bits[0], 0, bits[1], 0, bits[2], 0))]
    assert len(left_states) == 2
    # parts never touch the interleaved next-state levels
    assert store.support_levels(pair.left) <= set(current)
    assert store.support_levels(pair.right) <= set(current)


def test_split_rejects_support_outside_its_universe():
    # the foreign level 3 lies off the cut's path, so only a whole-support check sees it
    store = BddStore(6)
    f = store.ite(store.var(0), store.var(3), store.var(2))
    with pytest.raises(ValueError):
        split(store, f, (0, 0, 0), levels=(0, 2, 4))


def test_extreme_members_are_the_least_and_greatest_members():
    for store, f, n in corpus(seed=77, count=60, sizes=range(3, 10)):
        members = satisfying(store, f, n)
        if not members:
            continue
        assert extreme_member(store, f, range(n), 0) == members[0]
        assert extreme_member(store, f, range(n), 1) == members[-1]


def _check_windows_partition_like_their_merged_set(store, windows, levels, sizes):
    """The lex partitions of ``windows`` against those of their OR, for each size.

    Each partition's cuts and parts equal the merged set's; the parts a
    lex strategy takes from the windows' count tables, in a list or a
    tuple, are the same edges; and each part's greatest member is its
    cut.
    """
    tables = [precompute_counts(store, w, levels) for w in windows]
    whole = precompute_counts(store, merged(store, windows), levels)
    for size in sizes:
        for kind, partition in (("fold-states-lex", fold_states_lex),
                                ("states-lex", states_lex_bounded)):
            want = partition(whole, size)
            assert partition(tables, size) == want
            strategy = PartitionStrategy(kind, size)
            assert strategy.parts_of(store, tables, levels) == list(want.parts)
            assert strategy.parts_of(store, tuple(tables), levels) == list(want.parts)
            assert [extreme_member(store, part, levels, 1) for part in want.parts[:-1]] == \
                list(want.cuts[:-1])


def test_windows_partition_like_their_merged_set():
    rng = random.Random(5)
    for store, f, n in corpus(seed=5, count=40, sizes=range(4, 10)):
        if f == FALSE:
            continue
        # cut f into lex windows at random cuts, dropping the empty ones
        windows, rest = [], f
        for cut in sorted({tuple(rng.randint(0, 1) for _ in range(n)) for _ in range(4)}):
            pair = split(store, rest, cut)
            windows.append(pair.left)
            rest = pair.right
        windows = [w for w in (*windows, rest) if w != FALSE]
        _check_windows_partition_like_their_merged_set(store, windows, tuple(range(n)),
                                                       (1, 2, 3, 5, 8, 1 << n))


@pytest.mark.parametrize("name", bundled_game_names())
def test_lex_parts_of_windowed_layers_are_those_of_the_merged_layers(name):
    spec = load_game(bundled_game_path(name))
    for text in ("fold-states-lex:8", "states-lex:64"):
        ts = compile_game(spec)
        layers = layered_bfs(ts, initial_edge(ts, spec), PartitionStrategy.parse(text))
        for windows in layers.layers:
            _check_windows_partition_like_their_merged_set(ts.store, windows, ts.current,
                                                           (1, 3, 8, 64))
