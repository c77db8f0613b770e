"""Acceptance suite: one test per exit criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.  Criteria with a stated wall-clock bound assert it; everything
else is exact (zero tolerance).
"""

import random
import time

from lexbdd import BddStore, RunConfig, bundled_game_path, compare, compile_game, \
    fold_states_lex, initial_edge, layered_bfs, load_game, precompute_counts, \
    run, solve, split, split_at_count
from lexbdd.bdd import FALSE
from lexbdd.ranking import _rank_walk, _unrank_walk
from lexbdd.search import PartitionStrategy

from explicit import ExplicitGame
from helpers import all_assignments, check_lex_partition, from_truth_table, merged, \
    random_table, satisfying

BUNDLED_GAMES = ("counter3", "duel", "lightsout3", "connect3", "tictactoe")
STRATEGIES = ("none", "fold-states-lex:8", "states-lex:32", "disj-var")


def _report(name: str, ok: bool, detail: str = ""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance] {name}: {verdict}{suffix}")


def _corpus_specs(seed: int, count: int, sizes=range(4, 13)):
    rng = random.Random(seed)
    sizes = list(sizes)
    return [(rng.choice(sizes), rng.choice((0.1, 0.3, 0.5, 0.7, 0.9)),
             rng.randrange(2 ** 31), i % 2 == 1) for i in range(count)]


def _materialize(spec):
    n, density, sub_seed, complemented = spec
    store = BddStore(n)
    f = from_truth_table(store, random_table(random.Random(sub_seed), n, density))
    if complemented:
        f = -f
    return store, f, n


CORPUS_SPECS = _corpus_specs(seed=20120607, count=500)


def test_criterion_1_satcount_oracle():
    """500 random BDDs: precomputed count equals enumeration; entries bounded."""
    started = time.perf_counter()
    failures = []
    for spec in CORPUS_SPECS:
        store, f, n = _materialize(spec)
        table = precompute_counts(store, f)
        oracle = sum(1 for bits in all_assignments(n) if store.evaluate(f, bits))
        if table.root_count != oracle:
            failures.append((spec, table.root_count, oracle))
        if any(v > table.root_count for e, v in table.counts.items() if abs(e) != 1):
            failures.append((spec, "entry above root count"))
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 10.0
    _report("C1 satcount oracle (500 BDDs, n=4..12)", ok, f"{elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s, bound is 10s"


def test_criterion_2_rank_unrank_bijection():
    """Ranks are 0..C-1 in lex order, unrank inverts, walks visit <= n nodes."""
    started = time.perf_counter()
    failures = []
    for spec in CORPUS_SPECS:
        store, f, n = _materialize(spec)
        table = precompute_counts(store, f)
        sats = satisfying(store, f, n)
        if table.root_count != len(sats):
            failures.append((spec, "count mismatch"))
            continue
        for position, bits in enumerate(sats):
            value, visits = _rank_walk(table, bits)
            if value != position or visits > n:
                failures.append((spec, bits, value, position, visits))
                break
            back, visits = _unrank_walk(table, position)
            if back != bits or visits > n:
                failures.append((spec, position, back, bits, visits))
                break
    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 30.0
    _report("C2 rank/unrank bijection and linear cost", ok, f"{elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.1f}s, bound is 30s"


def test_criterion_3_split_theorems():
    """500 splits: exact set identities, <= 2n new slots, parts <= |G|+n, canonical."""
    rng = random.Random(777)
    failures = []
    for spec in _corpus_specs(seed=31337, count=500):
        store, f, n = _materialize(spec)
        cut = tuple(rng.randint(0, 1) for _ in range(n))
        size_f = store.size(f)
        before = store.node_count()
        pair = split(store, f, cut)
        created = store.node_count() - before
        if created > 2 * n:
            failures.append((spec, "created", created))
        if store.size(pair.left) > size_f + n or store.size(pair.right) > size_f + n:
            failures.append((spec, "part size"))
        sats = set(satisfying(store, f, n))
        left = set(satisfying(store, pair.left, n))
        right = set(satisfying(store, pair.right, n))
        if left | right != sats or (left & right) or \
                any(b > cut for b in left) or any(b <= cut for b in right):
            failures.append((spec, "set identities"))
        for part in (pair.left, pair.right):
            rebuilt = from_truth_table(store,
                [store.evaluate(part, bits) for bits in all_assignments(n)])
            if rebuilt != part:
                failures.append((spec, "not canonical"))
    _report("C3 split space theorem and set identities (500 splits)", not failures)
    assert not failures, failures[:3]


def test_criterion_4_count_exact_splitting():
    """split_at_count(m) puts exactly m members left, for every feasible m."""
    failures = []
    swept = 0
    for spec in _corpus_specs(seed=2718, count=60, sizes=range(4, 9)):
        store, f, n = _materialize(spec)
        table = precompute_counts(store, f)
        c = table.root_count
        if c == 0 or c > 256:
            continue
        for m in range(1, c + 1):
            pair = split_at_count(table, m)
            left_count = precompute_counts(store, pair.left).root_count
            right_count = precompute_counts(store, pair.right).root_count
            if left_count != m or right_count != c - m:
                failures.append((spec, m, left_count))
            swept += 1
        if c >= 2:
            half = split_at_count(table, c // 2)
            got = (precompute_counts(store, half.left).root_count,
                   precompute_counts(store, half.right).root_count)
            if got != (c // 2, -(-c // 2)):
                failures.append((spec, "half split", got))
    ok = not failures and swept > 0
    _report("C4 count-exact splitting (exhaustive m sweep)", ok, f"{swept} splits")
    assert swept > 0
    assert not failures, failures[:3]


def test_criterion_5_lex_partition_definition():
    """fold-states-lex satisfies all five definition conditions for k in {2, 8}."""
    failures = []
    checked = 0
    for spec in _corpus_specs(seed=1414, count=50, sizes=range(4, 10)):
        store, f, n = _materialize(spec)
        table = precompute_counts(store, f)
        for k in (2, 8):
            part = fold_states_lex(table, k)
            try:
                check_lex_partition(store, f, n, part, table.root_count, k)
            except AssertionError as exc:
                failures.append((spec, k, str(exc)))
            checked += 1
    # plus the exactly divisible case
    rng = random.Random(41)
    bits = [True] * 1000 + [False] * 24
    rng.shuffle(bits)
    store = BddStore(10)
    f = from_truth_table(store, bits)
    table = precompute_counts(store, f)
    for k in (2, 8):
        part = fold_states_lex(table, k)
        sizes = [precompute_counts(store, p).root_count for p in part.parts]
        if sizes != [1000 // k] * k:
            failures.append(("crafted-1000", k, sizes))
        checked += 1
    _report("C5 lex-partition definition (k=2, k=8)", not failures, f"{checked} partitions")
    assert not failures, failures[:3]


def test_criterion_6_partition_invariance_of_search():
    """Identical layers and game values under every strategy, all games."""
    failures = []
    for game in BUNDLED_GAMES:
        spec = load_game(bundled_game_path(game))
        ts = compile_game(spec)
        init = initial_edge(ts, spec)
        runs = {}
        for text in STRATEGIES:
            strategy = PartitionStrategy.parse(text)
            layers = layered_bfs(ts, init, strategy)
            solution = solve(ts, spec, layers)
            ts.store.check()
            runs[text] = (layers, solution)
        base_layers, base_solution = runs["none"]
        base_counts = [s.states for s in base_layers.stats]
        for text, (layers, solution) in runs.items():
            if [merged(ts.store, w) for w in layers.layers] != \
                    [merged(ts.store, w) for w in base_layers.layers]:
                failures.append((game, text, "layer edges differ"))
            if [s.states for s in layers.stats] != base_counts:
                failures.append((game, text, "layer satcounts differ"))
            if solution.initial_value() != base_solution.initial_value():
                failures.append((game, text, "game value differs"))
            if solution.layer_classes != base_solution.layer_classes:
                failures.append((game, text, "class edges differ"))
    _report("C6 partition invariance (5 games x 4 strategies)", not failures)
    assert not failures, failures


def test_criterion_7_tictactoe_strong_solution():
    """Layer counts match explicit BFS (5478 states) and every value matches
    explicit backward induction; initial value is the draw."""
    started = time.perf_counter()
    spec = load_game(bundled_game_path("tictactoe"))
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    solution = solve(ts, spec, layers)
    ts.store.check()

    explicit = ExplicitGame(spec)
    explicit_layers = explicit.bfs_layers()
    symbolic_counts = [s.states for s in layers.stats]
    explicit_counts = [len(layer) for layer in explicit_layers]
    total = sum(explicit_counts)

    failures = []
    if symbolic_counts != explicit_counts:
        failures.append(("layer counts", symbolic_counts, explicit_counts))
    if total != 5478:
        failures.append(("total states", total))
    if solution.initial_value() != (50, 50):
        failures.append(("initial value", solution.initial_value()))

    # classify every explicit state through the per-layer class BDDs
    mismatches = 0
    for d, layer_states in enumerate(explicit_layers):
        classes = solution.layer_classes[d]
        for state in layer_states:
            full = [0] * ts.store.n
            for lvl, b in zip(ts.current, state):
                full[lvl] = b
            assigned = [key for key, edge in classes.items()
                        if edge != FALSE and ts.store.evaluate(edge, full)]
            if len(assigned) != 1 or assigned[0] != explicit.value(state):
                mismatches += 1
    if mismatches:
        failures.append(("value mismatches", mismatches))
    # spot check the public lookup agrees
    some = sorted(explicit_layers[2])[::17]
    if any(solution.value_of(s) != explicit.value(s) for s in some):
        failures.append(("value_of disagrees",))

    elapsed = time.perf_counter() - started
    ok = not failures and elapsed < 300.0
    _report("C7 tictactoe strongly solved vs explicit oracle", ok,
            f"{total} states, {elapsed:.1f}s")
    assert not failures, failures[:3]
    assert elapsed < 300.0, f"criterion 7 took {elapsed:.1f}s, bound is 5min"


def test_criterion_8_benchmark_protocol_shape():
    """Compare reproduces the ratio-table structure; fold-states-lex:8 cuts
    the max image size on at least one bundled game."""
    failures = []
    fold_ratios = {}
    for game in ("lightsout3", "connect3"):
        path = str(bundled_game_path(game))
        baseline = run(RunConfig(game_path=path))
        if not baseline.solved:
            failures.append((game, "baseline unsolved"))
            continue
        reports = [run(RunConfig(game_path=path, strategy=PartitionStrategy.parse(s)))
                   for s in STRATEGIES[1:]]
        rows = compare(reports + [baseline], baseline)
        self_row = rows[-1]
        if (self_row.layers_ratio, self_row.time_ratio, self_row.max_nodes_ratio) \
                != (1.0, 1.0, 1.0):
            failures.append((game, "baseline ratios not 1.00"))
        for row in rows:
            for value in (row.layers_ratio, row.time_ratio, row.max_nodes_ratio):
                if not (value >= 0):
                    failures.append((game, row.strategy, "bad ratio"))
        fold_row = next(r for r in rows if r.strategy == "fold-states-lex:8")
        fold_ratios[game] = fold_row.max_nodes_ratio
    direction_holds = any(v <= 1.0 for v in fold_ratios.values())
    if not direction_holds:
        failures.append(("fold-states-lex:8 never at or below baseline", fold_ratios))
    _report("C8 benchmark protocol shape and memory direction", not failures,
            f"fold8 max-nodes ratios {fold_ratios}")
    assert not failures, failures
