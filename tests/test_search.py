"""Image algebra, layered BFS, and partition strategies."""

import dataclasses
import itertools
import math
import random
import re

import pytest

import lexbdd.search
from lexbdd import BddStore, PartitionStrategy, SearchLimits, image, layered_bfs, preimage, \
    precompute_counts
from lexbdd.bdd import FALSE, TRUE
from lexbdd.games import bundled_game_names, bundled_game_path, compile_game, initial_edge, \
    load_game, parse_game, solve, state_edge
from lexbdd.search import Relation, TransitionSystem, _subimages

from explicit import ExplicitGame

COUNTER = """
name: counter3
vars: c2, c1, c0
init:
player 1 action tick: pre = 1; eff = c0 := !c0, c1 := (c1&!c0)|(!c1&c0), c2 := (c2&!(c1&c0))|(!c2&c1&c0)
terminal: c2&c1&c0
reward 1 100: c2&c1&c0
"""


@pytest.fixture()
def counter():
    spec = parse_game(COUNTER)
    ts = compile_game(spec)
    return spec, ts


def _state_set(ts, states):
    edge = FALSE
    for bits in states:
        edge = ts.store.apply("or", edge, state_edge(ts, bits))
    return edge


def test_image_of_empty_set_is_empty(counter):
    _, ts = counter
    assert image(ts, FALSE) == FALSE
    assert preimage(ts, FALSE) == FALSE


def test_counter_image_and_preimage_against_explicit_oracle(counter):
    spec, ts = counter
    explicit = ExplicitGame(spec)
    for bits in ((0, 0, 0), (0, 1, 1), (1, 0, 1)):
        expected = _state_set(ts, explicit.successors(bits))
        assert image(ts, state_edge(ts, bits)) == expected
    assert image(ts, state_edge(ts, (0, 0, 0))) == state_edge(ts, (0, 0, 1))
    assert preimage(ts, state_edge(ts, (0, 0, 1))) == state_edge(ts, (0, 0, 0))


def test_preimage_of_image_covers_source(counter):
    _, ts = counter
    for bits in ((0, 0, 0), (0, 1, 0), (1, 1, 0)):
        s = state_edge(ts, bits)
        closed = preimage(ts, image(ts, s))
        assert ts.store.apply("and", s, closed) == s  # s subset of closed


def test_image_distributes_over_partitions(counter):
    spec, ts = counter
    store = ts.store
    # a three-state set, partitioned every way the strategies produce
    s = _state_set(ts, [(0, 0, 0), (0, 1, 0), (1, 0, 0)])
    whole = image(ts, s)
    for text in ("fold-states-lex:2", "fold-states-lex:8", "states-lex:1", "disj-var"):
        strategy = PartitionStrategy.parse(text)
        assert len(strategy.parts_of(store, s, ts.current)) > 1
        assert image(ts, s, strategy) == whole


def _framed(ts, rel):
    """``rel.edge`` with a frame axiom ``u' <-> u`` for every variable it does not write."""
    store = ts.store
    edge = rel.edge
    for u in ts.current:
        if u not in ts.written[rel]:
            frame = store.ite(store.var(u + 1), store.var(u), -store.var(u))
            edge = store.apply("and", edge, frame)
    return edge


def _framed_product(ts, edge, part, forward):
    """The plain product of a framed ``edge`` with ``part``, renamed to the current variables."""
    store = ts.store
    if forward:
        source = store.apply("and", part, -ts.sink)
        sub = store.and_exists(set(ts.current), edge, source)
        return store.rename(sub, dict(zip(ts.nxt, ts.current)))
    source = store.rename(part, dict(zip(ts.current, ts.nxt)))
    return store.apply("and", store.and_exists(set(ts.nxt), edge, source), -ts.sink)


def _subimages_reference(ts, parts, forward):
    """Reference image and peak from framed relations, every piece over the current variables.

    The image ORs one plain product per (part, action), each action with
    all its frame axioms back.  The peak is the largest diagram among the
    image and the per-(part, player) pieces, each player's relation being
    the OR of its actions' framed relations.  ``parts`` partition the set
    over the current variables, and each is renamed on its own.
    """
    store = ts.store
    framed = {rel: _framed(ts, rel) for rel in ts.relations}
    result = FALSE
    for part in parts:
        for edge in framed.values():
            result = store.apply("or", result, _framed_product(ts, edge, part, forward))
    clusters = {}
    for rel, edge in framed.items():
        clusters[rel.player] = store.apply("or", clusters.get(rel.player, FALSE), edge)
    pieces = [_framed_product(ts, edge, part, forward) for part in parts for edge in clusters.values()]
    return result, max(len(store.descendants(e)) for e in (*pieces, result))


@pytest.mark.parametrize("name", bundled_game_names())
def test_subimages_match_the_framed_reference(name):
    spec = load_game(bundled_game_path(name))
    for text in ("none", "fold-states-lex:8", "states-lex:64", "disj-var"):
        ts = compile_game(spec)
        store = ts.store
        strategy = PartitionStrategy.parse(text)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
        for layer in layers.layers:
            parts = strategy.parts_of(store, layer, ts.current)
            for forward in (True, False):
                assert _subimages(ts, layer, strategy, forward=forward) == \
                    _subimages_reference(ts, parts, forward)
        solve(ts, spec, layers, strategy)
        store.check()


@pytest.mark.parametrize("name", bundled_game_names())
def test_backward_subimages_are_restricted_to_the_care_set(name):
    spec = load_game(bundled_game_path(name))
    for text in ("none", "fold-states-lex:8", "states-lex:64", "disj-var"):
        ts = compile_game(spec)
        store = ts.store
        strategy = PartitionStrategy.parse(text)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy).layers
        for d, layer in enumerate(layers):
            movers = store.apply("and", layer, -ts.sink)
            for s in layers[d:d + 2]:
                whole, _ = _subimages(ts, s, strategy, forward=False, care=TRUE)
                assert _subimages(ts, s, strategy, forward=False, care=movers)[0] == \
                    store.apply("and", movers, whole)
                # by default a preimage is restricted to the states outside the sink set
                assert _subimages(ts, s, strategy, forward=False)[0] == \
                    store.apply("and", -ts.sink, whole)
        store.check()


@pytest.mark.parametrize("name", bundled_game_names())
def test_peak_does_not_depend_on_action_order(name):
    spec = load_game(bundled_game_path(name))
    for text in ("none", "fold-states-lex:8", "states-lex:64", "disj-var"):
        strategy = PartitionStrategy.parse(text)
        rows = []
        for reverse in (False, True):
            ts = compile_game(spec)
            if reverse:
                ts = dataclasses.replace(ts, relations=ts.relations[::-1])
            layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
            table = solve(ts, spec, layers, strategy)
            ts.store.check()
            rows.append([(r.direction, r.index, r.max_image_nodes, r.states)
                         for r in layers.stats + table.stats])
        assert rows[0] == rows[1], text


def test_layered_bfs_counter_layers(counter):
    spec, ts = counter
    seq = layered_bfs(ts, initial_edge(ts, spec))
    assert seq.complete
    explicit_layers = ExplicitGame(spec).bfs_layers()
    assert len(seq.layers) == len(explicit_layers) == 8
    for edge, states in zip(seq.layers, explicit_layers):
        assert edge == _state_set(ts, states)
    assert [s.states for s in seq.stats] == [1] * 8


def test_layered_bfs_fixpoint_without_actions():
    spec = parse_game("""
vars: a
init:
player 1 action stuck: pre = 0; eff = a := 1
terminal: a
reward 1 100: a
reward 1 0: !a
""")
    ts = compile_game(spec)
    seq = layered_bfs(ts, initial_edge(ts, spec))
    assert seq.complete
    assert len(seq.layers) == 1


def test_layer_disjointness_and_union(counter):
    spec, ts = counter
    seq = layered_bfs(ts, initial_edge(ts, spec))
    union = FALSE
    for i, a in enumerate(seq.layers):
        for b in seq.layers[i + 1:]:
            assert ts.store.apply("and", a, b) == FALSE
        union = ts.store.apply("or", union, a)
    assert union == seq.reached


def test_partition_invariance_of_bfs(counter):
    spec, ts = counter
    baseline = layered_bfs(ts, initial_edge(ts, spec))
    for text in ("fold-states-lex:8", "states-lex:32", "disj-var"):
        seq = layered_bfs(ts, initial_edge(ts, spec), PartitionStrategy.parse(text))
        assert seq.layers == baseline.layers  # canonical edges, same store
        assert seq.reached == baseline.reached


def test_search_limits_reject_nan_and_negative_budgets():
    for kwargs in ({"time_s": math.nan}, {"time_s": -1.0}, {"time_s": -math.inf},
                   {"max_nodes": -1}, {"max_nodes": math.nan}):
        with pytest.raises(ValueError):
            SearchLimits(**kwargs)
    # zero is a budget that is already spent; None and infinity are unbounded
    for kwargs in ({"time_s": 0.0}, {"time_s": math.inf}, {"max_nodes": 0}, {}):
        SearchLimits(**kwargs)


def test_time_budget_exhaustion(counter):
    spec, ts = counter
    seq = layered_bfs(ts, initial_edge(ts, spec), limits=SearchLimits(time_s=0.0))
    assert not seq.complete
    assert len(seq.layers) < 8


def test_node_budget_exhaustion(counter):
    spec, ts = counter
    seq = layered_bfs(ts, initial_edge(ts, spec), limits=SearchLimits(max_nodes=1))
    assert not seq.complete


def test_forward_search_counts_each_layer_once(monkeypatch):
    # tictactoe's store more than doubles inside the search, so the layers
    # are compacted between steps; a compaction must not cost a recount
    spec = load_game(bundled_game_path("tictactoe"))
    ts = compile_game(spec)
    counted, compactions = [], []
    count, compact = lexbdd.search.precompute_counts, BddStore.compact

    def counting(store, f, levels):
        counted.append(f)
        return count(store, f, levels)

    def compacting(store, since, roots):
        compactions.append(since)
        return compact(store, since, roots)

    monkeypatch.setattr(lexbdd.search, "precompute_counts", counting)
    monkeypatch.setattr(BddStore, "compact", compacting)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    assert layers.complete
    assert compactions
    assert len(counted) == len(layers.layers)
    assert [row.states for row in layers.stats] == \
        [len(states) for states in ExplicitGame(spec).bfs_layers()]


def test_empty_init_rejected(counter):
    _, ts = counter
    with pytest.raises(ValueError):
        layered_bfs(ts, FALSE)


def _monolithic_relation(ts):
    """The disjunction of all action relations, each with its frame axioms, as one BDD."""
    result = FALSE
    for rel in ts.relations:
        result = ts.store.apply("or", result, _framed(ts, rel))
    return result


@pytest.mark.parametrize("name", ["tictactoe", "duel"])
def test_monolithic_image_agrees(name):
    # most actions of these games leave most variables alone, so the
    # frame-free relations differ from their framed disjunction
    spec = load_game(bundled_game_path(name))
    ts = compile_game(spec)
    assert any(len(ts.written[rel]) < len(ts.current) for rel in ts.relations)
    mono = Relation("all", _monolithic_relation(ts))
    mono_ts = TransitionSystem(store=ts.store, relations=(mono,), sink=ts.sink)
    assert mono_ts.written[mono] == ts.current
    seq = layered_bfs(ts, initial_edge(ts, spec))
    for text in ("none", "fold-states-lex:8", "states-lex:64", "disj-var"):
        strategy = PartitionStrategy.parse(text)
        for s in (*seq.layers, seq.reached):
            assert image(mono_ts, s, strategy) == image(ts, s, strategy)
            assert preimage(mono_ts, s, strategy) == preimage(ts, s, strategy)


# effect shapes: an action without effects, a swap, a toggle next to a
# constant, effects reading variables the same action writes, and trailing
# variables that no action writes but preconditions, effects and rewards
# read, so that products continue below every quantified and moved level;
# the two-bit clock t1 t0 counts the moves, so all games but idle are
# layered and have values
SHAPE_GAMES = {
    "idle": """
vars: a, b
init:
player 1 action idle: pre = !a
player 1 action set: pre = !a; eff = a := 1
player 1 action swap: pre = a; eff = a := b, b := a
terminal: a & b
reward 1 100: a & b
reward 1 0: !(a & b)
""",
    "swap": """
vars: a, b, c, t1, t0
init: a
player 1 action swap: pre = 1; eff = a := b, b := a, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
player 1 action mark: pre = !c; eff = c := 1, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
terminal: t1 & t0
reward 1 100: a & !b
reward 1 50: !(a & !b) & c
reward 1 0: !(a & !b) & !c
""",
    "toggle": """
vars: p, a, b, d, t1, t0
init:
player 1 action toggle: pre = !p; eff = p := 1, a := !a, b := 1, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
player 1 action copy: pre = !p & b; eff = p := 1, d := b, b := 0, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
player 2 action flip: pre = p; eff = p := 0, a := !a, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
player 2 action wait: pre = p & d; eff = t0 := !t0, p := 0, t1 := (t1 & !t0) | (!t1 & t0)
terminal: t1 & t0
reward 1 100: a & !d
reward 1 0: !(a & !d)
reward 2 100: !(a & !d)
reward 2 0: a & !d
""",
    "chain": """
vars: a, b, c, t1, t0
init: c
player 1 action shift: pre = 1; eff = a := b, b := c, c := a & !b, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
player 1 action clear: pre = b | c; eff = c := 0, a := c | b, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
terminal: t1 & t0
reward 1 100: a & !c
reward 1 30: !(a & !c)
""",
    # both of player 1's actions write a, one to 0 and one to 1, so its move
    # relation does not mention a'; player 2's pass is framed on b, which
    # only its copy writes
    "either": """
vars: a, b, p, t1, t0
init:
player 1 action clear: pre = !p; eff = a := 0, p := 1, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
player 1 action set: pre = !p; eff = a := 1, p := 1, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
player 2 action pass: pre = p; eff = p := 0, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
player 2 action copy: pre = p; eff = b := !a, p := 0, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
terminal: t1 & t0
reward 1 100: a & b
reward 1 0: !(a & b)
reward 2 100: !(a & b)
reward 2 0: a & b
""",
    "trailing": """
vars: a, b, t1, t0, g, h
init: g
player 1 action flip: pre = g | h; eff = a := !a, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
player 1 action tick: pre = 1; eff = b := a | h, t0 := !t0, t1 := (t1 & !t0) | (!t1 & t0)
terminal: t1 & t0
reward 1 100: a & g
reward 1 40: !(a & g) & b
reward 1 0: !(a & g) & !b
""",
}


@pytest.mark.parametrize("name", [*bundled_game_names(), *sorted(SHAPE_GAMES)])
def test_written_levels_are_the_effect_variables(name):
    if name in SHAPE_GAMES:
        spec = parse_game(SHAPE_GAMES[name], name=name)
    else:
        spec = load_game(bundled_game_path(name))
    ts = compile_game(spec)
    for action, rel in zip(spec.actions, ts.relations, strict=True):
        effects = {v for v, _ in action.effects}
        assert ts.written[rel] == tuple(2 * i for i, v in enumerate(spec.variables) if v in effects)


def test_move_relation_keeps_the_written_levels_its_edge_does_not_mention():
    spec = parse_game(SHAPE_GAMES["either"], name="either")
    explicit = ExplicitGame(spec)
    ts = compile_game(spec)
    move = ts.moves[1]
    assert move.written == (0, 4, 6, 8)  # a, p, t1, t0
    assert 1 not in ts.store.support_levels(move.edge)  # no a'
    successors = explicit.successors(spec.init_bits())
    assert {bits[0] for bits in successors} == {0, 1}
    assert image(ts, initial_edge(ts, spec)) == _state_set(ts, successors)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    table = solve(ts, spec, layers)
    for layer in explicit.bfs_layers():
        for bits in layer:
            assert table.value_of(bits) == explicit.value(bits)
    # duel: low1 | high1 does not mention m1' either, yet player 1 writes m1
    spec = load_game(bundled_game_path("duel"))
    ts = compile_game(spec)
    assert ts.moves[1].written == (0, 6)  # m1, s0
    assert 1 not in ts.store.support_levels(ts.moves[1].edge)
    assert solve(ts, spec, layered_bfs(ts, initial_edge(ts, spec))).initial_value() == (40, 70)


@pytest.mark.parametrize("name", sorted(SHAPE_GAMES))
def test_effect_shapes_match_the_explicit_engine(name):
    spec = parse_game(SHAPE_GAMES[name], name=name)
    explicit = ExplicitGame(spec)
    states = list(itertools.product((0, 1), repeat=len(spec.variables)))
    rng = random.Random(name)
    for text in ("none", "fold-states-lex:2", "states-lex:3", "disj-var"):
        strategy = PartitionStrategy.parse(text)
        ts = compile_game(spec)
        for _ in range(12):
            chosen = [bits for bits in states if rng.random() < 0.4]
            succ = {t for bits in chosen for t in explicit.successors(bits)}
            pred = [bits for bits in states if set(explicit.successors(bits)) & set(chosen)]
            s = _state_set(ts, chosen)
            assert image(ts, s, strategy) == _state_set(ts, succ)
            assert preimage(ts, s, strategy) == _state_set(ts, pred)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
        assert layers.layers == [_state_set(ts, layer) for layer in explicit.bfs_layers()]
        if name != "idle":  # its idle action loops, which no layered value allows
            table = solve(ts, spec, layers, strategy)
            for layer in explicit.bfs_layers():
                for bits in layer:
                    assert table.value_of(bits) == explicit.value(bits)
        ts.store.check()


def test_images_never_rename(monkeypatch):
    # every subimage is made over the current variables inside the product
    def no_rename(*args, **kwargs):
        raise AssertionError("rename called")

    monkeypatch.setattr(BddStore, "rename", no_rename)
    for name in bundled_game_names():
        spec = load_game(bundled_game_path(name))
        for text in ("none", "fold-states-lex:8", "states-lex:64", "disj-var"):
            strategy = PartitionStrategy.parse(text)
            ts = compile_game(spec)
            layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
            assert solve(ts, spec, layers, strategy).complete
            ts.store.check()


def test_sink_states_have_no_successors(counter):
    spec, ts = counter
    store = ts.store
    # the counter's own terminal state plus two more
    sink = _state_set(ts, [(0, 1, 0), (1, 0, 0), (1, 1, 1)])
    sunk = TransitionSystem(store=store, relations=ts.relations, sink=sink)
    assert image(sunk, sink) == FALSE
    for text in ("none", "fold-states-lex:2", "states-lex:1", "disj-var"):
        strategy = PartitionStrategy.parse(text)
        assert image(sunk, sink, strategy) == FALSE
        pred = preimage(sunk, TRUE, strategy)
        assert store.apply("and", pred, sink) == FALSE
        assert pred == store.apply("and", preimage(ts, TRUE, strategy), -sink)


def test_transition_system_derives_the_interleaved_layout():
    store = BddStore(6)
    ts = TransitionSystem(store, ())
    assert (ts.current, ts.nxt, ts.written, ts.moves) == ((0, 2, 4), (1, 3, 5), {}, {})
    with pytest.raises(dataclasses.FrozenInstanceError):
        ts.current = (0,)


def test_transition_system_rejects_stray_levels():
    # a level without its partner, and a sink that reads next levels
    with pytest.raises(ValueError, match="store has 3 levels"):
        TransitionSystem(BddStore(3), ())
    store = BddStore(4)
    with pytest.raises(ValueError, match=r"sink set mentions next levels \[3\]"):
        TransitionSystem(store, (), sink=store.apply("and", store.var(0), store.var(3)))


def test_relation_takes_no_written_levels():
    store = BddStore(2)
    with pytest.raises(TypeError):
        Relation("w", store.var(1), written=(0,))


def test_strategy_parse_and_str():
    for text in ("none", "fold-states-lex:8", "states-lex:100", "disj-var"):
        assert str(PartitionStrategy.parse(text)) == text
    with pytest.raises(ValueError):
        PartitionStrategy.parse("fold-states-lex")
    with pytest.raises(ValueError):
        PartitionStrategy.parse("bogus")
    with pytest.raises(ValueError):
        PartitionStrategy.parse("states-lex:0")
    with pytest.raises(ValueError):
        PartitionStrategy.parse("disj-var:2")
    # the kind is checked before the parameter is read as an integer
    for text, message in (("none:abc", "strategy none takes no parameter"),
                          ("disj-var:x", "strategy disj-var takes no parameter"),
                          ("none:", "strategy none takes no parameter"),
                          ("bogus:3", "unknown strategy 'bogus'"),
                          ("bogus:x", "unknown strategy 'bogus'"),
                          ("states-lex:x", "strategy states-lex needs an integer parameter, got 'x'")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            PartitionStrategy.parse(text)


def test_strategy_parts_cover_and_are_disjoint(counter):
    spec, ts = counter
    store = ts.store
    s = _state_set(ts, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)])
    table = precompute_counts(store, s, ts.current)
    for text in ("none", "fold-states-lex:3", "states-lex:2", "disj-var"):
        parts = PartitionStrategy.parse(text).parts_of(store, s, ts.current)
        # a count table of s stands for s itself
        assert PartitionStrategy.parse(text).parts_of(store, table, ts.current) == parts
        union = FALSE
        for i, p in enumerate(parts):
            for q in parts[i + 1:]:
                assert store.apply("and", p, q) == FALSE
            union = store.apply("or", union, p)
        assert union == s
