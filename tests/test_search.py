"""Image algebra, layered BFS, and partition strategies."""

import dataclasses
import math

import pytest

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


def _subimages_reference(ts, parts, forward):
    """Reference image: every piece over the current variables, folded with OR.

    The peak is the largest diagram among the pieces and the image.
    """
    store = ts.store
    quantified = set(ts.current) if forward else set(ts.nxt)
    pieces = []
    for part in parts:
        source = store.apply("and", part, -ts.sink) if forward else store.rename(part, ts.to_next)
        for rel in ts.relations:
            sub = store.and_exists(quantified, rel.edge, source)
            pieces.append(store.rename(sub, ts.to_current) if forward
                          else store.apply("and", sub, -ts.sink))
    result = FALSE
    for piece in pieces:
        result = store.apply("or", result, piece)
    return result, max(len(store.descendants(e)) for e in (*pieces, result))


@pytest.mark.parametrize("name", bundled_game_names())
def test_forward_subimages_rename_once_with_the_same_peak(name):
    spec = load_game(bundled_game_path(name))
    for text in ("none", "fold-states-lex:8", "states-lex:64", "disj-var"):
        ts = compile_game(spec)
        store = ts.store
        strategy = PartitionStrategy.parse(text)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
        for layer in layers.layers:
            parts = strategy.parts_of(store, layer, ts.current)
            for forward in (True, False):
                assert _subimages(ts, parts, forward=forward) == \
                    _subimages_reference(ts, parts, forward)
        solve(ts, spec, layers, strategy)
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


def test_empty_init_rejected(counter):
    _, ts = counter
    with pytest.raises(ValueError):
        layered_bfs(ts, FALSE)


def _monolithic_relation(ts):
    """The disjunction of all action relations, as one BDD."""
    result = FALSE
    for rel in ts.relations:
        result = ts.store.apply("or", result, rel.edge)
    return result


def test_monolithic_image_agrees(counter):
    spec, ts = counter
    mono_ts = TransitionSystem(store=ts.store, current=ts.current, nxt=ts.nxt,
                               relations=(Relation("all", _monolithic_relation(ts)),),
                               sink=ts.sink)
    s = _state_set(ts, [(0, 0, 0), (1, 1, 0)])
    assert image(mono_ts, s) == image(ts, s)
    assert preimage(mono_ts, s) == preimage(ts, s)


def test_sink_states_have_no_successors(counter):
    spec, ts = counter
    store = ts.store
    # the counter's own terminal state plus two more
    sink = _state_set(ts, [(0, 1, 0), (1, 0, 0), (1, 1, 1)])
    sunk = TransitionSystem(store=store, current=ts.current, nxt=ts.nxt,
                            relations=ts.relations, sink=sink)
    assert image(sunk, sink) == FALSE
    for text in ("none", "fold-states-lex:2", "states-lex:1", "disj-var"):
        strategy = PartitionStrategy.parse(text)
        assert image(sunk, sink, strategy) == FALSE
        pred = preimage(sunk, TRUE, strategy)
        assert store.apply("and", pred, sink) == FALSE
        assert pred == store.apply("and", preimage(ts, TRUE, strategy), -sink)


def test_transition_system_rejects_stray_levels():
    store = BddStore(4)
    stray = store.var(1)
    with pytest.raises(ValueError):
        TransitionSystem(store=store, current=(0,), nxt=(2,),
                         relations=(Relation("bad", stray),))
    with pytest.raises(ValueError):
        TransitionSystem(store=store, current=(0,), nxt=(2,), relations=(),
                         sink=store.var(2))


def test_transition_system_rejects_overlapping_levels():
    store = BddStore(4)
    with pytest.raises(ValueError, match="both current and next"):
        TransitionSystem(store=store, current=(0, 1), nxt=(1, 0), relations=())


def test_transition_system_rejects_repeated_levels():
    store = BddStore(4)
    with pytest.raises(ValueError, match="current variable list repeats a level"):
        TransitionSystem(store=store, current=(0, 0), nxt=(1, 2), relations=())
    with pytest.raises(ValueError, match="next variable list repeats a level"):
        TransitionSystem(store=store, current=(0, 1), nxt=(2, 2), relations=())


def test_transition_system_rejects_levels_outside_the_store():
    store = BddStore(4)
    with pytest.raises(ValueError, match=r"next variable list names levels \[4\]"):
        TransitionSystem(store=store, current=(0, 1), nxt=(2, 4), relations=())
    with pytest.raises(ValueError, match=r"current variable list names levels \[-1\]"):
        TransitionSystem(store=store, current=(-1, 1), nxt=(2, 3), relations=())


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
