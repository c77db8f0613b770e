"""Image algebra, layered BFS, and partition strategies."""

import dataclasses
import itertools
import math
import random
import re

import pytest

import lexbdd.search
from lexbdd import BddStore, PartitionStrategy, SearchLimits, image, layered_bfs, preimage, \
    precompute_counts, split, unrank
from lexbdd.bdd import FALSE, TRUE
from lexbdd.games import bundled_game_names, bundled_game_path, compile_game, formula_edge, \
    initial_edge, load_game, parse_game, solve, state_edge
from lexbdd.search import Move, TransitionSystem, _fixed_literals, _followers, _image_windows, \
    _preimages

from explicit import ExplicitGame
from helpers import action_relations, corpus, merged, satisfying

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
    for text in ("fold-states-lex:2", "fold-states-lex:8", "states-lex:1"):
        strategy = PartitionStrategy.parse(text)
        tables = [precompute_counts(store, s, ts.current)]
        assert len(strategy.parts_of(store, tables, ts.current)) > 1
        assert image(ts, s, strategy) == whole


def test_none_takes_several_windows_as_one_part(counter):
    _, ts = counter
    store = ts.store
    windows = (_state_set(ts, [(0, 0, 0)]), _state_set(ts, [(1, 0, 0)]))
    tables = [precompute_counts(store, w, ts.current) for w in windows]
    assert PartitionStrategy.parse("none").parts_of(store, tables, ts.current) == \
        [store.apply("or", *windows)]
    assert PartitionStrategy.parse("fold-states-lex:2").parts_of(store, tables, ts.current) == \
        list(windows)


def _framed(ts, edge, written):
    """``edge`` with a frame axiom ``u' <-> u`` for every variable outside ``written``."""
    store = ts.store
    for u in ts.current:
        if u not in written:
            frame = store.ite(store.var(u + 1), store.var(u), -store.var(u))
            edge = store.apply("and", edge, frame)
    return edge


def _framed_product(ts, edge, part, forward):
    """The plain product of a framed ``edge`` with ``part``, renamed to the current variables."""
    store = ts.store
    nxt = [lvl + 1 for lvl in ts.current]
    outside = -merged(store, ts.sink)
    if forward:
        source = store.apply("and", part, outside)
        sub = store.and_exists(set(ts.current), edge, source)
        return store.rename(sub, dict(zip(nxt, ts.current)))
    source = store.rename(part, dict(zip(ts.current, nxt)))
    return store.apply("and", store.and_exists(set(nxt), edge, source), outside)


def _subimages_reference(ts, spec, parts, forward, cuts=()):
    """Reference image and peak from framed relations, every piece over the current variables.

    The image ORs one plain product per (part, action), each action
    compiled on its own with all its frame axioms back.  The peak is the
    largest diagram among the image and the per-(part, player) pieces,
    each player's relation being the OR of its actions' framed
    relations.  ``parts`` partition the set over the current variables,
    and each is renamed on its own.  Forward, the image comes as its
    windows, split at ``cuts`` with ``split``, and the peak counts them
    in place of the image.
    """
    store = ts.store
    framed = [(player, _framed(ts, edge, written))
              for player, edge, written in action_relations(ts, spec)]
    result = FALSE
    for part in parts:
        for _, edge in framed:
            result = store.apply("or", result, _framed_product(ts, edge, part, forward))
    clusters = {}
    for player, edge in framed:
        clusters[player] = store.apply("or", clusters.get(player, FALSE), edge)
    pieces = [_framed_product(ts, edge, part, forward) for part in parts for edge in clusters.values()]
    images = [result]
    if forward:
        images.clear()
        for cut in cuts:
            pair = split(store, result, cut, ts.current)
            images.append(pair.left)
            result = pair.right
        images.append(result)
    return (images if forward else result), \
        max(len(store.descendants(e)) for e in (*pieces, *images))


@pytest.mark.parametrize("name", bundled_game_names())
def test_subimages_match_the_framed_reference(name):
    spec = load_game(bundled_game_path(name))
    for text in ("none", "fold-states-lex:8", "states-lex:64"):
        ts = compile_game(spec)
        store = ts.store
        strategy = PartitionStrategy.parse(text)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
        for parts in layers.layers:
            layer = merged(store, parts)
            # the image windows end where the layer's parts end; none has one part
            cuts = []
            for part in parts[:-1]:
                table = precompute_counts(store, part, ts.current)
                cuts.append(unrank(table, table.root_count - 1))
            every = range(len(ts.relations))
            assert _image_windows(ts, parts, every)[1:3] == \
                _subimages_reference(ts, spec, parts, True, cuts)
            # a preimage never partitions its target set
            assert _preimages(ts, layer, care=-merged(store, ts.sink)) == \
                _subimages_reference(ts, spec, [layer], False)[0]
        solve(ts, spec, layers)
        store.check()


@pytest.mark.parametrize("name", bundled_game_names())
def test_backward_subimages_are_restricted_to_the_care_set(name):
    spec = load_game(bundled_game_path(name))
    for text in ("none", "fold-states-lex:8", "states-lex:64"):
        ts = compile_game(spec)
        store = ts.store
        strategy = PartitionStrategy.parse(text)
        layers = [merged(store, w) for w in layered_bfs(ts, initial_edge(ts, spec), strategy).layers]
        outside = -merged(store, ts.sink)
        for d, layer in enumerate(layers):
            movers = store.apply("and", layer, outside)
            for s in layers[d:d + 2]:
                whole = _preimages(ts, s, care=TRUE)
                assert _preimages(ts, s, care=movers) == store.apply("and", movers, whole)
                # by default no care set restricts it, and the public
                # preimage masks the sink set out of it afterwards
                assert _preimages(ts, s) == whole
                assert preimage(ts, s) == store.apply("and", outside, whole)
        store.check()


@pytest.mark.parametrize("name", bundled_game_names())
def test_peak_does_not_depend_on_action_order(name):
    spec = load_game(bundled_game_path(name))
    for text in ("none", "fold-states-lex:8", "states-lex:64"):
        strategy = PartitionStrategy.parse(text)
        rows = []
        for reverse in (False, True):
            # reversed, compile_game frames and ORs the actions, and lists
            # the players, the other way round
            game = dataclasses.replace(spec, actions=spec.actions[::-1]) if reverse else spec
            ts = compile_game(game)
            layers = layered_bfs(ts, initial_edge(ts, game), strategy)
            table = solve(ts, game, layers)
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
    for windows, states in zip(seq.layers, explicit_layers):
        assert windows == (_state_set(ts, states),)
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
    layers = [merged(ts.store, w) for w in seq.layers]
    union = FALSE
    for i, a in enumerate(layers):
        for b in layers[i + 1:]:
            assert ts.store.apply("and", a, b) == FALSE
        union = ts.store.apply("or", union, a)
    assert union == seq.reached


def test_partition_invariance_of_bfs(counter):
    spec, ts = counter
    baseline = layered_bfs(ts, initial_edge(ts, spec))
    for text in ("fold-states-lex:8", "states-lex:32"):
        seq = layered_bfs(ts, initial_edge(ts, spec), PartitionStrategy.parse(text))
        # canonical edges, same store
        assert [(merged(ts.store, w),) for w in seq.layers] == baseline.layers
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


@pytest.mark.parametrize("strategy", ["none", "fold-states-lex:8"])
def test_forward_search_counts_each_layer_once(strategy, monkeypatch):
    # tictactoe's store more than doubles inside the search, so the layers
    # are compacted between steps; a compaction must not cost a recount
    spec = load_game(bundled_game_path("tictactoe"))
    ts = compile_game(spec)
    counted, compactions = [], []
    count, compact = lexbdd.search.count_windows, BddStore.compact

    def counting(store, roots, levels):
        tables = count(store, roots, levels)
        counted.append(sum(table.root_count for table in tables))
        return tables

    def counting_again(store, f, levels):
        raise AssertionError("a window was counted again")

    def compacting(store, since, roots):
        compactions.append(since)
        return compact(store, since, roots)

    monkeypatch.setattr(lexbdd.search, "count_windows", counting)
    monkeypatch.setattr(lexbdd.search, "precompute_counts", counting_again)
    monkeypatch.setattr(BddStore, "compact", compacting)
    layers = layered_bfs(ts, initial_edge(ts, spec), PartitionStrategy.parse(strategy))
    assert layers.complete
    assert compactions
    # one count per layer, of all its states
    assert counted == [row.states for row in layers.stats] == \
        [len(states) for states in ExplicitGame(spec).bfs_layers()]


@pytest.mark.parametrize("strategy", ["none", "fold-states-lex:8", "states-lex:64"])
def test_kept_nonterminal_halves_are_the_layers_outside_the_sink(strategy, monkeypatch):
    # tictactoe's store more than doubles inside the search, so the halves
    # are compacted with the layers between steps
    spec = load_game(bundled_game_path("tictactoe"))
    ts = compile_game(spec)
    store = ts.store
    init = initial_edge(ts, spec)
    compactions = []
    compact = BddStore.compact

    def compacting(store, since, roots):
        compactions.append(since)
        return compact(store, since, roots)

    monkeypatch.setattr(BddStore, "compact", compacting)
    layers = layered_bfs(ts, init, PartitionStrategy.parse(strategy))
    assert layers.complete and compactions
    store.check()
    assert [merged(store, w) for w in layers.nonterminal] == \
        [store.apply("and", merged(store, w), -merged(store, ts.sink)) for w in layers.layers]
    partial = layered_bfs(ts, init, limits=SearchLimits(time_s=0.0))
    assert not partial.complete and partial.nonterminal == []


def test_empty_init_rejected(counter):
    _, ts = counter
    with pytest.raises(ValueError):
        layered_bfs(ts, FALSE)


def _monolithic_relation(ts, spec):
    """The disjunction of all action relations, each with its frame axioms, as one BDD."""
    result = FALSE
    for _, edge, written in action_relations(ts, spec):
        result = ts.store.apply("or", result, _framed(ts, edge, written))
    return result


@pytest.mark.parametrize("name", ["tictactoe", "duel"])
def test_monolithic_image_agrees(name):
    # most actions of these games leave most variables alone, so the
    # frame-free relations differ from their framed disjunction
    spec = load_game(bundled_game_path(name))
    ts = compile_game(spec)
    assert any(len(written) < len(ts.current) for _, _, written in action_relations(ts, spec))
    mono = Move(1, _monolithic_relation(ts, spec), ts.current)
    mono_ts = TransitionSystem(store=ts.store, relations=(mono,), sink=ts.sink)
    assert {lvl - 1 for lvl in ts.store.support_levels(mono.edge) if lvl % 2} == set(ts.current)
    seq = layered_bfs(ts, initial_edge(ts, spec))
    for text in ("none", "fold-states-lex:8", "states-lex:64"):
        strategy = PartitionStrategy.parse(text)
        for s in (*(merged(ts.store, w) for w in seq.layers), seq.reached):
            assert image(mono_ts, s, strategy) == image(ts, s, strategy)
            assert preimage(mono_ts, s) == preimage(ts, s)


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


def _shape_or_bundled(name):
    if name in SHAPE_GAMES:
        return parse_game(SHAPE_GAMES[name], name=name)
    return load_game(bundled_game_path(name))


@pytest.mark.parametrize("name", [*bundled_game_names(), *sorted(SHAPE_GAMES)])
def test_written_levels_are_the_effect_variables(name):
    spec = _shape_or_bundled(name)
    ts = compile_game(spec)
    # one relation per player, in the order of the players' first actions
    players = list(dict.fromkeys(action.player for action in spec.actions))
    assert [rel.player for rel in ts.relations] == players
    for rel in ts.relations:
        effects = {v for action in spec.actions if action.player == rel.player
                   for v, _ in action.effects}
        assert rel.written == tuple(2 * i for i, v in enumerate(spec.variables) if v in effects)


@pytest.mark.parametrize("name", [*bundled_game_names(), *sorted(SHAPE_GAMES)])
def test_where_a_player_can_move_is_the_or_of_its_preconditions(name):
    # solve takes it from the relation: every w' <-> rhs has a witness
    spec = _shape_or_bundled(name)
    ts = compile_game(spec)
    store = ts.store
    for rel in ts.relations:
        pres = FALSE
        for action in spec.actions:
            if action.player == rel.player:
                pres = store.apply("or", pres, formula_edge(ts, spec, action.precondition))
        assert store.and_exists([w + 1 for w in rel.written], rel.edge, TRUE) == pres


def test_move_relation_keeps_the_written_levels_its_edge_does_not_mention():
    spec = parse_game(SHAPE_GAMES["either"], name="either")
    explicit = ExplicitGame(spec)
    ts = compile_game(spec)
    move = ts.relations[0]
    assert move.player == 1
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
    move = ts.relations[0]
    assert (move.player, move.written) == (1, (0, 6))  # m1, s0
    assert 1 not in ts.store.support_levels(move.edge)
    assert solve(ts, spec, layered_bfs(ts, initial_edge(ts, spec))).initial_value() == (40, 70)


@pytest.mark.parametrize("name", sorted(SHAPE_GAMES))
def test_effect_shapes_match_the_explicit_engine(name):
    spec = parse_game(SHAPE_GAMES[name], name=name)
    explicit = ExplicitGame(spec)
    states = list(itertools.product((0, 1), repeat=len(spec.variables)))
    rng = random.Random(name)
    for text in ("none", "fold-states-lex:2", "states-lex:3"):
        strategy = PartitionStrategy.parse(text)
        ts = compile_game(spec)
        for _ in range(12):
            chosen = [bits for bits in states if rng.random() < 0.4]
            succ = {t for bits in chosen for t in explicit.successors(bits)}
            pred = [bits for bits in states if set(explicit.successors(bits)) & set(chosen)]
            s = _state_set(ts, chosen)
            assert image(ts, s, strategy) == _state_set(ts, succ)
            assert preimage(ts, s) == _state_set(ts, pred)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
        assert [merged(ts.store, w) for w in layers.layers] == \
            [_state_set(ts, layer) for layer in explicit.bfs_layers()]
        if name != "idle":  # its idle action loops, which no layered value allows
            table = solve(ts, spec, layers)
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
        for text in ("none", "fold-states-lex:8", "states-lex:64"):
            strategy = PartitionStrategy.parse(text)
            ts = compile_game(spec)
            layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
            assert solve(ts, spec, layers).complete
            ts.store.check()


def test_sink_states_have_no_successors(counter):
    spec, ts = counter
    store = ts.store
    # the counter's own terminal state plus two more, one disjunct each
    states = [(0, 1, 0), (1, 0, 0), (1, 1, 1)]
    sink = _state_set(ts, states)
    sunk = TransitionSystem(store=store, relations=ts.relations,
                            sink=tuple(_state_set(ts, [state]) for state in states))
    assert image(sunk, sink) == FALSE
    for text in ("none", "fold-states-lex:2", "states-lex:1"):
        strategy = PartitionStrategy.parse(text)
        assert image(sunk, sink, strategy) == FALSE
        pred = preimage(sunk, TRUE)
        assert store.apply("and", pred, sink) == FALSE
        assert pred == store.apply("and", preimage(ts, TRUE), -sink)


def test_transition_system_derives_the_interleaved_layout():
    store = BddStore(6)
    ts = TransitionSystem(store, ())
    assert (ts.current, ts.relations) == ((0, 2, 4), ())
    assert sorted(ts.current + tuple(lvl + 1 for lvl in ts.current)) == list(range(store.n))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ts.current = (0,)


def test_transition_system_rejects_stray_levels():
    # a level without its partner, and a sink that reads next levels
    with pytest.raises(ValueError, match="store has 3 levels"):
        TransitionSystem(BddStore(3), ())
    store = BddStore(4)
    with pytest.raises(ValueError, match=r"sink set mentions next levels \[3\]"):
        TransitionSystem(store, (), sink=(store.var(0), store.apply("and", store.var(0),
                                                                    store.var(3))))
    # a sink that is not a tuple of the store's edges: a bare edge, a list,
    # a slot past the store's end, no edge at all, a bool, a float
    for sink in (store.var(0), [store.var(0)], (store.var(0), 10 ** 6), (0,), (True,), (2.0,)):
        with pytest.raises(ValueError, match=r"^sink .* is not a tuple of edges of the store$"):
            TransitionSystem(store, (), sink=sink)
    # a relation edge goes through the same check, and the message names
    # the relation's player
    for edge in (10 ** 6, -10 ** 6, 0, True, 2.0, None):
        with pytest.raises(ValueError, match=r"^relation of player 2 has edge .*, "
                                             "not an edge of the store$"):
            TransitionSystem(store, (Move(1, store.var(1), (0,)), Move(2, edge, (0,))))
    # written levels that are unsorted, repeated, next levels or out of range
    edge = store.apply("and", store.var(1), store.var(3))
    for written in ((2, 0), (0, 0, 2), (0, 1, 2), (0, 2, 4), (-2, 0, 2)):
        with pytest.raises(ValueError, match=r"^relation of player 1 writes levels .*, "
                                             "not sorted distinct current levels$"):
            TransitionSystem(store, (Move(1, edge, written),))
    # an edge that reads the next copy of a variable it does not write
    with pytest.raises(ValueError, match=r"^relation of player 2 reads next levels \[3\] "
                                         "of variables it does not write$"):
        TransitionSystem(store, (Move(1, edge, (0, 2)), Move(2, edge, (0,))))


def test_hand_built_relation_moves_only_its_written_levels():
    # a := 1, b kept; then a := 1 with b written but unread, so left arbitrary
    store = BddStore(4)
    a, b = store.var(0), store.var(2)
    keeps = TransitionSystem(store, (Move(1, store.var(1), (0,)),))
    assert image(keeps, -a) == a
    assert image(keeps, store.apply("and", -a, b)) == store.apply("and", a, b)
    frees = TransitionSystem(store, (Move(1, store.var(1), (0, 2)),))
    assert image(frees, store.apply("and", -a, b)) == a
    assert preimage(frees, store.apply("and", a, -b)) == TRUE


def test_strategy_parse_and_str():
    for text in ("none", "fold-states-lex:8", "states-lex:100"):
        assert str(PartitionStrategy.parse(text)) == text
    with pytest.raises(ValueError):
        PartitionStrategy.parse("fold-states-lex")
    with pytest.raises(ValueError):
        PartitionStrategy.parse("bogus")
    with pytest.raises(ValueError):
        PartitionStrategy.parse("states-lex:0")
    # the kind is checked before the parameter is read as an integer
    unknown = "unknown strategy 'disj-var', expected ('none', 'fold-states-lex', 'states-lex')"
    for text, message in (("none:abc", "strategy none takes no parameter"),
                          ("disj-var", unknown),
                          ("disj-var:2", unknown),
                          ("none:", "strategy none takes no parameter"),
                          ("bogus:3", "unknown strategy 'bogus'"),
                          ("bogus:x", "unknown strategy 'bogus'"),
                          ("states-lex:x", "strategy states-lex needs an integer parameter, got 'x'")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            PartitionStrategy.parse(text)


@pytest.mark.parametrize("param", [2.5, True, "3", 0, -1, None])
def test_strategy_rejects_a_parameter_that_is_not_an_int_from_one_up(param):
    # a float, a bool or a string would pass a bare ``param < 1`` check,
    # or fail it with a TypeError, and reach the search
    for kind in ("fold-states-lex", "states-lex"):
        message = f"strategy {kind} needs an integer parameter >= 1, got {param!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            PartitionStrategy(kind, param)
    assert str(PartitionStrategy("fold-states-lex", 3)) == "fold-states-lex:3"


def test_strategy_parts_cover_and_are_disjoint(counter):
    spec, ts = counter
    store = ts.store
    s = _state_set(ts, [(0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0)])
    table = precompute_counts(store, s, ts.current)
    for text in ("none", "fold-states-lex:3", "states-lex:2"):
        parts = PartitionStrategy.parse(text).parts_of(store, [table], ts.current)
        union = FALSE
        for i, p in enumerate(parts):
            for q in parts[i + 1:]:
                assert store.apply("and", p, q) == FALSE
            union = store.apply("or", union, p)
        assert union == s


# ----------------------------------------------------------------------
# whose turn it is, from the move relations


def _fixed_by_enumeration(store, f, n):
    sats = satisfying(store, f, n)
    if not sats:
        return 0, 0
    ones = sum(1 << lvl for lvl in range(n) if all(bits[lvl] for bits in sats))
    zeros = sum(1 << lvl for lvl in range(n) if not any(bits[lvl] for bits in sats))
    return ones, zeros


def test_fixed_literals_match_enumeration():
    # odd entries of the corpus are reached through a complement mark
    for store, f, n in corpus(29, 60, sizes=range(1, 9)):
        assert _fixed_literals(store, f) == _fixed_by_enumeration(store, f, n)
        assert _fixed_literals(store, -f) == _fixed_by_enumeration(store, -f, n)
    store = BddStore(4)
    assert _fixed_literals(store, TRUE) == _fixed_literals(store, FALSE) == (0, 0)
    cube = store.cube({0: True, 2: False, 3: True})
    assert _fixed_literals(store, cube) == (0b1001, 0b0100)
    assert _fixed_literals(store, -cube) == (0, 0)
    either = store.apply("or", cube, store.var(1))
    count = store.node_count()
    assert _fixed_literals(store, either) == (0, 0)
    assert store.node_count() == count  # the walk makes no node


def _followers_by_player(ts):
    return {ts.relations[i].player: {ts.relations[j].player for j in after}
            for i, after in enumerate(_followers(ts))}


@pytest.mark.parametrize("name, expected", [
    ("connect3", {1: {2}, 2: {1}}),
    ("tictactoe", {1: {2}, 2: {1}}),
    ("duel", {1: {2}, 2: set()}),
    ("counter3", {1: {1}}),
    ("lightsout3", {1: {1}}),
])
def test_followers_of_the_bundled_games(name, expected):
    ts = compile_game(load_game(bundled_game_path(name)))
    assert _followers_by_player(ts) == expected


def test_a_relation_that_fixes_nothing_follows_and_is_followed_by_all():
    store = BddStore(4)
    turn = Move(1, store.cube({0: False, 1: True}), (0,))
    ts = TransitionSystem(store, (turn, Move(2, FALSE, (0,))))
    assert _followers(ts) == [(1,), (0, 1)]


EXTRA_TURN = """
name: extra_turn
vars: a, b, c, d, omove
init:
player 1 action seta: pre = !omove & !a; eff = a := 1
player 1 action setb: pre = !omove & !b; eff = b := 1, omove := 1
player 2 action setc: pre = omove & !c; eff = c := 1, omove := 0
player 2 action setd: pre = omove & !d; eff = d := 1, omove := 0
terminal: (a & b) | (c & d)
reward 1 100: a & b
reward 1 0: !(a & b)
reward 2 100: !(a & b)
reward 2 0: a & b
"""


@pytest.mark.parametrize("strategy", ["none", "fold-states-lex:2", "states-lex:1"])
def test_an_action_that_keeps_the_turn_lets_its_player_follow_itself(strategy):
    # seta leaves omove alone, so player 1's edge fixes no next omove
    spec = parse_game(EXTRA_TURN)
    ts = compile_game(spec)
    assert _followers_by_player(ts) == {1: {1, 2}, 2: {1}}
    layers = layered_bfs(ts, initial_edge(ts, spec), PartitionStrategy.parse(strategy))
    explicit = ExplicitGame(spec)
    expected = explicit.bfs_layers()
    assert [row.states for row in layers.stats] == [len(states) for states in expected]
    assert layers.movers[1] == {1, 2}  # {a} is player 1's turn again, {b, omove} player 2's
    table = solve(ts, spec, layers)
    assert table.initial_value() == (100, 0)
    for states in expected:
        for bits in states:
            assert table.value_of(bits) == explicit.value(bits)
