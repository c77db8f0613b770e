"""Game spec parsing, compilation, and the retrograde solver."""

import dataclasses
import gc
import itertools
import random
import re
import sys
import threading
import weakref
from pathlib import Path

import pytest

import lexbdd.counting
import lexbdd.games
import lexbdd.search
from lexbdd import BddStore, GameSolveError, GameSpecError, bundled_game_names, \
    bundled_game_path, compile_game, image, initial_edge, layered_bfs, load_game, \
    parse_game, precompute_counts, solve, unrank
from lexbdd.bdd import FALSE, TRUE
from lexbdd.games import _preference_order, formula_edge, parse_formula, state_edge
from lexbdd.search import PartitionStrategy, SearchLimits, TransitionSystem, _preimages

from explicit import ExplicitGame, eval_formula
from helpers import action_relations, merged


# fold-states-lex:2 is the smallest split: at most two windows a layer
# (connect3, lightsout3 and tictactoe reach two; counter3 and duel one)
STRATEGIES = ("none", "fold-states-lex:8", "states-lex:64", "fold-states-lex:2")


def _solved(name, strategy=None):
    spec = load_game(bundled_game_path(name))
    ts = compile_game(spec)
    strat = PartitionStrategy.parse(strategy) if strategy else PartitionStrategy("none")
    layers = layered_bfs(ts, initial_edge(ts, spec), strat)
    sol = solve(ts, spec, layers)
    ts.store.check()
    return spec, ts, layers, sol


# ----------------------------------------------------------------------
# parsing

def test_parse_formula_operators():
    f = parse_formula("!a & (b | c) -> a", ("a", "b", "c"))
    assert eval_formula(f, {"a": False, "b": True, "c": False}) is False
    assert eval_formula(f, {"a": True, "b": False, "c": False}) is True
    unicode_f = parse_formula("¬a ∧ (b ∨ c) → a", ("a", "b", "c"))
    for env in ({"a": x, "b": y, "c": z} for x in (0, 1) for y in (0, 1) for z in (0, 1)):
        assert eval_formula(f, env) == eval_formula(unicode_f, env)


def test_parse_formula_builds_one_node_per_chain():
    a, b, c = ("var", "a"), ("var", "b"), ("var", "c")
    shapes = {
        "a & b & c": ("and", a, b, c),
        "a | b | c": ("or", a, b, c),
        "a -> b -> c": ("imp", a, b, c),
        "!!a": a,
        "!!!a": ("not", a),
        "!(!a)": ("not", ("not", a)),
        "(a & b) & c": ("and", ("and", a, b), c),
        "a | b & c -> !a": ("imp", ("or", a, ("and", b, c)), ("not", a)),
    }
    for text, shape in shapes.items():
        assert parse_formula(text, ("a", "b", "c")) == shape, text


def test_formula_in_200_parentheses_parses():
    # 200 levels parse from the test runner's own stack
    assert parse_formula("(" * 200 + "a" + ")" * 200, ("a",)) == ("var", "a")
    # 201 are rejected by count, even on a fresh thread with room to recurse
    errors = []

    def deeper():
        try:
            parse_formula("(" * 201 + "a" + ")" * 201, ("a",), 5)
        except GameSpecError as exc:
            errors.append(str(exc))

    thread = threading.Thread(target=deeper)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert errors == ["line 5: formula nested too deeply"]


def test_parse_formula_constants_and_precedence():
    f = parse_formula("a | b & c", ("a", "b", "c"))
    assert eval_formula(f, {"a": True, "b": False, "c": False}) is True
    assert eval_formula(f, {"a": False, "b": True, "c": False}) is False
    assert eval_formula(parse_formula("1", ()), {}) is True
    assert eval_formula(parse_formula("0 -> 0", ()), {}) is True


@pytest.mark.parametrize("text, fragment", [
    ("vars: a\ninit:\nplayer 1 action go: pre = b; eff = a := 1\nterminal: a\nreward 1 5: 1",
     "unknown variable 'b'"),
    ("vars: a\ninit:\nplayer 1 action go: pre = a &; eff = a := 1\nterminal: a\nreward 1 5: 1",
     "line 3"),
    ("vars: a\ninit:\nplayer 1 action go: pre = (a; eff = a := 1\nterminal: a\nreward 1 5: 1",
     "parenthesis"),
    ("vars: a\ninit:\nplayer 1 action go: pre = 1; eff = b := 1\nterminal: a\nreward 1 5: 1",
     "unknown effect variable"),
    ("vars: a\ninit:\nplayer 1 action go: pre = 1; eff = a := 1, a := 0\nterminal: a\nreward 1 5: 1",
     "assigned twice"),
    ("vars: a, a\ninit:\nplayer 1 action go: pre = 1; eff = a := 1\nterminal: a\nreward 1 5: 1",
     "declared twice"),
    ("vars: a\ninit:\nplayer 1 action go: pre = 1; eff = a := 1\nterminal: a\nreward 1 101: 1",
     "outside 0..100"),
    ("vars: a\ninit:\nplayer 1 action go: pre = 1; eff = a := 1\nreward 1 5: 1",
     "no terminal"),
    ("vars: a\ninit:\nterminal: a\nreward 1 5: 1", "no actions"),
    ("vars: a\ninit:\nplayer 1 action go: pre = 1; eff = a := 1\nterminal: a",
     "no reward"),
    ("vars: a\ninit:\ngibberish here\nterminal: a\nreward 1 5: 1", "cannot parse"),
    ("vars: a\ninit: zz\nterminal: a\nreward 1 5: 1", "unknown init"),
    ("vars: a\ninit:\nplayer 2 action go: pre = 1; eff = a := 1\nterminal: a\nreward 2 5: 1",
     "player 2 declared without player 1"),
    ("vars: a\ninit:\nplayer 1 action go: pre\nterminal: a\nreward 1 5: 1",
     "line 3: action body must start with 'pre ='"),
    ("vars: a\ninit:\nplayer 1 action go: pre = 1; eff\nterminal: a\nreward 1 5: 1",
     "line 3: expected 'eff ='"),
    # keywords match exactly, not by prefix
    ("vars: a\ninit:\nplayer 1 action go: pretty = !a; effective = a := 1\nterminal: a\n"
     "reward 1 5: 1", "line 3: action body must start with 'pre ='"),
    ("vars: a\ninit:\nplayer 1 action go: pre = !a; effective = a := 1\nterminal: a\n"
     "reward 1 5: 1", "line 3: expected 'eff ='"),
    # a second terminal line does not silently replace the first
    ("vars: a\ninit:\nplayer 1 action go: pre = !a; eff = a := 1\nterminal: a\nterminal: 0\n"
     "reward 1 5: 1", "line 5: terminal condition declared twice"),
    # nor a second name line
    ("name: a\nvars: a\nname: b\nplayer 1 action go: pre = !a; eff = a := 1\nterminal: a\n"
     "reward 1 5: 1", "line 3: name declared twice"),
    # a name goes into file names, such as the --dot-dir dumps, so it is a word
    ("vars: a\nname: ../escaped\nplayer 1 action go: pre = !a; eff = a := 1\nterminal: a\n"
     "reward 1 5: 1", "line 2: bad game name '../escaped'"),
    ("name: a b\nvars: a\nplayer 1 action go: pre = !a; eff = a := 1\nterminal: a\n"
     "reward 1 5: 1", "line 1: bad game name 'a b'"),
    ("name:\nvars: a\nplayer 1 action go: pre = !a; eff = a := 1\nterminal: a\n"
     "reward 1 5: 1", "line 1: bad game name ''"),
])
def test_parse_errors_carry_location(text, fragment):
    with pytest.raises(GameSpecError) as err:
        parse_game(text)
    assert fragment in str(err.value)


def test_deeply_nested_formula_is_a_spec_error():
    depth = 3000
    text = f"vars: a\ninit:\nplayer 1 action go: pre = 1\nterminal: {'(' * depth}a{')' * depth}\n"
    with pytest.raises(GameSpecError, match=r"^line 4: formula nested too deeply$"):
        parse_game(text + "reward 1 5: 1")
    with pytest.raises(GameSpecError, match=r"^line 7: formula nested too deeply$"):
        parse_formula("!(" * depth + "a" + ")" * depth, ("a",), 7)


# spec-wide errors have no single line to name
_WHOLE_SPEC_ERRORS = re.compile(
    r"no variables declared|no terminal condition declared|no actions declared"
    r"|player [12] has no reward declarations|player 2 declared without player 1")


def _fuzzed_game_texts(count):
    """``count`` bundled game files, each with one to four random character edits."""
    rng = random.Random(2024)
    sources = [bundled_game_path(name).read_text(encoding="utf-8")
               for name in bundled_game_names()]
    alphabet = "abcxyz01_ =:;,()!&|->#\n" + "¬∧∨→"
    for _ in range(count):
        chars = list(rng.choice(sources))
        for _ in range(rng.randint(1, 4)):
            i = rng.randrange(len(chars) + 1)
            if chars and rng.random() < 0.5:
                del chars[min(i, len(chars) - 1)]
            else:
                chars.insert(i, rng.choice(alphabet))
        yield "".join(chars)


def test_parser_fuzz_raises_only_spec_errors():
    rejected = 0
    for text in _fuzzed_game_texts(2000):
        try:
            parse_game(text)
        except GameSpecError as exc:
            rejected += 1
            message = str(exc)
            assert re.match(r"line \d+: ", message) or _WHOLE_SPEC_ERRORS.fullmatch(message), \
                message
    assert 200 < rejected < 2000


def test_parse_roundtrip_fields():
    spec = parse_game("""
# a comment
name: toy
vars: a, b
init: b
player 1 action flip: pre = !a; eff = a := 1
terminal: a
reward 1 100: b
reward 1 0: !b
""")
    assert spec.name == "toy"
    assert spec.variables == ("a", "b")
    assert spec.init_bits() == (0, 1)
    assert spec.players == 1
    assert spec.actions[0].name == "flip"
    assert spec.rewards[1][0][0] == 100


def test_bundled_games_present():
    names = bundled_game_names()
    for expected in ("tictactoe", "connect3", "lightsout3", "counter3", "duel"):
        assert expected in names
        spec = load_game(bundled_game_path(expected))
        assert spec.name == expected


# ----------------------------------------------------------------------
# compilation

def test_false_precondition_compiles_to_empty_relation():
    spec = parse_game("""
vars: a
init:
player 1 action never: pre = 0; eff = a := 1
terminal: a
reward 1 1: 1
""")
    ts = compile_game(spec)
    assert ts.relations[0].edge == FALSE


def test_single_toggle_relation():
    spec = parse_game("""
vars: a
init:
player 1 action toggle: pre = 1; eff = a := !a
terminal: 0
reward 1 1: 1
""")
    ts = compile_game(spec)
    store = ts.store
    cur = ts.current[0]
    nxt = cur + 1
    expected = store.ite(store.var(nxt), -store.var(cur), store.var(cur))
    assert ts.relations[0].edge == expected


def test_frame_axioms_preserve_untouched_variables():
    spec = parse_game("""
vars: a, b
init:
player 1 action seta: pre = !a; eff = a := 1
terminal: a & b
reward 1 1: 1
""")
    ts = compile_game(spec)
    succ = image(ts, state_edge(ts, (0, 1)))
    assert succ == state_edge(ts, (1, 1))
    succ = image(ts, state_edge(ts, (0, 0)))
    assert succ == state_edge(ts, (1, 0))


def test_relations_do_not_depend_on_the_terminal_formula():
    actions = """
vars: a, b
init:
player 1 action seta: pre = !a; eff = a := 1
player 1 action swap: pre = 1; eff = a := b, b := a
reward 1 1: 1
"""
    ended = compile_game(parse_game(actions + "terminal: a\n"))
    endless = compile_game(parse_game(actions + "terminal: 0\n"))

    def truth_tables(ts):
        points = list(itertools.product((0, 1), repeat=ts.store.n))
        return [[ts.store.evaluate(r.edge, p) for p in points] for r in ts.relations]

    assert truth_tables(ended) == truth_tables(endless)
    assert ended.sink == (ended.store.var(ended.current[0]),)
    assert endless.sink == ()  # so no layer step masks anything


def _check_sink_disjuncts(spec):
    """The sink's disjuncts OR to the terminal formula compiled whole; none is FALSE or repeated."""
    ts = compile_game(spec)
    store = ts.store
    assert FALSE not in ts.sink and len(set(ts.sink)) == len(ts.sink)
    assert merged(store, ts.sink) == formula_edge(ts, spec, spec.terminal)
    return ts


def test_sink_disjuncts_are_the_terminal_formula():
    specs = [load_game(bundled_game_path(name)) for name in bundled_game_names()]
    specs += [_generated_spec("connect4x3"), _generated_spec("lightsout4")]
    for text in _fuzzed_game_texts(2000):
        try:
            specs.append(parse_game(text))
        except GameSpecError:
            pass
    split = sum(len(_check_sink_disjuncts(spec).sink) > 1 for spec in specs)
    assert len(specs) > 100 and split > 30
    # a repeated or FALSE disjunct is dropped, and a formula that is not an
    # OR is one disjunct
    text = """
vars: a, b
player 1 action seta: pre = !a; eff = a := 1
reward 1 1: 1
"""
    for terminal, count in (("a | 0 | a | (b & !b)", 1), ("0 | 0", 0), ("a & b", 1),
                            ("(a | b)", 2), ("!(a | b)", 1), ("a | b | 1", 3)):
        assert len(_check_sink_disjuncts(parse_game(f"{text}terminal: {terminal}\n")).sink) \
            == count, terminal


def test_compiled_store_holds_no_whole_sink():
    # the OR of connect's two line formulas is product-sized under the
    # interleaved order: 9,451 and 400,419 nodes when compiled whole
    assert compile_game(_generated_spec("connect4x3")).store.node_count() <= 3_500
    assert compile_game(_generated_spec("connect5x4")).store.node_count() <= 25_000


def test_terminal_states_have_no_outgoing_transitions():
    spec = load_game(bundled_game_path("counter3"))
    ts = compile_game(spec)
    assert image(ts, state_edge(ts, (1, 1, 1))) == FALSE


def test_tictactoe_compile_shape():
    spec = load_game(bundled_game_path("tictactoe"))
    ts = compile_game(spec)
    assert [r.player for r in ts.relations] == [1, 2]
    assert sum(1 for a in spec.actions if a.player == 1) == 9
    assert sum(1 for a in spec.actions if a.player == 2) == 9
    first_moves = image(ts, initial_edge(ts, spec))
    assert precompute_counts(ts.store, first_moves, ts.current).root_count == 9


# ----------------------------------------------------------------------
# solving

def test_initially_terminal_game():
    spec = parse_game("""
vars: a
init: a
player 1 action noop: pre = 1; eff = a := a
terminal: a
reward 1 42: a
reward 1 0: !a
""")
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    assert len(layers.layers) == 1
    sol = solve(ts, spec, layers)
    ts.store.check()
    assert sol.initial_value() == (42,)


def test_counter_path_classifies_as_win():
    spec, ts, layers, sol = _solved("counter3")
    explicit = ExplicitGame(spec)
    for layer_states in explicit.bfs_layers():
        for bits in layer_states:
            assert sol.value_of(bits) == (100,)


def test_duel_matches_backward_induction():
    spec, ts, layers, sol = _solved("duel")
    explicit = ExplicitGame(spec)
    assert sol.initial_value() == explicit.value(explicit.initial()) == (40, 70)
    for layer_states in explicit.bfs_layers():
        for bits in layer_states:
            assert sol.value_of(bits) == explicit.value(bits)


def test_lightsout_matches_backward_induction():
    spec, ts, layers, sol = _solved("lightsout3")
    explicit = ExplicitGame(spec)
    assert sol.initial_value() == (100,)
    mismatches = 0
    for layer_states in explicit.bfs_layers():
        for bits in layer_states:
            if sol.value_of(bits) != explicit.value(bits):
                mismatches += 1
    assert mismatches == 0


def test_value_of_terminal_state_returns_its_reward():
    spec, ts, layers, sol = _solved("counter3")
    assert sol.value_of((1, 1, 1)) == (100,)


def test_value_of_unreachable_state():
    spec, ts, layers, sol = _solved("duel")
    with pytest.raises(LookupError):
        sol.value_of((1, 1, 0, 1))  # m1&m2 set before both plies happened


def test_state_bits_must_match_the_variable_count():
    spec, ts, layers, sol = _solved("tictactoe")
    assert len(ts.current) == 19
    for bits in ((0,), (0,) * 20):
        with pytest.raises(ValueError):
            sol.value_of(bits)
        with pytest.raises(ValueError):
            state_edge(ts, bits)


def test_solve_requires_complete_layers():
    spec = load_game(bundled_game_path("counter3"))
    ts = compile_game(spec)
    from lexbdd import SearchLimits
    partial = layered_bfs(ts, initial_edge(ts, spec), limits=SearchLimits(time_s=0.0))
    with pytest.raises(ValueError):
        solve(ts, spec, partial)


def test_cyclic_state_space_is_diagnosed():
    # toggling forever: the last BFS layer holds a non-terminal state
    spec = parse_game("""
vars: a
init:
player 1 action toggle: pre = 1; eff = a := !a
terminal: 0
reward 1 1: 1
""")
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    assert layers.complete and len(layers.layers) == 2
    assert layers.leads_back == [1]
    with pytest.raises(GameSolveError) as err:
        solve(ts, spec, layers)
    assert "final layer" in str(err.value)


# from 1100 in layer 2, bc leads back to 0010 in layer 1, worth 100, and bd
# on to 1101 in layer 3, worth 0: a solve that looks only at layer 3 values
# 1100 at 0
BACK_GAME = """
vars: a, b, c, d
player 1 action toa: pre = !a & !b & !c & !d; eff = a := 1
player 1 action toc: pre = !a & !b & !c & !d; eff = c := 1
player 1 action tob: pre = a & !b; eff = b := 1
player 1 action bc: pre = a & b & !c & !d; eff = a := 0, b := 0, c := 1
player 1 action bd: pre = a & b & !c & !d; eff = d := 1
terminal: c | d
reward 1 100: c
reward 1 0: !c
"""


def test_moves_that_lead_back_are_diagnosed():
    spec = parse_game(BACK_GAME)
    assert ExplicitGame(spec).value((1, 1, 0, 0)) == (100,)
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    assert layers.complete
    assert [row.states for row in layers.stats] == [1, 2, 1, 1]
    assert layers.leads_back == [2]
    with pytest.raises(GameSolveError) as err:
        solve(ts, spec, layers)
    assert str(err.value) == "layer 2: a move leads back to this or an earlier layer, " \
                             "not to layer 3"


def test_simultaneous_movers_are_diagnosed():
    spec = parse_game("""
vars: a, b
init:
player 1 action one: pre = !a; eff = a := 1
player 2 action two: pre = !b; eff = b := 1
terminal: a & b
reward 1 10: 1
reward 2 10: 1
""")
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    with pytest.raises(GameSolveError) as err:
        solve(ts, spec, layers)
    assert "both players" in str(err.value)


def test_dead_nonterminal_state_is_diagnosed():
    # state 10 in the middle layer has no moves and is not terminal
    spec = parse_game("""
vars: a, b
init:
player 1 action seta: pre = !a & !b; eff = a := 1
player 1 action setb: pre = !a & !b; eff = b := 1
player 1 action finish: pre = !a & b; eff = a := 1
terminal: a & b
reward 1 1: 1
""")
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    with pytest.raises(GameSolveError) as err:
        solve(ts, spec, layers)
    assert "nobody can move" in str(err.value)


SEQUENCE_GAME = """
vars: a
init:
player 1 action go: pre = !a; eff = a := 1
terminal: a
"""


@pytest.mark.parametrize("text, message", [
    # the terminal state lies in both classes
    (SEQUENCE_GAME + "reward 1 100: a\nreward 1 0: 1\n",
     "layer 1: rewards 100 and 0 of player 1 overlap on reachable terminal states"),
    # the terminal state lies in no class
    (SEQUENCE_GAME + "reward 1 100: !a\n",
     "layer 1: reachable terminal states not covered by the reward classes of player 1"),
    # 10 only moves on to 01, which lies in its own layer, not the next one
    ("""
vars: a, b
init:
player 1 action seta: pre = !a & !b; eff = a := 1
player 1 action setb: pre = !a & !b; eff = b := 1
player 1 action swap: pre = a & !b; eff = a := 0, b := 1
player 1 action fin: pre = !a & b; eff = a := 1
terminal: a & b
reward 1 1: 1
""", "layer 1: a move leads back to this or an earlier layer, not to layer 2"),
])
def test_reward_and_successor_defects_are_diagnosed(text, message):
    spec = parse_game(text)
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    with pytest.raises(GameSolveError) as err:
        solve(ts, spec, layers)
    assert str(err.value) == message


def test_rewards_of_equal_value_form_one_class():
    spec = parse_game("""
vars: a, b
init:
player 1 action seta: pre = !a & !b; eff = a := 1
player 1 action setb: pre = !a & !b; eff = b := 1
terminal: a | b
reward 1 0: a
reward 1 0: b
""")
    ts = compile_game(spec)
    sol = solve(ts, spec, layered_bfs(ts, initial_edge(ts, spec)))
    assert sol.class_keys == ((0,),)
    assert sol.initial_value() == (0,)
    assert sol.value_of((1, 0)) == sol.value_of((0, 1)) == (0,)


def test_solution_classes_partition_each_layer():
    spec, ts, layers, sol = _solved("duel")
    store = ts.store
    for layer, classes in zip(layers.layers, sol.layer_classes):
        union = FALSE
        edges = list(classes.values())
        for i, e in enumerate(edges):
            for other in edges[i + 1:]:
                assert store.apply("and", e, other) == FALSE
            union = store.apply("or", union, e)
        assert union == merged(store, layer)


def test_solve_partition_strategies_agree():
    base = _solved("lightsout3")[3]
    for strategy in ("fold-states-lex:8", "states-lex:32"):
        other = _solved("lightsout3", strategy)[3]
        assert other.initial_value() == base.initial_value()


def _check_classes_against_every_preimage(ts, layers, sol):
    """Classify each player's states of every layer with every preimage ``solve`` may skip.

    In the player's preference order, each class with states in the next
    layer takes the still-unassigned states whose preimage through
    ``_preimages`` reaches it, with those states as the care set; the
    class ``solve`` built must hold exactly them.  The last class's
    preimage must return every state still unassigned.  Returns the
    number of last classes that took at least one state.
    """
    store = ts.store
    assert layers.leads_back == []
    nonempty_last = 0
    for d in range(len(layers.layers) - 1):
        following = sol.layer_classes[d + 1]
        for rel in ts.relations:
            can_move = store.and_exists([w + 1 for w in rel.written], rel.edge, TRUE)
            start = mine = store.apply("and", merged(store, layers.nonterminal[d]), can_move)
            if mine == FALSE:
                continue
            keys = [key for key in _preference_order(sol.class_keys, rel.player)
                    if following[key] != FALSE]
            for key in keys:
                pred = _preimages(ts, following[key], relations=(rel,), care=mine)
                assert store.apply("and", sol.layer_classes[d][key], start) == pred
                mine = store.apply("and", mine, -pred)
            assert mine == FALSE  # so the last preimage returned its whole care set
            nonempty_last += store.apply("and", sol.layer_classes[d][keys[-1]], start) != FALSE
    return nonempty_last


def _generated_spec(name):
    """The benchmark's generated connect4x3 or lightsout4, or connect5x4 (k=3); seed 1."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import gen
    finally:
        del sys.path[0]
    text = {"connect4x3": lambda: gen.connect_game(4, 3, 3, 1),
            "connect5x4": lambda: gen.connect_game(5, 4, 3, 1),
            "lightsout4": lambda: gen.lightsout_game(4, 7, 1)}[name]()
    return parse_game(text, name=name)


def _last_classes_taken(spec, strategy):
    """Solve ``spec`` and check it with the reference above; see there for the result."""
    strategy = PartitionStrategy.parse(strategy)
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
    sol = solve(ts, spec, layers)
    return _check_classes_against_every_preimage(ts, layers, sol)


@pytest.mark.parametrize("name", bundled_game_names())
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_last_class_takes_the_states_its_preimage_would(name, strategy):
    taken = _last_classes_taken(load_game(bundled_game_path(name)), strategy)
    # in duel every state of a mover reaches a better class than the last
    assert taken > 0 or name == "duel"


@pytest.mark.parametrize("name, strategy", [("connect4x3", "none"),
                                            ("lightsout4", "fold-states-lex:8")])
def test_each_last_class_takes_the_states_its_preimage_would_on_larger_games(name, strategy):
    assert _last_classes_taken(_generated_spec(name), strategy) > 0


def _check_terminal_classes(ts, spec, layers, sol):
    """Each layer's terminal classes against a reference built over the whole space.

    Each reward formula is compiled with no care set and ANDed with the
    layer's terminal half; rewards of equal value are joined, and each
    class is the conjunction of one such set per player, the keys in
    the order of each player's values as first declared.
    """
    store = ts.store
    rewards = {p: [(value, formula_edge(ts, spec, formula)) for value, formula in entries]
               for p, entries in spec.rewards.items()}
    for d, (layer, rest) in enumerate(zip(layers.layers, layers.nonterminal)):
        terminal = store.apply("and", merged(store, layer), -merged(store, rest))
        per_player = []
        for p in range(1, spec.players + 1):
            sets = {}
            for value, edge in rewards[p]:
                sets[value] = store.apply("or", sets.get(value, FALSE),
                                          store.apply("and", edge, terminal))
            per_player.append(sets.items())
        expected = {}
        for members in itertools.product(*per_player):
            edge = terminal
            for _, member in members:
                edge = store.apply("and", edge, member)
            expected[tuple(value for value, _ in members)] = edge
        assert sol.class_keys == tuple(expected)
        assert {key: store.apply("and", edge, terminal)
                for key, edge in sol.layer_classes[d].items()} == expected


@pytest.mark.parametrize("name", bundled_game_names())
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_terminal_classes_match_the_whole_space_reference(name, strategy):
    spec, ts, layers, sol = _solved(name, strategy)
    _check_terminal_classes(ts, spec, layers, sol)


@pytest.mark.parametrize("name, strategy", [("connect4x3", "none"),
                                            ("lightsout4", "fold-states-lex:8")])
def test_terminal_classes_match_the_whole_space_reference_on_larger_games(name, strategy):
    spec = _generated_spec(name)
    strategy = PartitionStrategy.parse(strategy)
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
    _check_terminal_classes(ts, spec, layers, solve(ts, spec, layers))


def test_terminal_classes_match_the_whole_space_reference_on_fuzzed_games():
    solved = 0
    for i, text in enumerate(_fuzzed_game_texts(2000)):
        try:
            spec = parse_game(text)
        except GameSpecError:
            continue
        strategy = PartitionStrategy.parse(STRATEGIES[i % len(STRATEGIES)])
        ts = compile_game(spec)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
        try:
            sol = solve(ts, spec, layers)
        except GameSolveError:
            continue
        _check_terminal_classes(ts, spec, layers, sol)
        solved += 1
    assert solved > 100


def _check_windows(ts, spec, layers):
    """Each forward layer's parts, and their non-terminal halves, against the explicit BFS layers.

    A layer's parts are non-empty, pairwise disjoint and lex ascending:
    each one's greatest member (by ``unrank``) lies below the next one's
    least.  They hold exactly the explicit layer's states, and the
    layer's non-terminal halves are its parts minus the sink set, one
    per part.
    """
    store = ts.store
    explicit = ExplicitGame(spec).bfs_layers()
    outside = -merged(store, ts.sink)
    assert layers.complete and len(layers.nonterminal) == len(layers.layers)
    for parts, rest, states in zip(layers.layers, layers.nonterminal, explicit, strict=True):
        tables = [precompute_counts(store, part, ts.current) for part in parts]
        assert all(table.root_count > 0 for table in tables)
        for a, b in zip(tables, tables[1:]):
            assert unrank(a, a.root_count - 1) < unrank(b, 0)
        for a, b in itertools.combinations(parts, 2):
            assert store.apply("and", a, b) == FALSE
        layer = merged(store, parts)
        assert precompute_counts(store, layer, ts.current).root_count == len(states)
        assert all(store.evaluate(layer, _full_assignment(store, bits, bits)) for bits in states)
        assert rest == tuple(store.apply("and", part, outside) for part in parts)


@pytest.mark.parametrize("name", bundled_game_names())
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_forward_layers_are_disjoint_lex_windows_of_the_explicit_layers(name, strategy):
    spec = load_game(bundled_game_path(name))
    strategy = PartitionStrategy.parse(strategy)
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
    _check_windows(ts, spec, layers)
    if strategy.kind == "none":
        assert all(len(windows) == 1 for windows in layers.layers)
    elif name == "tictactoe":
        assert max(len(windows) for windows in layers.layers) > 1


@pytest.mark.parametrize("name", bundled_game_names())
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_each_layer_is_its_strategy_partition_aligned_with_its_halves(name, strategy):
    # layers[d] is the strategy's partition of layer d, and nonterminal[d]
    # and the terminal halves line up with it part by part
    spec = load_game(bundled_game_path(name))
    strategy = PartitionStrategy.parse(strategy)
    ts = compile_game(spec)
    store = ts.store
    layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
    sink = merged(store, ts.sink)
    assert layers.complete
    for parts, rest in zip(layers.layers, layers.nonterminal, strict=True):
        whole = precompute_counts(store, merged(store, parts), ts.current)
        assert list(parts) == strategy.parts_of(store, [whole], ts.current)
        assert len(rest) == len(parts)
        for part, mine in zip(parts, rest):
            assert mine == store.apply("and", part, -sink)
            assert store.apply("and", part, -mine) == store.apply("and", part, sink)
    # an incomplete sequence keeps its last layer as the windows that made it
    steps = []

    class ThreeSteps(SearchLimits):
        def nodes_exceeded(self, store):
            steps.append(None)
            return len(steps) > 3

    partial = layered_bfs(ts, initial_edge(ts, spec), strategy, ThreeSteps())
    assert partial.complete == (len(layers.layers) <= 3)
    if partial.complete:
        return
    assert len(partial.layers) == 4 and len(partial.nonterminal) == 3
    assert partial.layers[:3] == layers.layers[:3]
    assert merged(store, partial.layers[3]) == merged(store, layers.layers[3])


@pytest.mark.parametrize("name", bundled_game_names())
def test_none_searches_as_one_fold(name):
    # none is the one-part lex partition: in a fresh store each, the two
    # searches make the same nodes, so every edge and stat agrees
    spec = load_game(bundled_game_path(name))
    runs = []
    for text in ("none", "fold-states-lex:1"):
        ts = compile_game(spec)
        layers = layered_bfs(ts, initial_edge(ts, spec), PartitionStrategy.parse(text))
        for row in layers.stats:
            row.time_ms = 0.0
        runs.append(layers)
    assert runs[0].complete and runs[0] == runs[1]


def test_forward_layers_are_disjoint_lex_windows_on_fuzzed_games():
    strategy = PartitionStrategy.parse("fold-states-lex:8")
    checked = windowed = 0
    for text in _fuzzed_game_texts(2000):
        try:
            spec = parse_game(text)
        except GameSpecError:
            continue
        ts = compile_game(spec)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
        _check_windows(ts, spec, layers)
        checked += 1
        windowed += max(len(windows) for windows in layers.layers) > 1
    assert checked > 100 and windowed > 40


@pytest.mark.parametrize("name", ["tictactoe", "duel"])
def test_a_solve_compiles_each_distinct_reward_operand_once(name, monkeypatch):
    spec = load_game(bundled_game_path(name))
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    operands = [operand for rewards in spec.rewards.values() for _, formula in rewards
                for operand in lexbdd.games._operands(formula, "and")]
    assert len(set(operands)) < len(operands)  # some operand appears in two rewards
    compiled = []

    def recording(ts, spec, formula):
        compiled.append(formula)
        return formula_edge(ts, spec, formula)

    monkeypatch.setattr(lexbdd.games, "formula_edge", recording)
    sol = solve(ts, spec, layers)
    assert len(compiled) == len(set(compiled))
    assert set(compiled) == set(operands)
    game = ExplicitGame(spec)
    assert sol.initial_value() == game.value(game.initial())


_REPEATED_VALUES_GAME = """
vars: o, x, y, z, d
player 1 action px: pre = !o; eff = x := 1, o := 1
player 1 action py: pre = !o; eff = y := 1, o := 1
player 2 action qz: pre = o & !d; eff = z := 1, d := 1
player 2 action qn: pre = o & !d; eff = d := 1
terminal: d
reward 1 0: x & z
reward 1 100: (x & !z) | (y & z)
reward 1 0: y & !z
reward 2 100: x & z
reward 2 0: x & !z
reward 2 100: y
"""


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_classes_are_built_by_value_when_a_value_repeats(strategy):
    # each player declares a value twice, apart, and the players list
    # their values in different orders
    spec = parse_game(_REPEATED_VALUES_GAME)
    ts = compile_game(spec)
    strat = PartitionStrategy.parse(strategy)
    layers = layered_bfs(ts, initial_edge(ts, spec), strat)
    sol = solve(ts, spec, layers)
    ts.store.check()
    assert sol.class_keys == ((0, 100), (0, 0), (100, 100), (100, 0))
    game = ExplicitGame(spec)
    assert game.value(game.initial()) == (100, 100)
    seen = set()
    for layer_states in game.bfs_layers():
        for bits in layer_states:
            assert sol.value_of(bits) == game.value(bits), bits
            seen.add(game.value(bits))
    assert seen == {(0, 100), (100, 0), (100, 100)}


@pytest.mark.parametrize("index", [1043, 1839])
def test_fuzzed_games_with_a_cycle_have_no_value_in_either_solver(index):
    spec = parse_game(next(itertools.islice(_fuzzed_game_texts(2000), index, None)))
    game = ExplicitGame(spec)
    with pytest.raises(ValueError, match=r"^state \([01, ]+\) repeats on its own path: "
                                         r"the game has a cycle$"):
        game.value(game.initial())
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    assert layers.complete and layers.leads_back
    with pytest.raises(GameSolveError, match=r"^layer \d+: a move leads back to this or an "
                                             r"earlier layer, not to layer \d+$"):
        solve(ts, spec, layers)


def test_each_last_class_takes_the_states_its_preimage_would_on_fuzzed_games():
    solved = 0
    for i, text in enumerate(_fuzzed_game_texts(2000)):
        try:
            spec = parse_game(text)
        except GameSpecError:
            continue
        try:
            _last_classes_taken(spec, STRATEGIES[i % len(STRATEGIES)])
        except GameSolveError:
            continue
        solved += 1
    assert solved > 100


def test_solve_takes_at_most_one_preimage_per_layer(monkeypatch):
    # lightsout3 has two classes: the better one takes a preimage, the worse
    # one what is left
    spec = load_game(bundled_game_path("lightsout3"))
    ts = compile_game(spec)
    layers = layered_bfs(ts, initial_edge(ts, spec))
    cares = []

    def recording(*args, care, **kwargs):
        cares.append(care)
        return preimages(*args, care=care, **kwargs)

    preimages = lexbdd.games._preimages
    monkeypatch.setattr(lexbdd.games, "_preimages", recording)
    sol = solve(ts, spec, layers)
    assert sol.complete and len(sol.class_keys) == 2
    per_layer = [sum(ts.store.apply("and", care, merged(ts.store, layer)) != FALSE
                     for care in cares)
                 for layer in layers.layers]
    assert sum(per_layer) == len(cares) > 0
    assert max(per_layer) == 1


def test_solve_uses_one_quantification_kernel(monkeypatch):
    # the op cache holds only relational products, each keyed by its token;
    # the caches are cleared every layer step, so look where products were
    # just made: at the exit of every _image_windows and _preimages call
    spec = load_game(bundled_game_path("tictactoe"))
    ts = compile_game(spec)
    store = ts.store
    strategy = PartitionStrategy.parse("fold-states-lex:8")
    snapshots = []

    def recording(products, image):
        def recorded(*args, **kwargs):
            result = products(*args, **kwargs)
            tokens = {product[0] for product in store._products.values()}
            keys = {key[0] for key in store._op_cache}
            assert keys <= tokens
            snapshots.append((image(result), keys))
            return result
        return recorded

    monkeypatch.setattr(lexbdd.search, "_image_windows", recording(
        lexbdd.search._image_windows, lambda result: merged(store, result[1])))
    monkeypatch.setattr(lexbdd.games, "_preimages", recording(
        lexbdd.games._preimages, lambda result: result))
    layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
    forward = snapshots[:]
    solve(ts, spec, layers)
    ts.store.check()
    backward = snapshots[len(forward):]
    for phase in (forward, backward):
        assert any(keys for _, keys in phase)
        # a non-empty image came out of at least one product, and that is cached
        assert all(keys for image, keys in phase if image != FALSE)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_solve_never_walks_the_sink_set(strategy, monkeypatch):
    # the backward phase never masks a layer with the sink: both halves of
    # each layer come from the forward search, so a solve through a twin
    # with no sink set classifies every layer alike.  A disjunct's
    # complement may still be a reward operand (tictactoe's !ow is -ow), so
    # the check is on the mask and on the whole sink set, not on operands.
    spec = load_game(bundled_game_path("tictactoe"))
    ts = compile_game(spec)
    store = ts.store
    strat = PartitionStrategy.parse(strategy)
    layers = layered_bfs(ts, initial_edge(ts, spec), strat)
    whole = merged(store, ts.sink)
    assert len(ts.sink) > 1 and whole not in (FALSE, TRUE)
    operands, masked = [], []
    apply, and_exists = BddStore.apply, BddStore.and_exists

    def recording_apply(store, op, f, g):
        operands.extend((f, g))
        return apply(store, op, f, g)

    def recording_and_exists(store, levels, f, g, c=TRUE, *args, **kwargs):
        operands.extend((f, g, c))
        return and_exists(store, levels, f, g, c, *args, **kwargs)

    monkeypatch.setattr(BddStore, "apply", recording_apply)
    monkeypatch.setattr(BddStore, "and_exists", recording_and_exists)
    outside_sink = lexbdd.search._outside_sink

    def recording_mask(ts, f):
        masked.append(f)
        return outside_sink(ts, f)

    monkeypatch.setattr(lexbdd.search, "_outside_sink", recording_mask)
    sol = solve(ts, spec, layers)
    twin = solve(dataclasses.replace(ts, sink=()), spec, layers)
    assert sol.complete and not masked
    assert operands and whole not in operands and -whole not in operands
    assert twin.layer_classes == sol.layer_classes


def _every_relation_follows(ts):
    return [tuple(range(len(ts.relations)))] * len(ts.relations)


@pytest.mark.parametrize("name", [*bundled_game_names(), "connect4x3", "lightsout4"])
def test_skipping_the_products_that_cannot_move_changes_nothing(name, monkeypatch):
    # the forward search tries only the relations that can follow the
    # last movers, and the backward phase builds no mover set for a player
    # that did not move; a run that tries every relation makes the same rows
    spec = load_game(bundled_game_path(name)) if name in bundled_game_names() \
        else _generated_spec(name)

    def run(text):
        ts = compile_game(spec)
        layers = layered_bfs(ts, initial_edge(ts, spec), PartitionStrategy.parse(text))
        sol = solve(ts, spec, layers)
        rows = [(r.direction, r.index, r.total_nodes, r.max_image_nodes, r.states)
                for r in layers.stats + sol.stats]
        return ts, layers, (rows, layers.movers, sol.initial_value())

    for text in STRATEGIES:
        with monkeypatch.context() as patch:
            patch.setattr(lexbdd.search, "_followers", _every_relation_follows)
            _, _, everything = run(text)
        ts, layers, skipped = run(text)
        assert skipped == everything, text
        store = ts.store
        relations = {rel.player: rel for rel in ts.relations}
        assert len(layers.movers) == len(layers.nonterminal) == len(layers.layers)
        for d, rest in enumerate(layers.nonterminal):
            rest = merged(store, rest)
            can_move = {p for p, rel in relations.items()
                        if store.and_exists([w + 1 for w in rel.written], rel.edge, rest)
                        != FALSE}
            assert layers.movers[d] == can_move, (text, d)


@pytest.mark.parametrize("name", ["connect4x3", "lightsout4"])
def test_the_backward_phase_never_partitions(name, monkeypatch):
    # solve takes one preimage per (class, player), whatever strategy made
    # the layers: it neither partitions nor counts, and its backward rows
    # are the same under every strategy
    spec = _generated_spec(name)

    def forbidden(*args, **kwargs):
        raise AssertionError("the backward phase partitioned or counted a set")

    rows, values = {}, set()
    for text in STRATEGIES:
        ts = compile_game(spec)
        layers = layered_bfs(ts, initial_edge(ts, spec), PartitionStrategy.parse(text))
        with monkeypatch.context() as patch:
            patch.setattr(PartitionStrategy, "parts_of", forbidden)
            for module in (lexbdd.counting, lexbdd.search):
                patch.setattr(module, "precompute_counts", forbidden)
                patch.setattr(module, "count_windows", forbidden)
            sol = solve(ts, spec, layers)
        assert sol.complete
        rows[text] = [(row.direction, row.index, row.max_image_nodes, row.states)
                      for row in sol.stats]
        values.add(sol.initial_value())
    assert len(values) == 1
    assert {row[0] for row in rows["none"]} == {"backward"}
    assert all(got == rows["none"] for got in rows.values())


@pytest.mark.parametrize("name", bundled_game_names())
def test_each_layer_step_starts_with_empty_caches(name, monkeypatch):
    # the budget check opens every forward and backward layer step
    spec = load_game(bundled_game_path(name))
    probes = []

    class CacheProbe(SearchLimits):
        def nodes_exceeded(self, store):
            probes.append((len(store._ite_cache), len(store._op_cache)))
            return False

    def run(strategy):
        ts = compile_game(spec)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy, CacheProbe())
        forward_nodes = ts.store.node_count()
        sol = solve(ts, spec, layers, CacheProbe())
        ts.store.check()
        return layers, forward_nodes, sol, ts.store.node_count()

    for text in STRATEGIES:
        strategy = PartitionStrategy.parse(text)
        probes.clear()
        layers, forward_nodes, sol, nodes = run(strategy)
        assert sol.complete
        # a forward step per layer after the first, one that finds the fix
        # point, and a backward step per layer
        assert len(probes) == 2 * len(layers.layers)
        assert probes == [(0, 0)] * len(probes)
        # a cleared result is made again as the node it was: a run that never
        # clears makes the same nodes in the same order
        with monkeypatch.context() as m:
            m.setattr(BddStore, "clear_caches", lambda store: None)
            kept = run(strategy)
        assert (layers.layers, forward_nodes, sol.value_sets, nodes) == \
            (kept[0].layers, kept[1], kept[2].value_sets, kept[3])


@pytest.mark.parametrize("name", bundled_game_names())
def test_solve_returns_a_checked_store_with_empty_caches(name):
    # no cache entry outlives the value-set unions; queries never read one
    spec = load_game(bundled_game_path(name))
    for text in STRATEGIES:
        strategy = PartitionStrategy.parse(text)
        ts = compile_game(spec)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
        sol = solve(ts, spec, layers)
        assert sol.complete
        assert (len(ts.store._ite_cache), len(ts.store._op_cache)) == (0, 0)
        ts.store.check()


def _full_assignment(store, state, nxt):
    full = [0] * store.n
    full[0::2] = state
    full[1::2] = nxt
    return full


@pytest.mark.parametrize("name", bundled_game_names())
def test_compaction_keeps_every_edge_the_caller_holds(name, monkeypatch):
    # one store through all four strategies and fold-states-lex:64 first,
    # which makes enough nodes to compact inside a call on every game but
    # counter3 and duel: the edges made before a search (the players' move
    # relations and each action's relation compiled on its own among
    # them), and those every earlier search and solve returned, keep their
    # meaning
    spec = load_game(bundled_game_path(name))
    game = ExplicitGame(spec)
    explicit_layers = game.bfs_layers()
    reachable = sorted(set().union(*explicit_layers))
    ts = compile_game(spec)
    store = ts.store
    # each reachable state with its first successor (or itself) as next
    # state, and with next bits drawn at random
    rng = random.Random(name)
    points = []
    for state in reachable:
        points.append(_full_assignment(store, state, (game.successors(state) or [state])[0]))
        points.append(_full_assignment(store, state, [rng.randint(0, 1) for _ in state]))
    init = initial_edge(ts, spec)
    held = [init, formula_edge(ts, spec, spec.rewards[1][0][1]), *ts.sink,
            *(rel.edge for rel in ts.relations),
            *(edge for _, edge, _ in action_relations(ts, spec))]

    def truth_tables():
        return [[store.evaluate(e, p) for p in points] for e in held]

    before = truth_tables()
    removed = []
    compact = BddStore.compact

    def counted(self, since, roots):
        nodes = self.node_count()
        out = compact(self, since, roots)
        removed.append(nodes - self.node_count())
        return out

    monkeypatch.setattr(BddStore, "compact", counted)
    solved = []
    for text in ("fold-states-lex:64", *STRATEGIES):
        strategy = PartitionStrategy.parse(text)
        layers = layered_bfs(ts, init, strategy)
        sol = solve(ts, spec, layers)
        store.check()
        assert sol.complete
        assert truth_tables() == before
        solved.append((layers, sol))
    if name not in ("counter3", "duel"):  # their stores never double inside a call
        assert sum(removed) > 0
    for layers, sol in solved:
        for windows, states in zip(layers.layers, explicit_layers, strict=True):
            edge = merged(store, windows)
            assert precompute_counts(store, edge, ts.current).root_count == len(states)
            for state in states:
                assert store.evaluate(edge, _full_assignment(store, state, state))
        for state in reachable:
            assert sol.value_of(state) == game.value(state)


@pytest.mark.parametrize("strategy", ["none", "fold-states-lex:8"])
def test_solved_store_dies_with_its_last_reference(strategy):
    # no closure of the solver may hold the store in a reference cycle
    enabled = gc.isenabled()
    gc.disable()
    try:
        spec, ts, layers, sol = _solved("tictactoe", strategy)
        assert sol.complete
        ref = weakref.ref(ts.store)
        del ts, layers, sol
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def _spec_formulas(spec):
    yield spec.terminal
    for action in spec.actions:
        yield action.precondition
        yield from (rhs for _, rhs in action.effects)
    for rewards in spec.rewards.values():
        yield from (formula for _, formula in rewards)


def test_formula_edge_matches_eval():
    specs = [load_game(bundled_game_path(name)) for name in bundled_game_names()]
    for text in _fuzzed_game_texts(2000):
        try:
            specs.append(parse_game(text))
        except GameSpecError:
            pass
    assert len(specs) > 100
    by_variables = {}  # one store per variable order, each distinct formula once
    for spec in specs:
        by_variables.setdefault(spec.variables, (spec, {}))[1].update(
            dict.fromkeys(_spec_formulas(spec)))
    assert sum(len(formulas) for _, formulas in by_variables.values()) > 90
    rng = random.Random(25)
    for variables, (spec, formulas) in by_variables.items():
        ts = TransitionSystem(BddStore(2 * len(variables)), ())
        for formula in formulas:
            edge = formula_edge(ts, spec, formula)
            for _ in range(32):
                bits = [rng.randrange(2) for _ in variables]
                full = [0] * ts.store.n
                full[::2] = bits
                assert ts.store.evaluate(edge, full) == \
                    eval_formula(formula, dict(zip(variables, bits))), (formula, bits)


def _states(store, e, levels):
    """Every assignment over ``levels`` that satisfies ``e``, by a path walk."""
    if e == FALSE:
        return
    if not levels:
        yield ()
        return
    lvl, rest = levels[0], levels[1:]
    if store.level_of_edge(e) > lvl:
        below = list(_states(store, e, rest))
        for b in (0, 1):
            for tail in below:
                yield (b, *tail)
        return
    _, t, el = store.node(e)
    if e < 0:
        t, el = -t, -el
    for b, child in ((0, el), (1, t)):
        for tail in _states(store, child, rest):
            yield (b, *tail)


def _scan_value(sol, bits):
    """The layer x class scan ``value_of`` made before the value sets."""
    full = [0] * sol.ts.store.n
    for lvl, b in zip(sol.ts.current, bits):
        full[lvl] = b
    for classes in sol.layer_classes:
        for key, edge in classes.items():
            if edge != FALSE and sol.ts.store.evaluate(edge, full):
                return key
    return None


@pytest.mark.parametrize("name", bundled_game_names())
def test_value_sets_agree_with_the_layer_scan(name):
    spec = load_game(bundled_game_path(name))
    ts = compile_game(spec)
    store = ts.store
    for text in STRATEGIES:
        strategy = PartitionStrategy.parse(text)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
        sol = solve(ts, spec, layers)
        store.check()
        union = FALSE
        edges = [edge for _, edge in sol.value_sets]
        for i, e in enumerate(edges):
            assert e != FALSE
            for other in edges[i + 1:]:
                assert store.apply("and", e, other) == FALSE
            union = store.apply("or", union, e)
        assert union == layers.reached
        assert [key for key, _ in sol.value_sets] == \
            [key for key in sol.class_keys
             if any(classes[key] != FALSE for classes in sol.layer_classes)]
        nodes = store.node_count()
        reached = 0
        for bits in _states(store, layers.reached, ts.current):
            assert sol.value_of(bits) == _scan_value(sol, bits)
            reached += 1
        assert reached == sum(s.states for s in layers.stats)
        unreached = _states(store, -layers.reached, ts.current)
        for bits in itertools.islice(unreached, 50):
            assert _scan_value(sol, bits) is None
            with pytest.raises(LookupError):
                sol.value_of(bits)
        assert store.node_count() == nodes
