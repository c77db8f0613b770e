"""Seeded random games, solved under every strategy, against the explicit oracle."""

import random

import pytest

from lexbdd import GameSolveError, compile_game, initial_edge, layered_bfs, parse_game, \
    precompute_counts, solve
from lexbdd.search import PartitionStrategy

from explicit import ExplicitGame
from helpers import merged

STRATEGIES = ("none", "fold-states-lex:2", "fold-states-lex:8", "states-lex:3")
SEEDS = range(160)


def _formula(rng, names, depth=2):
    """A literal, or the ``&`` or ``|`` of two or three smaller random formulas."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice(("", "!")) + rng.choice(names)
    op = rng.choice((" & ", " | "))
    return "(" + op.join(_formula(rng, names, depth - 1) for _ in range(rng.randint(2, 3))) + ")"


def random_game(seed):
    """The text of a random game over at most 8 variables.

    Two players, or sometimes one, take turns by a control variable
    ``t``: player 1 moves when it is 0, and a move sets it to the other
    player's value, except in one action of the game, which keeps the
    turn.  A counter ``c1 c0`` (or ``c2 c1 c0``) counts the moves, and
    the game ends when it reaches its bound or when a random formula
    over the board holds.  Each player has two to four actions that
    write overlapping random sets of the board variables ``b0 ..``; the
    first one needs only the turn, so a player can always move on its
    turn.  Each player's rewards are a random formula and its
    complement, or three classes cut by two formulas, so they are
    exclusive and exhaustive.  In about a quarter of the games one
    action leaves the counter alone, which may make a move back.
    """
    rng = random.Random(seed)
    players = (1, 2) if rng.random() < 0.8 else (1,)
    counter = [f"c{i}" for i in reversed(range(rng.randint(2, 3)))]
    board = [f"b{i}" for i in range(rng.randint(2, 8 - len(counter) - (len(players) > 1)))]
    turn = ["t"] if len(players) > 1 else []
    bound = rng.randint(2, 2 ** len(counter) - 1)
    count = []  # counter + 1: a bit flips when every lower bit is 1
    for i, bit in enumerate(counter):
        low = " & ".join(counter[i + 1:])
        count.append(f"{bit} := ({bit} & !({low})) | (!{bit} & {low})" if low else
                     f"{bit} := !{bit}")
    at_bound = " & ".join(b if bound >> (len(counter) - 1 - i) & 1 else f"!{b}"
                          for i, b in enumerate(counter))
    actions = [(p, i) for p in players for i in range(rng.randint(2, 4))]
    keeps_turn = rng.choice(actions) if turn else None
    uncounted = rng.choice(actions) if rng.random() < 0.25 else None
    lines = [f"name: random{seed}",
             "vars: " + ", ".join(turn + counter + board),
             "init: " + ", ".join(b for b in board if rng.random() < 0.5)]
    for p, i in actions:
        pre = ("!t" if p == 1 else "t") if turn else "1"
        if i:
            pre += " & " + _formula(rng, board)
        written = rng.sample(board, rng.randint(1, min(3, len(board))))
        effects = [f"{b} := {rng.choice((f'!{b}', f'!{b}', '0', '1', _formula(rng, board, 1)))}"
                   for b in written]
        if (p, i) != uncounted:
            effects += count
        if turn and (p, i) != keeps_turn:
            effects.append(f"t := {1 if p == 1 else 0}")
        lines.append(f"player {p} action a{i}: pre = {pre}; eff = {', '.join(effects)}")
    ends = f"({at_bound})"
    if rng.random() < 0.5:
        ends += " | " + " & ".join(rng.choice(("", "!")) + b for b in rng.sample(board, 2))
    lines.append(f"terminal: {ends}")
    for p in players:
        values = rng.sample(range(101), 3)
        cut, other = _formula(rng, board), _formula(rng, board)
        if rng.random() < 0.5:
            lines += [f"reward {p} {values[0]}: {cut}", f"reward {p} {values[1]}: !{cut}"]
        else:
            lines += [f"reward {p} {values[0]}: {cut}",
                      f"reward {p} {values[1]}: !{cut} & {other}",
                      f"reward {p} {values[2]}: !{cut} & !{other}"]
    return "\n".join(lines) + "\n"


def _check_parts(ts, strategy, layers):
    """Each layer's part sizes under ``strategy``, and its non-terminal halves, one per part.

    Fold parts differ by at most one state and there are as many as the
    fold count allows; every states-lex part but the last holds exactly
    the bound; ``none`` is one part.
    """
    store = ts.store
    sink = merged(store, ts.sink)
    for parts, rest in zip(layers.layers, layers.nonterminal, strict=True):
        sizes = [precompute_counts(store, part, ts.current).root_count for part in parts]
        if strategy.kind == "fold-states-lex":
            assert len(sizes) == min(strategy.param, sum(sizes))
            assert max(sizes) - min(sizes) <= 1
        elif strategy.kind == "states-lex":
            assert all(size == strategy.param for size in sizes[:-1])
            assert 0 < sizes[-1] <= strategy.param
        else:
            assert len(sizes) == 1
        assert rest == tuple(store.apply("and", part, -sink) for part in parts)


def _layered(game, layers):
    """Whether every move from a layer of the explicit BFS leads to the next layer."""
    depth = {state: d for d, layer in enumerate(layers) for state in layer}
    return all(depth[succ] == d + 1 for d, layer in enumerate(layers)
               for state in layer for succ in game.successors(state))


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_random_games_agree_with_the_explicit_oracle(strategy):
    strategy = PartitionStrategy.parse(strategy)
    solved = rejected = split = 0
    for seed in SEEDS:
        spec = parse_game(random_game(seed))
        assert len(spec.variables) <= 8
        game = ExplicitGame(spec)
        explicit = game.bfs_layers()
        ts = compile_game(spec)
        layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
        assert layers.complete
        assert [row.states for row in layers.stats] == [len(layer) for layer in explicit]
        _check_parts(ts, strategy, layers)
        split += max(len(parts) for parts in layers.layers) > 1
        if not _layered(game, explicit):
            with pytest.raises(GameSolveError):
                solve(ts, spec, layers)
            rejected += 1
            continue
        sol = solve(ts, spec, layers)
        assert sol.complete
        for layer in explicit:
            for state in layer:
                assert sol.value_of(state) == game.value(state), (seed, state)
        ts.store.check()
        solved += 1
    assert solved > 100 and rejected > 10
    assert split > 50 or strategy.kind == "none"
