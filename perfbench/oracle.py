"""Explicit-state oracle for the benchmark's games.

Plays the games from their rules on concrete boards: breadth-first
layers and memoised backward induction.  It reads no ``.game`` file and
imports nothing from ``lexbdd``, so the answers it gives are independent
of both the generator and the symbolic solver under test.  The one
shared convention is the bit encoding of a state, which follows the
variable order of the generated and bundled games.

``python3 perfbench/oracle.py`` rewrites the expected files in
``perfbench/expected/``; ``--check`` only compares against them.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"


class KInARow:
    """k-in-a-row on a width x height board, x first; ``gravity`` fills columns bottom up.

    A state is ``(cells, o_to_move)`` with cells in row-major order from
    the bottom row, each 0 (empty), 1 (x) or 2 (o).
    """

    players = 2

    def __init__(self, width: int, height: int, k: int, gravity: bool):
        self.width, self.height, self.k, self.gravity = width, height, k, gravity
        self.lines = []
        for r in range(height):
            for c in range(width):
                for dr, dc in ((0, 1), (1, 0), (1, 1), (1, -1)):
                    end_r, end_c = r + dr * (k - 1), c + dc * (k - 1)
                    if 0 <= end_r < height and 0 <= end_c < width:
                        self.lines.append(tuple((r + dr * i) * width + c + dc * i
                                                for i in range(k)))

    def initial(self):
        return (0,) * (self.width * self.height), False

    def _has_line(self, cells, who: int) -> bool:
        return any(all(cells[i] == who for i in line) for line in self.lines)

    def reward(self, state):
        """Reward vector of a terminal state, or None while play goes on."""
        cells, _ = state
        x_line, o_line = self._has_line(cells, 1), self._has_line(cells, 2)
        if x_line:
            return (100, 0)
        if o_line:
            return (0, 100)
        if all(cells):
            return (50, 50)
        return None

    def mover(self, state) -> int:
        return 2 if state[1] else 1

    def moves(self, state):
        cells, o_to_move = state
        piece = 2 if o_to_move else 1
        for i, v in enumerate(cells):
            if v or (self.gravity and i >= self.width and not cells[i - self.width]):
                continue
            nxt = list(cells)
            nxt[i] = piece
            yield tuple(nxt), not o_to_move

    def bits(self, state) -> tuple[int, ...]:
        """Encoding in the game's variable order: x, o per cell, then ``omove``."""
        cells, o_to_move = state
        out = []
        for v in cells:
            out += [int(v == 1), int(v == 2)]
        return tuple(out) + (int(o_to_move),)


class LightsOut:
    """k x k lights-out from all-on; play stops at all-off or after ``presses`` presses.

    A state is ``(lights, pressed)`` with lights in row-major order.
    """

    players = 1

    def __init__(self, k: int, presses: int):
        self.k, self.presses = k, presses
        self.crosses = []
        for r in range(k):
            for c in range(k):
                self.crosses.append(tuple(a * k + b for a, b in
                                          ((r, c), (r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1))
                                          if 0 <= a < k and 0 <= b < k))

    def initial(self):
        return (1,) * (self.k * self.k), 0

    def reward(self, state):
        lights, pressed = state
        if not any(lights):
            return (100,)
        if pressed == self.presses:
            return (0,)
        return None

    def mover(self, state) -> int:
        return 1

    def moves(self, state):
        lights, pressed = state
        for cross in self.crosses:
            nxt = list(lights)
            for i in cross:
                nxt[i] ^= 1
            yield tuple(nxt), pressed + 1

    def bits(self, state) -> tuple[int, ...]:
        """Encoding in the game's variable order: lights, then the counter high bit first."""
        lights, pressed = state
        width = self.presses.bit_length()
        return tuple(lights) + tuple(pressed >> i & 1 for i in range(width - 1, -1, -1))


def explore(game):
    """BFS layers (each state in the first layer it appears in) and every state's value.

    The mover picks the best reward vector, own component first and the
    opponent's as tie-break.
    """
    layers = [[game.initial()]]
    seen = {game.initial()}
    while True:
        frontier = []
        for state in layers[-1]:
            if game.reward(state) is not None:
                continue
            for succ in game.moves(state):
                if succ not in seen:
                    seen.add(succ)
                    frontier.append(succ)
        if not frontier:
            break
        layers.append(frontier)

    values = {}
    for layer in reversed(layers):
        for state in layer:
            reward = game.reward(state)
            if reward is None:
                own = game.mover(state) - 1
                key = (lambda v: v[own]) if game.players == 1 else \
                    (lambda v: (v[own], v[1 - own]))
                reward = max((values[s] for s in game.moves(state)), key=key)
            values[state] = reward
    return layers, values


def _to_int(bits) -> int:
    value = 0
    for b in bits:
        value = value << 1 | b
    return value


# name -> (game, whether the value of every reachable state is recorded)
GAMES = {
    "connect4x3": (lambda: KInARow(4, 3, 3, gravity=True), False),
    "lightsout4": (lambda: LightsOut(4, 7), False),
    "tictactoe": (lambda: KInARow(3, 3, 3, gravity=False), True),
}


def answers(name: str) -> dict:
    """Expected answers for one game: layer state counts and the initial value.

    With ``all_states`` the reachable states are listed as integers
    (first variable most significant) in ascending order, which is the
    lexicographic order ``rank`` uses, with their values as indexes into
    ``classes``.
    """
    make, all_states = GAMES[name]
    game = make()
    layers, values = explore(game)
    out = {"game": name,
           "layer_states": [len(layer) for layer in layers],
           "initial_value": list(values[game.initial()])}
    if all_states:
        classes = sorted(set(values.values()), reverse=True)
        index = {v: i for i, v in enumerate(classes)}
        rows = sorted((_to_int(game.bits(s)), index[v]) for s, v in values.items())
        out["classes"] = [list(v) for v in classes]
        out["states"] = [s for s, _ in rows]
        out["values"] = "".join(str(i) for _, i in rows)
    return out


def expected_path(name: str) -> Path:
    return EXPECTED_DIR / f"{name}.json"


def load_expected(name: str) -> dict:
    with open(expected_path(name), encoding="utf-8") as handle:
        return json.load(handle)


def main(argv: list[str]) -> int:
    check = "--check" in argv
    status = 0
    for name in GAMES:
        got = answers(name)
        if check:
            same = load_expected(name) == got
            print(f"{name}: {'agrees' if same else 'DIFFERS'}")
            status |= not same
        else:
            EXPECTED_DIR.mkdir(exist_ok=True)
            expected_path(name).write_text(json.dumps(got, separators=(",", ":")) + "\n",
                                           encoding="utf-8")
            print(f"{name}: wrote {sum(got['layer_states'])} states")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
