"""Game generator for the benchmark: connect-k with gravity and lights-out.

Both families are written in the package's ``.game`` format.  With the
default action order, ``connect_game(3, 3, 3)`` and ``lightsout_game(3, 7)``
reproduce the bundled ``connect3`` and ``lightsout3`` files byte for byte.

``seed`` permutes the order in which actions are declared.  The variable
order never changes, because it fixes the diagram sizes.

Run ``python3 perfbench/gen.py connect 4 3 3`` or
``python3 perfbench/gen.py lightsout 4 7`` to print a game.
"""

from __future__ import annotations

import random
import sys

_K_WORDS = {3: "three", 4: "four", 5: "five", 6: "six"}


def _shuffled(lines: list[str], seed: int | None) -> list[str]:
    if seed is not None:
        lines = list(lines)
        random.Random(seed).shuffle(lines)
    return lines


def _lines_of(width: int, height: int, k: int) -> list[list[tuple[int, int]]]:
    """Every k-in-a-row as (row, col) cells: rows, columns, diagonals, anti-diagonals."""
    lines = []
    for r in range(1, height + 1):
        for c in range(1, width - k + 2):
            lines.append([(r, c + i) for i in range(k)])
    for c in range(1, width + 1):
        for r in range(1, height - k + 2):
            lines.append([(r + i, c) for i in range(k)])
    for r in range(1, height - k + 2):
        for c in range(1, width - k + 2):
            lines.append([(r + i, c + i) for i in range(k)])
    for r in range(1, height - k + 2):
        for c in range(k, width + 1):
            lines.append([(r + i, c - i) for i in range(k)])
    return lines


def connect_game(width: int, height: int, k: int, seed: int | None = None) -> str:
    """Connect-k with gravity on a width x height board; x moves first.

    Row 1 is the bottom row: a cell can be filled only once the cell
    below it is.  The game ends on a k-line or a full board.
    """
    if not (1 <= k <= min(width, height) and width <= 9 and height <= 9):
        raise ValueError(f"unsupported board {width}x{height} with k={k}")
    cells = [(r, c) for r in range(1, height + 1) for c in range(1, width + 1)]
    variables = [f"{p}{r}{c}" for r, c in cells for p in "xo"] + ["omove"]

    actions = []
    for p, player, turn, flip in (("x", 1, "!omove", "1"), ("o", 2, "omove", "0")):
        for r, c in cells:
            pre = f"{turn} & !x{r}{c} & !o{r}{c}"
            if r > 1:
                pre += f" & (x{r - 1}{c}|o{r - 1}{c})"
            actions.append(f"player {player} action {p}{r}{c}: pre = {pre}; "
                           f"eff = {p}{r}{c} := 1, omove := {flip}")

    lines = _lines_of(width, height, k)

    def wins(p: str) -> str:
        return "(" + "|".join(
            "(" + "&".join(f"{p}{r}{c}" for r, c in line) + ")" for line in lines) + ")"

    xw, ow = wins("x"), wins("o")
    full = "(" + "&".join(f"(x{r}{c}|o{r}{c})" for r, c in cells) + ")"
    name = f"connect{k}" if width == height == k else f"connect{k}_{width}x{height}"
    k_word = _K_WORDS.get(k, str(k))
    out = [
        f"# {width}x{height} connect-{k_word} with gravity; player 1 is x and moves first",
        f"name: {name}",
        "vars: " + ", ".join(variables),
        "init:",
        *_shuffled(actions, seed),
        f"terminal: {xw} | {ow} | {full}",
        f"reward 1 100: {xw} & !{ow}",
        f"reward 1 50: !{xw} & !{ow}",
        f"reward 1 0: {ow} & !{xw}",
        f"reward 2 100: {ow} & !{xw}",
        f"reward 2 50: !{xw} & !{ow}",
        f"reward 2 0: {xw} & !{ow}",
    ]
    return "\n".join(out) + "\n"


def lightsout_game(k: int, presses: int, seed: int | None = None) -> str:
    """Lights-out on a k x k board from all-on, ending at all-off or after ``presses``.

    A press toggles its cell and the orthogonal neighbours.  A binary
    counter ``c{b-1} .. c0`` counts presses; reaching all-off pays 100.
    """
    if not (1 <= k <= 9 and presses >= 1):
        raise ValueError(f"unsupported lights-out {k}x{k} with {presses} presses")
    bits = presses.bit_length()
    cells = [(r, c) for r in range(1, k + 1) for c in range(1, k + 1)]
    lights = [f"l{r}{c}" for r, c in cells]
    counter = [f"c{i}" for i in range(bits - 1, -1, -1)]

    increment = ["c0 := !c0"]
    for i in range(1, bits):
        carry = "&".join(f"c{j}" for j in range(i - 1, -1, -1))
        not_carry = f"!{carry}" if i == 1 else f"!({carry})"
        increment.append(f"c{i} := (c{i}&{not_carry})|(!c{i}&{carry})")

    actions = []
    for r, c in cells:
        cross = [(r, c), (r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)]
        toggles = [f"l{a}{b} := !l{a}{b}" for a, b in cross if 1 <= a <= k and 1 <= b <= k]
        actions.append(f"player 1 action press{r}{c}: pre = 1; eff = "
                       + ", ".join(toggles + increment))

    all_off = "&".join(f"!{v}" for v in lights)
    at_bound = "&".join(f"c{i}" if presses >> i & 1 else f"!c{i}"
                        for i in range(bits - 1, -1, -1))
    out = [
        f"# {k}x{k} lights-out from the all-on position, at most {presses} presses",
        f"name: lightsout{k}",
        "vars: " + ", ".join(lights + counter),
        "init: " + ", ".join(lights),
        *_shuffled(actions, seed),
        f"terminal: ({all_off}) | ({at_bound})",
        f"reward 1 100: {all_off}",
        f"reward 1 0: !({all_off})",
    ]
    return "\n".join(out) + "\n"


if __name__ == "__main__":
    family, *numbers = sys.argv[1:]
    maker = {"connect": connect_game, "lightsout": lightsout_game}[family]
    sys.stdout.write(maker(*(int(x) for x in numbers)))
