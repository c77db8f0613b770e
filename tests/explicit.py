"""Explicit-state reference engine for game specs.

Interprets a parsed game directly on concrete bit tuples: formulas are
evaluated here on ``{var: bool}`` mappings, and the engine does
breadth-first reachability and memoized backward induction.  The only
thing it takes from ``lexbdd`` is the parsed spec, so it serves as the
independent oracle for layer counts and game values.
"""

from lexbdd.games import GameSpec


def eval_formula(formula, state) -> bool:
    """Evaluate a parsed formula on a ``{var: bool}`` mapping."""
    op = formula[0]
    if op == "const":
        return formula[1]
    if op == "var":
        return bool(state[formula[1]])
    if op == "not":
        return not eval_formula(formula[1], state)
    if op == "and":
        return all(eval_formula(f, state) for f in formula[1:])
    if op == "or":
        return any(eval_formula(f, state) for f in formula[1:])
    if op == "imp":
        # f1 -> (f2 -> ... fk), folded from the right
        result = eval_formula(formula[-1], state)
        for premise in reversed(formula[1:-1]):
            result = (not eval_formula(premise, state)) or result
        return result
    raise ValueError(f"bad formula node {formula!r}")


class ExplicitGame:

    def __init__(self, spec: GameSpec):
        self.spec = spec
        self._value_memo = {}
        self._on_path = set()  # the states whose value is being computed

    def initial(self):
        return self.spec.init_bits()

    def _as_dict(self, state):
        return dict(zip(self.spec.variables, state))

    def is_terminal(self, state) -> bool:
        return eval_formula(self.spec.terminal, self._as_dict(state))

    def reward_vector(self, state):
        env = self._as_dict(state)
        values = []
        for p in range(1, self.spec.players + 1):
            matched = [v for v, formula in self.spec.rewards[p]
                       if eval_formula(formula, env)]
            assert len(matched) == 1, \
                f"rewards for player {p} not exclusive/exhaustive on {state}"
            values.append(matched[0])
        return tuple(values)

    def moves(self, state):
        """Applicable (player, successor) pairs; empty on terminal states."""
        if self.is_terminal(state):
            return []
        env = self._as_dict(state)
        out = []
        for action in self.spec.actions:
            if not eval_formula(action.precondition, env):
                continue
            nxt = dict(env)
            for var, formula in action.effects:
                nxt[var] = eval_formula(formula, env)
            out.append((action.player,
                        tuple(1 if nxt[v] else 0 for v in self.spec.variables)))
        return out

    def successors(self, state):
        return sorted({s for _, s in self.moves(state)})

    def bfs_layers(self):
        """Disjoint layers by BFS depth, duplicates dropped across layers."""
        seen = {self.initial()}
        layers = [{self.initial()}]
        while True:
            frontier = set()
            for state in layers[-1]:
                for succ in self.successors(state):
                    if succ not in seen:
                        frontier.add(succ)
            if not frontier:
                return layers
            seen |= frontier
            layers.append(frontier)

    def value(self, state):
        """Backward-induction value: the mover picks the best reward vector,
        own component first, the opponent's as tie-break.

        A state met again on the path that is computing its value has no
        value: that raises ``ValueError`` naming the state.
        """
        memo = self._value_memo
        if state in memo:
            return memo[state]
        if state in self._on_path:
            raise ValueError(f"state {state} repeats on its own path: the game has a cycle")
        moves = self.moves(state)
        if not moves:
            result = self.reward_vector(state)
        else:
            movers = {p for p, _ in moves}
            assert len(movers) == 1, f"both players can move in {state}"
            p = movers.pop()
            own = p - 1
            self._on_path.add(state)
            try:
                candidates = [self.value(succ) for _, succ in moves]
            finally:
                self._on_path.discard(state)
            if self.spec.players == 1:
                result = max(candidates, key=lambda v: v[0])
            else:
                other = 1 - own
                result = max(candidates, key=lambda v: (v[own], v[other]))
        memo[state] = result
        return result
