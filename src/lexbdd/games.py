"""Declarative game specs, their compilation, and strong solving.

A game file is line oriented UTF-8 text.  Sections:

    name: <word>                         optional, defaults to the file stem
    vars: v1, v2, ...                    may repeat, order is the variable order
    init: v1, v3                         variables listed start true, others false
    player <p> action <name>: pre = <formula>; eff = <var> := <formula>, ...
    terminal: <formula>
    reward <p> <value>: <formula>        value in 0..100

Formulas range over the declared variables with negation (``!`` or
``¬``), conjunction (``&`` or ``∧``), disjunction (``|`` or ``∨``),
implication (``->`` or ``→``), parentheses and the constants ``0`` and
``1``.  ``!`` binds tightest, then ``&``, ``|`` and ``->``, which
groups to the right.  A chain of one operator, however long, parses to
one node (see :func:`parse_formula`).  Blank lines and ``#`` comments
are ignored.  The ``eff`` list may be empty or absent; unassigned
variables keep their value.

Compilation produces one transition relation per action over an
interleaved current/next variable order, without frame axioms for the
variables the action leaves alone, and a sink set of terminal
states that image computation masks out, so they have no outgoing
transitions.  Solving classifies every forward layer by game value,
walking backward from the last layer and assigning each state the best
reward class, in the moving player's preference order, whose
already-classified successors it can reach.
"""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass
from collections.abc import Sequence
from importlib import resources

from .bdd import FALSE, TRUE, BddStore
from .search import (LayerSequence, LayerStat, NO_PARTITION, PartitionStrategy,
                     Relation, SearchLimits, TransitionSystem, _LayerSteps, _subimages)


class GameSpecError(ValueError):
    """Malformed game description; the message carries the line number."""


class GameSolveError(RuntimeError):
    """The layered solver could not classify every reachable state."""


# ----------------------------------------------------------------------
# formulas

_TOKEN_RE = re.compile(r"\s*(->|→|[()!¬&∧|∨]|[A-Za-z_][A-Za-z0-9_]*|[01])")

_NOT = {"!", "¬"}
_AND = {"&", "∧"}
_OR = {"|", "∨"}
_IMP = {"->", "→"}


def _tokenize(text: str, line_no: int) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise GameSpecError(f"line {line_no}: cannot read formula at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_formula(text: str, variables: Sequence[str], line_no: int = 0):
    """Parse a formula into nested tuples, one node per operator chain.

    Nodes are ``('const', bool)``, ``('var', name)``, ``('not', f)``,
    ``('and', f1, ..., fk)``, ``('or', f1, ..., fk)`` and
    ``('imp', f1, ..., fk)``, which reads ``f1 -> (f2 -> ... fk)``, each
    with ``k >= 2``.  A run of ``!`` keeps only its parity.  Only
    parentheses nest nodes, so the tree is as deep as the text's
    parentheses.
    """
    tokens = _tokenize(text, line_no)
    known = set(variables)
    index = 0

    def peek():
        return tokens[index] if index < len(tokens) else None

    def take():
        nonlocal index
        tok = peek()
        if tok is None:
            raise GameSpecError(f"line {line_no}: formula ends unexpectedly")
        index += 1
        return tok

    def atom():
        tok = take()
        negated = False
        while tok in _NOT:
            negated = not negated
            tok = take()
        if tok == "(":
            f = implication()
            if peek() != ")":
                raise GameSpecError(f"line {line_no}: missing closing parenthesis")
            take()
        elif tok in ("0", "1", "true", "false"):
            f = ("const", tok in ("1", "true"))
        elif tok in known:
            f = ("var", tok)
        else:
            raise GameSpecError(f"line {line_no}: unknown variable {tok!r}")
        return ("not", f) if negated else f

    # one loop per precedence level, written out: a shared helper would add
    # frames per parenthesis level and lower the nesting depth that parses
    def conjunction():
        operands = [atom()]
        while peek() in _AND:
            take()
            operands.append(atom())
        return operands[0] if len(operands) == 1 else ("and", *operands)

    def disjunction():
        operands = [conjunction()]
        while peek() in _OR:
            take()
            operands.append(conjunction())
        return operands[0] if len(operands) == 1 else ("or", *operands)

    def implication():
        operands = [disjunction()]
        while peek() in _IMP:
            take()
            operands.append(disjunction())
        return operands[0] if len(operands) == 1 else ("imp", *operands)

    try:
        result = implication()
    except RecursionError:
        raise GameSpecError(f"line {line_no}: formula nested too deeply") from None
    if peek() is not None:
        raise GameSpecError(f"line {line_no}: trailing tokens after formula: {tokens[index:]}")
    return result


# ----------------------------------------------------------------------
# game specs

@dataclass(frozen=True)
class GameAction:
    player: int
    name: str
    precondition: tuple
    effects: tuple  # of (variable name, formula)


@dataclass(frozen=True)
class GameSpec:
    name: str
    variables: tuple[str, ...]
    init_true: frozenset[str]
    actions: tuple[GameAction, ...]
    terminal: tuple
    rewards: dict  # player -> tuple of (value, formula)

    @property
    def players(self) -> int:
        ids = {a.player for a in self.actions} | set(self.rewards)
        return 2 if 2 in ids else 1

    def init_bits(self) -> tuple[int, ...]:
        return tuple(1 if v in self.init_true else 0 for v in self.variables)


_ACTION_RE = re.compile(r"player\s+([12])\s+action\s+([A-Za-z_][A-Za-z0-9_]*)\s*:\s*(.*)$")
_REWARD_RE = re.compile(r"reward\s+([12])\s+(\d+)\s*:\s*(.*)$")


def parse_game(text: str, name: str = "game") -> GameSpec:
    """Parse a game description; raises :class:`GameSpecError` with line info."""
    variables: list[str] = []
    init_true: set[str] = set()
    actions: list[GameAction] = []
    terminal = None
    rewards: dict[int, list] = {}
    spec_name, named = name, False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("name:"):
            if named:
                raise GameSpecError(f"line {line_no}: name declared twice")
            named = True
            spec_name = line[len("name:"):].strip()
            if not spec_name:
                raise GameSpecError(f"line {line_no}: empty name")
            continue
        if line.startswith("vars:"):
            for v in line[len("vars:"):].split(","):
                v = v.strip()
                if not v:
                    continue
                if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", v) or v in ("true", "false"):
                    raise GameSpecError(f"line {line_no}: bad variable name {v!r}")
                if v in variables:
                    raise GameSpecError(f"line {line_no}: variable {v!r} declared twice")
                variables.append(v)
            continue
        if line.startswith("init:"):
            for v in line[len("init:"):].split(","):
                v = v.strip()
                if not v:
                    continue
                if v not in variables:
                    raise GameSpecError(f"line {line_no}: unknown init variable {v!r}")
                init_true.add(v)
            continue
        if line.startswith("terminal:"):
            if terminal is not None:
                raise GameSpecError(f"line {line_no}: terminal condition declared twice")
            terminal = parse_formula(line[len("terminal:"):], variables, line_no)
            continue
        m = _ACTION_RE.match(line)
        if m:
            player, act_name, body = int(m.group(1)), m.group(2), m.group(3)
            pre_part, _, eff_part = body.partition(";")
            pre_kw, eq, pre_text = pre_part.strip().partition("=")
            if pre_kw.strip() != "pre" or not eq:
                raise GameSpecError(f"line {line_no}: action body must start with 'pre ='")
            pre = parse_formula(pre_text, variables, line_no)
            effects = []
            eff_part = eff_part.strip()
            if eff_part:
                eff_kw, eq, eff_body = eff_part.partition("=")
                if eff_kw.strip() != "eff" or not eq:
                    raise GameSpecError(f"line {line_no}: expected 'eff =' after ';'")
                for item in eff_body.split(","):
                    item = item.strip()
                    if not item:
                        continue
                    var, sep, rhs = item.partition(":=")
                    if not sep:
                        raise GameSpecError(f"line {line_no}: effect {item!r} needs ':='")
                    var = var.strip()
                    if var not in variables:
                        raise GameSpecError(f"line {line_no}: unknown effect variable {var!r}")
                    if any(var == seen for seen, _ in effects):
                        raise GameSpecError(f"line {line_no}: variable {var!r} assigned twice")
                    effects.append((var, parse_formula(rhs, variables, line_no)))
            actions.append(GameAction(player, act_name, pre, tuple(effects)))
            continue
        m = _REWARD_RE.match(line)
        if m:
            player, value = int(m.group(1)), int(m.group(2))
            if not 0 <= value <= 100:
                raise GameSpecError(f"line {line_no}: reward {value} outside 0..100")
            formula = parse_formula(m.group(3), variables, line_no)
            rewards.setdefault(player, []).append((value, formula))
            continue
        raise GameSpecError(f"line {line_no}: cannot parse {line!r}")

    if not variables:
        raise GameSpecError("no variables declared")
    if terminal is None:
        raise GameSpecError("no terminal condition declared")
    if not actions:
        raise GameSpecError("no actions declared")
    players = {a.player for a in actions} | set(rewards)
    for p in sorted(players):
        if p not in rewards:
            raise GameSpecError(f"player {p} has no reward declarations")
    if players == {2}:
        raise GameSpecError("player 2 declared without player 1")
    return GameSpec(name=spec_name, variables=tuple(variables),
                    init_true=frozenset(init_true), actions=tuple(actions),
                    terminal=terminal,
                    rewards={p: tuple(v) for p, v in rewards.items()})


def load_game(path) -> GameSpec:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    stem = re.sub(r"\.[^.]*$", "", str(path).rsplit("/", 1)[-1])
    return parse_game(text, name=stem)


def bundled_game_path(name: str):
    """Filesystem path of a game shipped with the package."""
    return resources.files("lexbdd") / "data" / "games" / f"{name}.game"


def bundled_game_names() -> tuple[str, ...]:
    base = resources.files("lexbdd") / "data" / "games"
    return tuple(sorted(p.name[:-len(".game")] for p in base.iterdir()
                        if p.name.endswith(".game")))


# ----------------------------------------------------------------------
# compilation to a transition system

def _compile_formula(store: BddStore, levels: dict[str, int], formula) -> int:
    """Compile a parsed formula to a BDD, reading variable ``v`` at ``levels[v]``.

    ``and`` and ``or`` fold left to right, ``imp`` from the right.
    """
    op = formula[0]
    if op == "const":
        return TRUE if formula[1] else FALSE
    if op == "var":
        return store.var(levels[formula[1]])
    if op == "not":
        return -_compile_formula(store, levels, formula[1])
    if op == "imp":
        premises = [_compile_formula(store, levels, f) for f in formula[1:-1]]
        result = _compile_formula(store, levels, formula[-1])
        for a in reversed(premises):
            result = store.apply("or", -a, result)
        return result
    if op not in ("and", "or"):
        raise ValueError(f"bad formula node {formula!r}")
    result = _compile_formula(store, levels, formula[1])
    for operand in formula[2:]:
        result = store.apply(op, result, _compile_formula(store, levels, operand))
    return result


def compile_game(spec: GameSpec) -> TransitionSystem:
    """Build one transition relation per action and the terminal sink set.

    Variable ``i`` of the spec sits at level ``2i`` and its next copy at
    ``2i + 1``, which keeps the per-action relations small.  Each
    relation is the precondition and one biconditional per written
    variable, with no frame axioms, so it mentions the next copy of
    exactly the variables its action writes (see :class:`Relation`).
    The terminal formula becomes the ``sink`` set.  Each call makes a
    fresh store.
    """
    store = BddStore(name for v in spec.variables for name in (v, v + "'"))
    cur = {v: 2 * i for i, v in enumerate(spec.variables)}

    relations = []
    for action in spec.actions:
        effect_map = dict(action.effects)
        trans = _compile_formula(store, cur, action.precondition)
        # conjoin bottom-up: deeper biconditionals first keeps intermediates small
        for v in reversed([v for v in spec.variables if v in effect_map]):
            rhs = _compile_formula(store, cur, effect_map[v])
            bicond = store.ite(store.var(cur[v] + 1), rhs, -rhs)
            trans = store.apply("and", trans, bicond)
        relations.append(Relation(name=action.name, edge=trans, player=action.player))
    return TransitionSystem(store=store, relations=tuple(relations),
                            sink=_compile_formula(store, cur, spec.terminal))


def formula_edge(ts: TransitionSystem, spec: GameSpec, formula) -> int:
    """Compile a formula over the game's variables to a current-state BDD."""
    return _compile_formula(ts.store, dict(zip(spec.variables, ts.current)), formula)


def _check_state_bits(ts: TransitionSystem, bits: Sequence) -> None:
    if len(bits) != len(ts.current):
        raise ValueError(f"state has {len(bits)} bits, the game has {len(ts.current)} variables")


def state_edge(ts: TransitionSystem, bits: Sequence) -> int:
    """Characteristic function of a single state given by its bits."""
    _check_state_bits(ts, bits)
    return ts.store.cube({lvl: bool(b) for lvl, b in zip(ts.current, bits)})


def initial_edge(ts: TransitionSystem, spec: GameSpec) -> int:
    return state_edge(ts, spec.init_bits())


# ----------------------------------------------------------------------
# strong solving

@dataclass
class SolutionTable:
    """Game value classes per layer; a strong solution when complete.

    ``layer_classes[d]`` maps each class key to the states of layer
    ``d`` with that value.  ``value_sets`` holds, for every class key
    with at least one classified state, the union of that class over all
    layers, in ``class_keys`` order.  The layers are disjoint and so are
    the classes of one layer, so the value sets are pairwise disjoint
    and a state lies in at most one of them; ``value_of`` evaluates
    those few diagrams instead of every layer × class pair.
    """
    ts: TransitionSystem
    spec: GameSpec
    class_keys: tuple[tuple[int, ...], ...]
    layer_classes: list[dict]
    value_sets: tuple[tuple[tuple[int, ...], int], ...]
    stats: list[LayerStat]
    complete: bool

    def initial_value(self) -> tuple[int, ...]:
        return self.value_of(self.spec.init_bits())

    def value_of(self, bits: Sequence) -> tuple[int, ...]:
        """Reward vector of a reachable state; raises ``LookupError`` otherwise.

        A bit vector whose length is not the number of state variables
        raises ``ValueError``.  Creates no nodes.
        """
        _check_state_bits(self.ts, bits)
        evaluate = self.ts.store.evaluate
        full = [0] * self.ts.store.n
        for lvl, b in zip(self.ts.current, bits):
            full[lvl] = 1 if b else 0
        for key, edge in self.value_sets:
            if evaluate(edge, full):
                return key
        raise LookupError(f"state {tuple(bits)} is not classified (unreachable?)")


def _reward_classes(ts: TransitionSystem, spec: GameSpec):
    """Cross product of the per-player reward formulas: value tuples and their conjunctions."""
    per_player = [[(value, formula_edge(ts, spec, formula)) for value, formula in spec.rewards[p]]
                  for p in range(1, spec.players + 1)]
    keys: list[tuple[int, ...]] = []
    edges: dict[tuple[int, ...], int] = {}
    for members in itertools.product(*per_player):
        key = tuple(value for value, _ in members)
        edge = TRUE
        for _, member in members:
            edge = ts.store.apply("and", edge, member)
        keys.append(key)
        edges[key] = edge
    return tuple(keys), edges


def _preference_order(keys, player: int):
    """Best class first: own reward descending, then every reward in player order."""
    return sorted(keys, key=lambda k: (-k[player - 1], *(-v for v in k)))


def solve(ts: TransitionSystem, spec: GameSpec, layers: LayerSequence,
          strategy: PartitionStrategy = NO_PARTITION,
          limits: SearchLimits | None = None) -> SolutionTable:
    """Classify every reachable state by its game value.

    Walks the forward layers backward.  Terminal states take the value
    of their reward class directly.  The remaining states of a layer
    belong to the player who can move in them and are classified in that
    player's preference order: each class receives the still-unassigned
    states that can reach an already-classified successor of that class.
    Each such preimage is taken through the player's move relation (see
    :class:`~lexbdd.search.Move`), with the player's still-unassigned
    states of the layer as the care set of the relational product, so
    it never leaves them (nor meets the sink set) and needs no AND with
    them afterwards; a player's class loop stops once every state is
    assigned.  A state left over after all classes is a spec defect and
    raises :class:`GameSolveError` naming the layer.

    Between layer steps, as in :func:`~lexbdd.search.layered_bfs`,
    :class:`~lexbdd.search._LayerSteps` keeps the reward classes, the
    movers' sets and the classes of the layers already solved; every
    edge made before the call, the layers among them, keeps its meaning.
    After the last layer, each class is joined over the layers into one
    value set (see :class:`SolutionTable`), so that queries create no
    nodes, and the caches are emptied, so a solved store holds no cache
    entry.
    """
    if not layers.complete:
        raise ValueError("cannot solve from an incomplete layer sequence")
    store = ts.store
    steps = _LayerSteps(store, limits)
    class_keys, class_edges = _reward_classes(ts, spec)
    can_move = {}
    for p in range(1, spec.players + 1):
        pres = FALSE
        for action in spec.actions:
            if action.player == p:
                pres = store.apply("or", pres, formula_edge(ts, spec, action.precondition))
        can_move[p] = pres
    prefs = {p: _preference_order(class_keys, p) for p in can_move}

    last = len(layers.layers) - 1
    layer_classes: list[dict] = [dict() for _ in layers.layers]
    stats: list[LayerStat] = []
    complete = True

    for d in range(last, -1, -1):
        held = [class_edges, can_move, *layer_classes[d + 1:]]
        edges = iter(steps.start([e for table in held for e in table.values()]))
        for table in held:
            table.update({key: next(edges) for key in table})
        if steps.exhausted():
            complete = False
            break
        t0 = time.perf_counter()
        peak = 0
        layer = layers.layers[d]
        terminal_here = store.apply("and", layer, ts.sink)
        classes = {key: store.apply("and", terminal_here, class_edges[key])
                   for key in class_keys}
        covered = FALSE
        for key in class_keys:
            covered = store.apply("or", covered, classes[key])
        if covered != terminal_here:
            raise GameSolveError(
                f"layer {d}: terminal states not covered by the reward classes")
        rest = store.apply("and", layer, -ts.sink)
        if rest != FALSE:
            if d == last:
                raise GameSolveError(
                    f"layer {d}: non-terminal states in the final layer "
                    "(state space is not layer-acyclic)")
            movers = FALSE
            for p in prefs:
                mine = store.apply("and", rest, can_move[p])
                if mine == FALSE:
                    continue
                overlap = store.apply("and", mine, movers)
                if overlap != FALSE:
                    raise GameSolveError(
                        f"layer {d}: both players can move in the same state")
                movers = store.apply("or", movers, mine)
                for key in prefs[p]:
                    if mine == FALSE:
                        break
                    succ = layer_classes[d + 1].get(key, FALSE)
                    if succ == FALSE:
                        continue
                    # restricted to mine inside the product, so pred <= mine
                    pred, sub_peak = _subimages(ts, succ, strategy, forward=False,
                                                moves=(ts.moves[p],), care=mine)
                    peak = max(peak, sub_peak)
                    if pred != FALSE:
                        classes[key] = store.apply("or", classes[key], pred)
                        mine = store.apply("and", mine, -pred)
                if mine != FALSE:
                    raise GameSolveError(
                        f"layer {d}: states of player {p} have no classified successor")
            if movers != rest:
                raise GameSolveError(
                    f"layer {d}: non-terminal states where nobody can move")
        layer_classes[d] = classes
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        stats.append(LayerStat("backward", d, elapsed_ms,
                               store.node_count(), peak, layers.stats[d].states))

    stats.sort(key=lambda row: row.index)
    value_sets = []
    for key in class_keys:
        union = FALSE
        for classes in layer_classes:
            union = store.apply("or", union, classes.get(key, FALSE))
        if union != FALSE:
            value_sets.append((key, union))
    store.clear_caches()
    return SolutionTable(ts=ts, spec=spec, class_keys=class_keys,
                         layer_classes=layer_classes, value_sets=tuple(value_sets),
                         stats=stats, complete=complete)
