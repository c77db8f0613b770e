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

Compilation produces one move relation per player over an interleaved
current/next variable order, the OR of the player's actions, each
framed on the variables that the player's other actions write, and a
sink set of terminal states, held as the terminal formula's top-level
``or`` operands, that image computation masks out, so they have no
outgoing transitions.  Solving classifies every forward layer
by game value, walking backward from the last layer and assigning each
state the best reward class, in the moving player's preference order,
whose already-classified successors it can reach.  Every move must lead
to the next layer, so the last class a player can reach takes the
states left with no preimage.  It takes each layer's terminal and
non-terminal halves from the forward search, never from the sink set,
and gives each layer's terminal states their reward class in that
layer's own step, where each player's rewards must be exclusive and
exhaustive.  Each distinct top-level ``and`` operand of the rewards is
compiled once; a class is the AND of each player's value set for the
class's own value.  :func:`solve` then joins each class over the layers
into one value set for queries; ``lexbdd solve`` builds none.
"""

from __future__ import annotations

import itertools
import re
import time
from dataclasses import dataclass
from collections.abc import Sequence
from importlib import resources

from .bdd import FALSE, TRUE, BddStore
from .partition import join_windows
from .search import (LayerSequence, LayerStat, Move, SearchLimits, TransitionSystem,
                     _LayerSteps, _preimages)


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

# deepest parenthesis nesting a formula may have, whatever the caller's stack
MAX_NESTING = 200


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
    parentheses, which may nest up to :data:`MAX_NESTING` levels; the
    depth is measured on the tokens before the parser recurses.
    """
    tokens = _tokenize(text, line_no)
    depth = 0
    for tok in tokens:
        if tok == "(":
            depth += 1
            if depth > MAX_NESTING:
                raise GameSpecError(f"line {line_no}: formula nested too deeply")
        elif tok == ")":
            depth -= 1
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
    except RecursionError:  # a backstop: MAX_NESTING levels fit the default recursion limit
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
    """Compile a parsed formula, reading variable ``v`` at ``levels[v]``.

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
    """Build one move relation per player and the terminal sink set.

    Variable ``i`` of the spec sits at level ``2i`` and its next copy at
    ``2i + 1``, which keeps the relations small.  Each player, in the
    order of its first action, gets one :class:`~lexbdd.search.Move`:
    ``written`` holds the variables that some of its actions assign, and
    each action's edge is the precondition and ``w' <-> rhs`` for every
    written ``w``, where ``rhs`` is the action's effect on ``w``, or
    ``w`` itself, a frame axiom, when the action leaves ``w`` alone.
    The player's edge ORs its actions' edges.  ``sink`` holds each
    distinct top-level ``or`` operand of the terminal formula compiled
    on its own, never their OR, which with interleaved variables can be
    far larger; ``FALSE`` is dropped.  Each call makes a fresh store.
    """
    store = BddStore(name for v in spec.variables for name in (v, v + "'"))
    cur = {v: 2 * i for i, v in enumerate(spec.variables)}

    relations = []
    for player in dict.fromkeys(action.player for action in spec.actions):
        actions = [action for action in spec.actions if action.player == player]
        assigned = {v for action in actions for v, _ in action.effects}
        written = [v for v in spec.variables if v in assigned]
        edge = FALSE
        for action in actions:
            effects = dict(action.effects)
            trans = _compile_formula(store, cur, action.precondition)
            # conjoin bottom-up: deeper biconditionals first keeps intermediates small
            for v in reversed(written):
                rhs = _compile_formula(store, cur, effects.get(v, ("var", v)))
                trans = store.apply("and", trans, store.ite(store.var(cur[v] + 1), rhs, -rhs))
            edge = store.apply("or", edge, trans)
        relations.append(Move(player, edge, tuple(cur[v] for v in written)))
    sink = dict.fromkeys(_compile_formula(store, cur, f) for f in _operands(spec.terminal, "or"))
    sink.pop(FALSE, None)
    return TransitionSystem(store=store, relations=tuple(relations), sink=tuple(sink))


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
    those few diagrams instead of every layer × class pair.  Only
    :func:`solve` builds the value sets; ``lexbdd solve`` runs its layer
    loop alone and makes no table.
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


def _operands(formula, op: str) -> tuple:
    """A formula's top-level ``op`` operands, or the formula alone."""
    return formula[1:] if formula[0] == op else (formula,)


def _terminal_classes(store: BddStore, spec: GameSpec, d: int, terminal: int,
                      conjuncts: dict, class_keys) -> dict:
    """The value classes of ``terminal``, the terminal half of layer ``d``.

    ``conjuncts`` maps each distinct top-level ``and`` operand of the
    reward formulas to its edge.  Each reward folds its operands into
    ``terminal`` one at a time, so no diagram leaves the layer's
    terminal states, and each player's rewards of equal value are joined
    into one value set.  Each player's rewards must partition
    ``terminal``: two values that share a state, or a state with no
    value, raise :class:`GameSolveError` naming the layer.  Returns, for
    each class key, the AND of each player's value set for the key's
    value; a layer with no terminal state makes no node.
    """
    if terminal == FALSE:
        return dict.fromkeys(class_keys, FALSE)
    per_player = []
    for p in range(1, spec.players + 1):
        sets: dict[int, int] = {}
        for value, formula in spec.rewards[p]:
            edge = terminal
            for operand in _operands(formula, "and"):
                edge = store.apply("and", edge, conjuncts[operand])
            sets[value] = store.apply("or", sets.get(value, FALSE), edge)
        for (v, e), (w, f) in itertools.combinations(sets.items(), 2):
            if store.apply("and", e, f) != FALSE:
                raise GameSolveError(f"layer {d}: rewards {v} and {w} of player {p} overlap "
                                     "on reachable terminal states")
        covered = FALSE
        for edge in sets.values():
            covered = store.apply("or", covered, edge)
        if covered != terminal:
            raise GameSolveError(f"layer {d}: reachable terminal states not covered by the "
                                 f"reward classes of player {p}")
        per_player.append(sets)
    classes = {}
    for key in class_keys:
        edge = TRUE
        for sets, value in zip(per_player, key):
            edge = store.apply("and", edge, sets[value])
        classes[key] = edge
    return classes


def _preference_order(keys, player: int):
    """Best class first: own reward descending, then every reward in player order."""
    return sorted(keys, key=lambda k: (-k[player - 1], *(-v for v in k)))


def solve(ts: TransitionSystem, spec: GameSpec, layers: LayerSequence,
          limits: SearchLimits | None = None) -> SolutionTable:
    """Classify every reachable state by its game value.

    Walks the forward layers backward.  Each layer's terminal half is
    the layer minus its non-terminal half, which the forward search kept
    (see :class:`~lexbdd.search.LayerSequence`), so the sink set is
    never walked.  Each distinct top-level ``and`` operand of the reward
    formulas is compiled once, and each layer's step folds the rewards'
    operands into its own terminal half (see :func:`_terminal_classes`);
    a player's rewards that overlap there, or leave a state there
    without a value, raise :class:`GameSolveError` naming the layer.
    Terminal states take the value of their reward class directly.  The
    non-terminal states of a layer belong to the player who can move in
    them and are classified in that player's preference order: each
    class receives the still-unassigned states that can reach an
    already-classified successor of that class.
    The states where a player can move are its move relation (see
    :class:`~lexbdd.search.Move`) with the next variables quantified;
    they are met with a layer only for the players that moved forward
    from it (:attr:`~lexbdd.search.LayerSequence.movers`), as no other
    player can move there.  Each such preimage is one relational product
    through that relation, whatever partition strategy made the layers,
    with the player's still-unassigned states of the layer as its care
    set, so it never leaves them (nor meets the sink set) and needs no
    AND with them afterwards; a player's class loop stops once every
    state is assigned.  A layer with a move back to it or to an earlier layer
    (see :attr:`~lexbdd.search.LayerSequence.leads_back`) raises
    :class:`GameSolveError`.  So every successor of layer ``d`` lies in
    the classified layer ``d + 1``, and each player's last class with
    states there takes, with no preimage, every state the better
    classes leave.

    Between layer steps, as in :func:`~lexbdd.search.layered_bfs`,
    :class:`~lexbdd.search._LayerSteps` keeps the reward operands, the
    movers' sets and the classes of the layers already solved; every
    edge made before the call, the layers and their non-terminal halves
    among them, keeps its meaning.
    After the last layer, each class is joined over the layers into one
    value set (see :class:`SolutionTable`), so that queries create no
    nodes, and the caches are emptied, so a solved store holds no cache
    entry.  ``lexbdd solve`` runs only the layer loop,
    :func:`_classify_layers`, and builds no value set.
    """
    class_keys, layer_classes, stats, complete = _classify_layers(ts, spec, layers, limits)
    value_sets = _value_sets(ts.store, class_keys, layer_classes)
    ts.store.clear_caches()
    return SolutionTable(ts=ts, spec=spec, class_keys=class_keys,
                         layer_classes=layer_classes, value_sets=value_sets,
                         stats=stats, complete=complete)


def _value_sets(store: BddStore, class_keys, layer_classes: list[dict]):
    """Each class key with a classified state and its union over the layers."""
    value_sets = []
    for key in class_keys:
        union = FALSE
        for classes in layer_classes:
            union = store.apply("or", union, classes.get(key, FALSE))
        if union != FALSE:
            value_sets.append((key, union))
    return tuple(value_sets)


def _classify_layers(ts: TransitionSystem, spec: GameSpec, layers: LayerSequence,
                     limits: SearchLimits | None):
    """The layer loop of :func:`solve`, which builds no value set.

    Returns the class keys, each layer's classes (a dict per layer; a
    layer a budget left unsolved has an empty one), the backward
    :class:`~lexbdd.search.LayerStat` rows in layer order, and whether
    every layer was classified.  The compiled reward operands are keyed
    by their formulas.  Layer ``d``'s step ORs the layer's windows, and
    its non-terminal windows, once (see
    :class:`~lexbdd.search.LayerSequence`) and keeps neither union past
    the step.  A player outside ``layers.movers[d]`` takes no AND with
    the layer's non-terminal half, which would be empty.  Each class
    preimage is sized once, for the row's ``max_image_nodes``.  The
    caches keep the last step's entries.
    """
    if not layers.complete:
        raise ValueError("cannot solve from an incomplete layer sequence")
    store = ts.store
    steps = _LayerSteps(store, limits)
    players = range(1, spec.players + 1)
    class_keys = tuple(itertools.product(
        *(dict.fromkeys(value for value, _ in spec.rewards[p]) for p in players)))
    operands = (op for p in players for _, f in spec.rewards[p] for op in _operands(f, "and"))
    conjuncts = {op: formula_edge(ts, spec, op) for op in dict.fromkeys(operands)}
    relations = {rel.player: rel for rel in ts.relations}
    # where a player can move: its relation with the next levels quantified
    can_move = {p: store.and_exists([w + 1 for w in rel.written], rel.edge, TRUE)
                for p, rel in sorted(relations.items())}
    prefs = {p: _preference_order(class_keys, p) for p in can_move}

    last = len(layers.layers) - 1
    layer_classes: list[dict] = [dict() for _ in layers.layers]
    stats: list[LayerStat] = []
    complete = True

    for d in range(last, -1, -1):
        held = [conjuncts, can_move, *layer_classes[d + 1:]]
        edges = iter(steps.start([e for table in held for e in table.values()]))
        for table in held:
            table.update({key: next(edges) for key in table})
        if steps.exhausted():
            complete = False
            break
        t0 = time.perf_counter()
        peak = 0
        # the layer and its non-terminal half, merged for this step only
        rest = join_windows(store, layers.nonterminal[d])
        terminal = store.apply("and", join_windows(store, layers.layers[d]), -rest)
        classes = _terminal_classes(store, spec, d, terminal, conjuncts, class_keys)
        if rest != FALSE:
            if d == last:
                raise GameSolveError(
                    f"layer {d}: non-terminal states in the final layer "
                    "(state space is not layer-acyclic)")
            if d in layers.leads_back:
                raise GameSolveError(
                    f"layer {d}: a move leads back to this or an earlier layer, "
                    f"not to layer {d + 1}")
            following = layer_classes[d + 1]
            moving = FALSE
            for p in prefs:
                # a player with no non-empty forward product from this
                # layer can move in none of its states: rest ∧ can_move[p]
                # is FALSE, so it is not built; for a mover it is not FALSE
                if p not in layers.movers[d]:
                    continue
                mine = store.apply("and", rest, can_move[p])
                overlap = store.apply("and", mine, moving)
                if overlap != FALSE:
                    raise GameSolveError(
                        f"layer {d}: both players can move in the same state")
                moving = store.apply("or", moving, mine)
                # every move leads to layer d + 1, whose states all have a
                # class, so the last class met takes what the others leave
                *better, worst = [key for key in prefs[p] if following[key] != FALSE]
                for key in better:
                    if mine == FALSE:
                        break
                    # restricted to mine inside the product, so pred <= mine
                    pred = _preimages(ts, following[key], relations=(relations[p],), care=mine)
                    peak = max(peak, store.size(pred))
                    if pred != FALSE:
                        classes[key] = store.apply("or", classes[key], pred)
                        mine = store.apply("and", mine, -pred)
                classes[worst] = store.apply("or", classes[worst], mine)
            if moving != rest:
                raise GameSolveError(
                    f"layer {d}: non-terminal states where nobody can move")
        layer_classes[d] = classes
        elapsed_ms = (time.perf_counter() - t0) * 1000.0
        stats.append(LayerStat("backward", d, elapsed_ms,
                               store.node_count(), peak, layers.stats[d].states))

    stats.sort(key=lambda row: row.index)
    return class_keys, layer_classes, stats, complete
