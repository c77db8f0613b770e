"""Benchmark runs, CSV round trips, comparison ratios, and the CLI."""

import json
import math
import re
import time
from pathlib import Path

import pytest

import lexbdd.bench
import lexbdd.games
import lexbdd.search
from lexbdd import RunConfig, RunReport, bundled_game_names, bundled_game_path, compare, \
    compile_game, initial_edge, layered_bfs, load_game, read_csv, run, solve, write_csv
from lexbdd.bench import CSV_COLUMNS, format_compare
from lexbdd.cli import main
from lexbdd.search import PartitionStrategy

from explicit import ExplicitGame


def _run(name, strategy="none", **kw):
    return run(RunConfig(game_path=str(bundled_game_path(name)),
                         strategy=PartitionStrategy.parse(strategy), **kw))


# (direction, layer, max_image_nodes, layer_states) of every report row and
# the initial value, per "game strategy"
PINNED_RUNS = json.loads((Path(__file__).parent / "regression_pin.json").read_text())


@pytest.mark.parametrize("key", list(PINNED_RUNS))
def test_layers_and_values_match_pinned_runs(key):
    game, strategy = key.split()
    report = _run(game, strategy)
    rows = [[r.direction, r.index, r.max_image_nodes, r.states] for r in report.rows]
    assert rows == PINNED_RUNS[key]["rows"]
    assert list(report.initial_value) == PINNED_RUNS[key]["initial_value"]


def test_counter_run_solves_with_eight_forward_layers():
    report = _run("counter3")
    assert report.solved
    forward = [r for r in report.rows if r.direction == "forward"]
    backward = [r for r in report.rows if r.direction == "backward"]
    assert len(forward) == 8
    assert len(backward) == 8
    assert [r.index for r in forward] == list(range(8))
    assert [r.index for r in backward] == list(range(8))
    assert report.initial_value == (100,)


def test_partitioned_run_has_identical_layer_counts():
    base = _run("lightsout3")
    folded = _run("lightsout3", "fold-states-lex:8")
    assert [r.states for r in base.rows] == [r.states for r in folded.rows]
    assert base.solved and folded.solved


def test_tiny_time_budget_flags_incomplete():
    report = _run("lightsout3", time_budget_s=1e-9)
    assert not report.solved
    assert len(report.rows) < len(_run("lightsout3").rows)


def test_time_budget_covers_parse_and_compile(monkeypatch, capsys):
    # a compile that outlasts the whole budget leaves the search nothing
    compile_slowly = lexbdd.bench.compile_game

    def slow(spec):
        time.sleep(0.05)
        return compile_slowly(spec)

    monkeypatch.setattr(lexbdd.bench, "compile_game", slow)
    report = _run("counter3", time_budget_s=0.02)
    assert not report.solved and len(report.rows) == 1
    game = str(bundled_game_path("counter3"))
    assert main(["solve", game, "--time-budget", "0.02"]) == 2
    assert "solved=False" in capsys.readouterr().out


def test_node_budget_flags_incomplete():
    report = _run("tictactoe", node_budget=100)
    assert not report.solved


def test_budget_validation():
    for budget in (0, math.nan):
        with pytest.raises(ValueError):
            RunConfig(game_path="x.game", time_budget_s=budget)
    for budget in (0, math.nan):
        with pytest.raises(ValueError):
            RunConfig(game_path="x.game", node_budget=budget)


def test_csv_round_trip(tmp_path):
    report = _run("counter3")
    path = tmp_path / "counter3.csv"
    write_csv(report, path)
    parsed = read_csv(path)
    assert parsed == report  # initial_value is display-only and excluded
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


def test_read_csv_rejects_other_headers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        read_csv(path)


def test_determinism_across_runs():
    a = _run("duel")
    b = _run("duel")
    assert [r.states for r in a.rows] == [r.states for r in b.rows]
    assert [r.max_image_nodes for r in a.rows] == [r.max_image_nodes for r in b.rows]
    assert a.solved == b.solved and a.initial_value == b.initial_value


def test_compare_baseline_against_itself():
    base = _run("counter3")
    rows = compare([base], base)
    assert len(rows) == 1
    assert rows[0].layers_ratio == 1.0
    assert rows[0].time_ratio == 1.0
    assert rows[0].max_nodes_ratio == 1.0


def test_compare_halved_run():
    base = _run("counter3")
    half = RunReport(game=base.game, strategy="crippled",
                     rows=base.rows[:len(base.rows) // 2], solved=False)
    rows = compare([half], base)
    assert math.isclose(rows[0].layers_ratio, 0.5)


def test_compare_rejects_mismatched_games():
    with pytest.raises(ValueError):
        compare([_run("duel")], _run("counter3"))


def test_format_compare_table():
    base = _run("counter3")
    text = format_compare(compare([base], base))
    lines = text.strip().splitlines()
    assert lines[0] == "game,strategy,layers_ratio,time_ratio,max_nodes_ratio"
    assert lines[1].startswith("counter3,none,1.00,1.00,1.00")


def test_runs_build_no_value_sets(monkeypatch):
    # a run reads the initial value from layer 0's classes, so it solves
    # every game as solve does with the value-set builder gone
    expected = {}
    for name in bundled_game_names():
        spec = load_game(bundled_game_path(name))
        for text in ("none", "fold-states-lex:8", "states-lex:64", "disj-var"):
            strategy = PartitionStrategy.parse(text)
            ts = compile_game(spec)
            layers = layered_bfs(ts, initial_edge(ts, spec), strategy)
            expected[name, text] = solve(ts, spec, layers).initial_value()

    def no_value_sets(*args):
        raise AssertionError("value sets built")

    monkeypatch.setattr(lexbdd.games, "_value_sets", no_value_sets)
    for (name, text), value in expected.items():
        report = _run(name, text)
        assert report.solved and report.initial_value == value, (name, text)

    class OneBackwardStep(lexbdd.search._LayerSteps):
        # the budget runs out after the first backward step
        checks = 0

        def exhausted(self):
            self.checks += 1
            return self.checks > 1

    monkeypatch.setattr(lexbdd.games, "_LayerSteps", OneBackwardStep)
    report = _run("tictactoe")
    assert [r.direction for r in report.rows].count("backward") == 1
    assert not report.solved and report.initial_value is None


def test_dot_dump(tmp_path):
    _run("counter3", dot_dir=str(tmp_path / "dots"))
    dots = sorted((tmp_path / "dots").glob("*.dot"))
    assert len(dots) == 8
    assert dots[0].read_text().startswith("digraph")


# ----------------------------------------------------------------------
# command line

def test_cli_solve_and_compare(tmp_path, capsys):
    base_csv = tmp_path / "none.csv"
    fold_csv = tmp_path / "fold.csv"
    game = str(bundled_game_path("counter3"))
    assert main(["solve", game, "--csv", str(base_csv)]) == 0
    assert main(["solve", game, "--partition", "fold-states-lex:4",
                 "--csv", str(fold_csv)]) == 0
    out = capsys.readouterr().out
    assert "solved=True" in out
    assert "initial_value=100" in out
    assert main(["compare", str(fold_csv), "--baseline", str(base_csv)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "game,strategy,layers_ratio,time_ratio,max_nodes_ratio"
    assert "fold-states-lex:4" in out


@pytest.mark.parametrize("text, line", [
    ("", 1),
    (",".join(CSV_COLUMNS) + "\ncounter3,none,forward\n", 2),
    (",".join(CSV_COLUMNS) + "\ncounter3,none,forward,0,1.0,5,0,one\n", 2),
    (",".join(CSV_COLUMNS) + "\ncounter3,none,forward,0,1.0,5,0,1\n" + "x" * 200_000, 3),
])
def test_cli_compare_malformed_csv_is_a_one_line_error(tmp_path, capsys, text, line):
    bad = tmp_path / "bad.csv"
    bad.write_text(text)
    assert main(["compare", str(bad), "--baseline", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}, line {line}:")
    assert err.count("\n") == 1


def test_cli_budget_exhaustion_exit_code(tmp_path):
    game = str(bundled_game_path("lightsout3"))
    assert main(["solve", game, "--time-budget", "1e-9"]) == 2


def test_cli_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.game"
    bad.write_text("vars: a\nterminal: zz\n")
    assert main(["solve", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["solve", str(tmp_path / "missing.game")]) == 1
    assert main(["solve", str(bad), "--partition", "bogus"]) == 1
    capsys.readouterr()
    # a NaN budget would disable the deadline and end as if it had run out (exit 2)
    game = str(bundled_game_path("counter3"))
    assert main(["solve", game, "--time-budget", "nan"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: time budget")
    assert err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    [],
    ["solve"],
    ["solve", "G", "--node-budget", "abc"],
    ["solve", "G", "--bogus"],
    ["frobnicate"],
    ["compare", "a.csv"],
])
def test_cli_usage_error_is_a_one_line_error(capsys, argv):
    # exit code 2 means a budget ran out, so argparse may not use it
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: lexbdd")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_cli_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: lexbdd" in capsys.readouterr().out


@pytest.mark.parametrize("terminal, action", [
    ("a", "pre"),
    ("a", "pre = 1; eff"),
    ("(" * 3000 + "a" + ")" * 3000, "pre = 1"),
])
def test_cli_malformed_spec_is_a_one_line_error(tmp_path, capsys, terminal, action):
    bad = tmp_path / "bad.game"
    bad.write_text(f"vars: a\nterminal: {terminal}\nplayer 1 action go: {action}\n"
                   "reward 1 5: 1\n")
    assert main(["solve", str(bad)]) == 1
    err = capsys.readouterr().err
    assert re.match(r"error: line [23]: ", err)
    assert err.count("\n") == 1


@pytest.mark.parametrize("header, partition, message", [
    ("", "fold-states-lex:1e3",
     "error: strategy fold-states-lex needs an integer parameter, got '1e3'\n"),
    # counter3 declares its name on its second line
    ("name: a\n", "none", "error: line 3: name declared twice\n"),
])
def test_cli_input_error_names_what_was_wrong(tmp_path, capsys, header, partition, message):
    game = tmp_path / "counter3.game"
    game.write_text(header + bundled_game_path("counter3").read_text(encoding="utf-8"))
    assert main(["solve", str(game), "--partition", partition]) == 1
    assert capsys.readouterr().err == message


def test_cli_deep_variable_order_is_a_one_line_error(tmp_path, capsys):
    # a 600-variable shift chain: 1200 levels, deeper than the recursion limit
    n = 600
    chain = tmp_path / "chain.game"
    chain.write_text("\n".join([
        "vars: " + ", ".join(f"x{i}" for i in range(n)),
        "init: x0",
        f"player 1 action shift: pre = !x{n - 1}; eff = x0 := 0, "
        + ", ".join(f"x{i + 1} := x{i}" for i in range(n - 1)),
        f"terminal: x{n - 1}",
        f"reward 1 100: x{n - 1}",
        f"reward 1 0: !x{n - 1}",
    ]) + "\n")
    assert main(["solve", str(chain)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert err.count("\n") == 1


# a terminal of 5,000 operands or negations, which parses to a single
# node, the short terminal it equals, and the initial value of both
LONG_CHAINS = {
    "&": (" & ".join(["a"] * 4999 + ["b"]), "a & b", 100),
    "|": (" | ".join(["a"] * 4999 + ["b"]), "a | b", 100),
    "->": (" -> ".join(["a"] * 4999 + ["b"]), "a -> b", 0),
    "!": ("!" * 5000 + "a", "a", 100),
}


def _chain_game(tmp_path, terminal):
    game = tmp_path / "chain.game"
    game.write_text("\n".join([
        "vars: a, b",
        "player 1 action seta: pre = !a; eff = a := 1",
        "player 1 action setb: pre = a & !b; eff = b := 1",
        f"terminal: {terminal}",
        "reward 1 100: a",
        "reward 1 0: !a",
    ]) + "\n")
    return game


@pytest.mark.parametrize("op", list(LONG_CHAINS))
def test_cli_long_operator_chain_solves(tmp_path, capsys, op):
    *terminals, value = LONG_CHAINS[op]
    outputs = []
    for terminal in terminals:
        assert main(["solve", str(_chain_game(tmp_path, terminal))]) == 0
        outputs.append(capsys.readouterr().out)
    assert f"initial_value={value}" in outputs[1]
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("op", list(LONG_CHAINS))
def test_long_operator_chain_matches_the_explicit_oracle(tmp_path, op):
    terminal, _, value = LONG_CHAINS[op]
    game = _chain_game(tmp_path, terminal)
    report = run(RunConfig(game_path=str(game), strategy=PartitionStrategy("none")))
    oracle = ExplicitGame(load_game(game))
    assert [r.states for r in report.rows if r.direction == "forward"] == \
        [len(layer) for layer in oracle.bfs_layers()]
    assert report.initial_value == oracle.value(oracle.initial()) == (value,)
