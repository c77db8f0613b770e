"""Tests of the benchmark itself: generator, oracle, and the printed report."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gen
import oracle

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUNDLED = ROOT / "src" / "lexbdd" / "data" / "games"
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_generator_reproduces_bundled_games():
    assert gen.connect_game(3, 3, 3) == (BUNDLED / "connect3.game").read_text(encoding="utf-8")
    assert gen.lightsout_game(3, 7) == (BUNDLED / "lightsout3.game").read_text(encoding="utf-8")


@pytest.mark.parametrize("make", [lambda s: gen.connect_game(4, 3, 3, s),
                                  lambda s: gen.lightsout_game(4, 7, s)])
def test_seed_permutes_only_the_action_declarations(make):
    base, shuffled = make(None).splitlines(), make(5).splitlines()
    assert shuffled != base
    assert sorted(shuffled) == sorted(base)
    assert [x for x in shuffled if " action " not in x] == \
        [x for x in base if " action " not in x]
    assert make(5) == make(5)


def test_oracle_reproduces_the_bundled_3x3_games():
    for game, states, value in ((oracle.KInARow(3, 3, 3, gravity=True), 694, (50, 50)),
                                (oracle.LightsOut(3, 7), 1024, (100,))):
        layers, values = oracle.explore(game)
        assert sum(len(layer) for layer in layers) == states
        assert values[game.initial()] == value


@pytest.mark.parametrize("name", sorted(oracle.GAMES))
def test_oracle_agrees_with_expected_files(name):
    assert oracle.answers(name) == oracle.load_expected(name)


def _bench(workload, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload,trace", [("lightsout4-fold8", 0),
                                            ("lightsout4-fold8", 1),
                                            ("tictactoe-query", 1)])
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = _bench(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert "error_rate=0.000000" in done.stdout and "src_lines=" in done.stdout


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCHMARK["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "_work"))
    done = _bench("lightsout4-fold8", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
