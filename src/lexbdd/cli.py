"""Command line front end: solve one game, compare written reports.

Exit codes: 0 when the game was strongly solved, 2 when a budget ran
out before that, 1 on any error, usage errors included.
"""

from __future__ import annotations

import argparse
import sys

from .bench import DEFAULT_NODE_BUDGET, DEFAULT_TIME_BUDGET_S, RunConfig, compare, \
    format_compare, read_csv, run
from .games import GameSolveError, GameSpecError
from .search import PartitionStrategy


class _Parser(argparse.ArgumentParser):
    """Raises ``ValueError`` on a usage error: argparse's exit code 2 means a budget ran out."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lexbdd",
        description="Strongly solve declarative games with partitioned symbolic search.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve_p = sub.add_parser("solve", help="explore and solve one game file")
    solve_p.add_argument("game", help="path to a .game file")
    solve_p.add_argument("--partition", default="none",
                         help="none | fold-states-lex:K | states-lex:BOUND; partitions "
                              "the forward image's sources only")
    solve_p.add_argument("--time-budget", type=float, default=DEFAULT_TIME_BUDGET_S,
                         metavar="S",
                         help="wall clock budget in seconds, parse and compile included")
    solve_p.add_argument("--node-budget", type=int, default=DEFAULT_NODE_BUDGET,
                         metavar="N", help="store size budget in nodes")
    solve_p.add_argument("--csv", metavar="PATH", help="write the per-layer report here")
    solve_p.add_argument("--dot-dir", metavar="PATH",
                         help="dump every forward layer, one root per lex part, as a DOT "
                              "file into this directory")

    cmp_p = sub.add_parser("compare", help="normalize reports against a baseline report")
    cmp_p.add_argument("csvs", nargs="+", help="report CSVs to compare")
    cmp_p.add_argument("--baseline", required=True, help="baseline report CSV")
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_compare(args)
    except (GameSpecError, GameSolveError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # the diagram kernels recurse once per variable level
        print("error: variable order too deep for the recursive BDD kernels", file=sys.stderr)
        return 1


def _cmd_solve(args) -> int:
    config = RunConfig(game_path=args.game,
                       strategy=PartitionStrategy.parse(args.partition),
                       time_budget_s=args.time_budget,
                       node_budget=args.node_budget,
                       csv_path=args.csv,
                       dot_dir=args.dot_dir)
    report = run(config)
    forward = sum(1 for r in report.rows if r.direction == "forward")
    backward = sum(1 for r in report.rows if r.direction == "backward")
    print(f"game={report.game} strategy={report.strategy} "
          f"forward_layers={forward} backward_layers={backward} solved={report.solved}")
    if report.initial_value is not None:
        value = "/".join(str(v) for v in report.initial_value)
        print(f"initial_value={value}")
    return 0 if report.solved else 2


def _cmd_compare(args) -> int:
    baseline = read_csv(args.baseline)
    reports = [read_csv(path) for path in args.csvs]
    sys.stdout.write(format_compare(compare(reports, baseline)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
