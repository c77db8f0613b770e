"""Benchmark runs: explore and solve one game per strategy, report CSV.

One run produces one CSV with a row per (direction, layer) and the
fixed column order ``game, strategy, direction, layer, time_ms,
total_nodes, max_image_nodes, layer_states``.  ``compare`` normalizes a
set of runs against a baseline run of the same game: layers-completed
ratio, total-time ratio over the layers both runs completed, and the
ratio of the largest per-image diagram sizes over those layers.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

from .bdd import FALSE
from .games import _classify_layers, compile_game, initial_edge, load_game
from .search import LayerStat, PartitionStrategy, SearchLimits, layered_bfs

CSV_COLUMNS = ("game", "strategy", "direction", "layer", "time_ms",
               "total_nodes", "max_image_nodes", "layer_states")

DEFAULT_TIME_BUDGET_S = 60.0
DEFAULT_NODE_BUDGET = 10 ** 7


@dataclass(frozen=True)
class RunConfig:
    game_path: str
    strategy: PartitionStrategy = PartitionStrategy("none")
    time_budget_s: float = DEFAULT_TIME_BUDGET_S
    node_budget: int = DEFAULT_NODE_BUDGET
    csv_path: str | None = None
    dot_dir: str | None = None

    def __post_init__(self):
        if not self.time_budget_s > 0:  # also rejects NaN
            raise ValueError(f"time budget must be positive, got {self.time_budget_s}")
        if not self.node_budget > 0:  # also rejects NaN
            raise ValueError(f"node budget must be positive, got {self.node_budget}")


@dataclass
class RunReport:
    game: str
    strategy: str
    rows: list[LayerStat]
    solved: bool
    initial_value: tuple | None = field(default=None, compare=False)


def run(config: RunConfig) -> RunReport:
    """Forward BFS then retrograde solve under one strategy and budget.

    Runs the solver's layer loop only and builds no value sets: the
    initial value is the class of layer 0's single state.
    """
    spec = load_game(config.game_path)
    ts = compile_game(spec)
    init = initial_edge(ts, spec)

    start = time.perf_counter()
    limits = SearchLimits(config.time_budget_s, config.node_budget)
    layers = layered_bfs(ts, init, config.strategy, limits)
    rows = list(layers.stats)
    solved = False
    initial_value = None
    if layers.complete:
        remaining = config.time_budget_s - (time.perf_counter() - start)
        if remaining > 0:
            _, layer_classes, stats, solved = _classify_layers(
                ts, spec, layers, config.strategy, SearchLimits(remaining, config.node_budget))
            rows.extend(stats)
            if solved:
                initial_value = next(key for key, edge in layer_classes[0].items()
                                     if edge != FALSE)

    if config.dot_dir is not None:
        out = Path(config.dot_dir)
        out.mkdir(parents=True, exist_ok=True)
        for d, edge in enumerate(layers.layers):
            path = out / f"{spec.name}_layer_{d:03d}.dot"
            path.write_text(ts.store.to_dot({f"layer_{d}": edge}), encoding="utf-8")

    report = RunReport(game=spec.name, strategy=str(config.strategy),
                       rows=rows, solved=solved, initial_value=initial_value)
    if config.csv_path is not None:
        write_csv(report, config.csv_path)
    return report


def write_csv(report: RunReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for row in report.rows:
            writer.writerow([report.game, report.strategy, row.direction, row.index,
                             repr(row.time_ms), row.total_nodes,
                             row.max_image_nodes, row.states])


def read_csv(path) -> RunReport:
    """Re-parse a written report; the solved flag is recovered from the rows.

    A run is solved exactly when the backward pass reached layer 0.
    """
    rows: list[LayerStat] = []
    game = None
    strategy = None
    with open(path, "r", newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            if tuple(header) != CSV_COLUMNS:
                raise ValueError(f"unexpected CSV header {header}")
            for record in reader:
                if len(record) != len(CSV_COLUMNS):
                    raise ValueError(f"expected {len(CSV_COLUMNS)} fields, got {len(record)}")
                rows.append(LayerStat(direction=record[2], index=int(record[3]),
                                      time_ms=float(record[4]), total_nodes=int(record[5]),
                                      max_image_nodes=int(record[6]),
                                      states=int(record[7])))
                game, strategy = record[0], record[1]
        except (ValueError, csv.Error) as exc:
            raise ValueError(f"{path}, line {reader.line_num or 1}: {exc}") from None
    if game is None:
        raise ValueError(f"{path}: no data rows")
    solved = any(r.direction == "backward" and r.index == 0 for r in rows)
    return RunReport(game=game, strategy=strategy, rows=rows, solved=solved)


@dataclass(frozen=True)
class CompareRow:
    game: str
    strategy: str
    layers_ratio: float
    time_ratio: float
    max_nodes_ratio: float


def _ratio(num: float, den: float) -> float:
    if den == 0:
        return 1.0 if num == 0 else float("inf")
    return num / den


def compare(reports: list[RunReport], baseline: RunReport) -> list[CompareRow]:
    """Per-strategy ratios against the baseline run of the same game.

    Time and node ratios are taken over the (direction, layer) rows both
    runs completed, so a timed-out run is compared on common ground.
    """
    base_rows = {(r.direction, r.index): r for r in baseline.rows}
    out = []
    for report in reports:
        if report.game != baseline.game:
            raise ValueError(
                f"cannot compare {report.game!r} against baseline {baseline.game!r}")
        common = [(r, base_rows[(r.direction, r.index)]) for r in report.rows
                  if (r.direction, r.index) in base_rows]
        time_ratio = _ratio(sum(r.time_ms for r, _ in common),
                            sum(b.time_ms for _, b in common))
        max_nodes_ratio = _ratio(max((r.max_image_nodes for r, _ in common), default=0),
                                 max((b.max_image_nodes for _, b in common), default=0))
        out.append(CompareRow(game=report.game, strategy=report.strategy,
                              layers_ratio=_ratio(len(report.rows), len(baseline.rows)),
                              time_ratio=time_ratio,
                              max_nodes_ratio=max_nodes_ratio))
    return out


def format_compare(rows: list[CompareRow]) -> str:
    lines = ["game,strategy,layers_ratio,time_ratio,max_nodes_ratio"]
    for row in rows:
        lines.append(f"{row.game},{row.strategy},{row.layers_ratio:.2f},"
                     f"{row.time_ratio:.2f},{row.max_nodes_ratio:.2f}")
    return "\n".join(lines) + "\n"
