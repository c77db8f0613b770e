"""Decision diagrams with complement edges, lexicographic state-set
partitioning, and a partitioned symbolic game solver."""

from .bdd import FALSE, TRUE, BddStore
from .counting import CountTable, precompute_counts
from .ranking import NotAMemberError, member_rank_or_none, rank, unrank
from .partition import (LexPartition, SplitPair, fold_states_lex, split, split_at_count,
                        states_lex_bounded)
from .search import (LayerSequence, LayerStat, Move, PartitionStrategy,
                     SearchLimits, TransitionSystem, image, layered_bfs, preimage)
from .games import (GameSolveError, GameSpec, GameSpecError, SolutionTable,
                    bundled_game_names, bundled_game_path, compile_game,
                    initial_edge, load_game, parse_game, solve)
from .bench import RunConfig, RunReport, compare, read_csv, run, write_csv

__version__ = "0.1.0"

__all__ = [
    "FALSE", "TRUE", "BddStore",
    "CountTable", "precompute_counts",
    "NotAMemberError", "member_rank_or_none", "rank", "unrank",
    "LexPartition", "SplitPair", "fold_states_lex", "split", "split_at_count",
    "states_lex_bounded",
    "LayerSequence", "LayerStat", "Move", "PartitionStrategy",
    "SearchLimits", "TransitionSystem", "image", "layered_bfs", "preimage",
    "GameSolveError", "GameSpec", "GameSpecError", "SolutionTable",
    "bundled_game_names", "bundled_game_path", "compile_game",
    "initial_edge", "load_game", "parse_game", "solve",
    "RunConfig", "RunReport", "compare", "read_csv", "run", "write_csv",
]
