"""tools/bench_record.py: the pair summary follows each metric's direction
and gives each side's median and quartiles."""
import importlib.util
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
SPEC = importlib.util.spec_from_file_location("bench_record", PATH)
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)


def test_summary_counts_wins_by_direction():
    metrics = [{"name": "wall_s", "better": "lower"},
               {"name": "queries_per_s", "better": "higher"},
               {"name": "absent", "better": "lower"}]
    pairs = [{"seed": s, "parent": {"wall_s": p, "queries_per_s": 1 / p},
              "change": {"wall_s": c, "queries_per_s": 1 / c}}
             for s, p, c in ((1, 2.0, 1.0), (2, 2.0, 3.0), (3, 4.0, 1.0))]
    got = bench_record.summary(pairs, metrics)
    assert got == {
        "wall_s": {"parent_median": 2.0, "parent_quartiles": [2.0, 4.0],
                   "change_median": 1.0, "change_quartiles": [1.0, 3.0],
                   "change_wins": 2, "pairs": 3},
        "queries_per_s": {"parent_median": 0.5, "parent_quartiles": [0.25, 0.5],
                          "change_median": 1.0, "change_quartiles": [1 / 3, 1.0],
                          "change_wins": 2, "pairs": 3},
    }

