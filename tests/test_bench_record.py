"""tools/bench_record.py: the pair summary follows each metric's direction
and gives each side's median and quartiles; a run that fails or answers
wrongly stops the record, and the record names both commits."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

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
                   "change_wins": 2, "pairs": 3, "claim_rule_met": False},
        "queries_per_s": {"parent_median": 0.5, "parent_quartiles": [0.25, 0.5],
                          "change_median": 1.0, "change_quartiles": [1 / 3, 1.0],
                          "change_wins": 2, "pairs": 3, "claim_rule_met": False},
    }


def pairs_of(parent, change):
    """One wall_s reading per side and pair, over seeds 1, 2, ..."""
    return [{"seed": s, "parent": {"wall_s": p}, "change": {"wall_s": c}}
            for s, (p, c) in enumerate(zip(parent, change), 1)]


PARENT = [10.0, 10.2, 10.4, 10.6, 10.8, 11.0, 11.2, 11.4, 11.6, 11.8]  # q3 - q1 = 1.1


@pytest.mark.parametrize("change, met", [
    ([x - 1.2 for x in PARENT], True),  # 10 of 10 wins, gap 1.2
    ([x - 1.2 for x in PARENT[:9]] + [20.0], True),  # 9 of 10
    ([x - 1.2 for x in PARENT[:8]] + [20.0, 20.0], False),  # 8 of 10
    ([x - 1.2 for x in PARENT[:8]] + PARENT[8:], False),  # 8 wins and 2 ties
    ([x - 1.0 for x in PARENT], False),  # gap 1.0, inside the parent's quartile spread
    ([x + 1.2 for x in PARENT], False),  # the gap the wrong way
], ids=["all-pairs", "nine-pairs", "eight-pairs", "tie", "gap-inside-spread", "worse"])
def test_claim_rule(change, met):
    """claim_rule_met needs both 9 of 10 wins and a median gain past the
    parent's quartile spread."""
    got = bench_record.summary(pairs_of(PARENT, change), [{"name": "wall_s", "better": "lower"}])
    assert got["wall_s"]["claim_rule_met"] is met



FAKE_RUN = """import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print(json.dumps({"correct": CORRECT, "failed": 0,
                  "metrics": {"wall_s": {"value": seed, "unit": "s"}}}))
sys.exit(CODE)
"""


def fake_checkout(root, correct=True, code=0):
    """A one-commit git checkout of one workload, whose bench/run.py
    prints a final line with the given correctness and exits with code."""
    (root / "bench").mkdir(parents=True)
    (root / "bench" / "run.py").write_text(
        FAKE_RUN.replace("CORRECT", repr(correct)).replace("CODE", str(code)), encoding="utf-8")
    spec = {"run_seconds": 1, "workloads": [{"name": "sweep"}],
            "end_to_end": [{"name": "wall_s", "better": "lower"}]}
    (root / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
    git = ["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
           "-c", "commit.gpgsign=false"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", root.name]):
        subprocess.run(git + args, cwd=root, check=True, capture_output=True)
    return root


@pytest.mark.parametrize("correct, code", [(False, 0), (True, 1)], ids=["wrong", "exit-1"])
def test_a_failed_or_wrong_run_stops_the_record(tmp_path, monkeypatch, correct, code):
    parent = fake_checkout(tmp_path / "parent", correct, code)
    with pytest.raises(SystemExit, match="sweep seed 3 on the parent side"):
        bench_record.final_line("parent", parent, "sweep", 3, 1)
    change = fake_checkout(tmp_path / "change")
    monkeypatch.chdir(change)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit, match="sweep seed 1 on the parent side"):
        bench_record.main(["--out", str(out), "--parent", str(parent)])
    assert not out.exists()


def test_record_names_both_commits(tmp_path, monkeypatch):
    parent, change = fake_checkout(tmp_path / "parent"), fake_checkout(tmp_path / "change")
    monkeypatch.setattr(bench_record, "PAIRS", 2)
    monkeypatch.chdir(change)
    out = tmp_path / "BENCH.json"
    assert bench_record.main(["--out", str(out), "--parent", str(parent)]) == 0
    record = json.loads(out.read_text(encoding="utf-8"))
    heads = bench_record.head(change), bench_record.head(parent)
    assert heads[0] != heads[1]
    assert (record["commit"], record["parent_commit"]) == heads
    assert [p["seed"] for p in record["pairs"]["sweep"]["runs"]] == [1, 2]
