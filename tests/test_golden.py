"""Golden corpus: ``ghg compute --format json`` replayed byte for byte.

tests/golden_compute.jsonl holds one JSON object per line with the argv,
the exit code and the exact stdout and stderr of a compute command. The
queries are every query of the benchmark's sweep corpus, the grid
queries that corpus leaves out as refused, and the genus workload's
kinds at a few genera. Regenerate the file (only when an output is meant
to change, naming the changed lines in CHANGES.md) from the repository
root with

    PYTHONPATH=src python3 tests/test_golden.py
"""
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ghg import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_compute.jsonl"
GENERA = (0, 1, 2, 4, 16, 64)


def compute_argv(group, base, clazz, degree):
    argv = ["compute", "--group", group, "--base", base, "--degree", str(degree),
            "--format", "json"]
    if clazz:
        argv.append("--class=" + ",".join(str(c) for c in clazz))
    return argv


def golden_argvs():
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import GENUS_KINDS, load_corpus

    corpus = load_corpus()
    refused = [q for q in corpus["excluded"] if q["reason"] == "refused"]
    queries = [(q["group"], q["base"], q["class"], q["degree"])
               for q in corpus["queries"] + refused]
    queries += [(group, f"surface:{g}", clazz, degree)
                for g in GENERA for group, degree, clazz in GENUS_KINDS]
    return [compute_argv(*q) for q in queries]


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_golden():
    with GOLDEN.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_golden_corpus_covers_every_query_kind():
    lines = load_golden()
    assert len(lines) == 464 + 7 + 7 * len(GENERA)
    assert sum(1 for line in lines if line["exit"] == 2) == 7
    assert all(line["exit"] in (0, 2) for line in lines)


def test_golden_corpus_replays_byte_for_byte():
    changed = [want["argv"] for want in load_golden() if record(want["argv"]) != want]
    assert changed == []


if __name__ == "__main__":
    with GOLDEN.open("w", encoding="utf-8") as fh:
        for argv in golden_argvs():
            fh.write(json.dumps(record(argv), sort_keys=True) + "\n")
