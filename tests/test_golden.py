"""Golden corpus: ``ghg compute --format json`` replayed byte for byte.

tests/golden_compute.jsonl holds one JSON object per line with the argv,
the exit code and the exact stdout and stderr of a compute command. The
queries are every query of the benchmark's sweep corpus, the grid
queries that corpus leaves out as refused, and the genus workload's
kinds at a few genera. Regenerate the file (only when an output is meant
to change, naming the changed lines in CHANGES.md) from the repository
root with

    PYTHONPATH=src python3 tests/test_golden.py

and list the argv of every line whose replay differs, writing nothing, with

    PYTHONPATH=src python3 tests/test_golden.py --diff
"""
import argparse
import io
import json
import shlex
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
    # the 7 refused grid queries have torsion order above the bound, but
    # all are trivial bundles, which split before the bound is checked
    assert all(line["exit"] == 0 for line in lines)


def changed_argvs():
    return [want["argv"] for want in load_golden() if record(want["argv"]) != want]


def test_golden_corpus_replays_byte_for_byte():
    assert changed_argvs() == []


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="regenerate or diff the golden corpus")
    parser.add_argument("--diff", action="store_true",
                        help="print the argv of each line whose replay differs; write nothing")
    if parser.parse_args().diff:
        for argv in changed_argvs():
            print(shlex.join(argv))
    else:
        with GOLDEN.open("w", encoding="utf-8") as fh:
            for argv in golden_argvs():
                fh.write(json.dumps(record(argv), sort_keys=True) + "\n")
