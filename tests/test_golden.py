"""Golden corpora: CLI commands replayed byte for byte.

Each golden file holds one JSON object per line with the argv, the exit
code and the exact stdout and stderr of one command.

tests/golden_compute.jsonl pins ``ghg compute --format json`` on every
query of the benchmark's sweep corpus, the grid queries that corpus
leaves out as refused, and the genus workload's kinds at a few genera.

tests/golden_cli.jsonl pins the rest of the CLI: ``compute --format
text`` on the same queries, ``rational`` in both formats on each of
their distinct (group, base, degree), ``catalog`` in both formats on
the shipped catalog and on an empty one, and ``verify`` as text.

Commands run with the repository root as working directory, so the
catalog paths in the argvs (and in the JSON that prints them) are
relative. Regenerate both files (only when an output is meant to
change, naming the changed lines in CHANGES.md) from the repository
root with

    PYTHONPATH=src python3 tests/test_golden.py

and list every line whose replay differs, as its file name and argv,
writing nothing, with

    PYTHONPATH=src python3 tests/test_golden.py --diff
"""
import argparse
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ghg import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_compute.jsonl"
GOLDEN_CLI = ROOT / "tests" / "golden_cli.jsonl"
CATALOGS = ("src/ghg/data/catalog.json", "tests/empty_catalog.json")
FORMATS = ("text", "json")
GENERA = (0, 1, 2, 4, 16, 64)


def compute_argv(group, base, clazz, degree, fmt="json"):
    argv = ["compute", "--group", group, "--base", base, "--degree", str(degree),
            "--format", fmt]
    if clazz:
        argv.append("--class=" + ",".join(str(c) for c in clazz))
    return argv


def golden_queries():
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import GENUS_KINDS, load_corpus

    corpus = load_corpus()
    refused = [q for q in corpus["excluded"] if q["reason"] == "refused"]
    queries = [(q["group"], q["base"], q["class"], q["degree"])
               for q in corpus["queries"] + refused]
    queries += [(group, f"surface:{g}", clazz, degree)
                for g in GENERA for group, degree, clazz in GENUS_KINDS]
    return queries


def golden_argvs():
    return [compute_argv(*q) for q in golden_queries()]


def golden_cli_argvs():
    queries = golden_queries()
    argvs = [compute_argv(*q, fmt="text") for q in queries]
    triples = dict.fromkeys((group, base, degree) for group, base, _, degree in queries)
    argvs += [["rational", "--group", group, "--base", base, "--degree", str(degree),
               "--format", fmt] for group, base, degree in triples for fmt in FORMATS]
    argvs += [["catalog", "--catalog", path, "--format", fmt]
              for path in CATALOGS for fmt in FORMATS]
    argvs.append(["verify"])
    return argvs


GOLDENS = {GOLDEN: golden_argvs, GOLDEN_CLI: golden_cli_argvs}


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # contextlib.chdir needs Python 3.11
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.run(argv)
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_golden(path=GOLDEN):
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def test_golden_corpus_covers_every_query_kind():
    lines = load_golden()
    assert len(lines) == 464 + 7 + 7 * len(GENERA)
    # the 7 refused grid queries have torsion order above the bound, but
    # all are trivial bundles, which split before the bound is checked
    assert all(line["exit"] == 0 for line in lines)


def test_golden_cli_covers_every_command():
    lines = load_golden(GOLDEN_CLI)
    assert [line["argv"] for line in lines] == golden_cli_argvs()
    assert all(line["exit"] == 0 and line["stderr"] == "" for line in lines)
    empty = {line["argv"][-1]: line["stdout"] for line in lines
             if line["argv"][:3] == ["catalog", "--catalog", CATALOGS[1]]}
    # an empty catalog lists nothing as text
    assert empty["text"] == "" and json.loads(empty["json"])["entries"] == []


def changed_lines(path=GOLDEN):
    return [want["argv"] for want in load_golden(path) if record(want["argv"]) != want]


def test_golden_corpus_replays_byte_for_byte():
    assert changed_lines() == []


def test_golden_cli_replays_byte_for_byte():
    assert changed_lines(GOLDEN_CLI) == []


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="regenerate or diff the golden corpora")
    parser.add_argument("--diff", action="store_true",
                        help="print the file and argv of each line whose replay differs; "
                             "write nothing")
    if parser.parse_args().diff:
        for path in GOLDENS:
            for argv in changed_lines(path):
                print(f"{path.name}: {shlex.join(argv)}")
    else:
        for path, argvs in GOLDENS.items():
            with path.open("w", encoding="utf-8") as fh:
                for argv in argvs():
                    fh.write(json.dumps(record(argv), sort_keys=True) + "\n")
