"""Golden corpora: CLI commands replayed byte for byte.

Each .jsonl golden file holds one JSON object per line with the argv,
the exit code and the exact stdout and stderr of one command.

tests/golden_compute.jsonl pins ``ghg compute --format json`` on every
query of the benchmark grid, answered or refused (see grid_queries),
and on the genus workload's kinds at a few genera.

tests/golden_cli.jsonl pins the rest of the CLI: ``compute --format
text`` on the same queries, ``rational`` in both formats on each of
their distinct (group, base, degree), ``catalog`` in both formats on
the shipped catalog and on an empty one, ``verify`` as text, then
``--help`` of ghg and of each command, ``--version``, and three usage
errors (see USAGE_ARGVS).

tests/golden_verify.json is the exact stdout of ``ghg verify --format
json`` alone, the report at the shipped seed.

Commands run with the repository root as working directory, so the
catalog paths in the argvs (and in the JSON that prints them) are
relative, and with COLUMNS=80, the width argparse wraps help text to.
An argparse exit (from --help or --version) is recorded as its code.
Regenerate all three files (only when an output is meant to change,
naming the changed lines in CHANGES.md) from the repository root with

    PYTHONPATH=src python3 tests/test_golden.py

and list every command whose replay differs, as its file name and argv,
writing nothing and exiting 1 if there is any, with

    PYTHONPATH=src python3 tests/test_golden.py --diff
"""
import argparse
import io
import itertools
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

from ghg import __version__, cli
from ghg.catalog import CatalogError, default_catalog
from ghg.gaugecalc import Sphere, Surface, class_group, make_bundle

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden_compute.jsonl"
GOLDEN_CLI = ROOT / "tests" / "golden_cli.jsonl"
GOLDEN_VERIFY = ROOT / "tests" / "golden_verify.json"
CATALOGS = ("src/ghg/data/catalog.json", "tests/empty_catalog.json")
FORMATS = ("text", "json")
BASES = tuple(Sphere(m) for m in range(1, 8)) + tuple(Surface(g) for g in range(3))
DEGREES = range(1, 12)
GENERA = (0, 1, 2, 4, 16, 64)
HELP_ARGVS = [["--help"]] + [[cmd, "--help"] for cmd in cli._COMMANDS] + [["--version"]]
# an unknown base kind, a degree below 1, and a missing required option
USAGE_ARGVS = [
    ["compute", "--group", "SU2", "--base", "torus:1", "--degree", "1"],
    ["compute", "--group", "SU2", "--base", "sphere:4", "--degree", "0"],
    ["compute", "--base", "sphere:4", "--degree", "1"],
]


def compute_argv(group, base, clazz, degree, fmt="json"):
    argv = ["compute", "--group", group, "--base", base, "--degree", str(degree),
            "--format", fmt]
    if clazz:
        argv.append("--class=" + ",".join(str(c) for c in clazz))
    return argv


def grid_queries():
    """The benchmark grid with nothing filtered out: every catalogued
    group over sphere:1..7 and surface:0..2 whose class group is
    catalogued, every class whose free coordinates lie in -2..2 and
    whose torsion coordinates take every residue, and degrees 1..11.
    The queries the catalog cannot answer exit 2, and are pinned too."""
    catalog = default_catalog()
    queries = []
    for group in catalog.names():
        for base in BASES:
            try:
                orders = class_group(catalog, group, base).generator_orders()
            except CatalogError:
                continue
            axes = [range(-2, 3) if d == 0 else range(d) for d in orders]
            queries += [(group, str(base), clazz, degree)
                        for clazz in itertools.product(*axes) for degree in DEGREES]
    return queries


def golden_queries():
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import GENUS_KINDS

    return grid_queries() + [(group, f"surface:{g}", clazz, degree)
                             for g in GENERA for group, degree, clazz in GENUS_KINDS]


def golden_argvs():
    return [compute_argv(*q) for q in golden_queries()]


def golden_cli_argvs():
    queries = golden_queries()
    argvs = [compute_argv(*q, fmt="text") for q in queries]
    # every grid (group, base, degree), class group catalogued or not, then the genus kinds'
    triples = dict.fromkeys(
        [(group, str(base), degree)
         for group in default_catalog().names() for base in BASES for degree in DEGREES]
        + [(group, base, degree) for group, base, _, degree in queries])
    argvs += [["rational", "--group", group, "--base", base, "--degree", str(degree),
               "--format", fmt] for group, base, degree in triples for fmt in FORMATS]
    argvs += [["catalog", "--catalog", path, "--format", fmt]
              for path in CATALOGS for fmt in FORMATS]
    argvs.append(["verify"])
    return argvs + HELP_ARGVS + USAGE_ARGVS


GOLDENS = {GOLDEN: golden_argvs, GOLDEN_CLI: golden_cli_argvs,
           GOLDEN_VERIFY: lambda: [["verify", "--format", "json"]]}


def record(argv):
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(ROOT)  # contextlib.chdir needs Python 3.11
    try:
        with patch.dict(os.environ, COLUMNS="80"), redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.run(argv)
            except SystemExit as exc:
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_golden(path=GOLDEN):
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def answered_queries(catalog):
    """(group, bundle, degree) of every answered line of the compute golden
    file, read off its JSON document."""
    docs = [json.loads(line["stdout"]) for line in load_golden() if line["exit"] == 0]
    return [(doc["group"], make_bundle(catalog, doc["group"], cli._parse_base(doc["base"]),
                                       doc["class"]), doc["degree"]) for doc in docs]


def test_golden_corpus_covers_every_query_kind():
    lines = load_golden()
    assert [line["argv"] for line in lines] == golden_argvs()
    assert len(lines) == 1243 + 7 * len(GENERA)
    answered = [line for line in lines if line["exit"] == 0]
    assert len(answered) == 496 + 7 * len(GENERA)
    assert all(line["stderr"] == "" for line in answered)
    refused = [line["stderr"] for line in lines if line["exit"] == 2 and line["stdout"] == ""]
    # 597 grid queries run past a shallow pi table, 150 need a pairing the catalog lacks
    assert len(refused) == 747
    assert sum("pi table for" in err for err in refused) == 597
    assert sum("is not catalogued" in err for err in refused) == 150


def test_golden_cli_covers_every_command():
    lines = load_golden(GOLDEN_CLI)
    assert [line["argv"] for line in lines] == golden_cli_argvs()
    # compute refuses the same queries with the same message in both formats
    golden = load_golden()
    computes = [(line["exit"], line["stderr"]) for line in lines[:len(golden)]]
    assert computes == [(line["exit"], line["stderr"]) for line in golden]
    usage = len(USAGE_ARGVS)
    assert all(line["exit"] == 0 and line["stderr"] == "" for line in lines[len(golden):-usage])
    # help text opens with its usage line; --version prints the version
    stdouts = {shlex.join(line["argv"]): line["stdout"]
               for line in lines[-usage - len(HELP_ARGVS):-usage]}
    assert stdouts.pop("--version") == f"ghg {__version__}\n"
    assert all(out.startswith("usage: ghg") for out in stdouts.values())
    assert all(line["exit"] == 1 and line["stdout"] == "" and
               line["stderr"].startswith("ghg: usage error: ") for line in lines[-usage:])
    empty = {line["argv"][-1]: line["stdout"] for line in lines
             if line["argv"][:3] == ["catalog", "--catalog", CATALOGS[1]]}
    # an empty catalog lists nothing as text
    assert empty["text"] == "" and json.loads(empty["json"])["entries"] == []


def render(path, argvs) -> str:
    """The text of a golden file: a record per line, or for a .json file
    the stdout of its one command."""
    if path.suffix == ".json":
        (argv,) = argvs
        return record(argv)["stdout"]
    return "".join(json.dumps(record(cmd), sort_keys=True) + "\n" for cmd in argvs)


def changed_lines(path=GOLDEN):
    if path.suffix == ".json":
        argvs = GOLDENS[path]()
        return [] if render(path, argvs) == path.read_text(encoding="utf-8") else argvs
    return [want["argv"] for want in load_golden(path) if record(want["argv"]) != want]


def test_golden_corpus_replays_byte_for_byte():
    assert changed_lines() == []


def test_golden_cli_replays_byte_for_byte():
    assert changed_lines(GOLDEN_CLI) == []


def test_diff_exits_1_when_a_line_differs(tmp_path, monkeypatch, capsys):
    lines = load_golden()[:3]
    path = tmp_path / "golden.jsonl"
    monkeypatch.setitem(globals(), "GOLDENS", {path: golden_argvs})
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    assert main(["--diff"]) == 0 and capsys.readouterr().out == ""
    lines[1]["stdout"] = lines[1]["stdout"].replace(" ", "  ", 1)
    path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    assert main(["--diff"]) == 1
    assert capsys.readouterr().out == f"golden.jsonl: {shlex.join(lines[1]['argv'])}\n"


def test_a_json_golden_file_is_one_stdout(tmp_path, monkeypatch, capsys):
    path = tmp_path / "version.json"
    monkeypatch.setitem(globals(), "GOLDENS", {path: lambda: [["--version"]]})
    path.write_text(f"ghg {__version__}\n\n", encoding="utf-8")
    assert main(["--diff"]) == 1
    assert capsys.readouterr().out == "version.json: --version\n"
    assert main([]) == 0 and path.read_text(encoding="utf-8") == f"ghg {__version__}\n"
    assert main(["--diff"]) == 0 and capsys.readouterr().out == ""


def main(argv):
    """Regenerate the golden files, or with --diff list the commands whose
    replay differs and exit 1 if there is any."""
    parser = argparse.ArgumentParser(description="regenerate or diff the golden corpora")
    parser.add_argument("--diff", action="store_true",
                        help="print the file and argv of each line whose replay differs, "
                             "and exit 1 if any does; write nothing")
    if parser.parse_args(argv).diff:
        changed = [f"{path.name}: {shlex.join(cmd)}"
                   for path in GOLDENS for cmd in changed_lines(path)]
        for line in changed:
            print(line)
        return 1 if changed else 0
    for path, argvs in GOLDENS.items():
        path.write_text(render(path, argvs()), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
