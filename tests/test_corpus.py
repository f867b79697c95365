"""Properties over the benchmark's query corpus (bench/corpus.json): the
grid queries the sweep answers, and those it leaves out."""
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from ghg import cli
from ghg.catalog import default_catalog
from ghg.exactseq import resolve_extension
from ghg.fgab import direct_sum
from ghg.gaugecalc import Sphere, Surface, gauge_homotopy, make_bundle

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "bench" / "corpus.json"


def load_corpus():
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def run_json(command, q):
    argv = [command, "--group", q["group"], "--base", q["base"],
            "--degree", str(q["degree"]), "--format", "json"]
    if q["class"]:
        argv.append("--class=" + ",".join(str(c) for c in q["class"]))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.run(argv)
    return code, json.loads(out.getvalue())


def test_deadline_queries_answer_fast():
    """Work is bounded: the queries the sweep leaves out for running past
    its per-query deadline answer, with the rank of the rational closed
    form, in well under a second each."""
    queries = [q for q in load_corpus()["excluded"] if q["reason"] == "above the deadline"]
    assert len(queries) == 25
    start = time.perf_counter()
    for q in queries:
        code, doc = run_json("compute", q)
        assert code == 0, q
        groups = [doc["result"]] if doc["resolved"] else doc["candidates"]
        _, rational = run_json("rational", q)
        assert [g["rank"] for g in groups] == [rational["dimension"]] * len(groups), q
    assert time.perf_counter() - start < 5.0


def test_trivial_bundles_split():
    """A trivial bundle answers sub + quot, which is always one of the
    extension's candidates."""
    cat = default_catalog()
    trivial = [q for q in load_corpus()["queries"] if not any(q["class"])]
    assert trivial
    for q in trivial:
        kind, size = q["base"].split(":")
        base = Sphere(int(size)) if kind == "sphere" else Surface(int(size))
        bundle = make_bundle(cat, q["group"], base, q["class"])
        result = gauge_homotopy(cat, q["group"], bundle, q["degree"])
        split = direct_sum(result.sub, result.quot)
        assert result.resolved == split, q
        assert split in resolve_extension(result.sub, result.quot).candidates, q


@pytest.mark.parametrize("trace", [[], ["--trace"]], ids=["untraced", "traced"])
def test_benchmark_worker_answers_the_corpus(trace):
    """bench/worker.py, run as the benchmark runs it, answers every corpus
    query through the real engine, with the rank checks it applies to
    each answer, untraced and under its tracer."""
    queries = load_corpus()["queries"]
    proc = subprocess.run(
        [sys.executable, "bench/worker.py", "queries", *trace],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        input=json.dumps({"queries": queries}), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["failed"] == 0 and len(report["status"]) == len(queries) == 464


def test_corpus_generator_grid_covers_the_corpus():
    """bench/make_corpus.py, imported as its own script would be, walks
    the shipped grid through the library names it needs, and every
    corpus query lies on that grid."""
    probe = ("import json, sys; sys.path.insert(0, 'bench'); import make_corpus; "
             "from ghg.catalog import default_catalog; "
             "print(json.dumps(make_corpus.grid(default_catalog())))")
    proc = subprocess.run(
        [sys.executable, "-c", probe], cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    grid = [json.dumps(q, sort_keys=True) for q in json.loads(proc.stdout)]
    assert len(grid) == len(set(grid)) == 496
    assert {json.dumps(q, sort_keys=True) for q in load_corpus()["queries"]} <= set(grid)


def test_benchmark_self_tests_pass():
    """The benchmark harness's own unittest suite passes, run as its
    docstring says, from the repository root."""
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench/tests"],
        cwd=ROOT, env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Ran 19 tests" in proc.stderr
