"""Query lists, statistics and answer checks shared by the benchmark's
entry point (run.py), its fresh-interpreter worker (worker.py) and the
tests.

Nothing here imports ghg: run.py stays outside the package and only the
worker loads it.
"""
from __future__ import annotations

import json
import random
import statistics
from math import gcd
from pathlib import Path

HERE = Path(__file__).resolve().parent
CORPUS_PATH = HERE / "corpus.json"

WORKLOADS = ("cold_cli", "sweep", "genus", "verify")

# the tail is read at the highest percentile with this many samples beyond it
MIN_BEYOND = 10

# genus ladder: every (group, degree, class) kind at every rung; all of
# them resolve by the free-quotient rule, so the time is linear algebra
GENUS_RUNGS = (4, 8, 12, 16, 24, 32, 48, 64)
GENUS_KINDS = (
    ("TEST", 1, (0,)),
    ("TEST", 1, (1,)),
    ("TEST", 1, (2,)),
    ("U1", 1, (0,)),
    ("SU2", 2, ()),
    ("SU2", 3, ()),
    ("SU3", 3, ()),
)

# verify: one pass is this many fresh processes at the shipped default
# seed. Seeds drawn from the benchmark seed are run and checked once per
# run but not timed: their cost ranges from 0.6 s to over 8 s by seed,
# which would make every verify timing a function of the seed.
VERIFY_PASS_PROCESSES = 3
VERIFY_DERIVED_SEEDS = 2
VERIFY_MIN_CHECKS = 14


class WrongAnswer(Exception):
    """An output check failed; the run aborts instead of timing it."""


def query(group: str, base: str, clazz, degree: int) -> dict:
    return {"group": group, "base": base, "class": list(clazz), "degree": degree}


def load_corpus() -> dict:
    return json.loads(CORPUS_PATH.read_text(encoding="utf-8"))


def make_queries(workload: str, seed: int) -> list:
    """The inputs of one pass of a workload; a pure function of the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cold_cli":
        out = [query("SU2", "sphere:4", (k,), 2) for k in range(-24, 25)]
    elif workload == "sweep":
        out = [dict(q) for q in load_corpus()["queries"]]
    elif workload == "genus":
        out = [
            query(group, f"surface:{g}", clazz, degree)
            for g in GENUS_RUNGS
            for group, degree, clazz in GENUS_KINDS
        ]
    elif workload == "verify":
        # None runs `ghg verify` without --seed, i.e. at the shipped default
        return [None] * VERIFY_PASS_PROCESSES
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(out)
    return out


def checked_only(workload: str, seed: int) -> list:
    """Inputs run and checked once per run, outside the timed passes."""
    if workload != "verify":
        return []
    rng = random.Random(f"{workload}-checked:{seed}")
    return [rng.randrange(1, 10**6) for _ in range(VERIFY_DERIVED_SEEDS)]


def cold_cli_expected(k: int) -> str:
    """Text the CLI must print for pi_2 of the SU2-bundle over S^4 with
    class k: Z/gcd(k, 12), where a trivial group prints as 0."""
    d = gcd(k, 12)
    return "0" if d == 1 else f"Z/{d}"


def check_cold_cli(q: dict, returncode: int, output: str) -> None:
    want = cold_cli_expected(q["class"][0])
    if returncode != 0 or output.strip() != want:
        raise WrongAnswer(
            f"compute {q}: exit {returncode}, output {output.strip()!r}, want {want!r}"
        )


def check_ranks(q: dict, ranks, rational_rank: int) -> None:
    """Every reported group (the resolved one or each candidate) must have
    the rank of the closed rational form."""
    bad = [r for r in ranks if r != rational_rank]
    if not ranks or bad:
        raise WrongAnswer(
            f"{q}: ranks {list(ranks)} disagree with rational rank {rational_rank}"
        )


def check_verify(seed, returncode: int, output: str) -> int:
    """A verify process must pass every check it runs, and run at least
    the VERIFY_MIN_CHECKS checks the package shipped with; returns the
    number of checks."""
    lines = output.strip().splitlines()
    passed = sum(1 for line in lines if line.startswith("PASS "))
    summary = lines[-1] if lines else ""
    if (
        returncode != 0
        or summary != f"{passed}/{passed} checks passed"
        or passed < VERIFY_MIN_CHECKS
    ):
        rest = " | ".join(line for line in lines if not line.startswith("PASS "))
        raise WrongAnswer(f"verify seed {seed}: exit {returncode}: {rest}")
    return passed


def tail(samples) -> tuple[float, float]:
    """(value, percentile) at the highest percentile that leaves at least
    MIN_BEYOND samples strictly beyond it."""
    n = len(samples)
    if n <= MIN_BEYOND:
        raise ValueError(f"a tail needs more than {MIN_BEYOND} samples, got {n}")
    ordered = sorted(samples)
    return ordered[n - 1 - MIN_BEYOND], 100.0 * (n - MIN_BEYOND) / n


def quartiles(values) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3
