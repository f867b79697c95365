"""Record the benchmark of one commit as BENCH_<n>.json.

    python3 tools/bench_record.py --out BENCH_31.json --parent ../parent

Run from the root of a clean checkout, with a checkout of the parent
commit at --parent. For each workload W of BENCHMARK.json it runs
PAIRS alternating pairs of

    python3 bench/run.py --workload W --seed S --seconds T --trace 0

over seeds S = 1, 2, ..., the parent first on odd seeds and this
checkout first on even ones, with T the benchmark's run_seconds. It
records every pair (its metrics and failed operations) and, per
end-to-end metric, both sides' medians and quartiles, the number of
pairs the change wins and whether the claim rule is met; the final
JSON line of this checkout's seed-1 run of each workload; both
commits; and the host: the CPU count, the Python version and whether
the package's bytecode was cached. A run that exits nonzero or is not
correct stops the record, naming its workload, seed and side, and
writes nothing. A file made this way records; it proves a claimed gain only under the rules
of README "Reproducing a speed claim".
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def final_line(side: str, root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last JSON line of one untraced bench/run.py in root; a run that
    exits nonzero, prints nothing or answers wrongly stops the record."""
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         cwd=root, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    line = json.loads(lines[-1]) if lines else {}
    if out.returncode or line.get("correct") is not True:
        raise SystemExit(f"bench_record: {workload} seed {seed} on the {side} side ({root}) "
                         f"exited {out.returncode}, correct={line.get('correct')}:\n"
                         f"{out.stdout[-2000:]}{out.stderr[-2000:]}")
    return line


def values(line: dict) -> dict:
    """The metric values of one run, with its count of failed operations."""
    return {"failed": line["failed"], **{name: m["value"] for name, m in line["metrics"].items()}}


def quartiles(xs: list) -> list:
    q1, _, q3 = statistics.quantiles(xs, n=4)
    return [q1, q3]


def summary(pairs: list, metrics: list) -> dict:
    """Per end-to-end metric: each side's median and quartiles, how many
    pairs the change wins by the metric's direction (a tie wins for
    neither), and whether that meets the claim rule of README
    "Reproducing a speed claim": the change wins at least 9 of 10 pairs,
    and its median beats the parent's by more than q3 - q1 of the
    parent's runs."""
    out = {}
    for m in metrics:
        name, sign = m["name"], 1 if m["better"] == "lower" else -1
        both = [(p["parent"][name], p["change"][name]) for p in pairs
                if name in p["parent"] and name in p["change"]]
        if both:
            parent, change = [a for a, _ in both], [b for _, b in both]
            pm, cm = statistics.median(parent), statistics.median(change)
            (q1, q3), wins = quartiles(parent), sum(sign * (b - a) < 0 for a, b in both)
            out[name] = {"parent_median": pm, "parent_quartiles": [q1, q3],
                         "change_median": cm, "change_quartiles": quartiles(change),
                         "change_wins": wins, "pairs": len(both),
                         "claim_rule_met": (10 * wins >= 9 * len(both)
                                            and sign * (pm - cm) > q3 - q1)}
    return out


def head(root: Path) -> str:
    """The commit checked out at root."""
    return subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                          text=True, check=True).stdout.strip()


def bytecode_cached(root: Path) -> bool:
    """Whether every module of the package has bytecode for this interpreter."""
    src = root / "src" / "ghg"
    tag = sys.implementation.cache_tag
    return all((src / "__pycache__" / f"{p.stem}.{tag}.pyc").is_file() for p in src.glob("*.py"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--parent", type=Path, required=True)
    args = parser.parse_args(argv)

    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    record = {"commit": head(root), "parent_commit": head(args.parent),
              "command": f"python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
                         "--trace 0",
              "runs": {}, "pairs": {}}
    for w in spec["workloads"]:
        pairs = []
        for seed in range(1, PAIRS + 1):
            order = [("parent", args.parent), ("change", root)]
            runs = {side: final_line(side, where, w["name"], seed, seconds)
                    for side, where in (order if seed % 2 else order[::-1])}
            if seed == 1:
                record["runs"][w["name"]] = runs["change"]
            pairs.append({"seed": seed, **{side: values(r) for side, r in runs.items()}})
        record["pairs"][w["name"]] = {"runs": pairs,
                                      "summary": summary(pairs, spec["end_to_end"])}
    record["host"] = {"cpus": os.cpu_count(), "python": platform.python_version(),
                      "bytecode_cached": bytecode_cached(root)}
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
