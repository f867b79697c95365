"""Measure the current commit and write bench/record.json.

    python3 bench/record.py [--runs 10] [--seconds 20] [--workloads w1,w2]

For each workload this runs ``bench/run.py`` ``--runs`` times untraced,
each with another seed, and once traced, every run in its own process.
It records the median and quartiles of each end-to-end metric, the
spread (interquartile distance over the median) against the metric's
bound in BENCHMARK.json, the traced run's per-layer metrics, and what
BENCHMARK.json has no room for: why each workload exists, which
end-to-end metric each layer metric should move, the sweep deadline and
the gap it sits in, the tail percentile and sample count of each
workload, and the machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, load_corpus, quartiles  # noqa: E402

RECORD_PATH = HERE / "record.json"

WHY = {
    "cold_cli": (
        "What a command-line user pays on every query: one fresh `python -m ghg.cli "
        "compute` process per query over the 49-class SU2 / sphere:4 / degree-2 gcd "
        "table. Interpreter start, package import and catalog load dominate; the math "
        "layers take under 2 ms, so startup work shows here and barely anywhere else."
    ),
    "sweep": (
        "One interpreter answering, in seeded order, every query of the ROADMAP item-1 "
        "grid that the shipped catalog has rows and pairings for and that the seed "
        "commit answers within the per-query deadline. Package caches are emptied "
        "before each query, so a query's time does not depend on the order (verify is "
        "the workload that measures sharing through the cache). The brute-force "
        "extension search of exactseq spends most of the time on a few queries, so an "
        "extension-layer change moves queries_per_s, wall_s and tail_ms here while an "
        "fgab change barely does."
    ),
    "genus": (
        "Surface queries along a genus ladder up to 64 (TEST degree 1 classes 0-2, U1 "
        "degree 1, SU2 degrees 2 and 3, SU3 degree 3). They resolve by the "
        "free-quotient rule, so exactseq does almost no work and the time, growing "
        "about as g^3, is the delta maps and SNF linear algebra of gaugecalc/fgab."
    ),
    "verify": (
        "The developer/CI path: fresh `ghg verify` processes at the shipped default "
        "seed, three per pass, plus two seeds drawn from the benchmark seed that are "
        "checked but not timed (their cost ranges from 0.6 s to over 8 s by seed). It "
        "runs many small enumerations (order <= 64) that resolve_extension and the "
        "realizes_extension oracle share through the subgroup cache, and 1000 small "
        "dense snf calls; a change that speeds up sweep but breaks that sharing shows "
        "up as a loss here."
    ),
}

# which end-to-end metrics (on which workload) each layer metric should move
LAYER_TO_END_TO_END = [
    {
        "layer": ["cli.import_s", "cli.run.self_s", "catalog.load_catalog.calls",
                  "catalog.load_catalog.s", "layer.cli.self_s", "layer.catalog.self_s"],
        "moves": ["setup_s", "p50_ms"],
        "on": "cold_cli",
    },
    {
        "layer": ["gaugecalc.gauge_homotopy.calls", "gaugecalc.gauge_homotopy.s",
                  "gaugecalc.connecting_hom_sphere.calls",
                  "gaugecalc.connecting_hom_sphere.self_s",
                  "gaugecalc.connecting_hom_surface.calls",
                  "gaugecalc.connecting_hom_surface.self_s",
                  "fgab.direct_sum_with_injections.calls",
                  "fgab.direct_sum_with_injections.self_s",
                  "fgab.snf.calls", "fgab.snf.s", "fgab.snf.max_dim",
                  "fgab.snf.max_entry_bits", "fgab.hom_decompose.calls",
                  "fgab.hom_decompose.self_s", "fgab.canonicalize.calls",
                  "fgab.canonicalize.s", "layer.gaugecalc.self_s", "layer.fgab.self_s"],
        "moves": ["queries_per_s", "p50_ms", "tail_ms"],
        "on": "genus",
    },
    {
        "layer": ["exactseq.middle_group.calls", "exactseq.middle_group.s",
                  "exactseq.resolve_extension.calls",
                  "exactseq.resolve_extension.self_s",
                  "exactseq.resolve_extension.enumerated",
                  "exactseq.resolve_extension.types_tested",
                  "exactseq.resolve_extension.yield",
                  "exactseq.subgroup_quotient_pairs.calls",
                  "exactseq.subgroup_quotient_pairs.s",
                  "exactseq.subgroup_quotient_pairs.max_order",
                  "exactseq.subgroup_quotient_pairs.hit_ratio",
                  "fgab.enumerate_elements.calls", "fgab.enumerate_elements.elements",
                  "layer.exactseq.self_s"],
        "moves": ["failed/attempted", "tail_ms", "queries_per_s", "wall_s"],
        "on": "sweep (and wall_s on verify)",
    },
    {
        "layer": ["verify.<check>.s", "layer.verify.self_s"],
        "moves": ["wall_s"],
        "on": "verify",
    },
]

METRIC_NOTES = {
    "times": "every time is in reference seconds: raw seconds scaled by a speed loop "
             "timed around and inside each interval (bench/speed.py), because this "
             "box's speed drifts by 20-30%; the raw walls are kept per run below. "
             "The sweep deadline is enforced and charged in reference seconds too, and "
             "so are the per-layer span times, without the speed loop's own runs",
    "not_measured": "the final line names every declared metric; one a run has no value "
                    "for (a removed function, or verify checks on another workload) reads "
                    "0 there and is listed under not_measured in the line before it",
    "setup_s": "median over 7 fresh interpreters of importing ghg.cli and loading the "
               "default catalog (after one untimed warm-up that compiles bytecode)",
    "cpu": "the benchmark pins itself and its children to one CPU",
    "wall_s": "measured phase of one pass: the sum of the cold_cli / verify process "
              "wall times, or the in-process query loop of sweep / genus",
    "queries_per_s": "queries of one pass over its wall_s; a verify query is one check",
    "p50_ms": "median query latency of one pass",
    "tail_ms": "latency of one pass at the highest percentile with at least 10 "
               "samples beyond it (the 11th largest)",
    "peak_rss_mb": "largest peak resident set of any process answering queries",
    "fail_frac": "not a metric of BENCHMARK.json, since it is 0 on every workload at "
                 "the seed commit; it is the final line's failed / attempted",
    "aggregation": "every metric but peak_rss_mb is the median over the passes of a "
                   "run; per-layer values are per-pass sums over the pass's processes "
                   "(max_* are maxima), median over traced passes",
}


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version()}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, str]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    print(f"{workload} seed {seed} trace {trace}: {took:.1f} s", file=sys.stderr)
    return json.loads(lines[-1]), json.loads(lines[-2])["details"][0]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=str(RECORD_PATH))
    args = parser.parse_args()
    spec = json.loads((Path.cwd() / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    corpus = load_corpus()
    workloads = {}
    for w in args.workloads.split(","):
        values: dict[str, list] = {name: [] for name in bounds}
        passes, raw_walls, ratios = [], [], []
        for k in range(args.runs):
            line, header = run_once(w, args.first_seed + k, seconds, 0)
            passes.append(header["passes"])
            raw_walls.append(header["raw_wall_s"])
            ratios.append(header["reference_over_raw"])
            for name in bounds:
                values[name].append(line["metrics"][name]["value"])
        stats = {}
        for name, vals in values.items():
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med
            stats[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                           "bound": bounds[name], "values": vals}
            flag = "" if name == "setup_s" or spread < bounds[name] / 3 else "  <-- wide"
            print(f"  {w:<9} {name:<14} median {med:12.6g}  spread {spread:7.4f} "
                  f"bound {bounds[name]}{flag}", file=sys.stderr)
        traced, traced_header = run_once(w, args.first_seed, seconds, 1)
        workloads[w] = {
            "why": WHY[w],
            "tail_percentile": header["tail_percentile"],
            "samples_per_pass": header["samples_per_pass"],
            "passes_per_run": sorted(set(passes)),
            "raw_wall_s": raw_walls,
            "reference_over_raw": ratios,
            "seeds": [args.first_seed + k for k in range(args.runs)],
            "end_to_end": stats,
            "traced_run": {name: m["value"] for name, m in traced["metrics"].items()},
            "traced_absent": traced_header["absent"],
        }
    doc = {
        "machine": machine(),
        "run_seconds": seconds,
        "metric_notes": METRIC_NOTES,
        "layer_to_end_to_end": LAYER_TO_END_TO_END,
        "sweep_deadline": {
            "deadline_s": corpus["deadline_s"],
            "gap_s": corpus["gap_s"],
            "gap_factor": corpus["gap_factor"],
            "corpus_queries": len(corpus["queries"]),
            "grid_queries": corpus["grid_size"],
            "excluded": len(corpus["excluded"]),
        },
        "workloads": workloads,
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
