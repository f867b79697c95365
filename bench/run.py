"""Benchmark of the ghg calculator, driven from outside the package.

    python3 bench/run.py --workload cold_cli|sweep|genus|verify|all \\
        --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src.
Every pass of a workload starts fresh interpreters, because
``exactseq.subgroup_quotient_pairs`` is a process-wide cache. Load is a
closed loop with one client, pinned to one CPU. Passes repeat until
``--seconds`` have passed; each metric is the median over passes, and
every time is in reference seconds (see speed.py). With ``--trace 0`` the
last line reports the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics, from traced passes that alternate
with untraced ones so that the tracing overhead is measured as well.
A wrong answer aborts the run with exit code 1.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    WrongAnswer,
    check_cold_cli,
    checked_only,
    check_verify,
    load_corpus,
    make_queries,
    tail,
)

SETUP_PROBES = 7
# one process may not run longer than this, so a hang cannot outlive a run
CHILD_LIMIT_S = 150.0


class Child:
    """Outcome of one child process: exit code, merged output, wall time
    and peak resident memory."""

    def __init__(self, returncode: int, output: str, wall_s: float, maxrss_mb: float):
        self.returncode = returncode
        self.output = output
        self.wall_s = wall_s
        self.maxrss_mb = maxrss_mb

    def report(self) -> dict:
        if self.returncode != 0:
            raise RuntimeError(f"worker exited {self.returncode}: {self.output[-2000:]}")
        return json.loads(self.output.strip().splitlines()[-1])


def spawn(argv, env, stdin: str | None = None) -> Child:
    """Run argv to completion; wall time covers start to exit."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        argv,
        env=env,
        stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    try:
        if stdin is not None:
            proc.stdin.write(stdin.encode())
            proc.stdin.close()
        output = proc.stdout.read().decode()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, output, wall, usage.ru_maxrss / 1024.0)


def package_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Bench:
    def __init__(self, root: Path):
        self.env = package_env(root)
        self.worker = [sys.executable, str(HERE / "worker.py")]

    def run_worker(self, mode: str, traced: bool, extra=(), stdin=None) -> tuple[Child, dict]:
        argv = self.worker + [mode] + (["--trace"] if traced else []) + list(extra)
        child = spawn(argv, self.env, stdin)
        return child, child.report()

    def setup_probe(self) -> float:
        return self.run_worker("setup", False)[1]["setup_s"]

    # one pass of each workload: returns latencies, failures, wall, rss, traces

    def pass_cold_cli(self, queries, traced: bool) -> dict:
        spans, rss, traces = [], 0.0, []
        clock = speed.Clock()
        for q in queries:
            args = ["compute", "--group", q["group"], "--base", q["base"],
                    "--class", ",".join(map(str, q["class"])), "--degree", str(q["degree"])]
            clock.tick()
            start = time.perf_counter()
            if traced:
                child, report = self.run_worker("cli", True, ["--"] + args)
                code, out = report["rc"], report["stdout"]
                traces.append(report)
            else:
                child = spawn([sys.executable, "-m", "ghg.cli"] + args, self.env)
                code, out = child.returncode, child.output
            spans.append((start, time.perf_counter()))
            check_cold_cli(q, code, out)
            rss = max(rss, child.maxrss_mb)
        clock.close()
        lat = [clock.scaled(a, b) for a, b in spans]
        return {"latencies": lat, "failed": 0, "wall_s": sum(lat),
                "raw_wall_s": sum(b - a for a, b in spans), "rss": rss, "traces": traces}

    def pass_in_process(self, queries, traced: bool, deadline) -> dict:
        spec = json.dumps({"queries": queries, "deadline": deadline})
        child = spawn(self.worker + ["queries"] + (["--trace"] if traced else []),
                      self.env, spec)
        if child.returncode == 3:
            raise WrongAnswer(child.output.strip().splitlines()[-1])
        report = child.report()
        return {"latencies": report["latencies"], "failed": report["failed"],
                "wall_s": report["wall_s"], "raw_wall_s": report["raw_wall_s"],
                "rss": child.maxrss_mb, "traces": [report] if traced else []}

    def check_only(self, workload: str, seeds) -> int:
        """Run the checked-only inputs of a workload (verify seeds); returns
        the number of queries (checks) they answered."""
        answered = 0
        for seed in seeds:
            report = self.run_worker("cli", False, ["--", "verify", "--seed", str(seed)])[1]
            answered += check_verify(seed, report["rc"], report["stdout"])
        return answered

    def pass_verify(self, seeds, traced: bool) -> dict:
        lat, rss, traces, wall, raw_wall = [], 0.0, [], 0.0, 0.0
        for seed in seeds:
            args = ["verify"] + ([] if seed is None else ["--seed", str(seed)])
            child, report = self.run_worker("cli", traced, ["--"] + args)
            check_verify(seed, report["rc"], report["stdout"])
            lat.extend(report["check_s"])
            wall += report["import_s"] + report["run_s"]
            raw_wall += report["raw_import_s"] + report["raw_run_s"]
            rss = max(rss, child.maxrss_mb)
            if traced:
                traces.append(report)
        return {"latencies": lat, "failed": 0, "wall_s": wall, "raw_wall_s": raw_wall,
                "rss": rss, "traces": traces}

    def run_pass(self, workload: str, queries, traced: bool) -> dict:
        if workload == "cold_cli":
            return self.pass_cold_cli(queries, traced)
        if workload == "verify":
            return self.pass_verify(queries, traced)
        deadline = load_corpus()["deadline_s"] if workload == "sweep" else None
        return self.pass_in_process(queries, traced, deadline)


def pass_metrics(p: dict) -> dict:
    lat = p["latencies"]
    tail_s, pct = tail(lat)
    return {
        "wall_s": p["wall_s"],
        "queries_per_s": len(lat) / p["wall_s"],
        "p50_ms": 1000.0 * statistics.median(lat),
        "tail_ms": 1000.0 * tail_s,
        "raw_wall_s": p["raw_wall_s"],
        "tail_percentile": pct,
        "samples": len(lat),
        "peak_rss_mb": p["rss"],
    }


def layer_metrics(traces: list) -> dict:
    """Per-layer values of one traced pass, summed over its processes."""
    total: dict[str, dict] = {}
    imports = 0.0
    absent: set = set()
    for report in traces:
        imports += report["import_s"]
        absent.update(report["trace"]["absent"])
        for name, d in report["trace"]["spans"].items():
            acc = total.setdefault(name, {})
            for key, value in d.items():
                if key.startswith("max_"):
                    acc[key] = max(acc.get(key, 0), value)
                else:
                    acc[key] = acc.get(key, 0) + value
    out = {"cli.import_s": imports}
    for name, d in total.items():
        for key, value in d.items():
            out[f"{name}.{key}"] = value
        module = name.split(".")[0]
        out[f"layer.{module}.self_s"] = out.get(f"layer.{module}.self_s", 0.0) + d["self_s"]
    ext = total.get("exactseq.resolve_extension", {})
    if ext.get("types_tested"):
        out["exactseq.resolve_extension.yield"] = ext["candidates"] / ext["types_tested"]
    sqp = total.get("exactseq.subgroup_quotient_pairs", {})
    if sqp.get("hits", 0) + sqp.get("misses", 0):
        out["exactseq.subgroup_quotient_pairs.hit_ratio"] = (
            sqp["hits"] / (sqp["hits"] + sqp["misses"]))
    out["_absent"] = sorted(absent)
    return out


def pin_to_one_cpu() -> None:
    """Keep this process and every process it starts on one CPU, so that
    the speed loop timed here between cold_cli processes measures the CPU
    that they run on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def benchmark_spec(root: Path) -> dict:
    return json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(bench: Bench, workload: str, seed: int, seconds: float, traced: bool) -> dict:
    queries = make_queries(workload, seed)
    bench.setup_probe()  # compiles bytecode so that no timed process pays for it
    setups = [bench.setup_probe() for _ in range(SETUP_PROBES)]
    untraced, layered = [], []
    attempted = bench.check_only(workload, checked_only(workload, seed))
    failed = 0
    begin = time.perf_counter()
    while not untraced or time.perf_counter() - begin < seconds:
        p = bench.run_pass(workload, queries, False)
        untraced.append(p)
        if traced:
            t = bench.run_pass(workload, queries, True)
            layered.append(t)
            attempted += len(t["latencies"])
            failed += t["failed"]
        attempted += len(p["latencies"])
        failed += p["failed"]
    per_pass = [pass_metrics(p) for p in untraced]
    e2e = {key: statistics.median(m[key] for m in per_pass)
           for key in ("wall_s", "queries_per_s", "p50_ms", "tail_ms")}
    e2e["peak_rss_mb"] = max(m["peak_rss_mb"] for m in per_pass)
    raw_wall = statistics.median(m["raw_wall_s"] for m in per_pass)
    e2e["setup_s"] = statistics.median(setups)
    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(untraced),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "tail_percentile": per_pass[0]["tail_percentile"],
        "samples_per_pass": per_pass[0]["samples"],
        "raw_wall_s": raw_wall,
        "reference_over_raw": e2e["wall_s"] / raw_wall,
        "end_to_end": e2e,
    }
    if traced:
        layers = [layer_metrics(t["traces"]) for t in layered]
        names = {k for d in layers for k in d if not k.startswith("_")}
        per_layer = {k: statistics.median(d.get(k, 0) for d in layers) for k in names}
        per_layer["trace.overhead"] = (
            statistics.median(t["wall_s"] for t in layered) / e2e["wall_s"])
        result["per_layer"] = per_layer
        result["absent"] = layers[0]["_absent"]
    return result


def not_measured(r: dict, spec: dict, traced: bool) -> list:
    """Declared metrics that a run has no value for: a function the package
    no longer has, or one the workload never calls (verify checks on sweep)."""
    section = "per_layer" if traced else "end_to_end"
    return [m["name"] for m in spec[section] if m["name"] not in r.get(section, {})]


def final_line(results: list, spec: dict, traced: bool) -> dict:
    """The contract's last line. It names every declared metric of the
    section; one the run did not measure reads 0 there (no call, no time)
    and is listed under ``not_measured`` in the details line before it."""
    section = "per_layer" if traced else "end_to_end"
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        values = r.get(section, {})
        for m in spec[section]:
            metrics[prefix + m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
    return {
        "correct": True,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }


def print_table(r: dict, spec: dict, traced: bool) -> None:
    section = "per_layer" if traced else "end_to_end"
    print(f"== {r['workload']} (seed {r['seed']}, {r['passes']} passes; "
          f"tail at p{r['tail_percentile']:.1f} of {r['samples_per_pass']} samples per pass; "
          f"fail_frac {r['fail_frac']:.4f} = {r['failed']}/{r['attempted']})")
    values = r.get(section, {})
    for m in spec[section]:
        if m["name"] in values:
            print(f"  {m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
        else:
            print(f"  {m['name']:<48} {'not measured':>14}")
    if traced and r["absent"]:
        print(f"  absent: {', '.join(r['absent'])}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ghg" / "cli.py").is_file():
        print(f"bench: no ghg package under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = benchmark_spec(root)
    pin_to_one_cpu()
    bench = Bench(root)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    traced = bool(args.trace)
    results = []
    try:
        for name in names:
            results.append(run_workload(bench, name, args.seed, args.seconds, traced))
            print_table(results[-1], spec, traced)
    except WrongAnswer as exc:
        # a wrong answer is never timed as a slow success
        print(f"bench: wrong answer: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1
    details = [dict({k: v for k, v in r.items() if k not in ("end_to_end", "per_layer")},
                    not_measured=not_measured(r, spec, traced))
               for r in results]
    print(json.dumps({"details": details}))
    print(json.dumps(final_line(results, spec, traced)))
    return 0

if __name__ == "__main__":
    sys.exit(main())
