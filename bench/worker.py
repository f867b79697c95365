"""One fresh interpreter of the benchmark; run.py starts it.

    python3 bench/worker.py setup [--trace]
    python3 bench/worker.py queries [--trace] < {"queries": [...], "deadline": s}
    python3 bench/worker.py cli [--trace] -- <ghg arguments>

``setup`` imports ghg.cli and loads the default catalog, ``queries``
then answers compute queries in-process through the public functions
of gaugecalc, checking every answer against the closed rational form,
and ``cli`` runs one ``ghg`` command through ``ghg.cli.run``. The last
line of standard output is a JSON report; its times, the deadline and
the traced spans included, are reference seconds (see speed.py). Only
``sys``, ``time`` and speed.py are loaded before ghg, so the import time
measured here is what a fresh ``ghg`` process pays.
"""
import sys
import time

import speed


# the loop is timed every this many seconds of CPU time while queries run
TICK_PERIOD_S = 0.02


class Deadline(BaseException):
    """Raised at a clock tick past the deadline; a BaseException so that
    no ``except Exception`` in the package swallows it."""


def run_queries(queries, solve, rational_rank, deadline, clock, tracer=None, reset=None) -> dict:
    """Answer each query under a per-query deadline; a query past the
    deadline or refused by the package is a failure. Answers are checked
    outside the timed region and a wrong one raises WrongAnswer.

    ``solve(q)`` returns a result with ``is_resolved``, ``resolved`` and
    ``candidates``; ``rational_rank(q)`` the rank every answer must have;
    ``reset()``, if given, runs untimed before each query. ``clock`` is
    the process's running speed.Clock with a period: the deadline is in
    its reference seconds, the same units as the query times it was
    chosen from, and is checked at each of its ticks. The spans returned
    are raw; ``latencies`` converts them once the clock is closed.
    """
    from workloads import check_ranks

    running = [None]  # raw start of the query under the deadline

    def past_deadline():
        if running[0] is not None and clock.elapsed(running[0]) > deadline:
            running[0] = None
            raise Deadline()

    refusals = _refusal_types()
    spans, status = [], []
    if deadline:
        clock.on_tick = past_deadline
    try:
        for i, q in enumerate(queries):
            if tracer is not None:
                tracer.query = i
            if reset is not None:
                if tracer is not None:
                    tracer.bank_cache_stats()
                reset()
            result = None
            start = time.perf_counter()
            try:
                running[0] = start
                result = solve(q)
            except Deadline:
                outcome = "timeout"
            except refusals:
                outcome = "refused"
            finally:
                running[0] = None
            spans.append((start, time.perf_counter()))
            if result is None:
                status.append(outcome)
                continue
            status.append("ok")
            groups = [result.resolved] if result.is_resolved else list(result.candidates)
            check_ranks(q, [g.rank for g in groups], rational_rank(q))
    finally:
        clock.on_tick = None
    return {"spans": spans, "status": status, "deadline": deadline,
            "failed": sum(1 for s in status if s != "ok")}


def latencies(report: dict, clock) -> dict:
    """Reference-second latencies of a run_queries report, after the clock
    is closed; a query past the deadline counts exactly at the deadline."""
    spans, status, deadline = report.pop("spans"), report["status"], report.pop("deadline")
    lat = [deadline if st == "timeout" else clock.scaled(a, b)
           for (a, b), st in zip(spans, status)]
    raw = [b - a for a, b in spans]
    return dict(report, latencies=lat, wall_s=sum(lat), raw_wall_s=sum(raw))


def _refusal_types() -> tuple:
    """Exceptions by which the package declines a query (exit code 2 on
    the command line)."""
    types = []
    for module, name in (
        ("ghg.fgab", "CapacityError"),
        ("ghg.catalog", "CatalogError"),
        ("ghg.gaugecalc", "PairingUnavailable"),
    ):
        mod = sys.modules.get(module)
        if mod is not None and hasattr(mod, name):
            types.append(getattr(mod, name))
    return tuple(types)


def _clear_package_caches() -> None:
    """Empty every functools cache of the package, so that a query's time
    does not depend on which queries ran before it (the verify workload
    is the one that measures sharing through the cache)."""
    seen = set()
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "ghg" or name.startswith("ghg.")):
            continue
        for value in vars(mod).values():
            clear = getattr(value, "cache_clear", None)
            if callable(clear) and id(clear) not in seen:
                seen.add(id(clear))
                clear()


def _library_solver(catalog):
    from ghg import gaugecalc

    def bundle_of(q):
        kind, _, value = q["base"].partition(":")
        base = gaugecalc.Sphere(int(value)) if kind == "sphere" else gaugecalc.Surface(int(value))
        return gaugecalc.make_bundle(catalog, q["group"], base, q["class"])

    def solve(q):
        return gaugecalc.gauge_homotopy(catalog, q["group"], bundle_of(q), q["degree"])

    def rational_rank(q):
        return gaugecalc.gauge_homotopy_rational(catalog, q["group"], bundle_of(q), q["degree"])

    return solve, rational_rank


def _run_cli(args) -> dict:
    """Run one ghg command in-process; for verify, time each check. The
    spans returned are raw."""
    import io
    from contextlib import redirect_stdout

    checks = []  # (start, end) of each verify check
    if args[:1] == ["verify"]:
        verify = sys.modules["ghg.verify"]

        def timed(fn):
            def call(*a, **kw):
                start = time.perf_counter()
                try:
                    return fn(*a, **kw)
                finally:
                    checks.append((start, time.perf_counter()))
            return call

        for i, (name, fn) in enumerate(verify.CHECKS):
            verify.CHECKS[i] = (name, timed(fn))
    buf = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(buf):
        rc = sys.modules["ghg.cli"].run(args)
    end = time.perf_counter()
    return {"rc": rc, "stdout": buf.getvalue(), "checks": checks, "run": (start, end)}


def main(argv) -> int:
    mode = argv[0]
    traced = "--trace" in argv
    before = speed.loop_time()
    t0 = time.perf_counter()
    import ghg.cli
    t1 = time.perf_counter()
    after = speed.loop_time()

    import json

    report = {"import_s": (t1 - t0) * speed.scale(before, after), "raw_import_s": t1 - t0}
    # one clock for everything after the import, spans of the tracer too
    clock = speed.Clock(period=TICK_PERIOD_S)
    tracer = None
    try:
        if traced:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        if mode == "cli":
            cli = _run_cli(argv[argv.index("--") + 1:])
        else:
            from ghg import catalog as ghg_catalog

            t2 = time.perf_counter()
            catalog = ghg_catalog.load_catalog(ghg_catalog.default_catalog_path())
            t3 = time.perf_counter()
            if mode == "queries":
                from workloads import WrongAnswer

                spec = json.loads(sys.stdin.read())
                solve, rational_rank = _library_solver(catalog)
                try:
                    answered = run_queries(spec["queries"], solve, rational_rank,
                                           spec.get("deadline"), clock, tracer,
                                           _clear_package_caches)
                except WrongAnswer as exc:
                    print(exc, file=sys.stderr)
                    return 3
    finally:
        clock.close()
    if mode == "cli":
        report.update(rc=cli["rc"], stdout=cli["stdout"],
                      check_s=[clock.scaled(a, b) for a, b in cli["checks"]],
                      run_s=clock.scaled(*cli["run"]),
                      raw_run_s=cli["run"][1] - cli["run"][0])
    else:
        report["setup_s"] = report["import_s"] + clock.scaled(t2, t3)
        if mode == "queries":
            report.update(latencies(answered, clock))
    if tracer is not None:
        report["trace"] = tracer.summary(clock)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
