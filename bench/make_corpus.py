"""Rebuild bench/corpus.json, the query list of the ``sweep`` workload.

    PYTHONPATH=src python3 bench/make_corpus.py

The grid is every query the shipped catalog has homotopy rows and
Samelson pairings for: every catalogued group, sphere:1..7 and
surface:0..2, every class whose free coordinates lie in -2..2 and whose
torsion coordinates take every residue, and degrees 1..11. Each query
is timed in fresh interpreters over ORDERS_TIMED seeded shuffles with a
cap of CAP_S seconds. The per-query deadline is then placed in a gap of
those times, at least GAP_FACTOR away from the nearest query on each
side, so that no query flips between answered and timed out. Queries
the package refuses or that fall above the gap are left out of the
corpus (and listed with their times), so that no sweep query fails at
the commit the corpus was made on. The surviving corpus is timed again
on its own, so that a kept query that was fast by chance in the first
timings is caught: every time it takes must stay GAP_FACTOR below the
deadline. All times, the cap and the deadline are reference seconds
(see speed.py), the units the worker enforces the deadline in.
"""
from __future__ import annotations

import itertools
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import Bench  # noqa: E402
from workloads import CORPUS_PATH, query  # noqa: E402

GAP_FACTOR = 1.5
ORDERS_TIMED = 2
CAP_S = 3.0
MAX_DEADLINE_S = 2.0  # keeps one sweep pass within a few seconds


def grid(catalog) -> list:
    from ghg.catalog import CatalogError
    from ghg.gaugecalc import PairingUnavailable, Sphere, Surface, class_group, make_bundle
    from ghg.gaugecalc import connecting_hom_sphere, connecting_hom_surface

    def maps(name, base, b, n):
        if isinstance(base, Sphere):
            connecting_hom_sphere(catalog, name, base.dim, b, n)
        else:
            connecting_hom_surface(catalog, name, base.genus, b, n)
            if base.genus == 0:
                connecting_hom_sphere(catalog, name, 2, b, n)

    out = []
    for name in catalog.names():
        for base in [Sphere(m) for m in range(1, 8)] + [Surface(g) for g in range(3)]:
            try:
                orders = class_group(catalog, name, base).generator_orders()
            except CatalogError:
                continue
            axes = [range(-2, 3) if d == 0 else range(d) for d in orders]
            for coords in itertools.product(*axes):
                b = make_bundle(catalog, name, base, coords).clazz
                for n in range(1, 12):
                    try:
                        maps(name, base, b, n)
                        maps(name, base, b, n + 1)
                    except (CatalogError, PairingUnavailable):
                        continue
                    out.append(query(name, str(base), coords, n))
    return out


def time_orders(bench: Bench, queries: list) -> list:
    """Per query: the list of (latency, status) over seeded shuffles."""
    seen = [[] for _ in queries]
    for k in range(ORDERS_TIMED):
        order = list(range(len(queries)))
        random.Random(f"corpus:{k}").shuffle(order)
        spec = json.dumps({"queries": [queries[i] for i in order], "deadline": CAP_S})
        report = bench.run_worker("queries", False, stdin=spec)[1]
        for pos, i in enumerate(order):
            seen[i].append((report["latencies"][pos], report["status"][pos]))
        print(f"order {k}: {report['wall_s']:.1f} s, {report['failed']} failed", file=sys.stderr)
    return seen


def find_gap(times: list) -> tuple[float, float, float]:
    """(low, high, deadline): every query's times lie all at or below low
    or all at or above high, with GAP_FACTOR room on both sides of the
    deadline; the largest such deadline up to MAX_DEADLINE_S."""
    best = None
    for low in sorted({max(t) for t in times}):
        above = [min(t) for t in times if max(t) > low]
        if not above:
            break
        high = min(above)
        deadline = (low * high) ** 0.5
        if high >= low * GAP_FACTOR ** 2 and deadline <= MAX_DEADLINE_S:
            best = (low, high, deadline)
    if best is None:
        raise SystemExit("no gap found")
    return best


def main() -> None:
    from ghg.catalog import default_catalog

    bench = Bench(Path.cwd())
    queries = grid(default_catalog())
    seen = time_orders(bench, queries)
    refused = [i for i, s in enumerate(seen) if any(st == "refused" for _, st in s)]
    timed = [i for i in range(len(queries)) if i not in refused]
    # a capped query counts at the cap, i.e. above any deadline below it
    low, high, deadline = find_gap([[t for t, _ in seen[i]] for i in timed])
    kept = [i for i in timed if max(t for t, _ in seen[i]) <= low]
    above = [i for i in timed if i not in kept]

    corpus = [queries[i] for i in kept]
    again = time_orders(bench, corpus)
    slowest = max(t for s in again for t, _ in s)
    if slowest * GAP_FACTOR > deadline or any(st != "ok" for s in again for _, st in s):
        raise SystemExit(f"corpus alone reaches {slowest:.3f} s, too close to {deadline:.3f} s")

    def listed(indices, reason):
        return [dict(queries[i], reason=reason,
                     seconds=sorted(round(t, 4) for t, _ in seen[i])) for i in indices]

    doc = {
        "grid": "groups of the shipped catalog x sphere:1..7, surface:0..2 x classes "
                "(free coordinates -2..2, every torsion residue) x degrees 1..11, "
                "where the catalog has the rows and pairings",
        "grid_size": len(queries),
        "deadline_s": round(deadline, 3),
        "gap_s": [round(low, 4), round(high, 4)],
        "gap_factor": GAP_FACTOR,
        "orders_timed": ORDERS_TIMED,
        "cap_s": CAP_S,
        "corpus_alone_slowest_s": round(slowest, 4),
        "excluded": listed(refused, "refused") + listed(above, "above the deadline"),
        "queries": corpus,
    }
    CORPUS_PATH.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"{len(corpus)} queries kept of {len(queries)}; deadline {deadline:.3f} s "
          f"in gap {low:.3f}..{high:.3f} s", file=sys.stderr)


if __name__ == "__main__":
    main()
