"""Work pins: exact call counts of the engine's functions, row by row.

calls() counts the entries of each function's code object through
sys.setprofile, so every binding, in any module and however late, is
counted and nothing in ghg is patched. Two pins measure the reductions
themselves: "_smith cells" adds up nrows * ncols off each call frame of
_smith, and "_smith bits" is the largest bit length on a diagonal it
returns, off the return event. Two more add up the lengths of what a
function returns, off the same event: "_strips states", the strips that
lr_support tries, and "_assemble candidates", the chains formed. A
row's answer is built outside the counted run; no generator is counted
(each resume reports a call).
A count changed on purpose is re-pinned and named in CHANGES.md. Print
each row's id and current counts from the repository root with

    PYTHONPATH=src python3 tests/test_work.py

and print only the rows whose counts differ from their pins, each count
as pin -> now, exiting 1 if there is any, with

    PYTHONPATH=src python3 tests/test_work.py --diff
"""
import argparse
import sys
from pathlib import Path

import pytest

from ghg import exactseq, fgab, verify
from ghg.catalog import Catalog, GroupCatalogEntry, default_catalog
from ghg.fgab import FgAbGroup, Homomorphism, cokernel, direct_sum, kernel
from ghg.gaugecalc import Sphere, Surface, gauge_homotopy, make_bundle
from test_golden import answered_queries

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import GENUS_KINDS  # noqa: E402

# the code object of a classmethod is its __func__'s
CODES = {name: getattr(f, "__func__", f).__code__ for name, f in {
    "_smith": fgab._smith, "Homomorphism": Homomorphism.__init__, "zero": Homomorphism.zero,
    "_from_images": Homomorphism._from_images,
    "of": FgAbGroup.of, "_is_chain": fgab._is_chain, "Catalog.entry": Catalog.entry,
    "GroupCatalogEntry.homotopy": GroupCatalogEntry.homotopy,
    "resolve_extension": exactseq.resolve_extension, "lr_support": exactseq.lr_support,
    "_assemble": exactseq._assemble, "_primes": exactseq._primes,
    "_strips": exactseq._strips}.items()}
# each pin summing the lengths of what a function of CODES returns
LENGTHS = {"_strips states": "_strips", "_assemble candidates": "_assemble"}


def calls(run, names):
    """{name: count} of each name while run() runs: the calls of each
    function of CODES named, each pin of LENGTHS named, and "_smith
    cells" and "_smith bits"; the previous profile function is restored
    even when run() raises."""
    codes = {CODES[name]: name for name in names if name in CODES}
    lengths = {CODES[LENGTHS[name]]: name for name in names if name in LENGTHS}
    counts = dict.fromkeys(names, 0)
    smith = CODES["_smith"]

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1
        elif event == "return" and frame.f_code in lengths:
            counts[lengths[frame.f_code]] += len(arg or ())  # None when it raised
        if frame.f_code is smith:
            if event == "call" and "_smith cells" in counts:
                counts["_smith cells"] += frame.f_locals["nrows"] * frame.f_locals["ncols"]
            elif event == "return" and "_smith bits" in counts:
                counts["_smith bits"] = max(counts["_smith bits"], *map(int.bit_length, arg or [0]))

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return counts


CAT = default_catalog()
QUERIES = answered_queries(CAT)
F = Homomorphism(FgAbGroup(1, (4,)), FgAbGroup.cyclic(8), [(2,), (2,)])
ZERO = Homomorphism.zero(F.domain, F.codomain)
# direct sums with a torsion-free side, in both orders
PAIRS = [(FgAbGroup(2, (2, 6)), FgAbGroup(1)), (FgAbGroup(0, (3,)), FgAbGroup(0)),
         (FgAbGroup(1), FgAbGroup(0))]
PAIRS += [(b, a) for a, b in PAIRS]
SUMS = [FgAbGroup(a.rank + b.rank, a.invariant_factors + b.invariant_factors) for a, b in PAIRS]
LADDER = [(group, make_bundle(CAT, group, Surface(64), clazz), n) for group, n, clazz in GENUS_KINDS]


def query(group, base, clazz, n, counts):
    args = CAT, group, make_bundle(CAT, group, base, clazz), n
    return (f"{group}-{base}-class{clazz[0]}-degree{n}", lambda: gauge_homotopy(*args),
            gauge_homotopy(*args), counts)


# (id, what runs, its answer, exact counts)
PINS = [
    # SU2's delta_2 over S^4 has the trivial domain pi_2 = 0; at degree 2
    # with class 3, delta_3 is the stored pairing's map, built unchecked
    query("SU2", Sphere(4), (3,), 2, {"_smith": 1, "Homomorphism": 0, "_from_images": 1}),
    # delta_2 and delta_1 over S^4 are structural zeros (pi_2 = pi_1 = 0)
    query("SU2", Sphere(4), (3,), 1, {"Homomorphism": 0, "_from_images": 0}),
    # both TEST surface maps are nonzero; the kernel of delta_2 : Z/4 -> Z + Z/2
    # reduces its lifted relations alone, as its domain has no free rank
    query("TEST", Surface(1), (1,), 2, {"_smith": 2}),
    # class 0 splits before either map is looked at, so no map is built
    query("TEST", Surface(1), (0,), 2, {"Homomorphism": 0, "_from_images": 0}),
    # TEST's stored pairing pi_2 x pi_1 vanishes against -b = 2, and delta_1 : Z -> Z/4
    # has a torsion-free domain and a codomain of rank 0, so its kernel is not reduced
    query("TEST", Sphere(2), (-2,), 1, {"_smith": 0}),
    query("SU2", Sphere(4), (0,), 2, {"_smith": 0, "Homomorphism": 0, "_from_images": 0}),
    # verify's image reads U and D off one snf and the preimage lattice off one more reduction
    ("image", lambda: verify.image(F), FgAbGroup.cyclic(4), {"_smith": 2}),
    ("cokernel", lambda: cokernel(F), FgAbGroup.cyclic(2), {"_smith": 1}),
    # the free block of Z + Z/4 -> Z/8 is empty, so only the lifted relations are reduced
    ("kernel", lambda: kernel(F), FgAbGroup(1), {"_smith": 1}),
    # a torsion-free domain lifts no relations: ker(Z -> Z/4) = Z with no reduction
    ("kernel-torsion-free", lambda: kernel(Homomorphism(FgAbGroup(1), FgAbGroup.cyclic(4), [(1,)])),
     FgAbGroup(1), {"_smith": 0}),
    ("canonicalize", lambda: verify.canonicalize([[2, 0], [0, 3]], 2), FgAbGroup.cyclic(6),
     {"_smith": 1}),
    # a 3 x 3 block is 9 cells, and its diagonal 2, 6, 12 peaks at 4 bits
    ("smith-cells-and-bits", lambda: fgab._smith([[2, 4, 4], [-6, 6, 12], [10, -4, -16]], 3, 3),
     [2, 6, 12], {"_smith": 1, "_smith cells": 9, "_smith bits": 4}),
    # coker(0: A -> B) = B and ker(0: A -> B) = A, with no reduction
    ("zero-map", lambda: (cokernel(ZERO), kernel(ZERO)), (F.codomain, F.domain), {"_smith": 0}),
    # a torsion-free summand adds its rank and leaves the other chain as
    # it is: no merge, and no scan of a chain already validated
    ("direct-sum-torsion-free", lambda: [direct_sum(a, b) for a, b in PAIRS], SUMS,
     {"_is_chain": 0, "of": 0}),
    # the 538 answered queries of tests/golden_compute.jsonl: 92 connecting maps are stored
    # pairings' maps, built unchecked; the 300 class-0 queries split before any map is looked
    # at, and every other map is a structural zero. resolve_extension forms its candidates'
    # chains in closed form, without of, and scans each once in the FgAbGroup constructor.
    # Only the 39 direct sums whose chains interleave reach of, which scans them and checks
    # its merge: 152 scans with the 34 reductions' and 40 candidates'. Each query looks up
    # its catalog entry once and reads every pi group off it: the class group through
    # homotopy, the other four straight off the table. The 34 reductions cover 104
    # cells (no block is empty), and no diagonal entry passes 2 bits. The 12 lr_support
    # calls try 52 strips and form 40 candidate chains
    ("golden-queries", lambda: len([gauge_homotopy(CAT, *q) for q in QUERIES]), 538,
     {"Homomorphism": 0, "_from_images": 92, "of": 39, "_is_chain": 152, "Catalog.entry": 538,
      "GroupCatalogEntry.homotopy": 538,
      "_smith": 34, "resolve_extension": 238, "lr_support": 12, "_assemble": 12, "_primes": 24,
      "_smith cells": 104, "_smith bits": 2, "_strips states": 52, "_assemble candidates": 40}),
    # the seven kinds of the benchmark's genus workload at its top rung, genus 64: each sub
    # joins coker's chain to pi_(n+1)'s with each factor 128 times, by one divisibility
    # test in direct_sum, so no chain reaches of (4 calls before that test). The one scan
    # checks the one reduction's chain, the cokernel of TEST's class-1 delta_2. homotopy
    # reads each class group; the four pi groups of a query come straight off the table
    ("genus-ladder", lambda: [gauge_homotopy(CAT, *q) for q in LADDER],
     [gauge_homotopy(CAT, *q) for q in LADDER],
     {"of": 0, "_is_chain": 1, "_smith": 1, "GroupCatalogEntry.homotopy": 7}),
    # a full verify at the shipped seed, catalog load included: the load builds each stored
    # pairing's rows and columns as checked maps, Homomorphism.zero and against build theirs
    # unchecked (850 + 379), and class-0 queries build no map and take no reduction
    ("verify", lambda: all(ok for _, ok, _ in verify.run_all(default_catalog(), verify.SEED)),
     True, {"Homomorphism": 777, "zero": 850, "_from_images": 1229, "_smith": 4336,
            "_smith cells": 21296, "_smith bits": 20, "_strips states": 197,
            "_assemble candidates": 180}),
]


@pytest.mark.parametrize("run, want, counts", [row[1:] for row in PINS],
                         ids=[row[0] for row in PINS])
def test_work(run, want, counts):
    got = []
    assert calls(lambda: got.append(run()), counts) == counts
    assert got == [want]


def test_calls_counts_late_bindings_and_restores_the_profile():
    """A binding made while counting is counted, and a run that raises
    gives the previous profile function back: the outer count goes on."""
    before = sys.getprofile()

    def fail_then_reduce():
        with pytest.raises(ZeroDivisionError):
            calls(lambda: 1 / 0, ["_smith"])
        exec("from ghg.fgab import _smith as late\nlate([[2]], 1, 1)", {})

    assert calls(fail_then_reduce, ["_smith"]) == {"_smith": 1}
    assert sys.getprofile() is before


def test_diff_prints_only_the_rows_off_their_pins(monkeypatch, capsys):
    rows = [row for row in PINS if row[0] in ("cokernel", "kernel")]
    monkeypatch.setitem(globals(), "PINS", rows)
    assert main(["--diff"]) == 0 and capsys.readouterr().out == ""
    rows[1] = (*rows[1][:3], {"_smith": 2, "_smith cells": 3})
    assert main(["--diff"]) == 1
    assert capsys.readouterr().out == "kernel: _smith 2 -> 1\n"
    assert main([]) == 0
    assert capsys.readouterr().out == ("cokernel {'_smith': 1}\n"
                                       "kernel {'_smith': 1, '_smith cells': 3}\n")


def main(argv):
    """Print each row's id and counts, or with --diff only the rows whose
    counts differ from their pins, and exit 1 if there is any."""
    parser = argparse.ArgumentParser(description="print or diff the work pins")
    parser.add_argument("--diff", action="store_true",
                        help="print each count that differs from its pin, as pin -> now, "
                             "and exit 1 if any does")
    diff, changed = parser.parse_args(argv).diff, False
    for name, run, _, counts in PINS:
        got = calls(run, counts)
        if not diff:
            print(name, got)
        elif got != counts:
            changed = True
            print(f"{name}: " + ", ".join(f"{key} {counts[key]} -> {got[key]}"
                                          for key in counts if got[key] != counts[key]))
    return int(changed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
