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
"""
import sys

import pytest

from ghg import exactseq, fgab, verify
from ghg.catalog import Catalog, default_catalog
from ghg.fgab import FgAbGroup, Homomorphism, cokernel, direct_sum, kernel
from ghg.gaugecalc import Sphere, Surface, gauge_homotopy, make_bundle
from test_golden import answered_queries

# the code object of a classmethod is its __func__'s
CODES = {name: getattr(f, "__func__", f).__code__ for name, f in {
    "_smith": fgab._smith, "Homomorphism": Homomorphism.__init__, "zero": Homomorphism.zero,
    "of": FgAbGroup.of, "_is_chain": fgab._is_chain, "Catalog.entry": Catalog.entry,
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


def query(group, base, clazz, n, counts):
    args = CAT, group, make_bundle(CAT, group, base, clazz), n
    return (f"{group}-{base}-class{clazz[0]}-degree{n}", lambda: gauge_homotopy(*args),
            gauge_homotopy(*args), counts)


# (id, what runs, its answer, exact counts)
PINS = [
    # SU2's delta_2 over S^4 has the trivial domain pi_2 = 0; at degree 2
    # with class 3, delta_3 is the stored pairing's map
    query("SU2", Sphere(4), (3,), 2, {"_smith": 1, "Homomorphism": 1}),
    # delta_2 and delta_1 over S^4 are structural zeros (pi_2 = pi_1 = 0)
    query("SU2", Sphere(4), (3,), 1, {"Homomorphism": 0}),
    # both TEST surface maps are nonzero
    query("TEST", Surface(1), (1,), 2, {"_smith": 3}),
    # class 0 makes both maps structural zeros, which build no map
    query("TEST", Surface(1), (0,), 2, {"Homomorphism": 0}),
    # TEST's stored pairing pi_2 x pi_1 vanishes against -b = 2, so only delta_1 is reduced
    query("TEST", Sphere(2), (-2,), 1, {"_smith": 2}),
    query("SU2", Sphere(4), (0,), 2, {"_smith": 0, "Homomorphism": 0}),
    # verify's image reads U and D off one snf and the preimage lattice off one more reduction
    ("image", lambda: verify.image(F), FgAbGroup.cyclic(4), {"_smith": 2}),
    ("cokernel", lambda: cokernel(F), FgAbGroup.cyclic(2), {"_smith": 1}),
    ("kernel", lambda: kernel(F), FgAbGroup(1), {"_smith": 2}),
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
    # the 538 answered queries of tests/golden_compute.jsonl: 46 stored pairings' maps,
    # every other connecting map a structural zero. resolve_extension forms its candidates'
    # chains in closed form, without of, and scans each once in the FgAbGroup constructor.
    # Each query looks up its catalog entry once and reads every pi group off it.
    # The 98 reductions cover 104 cells, and no diagonal entry passes 2 bits.
    # The 12 lr_support calls try 52 strips and form 40 candidate chains
    ("golden-queries", lambda: len([gauge_homotopy(CAT, *q) for q in QUERIES]), 538,
     {"Homomorphism": 92, "of": 166, "_is_chain": 339, "Catalog.entry": 538, "_smith": 98,
      "resolve_extension": 238, "lr_support": 12, "_assemble": 12, "_primes": 24,
      "_smith cells": 104, "_smith bits": 2, "_strips states": 52, "_assemble candidates": 40}),
    # a full verify at the shipped seed, catalog load included: the load builds each stored
    # pairing's rows and columns as maps, Homomorphism.zero skips the checked __init__, and
    # class-0 queries build no map and take no reduction
    ("verify", lambda: all(ok for _, ok, _ in verify.run_all(default_catalog(), verify.SEED)),
     True, {"Homomorphism": 1156, "zero": 850, "_smith": 4419, "_smith cells": 21296,
            "_smith bits": 20, "_strips states": 197, "_assemble candidates": 180}),
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


if __name__ == "__main__":
    for name, run, _, counts in PINS:
        print(name, calls(run, counts))
