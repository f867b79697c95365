"""Acceptance gate: one test per shipped guarantee.

Run with -v to get a pass/fail line per criterion. Timed criteria use
wall-clock bounds generous enough for CI but tight enough to catch an
accidental algorithmic regression.
"""
import random
import time
from math import gcd

from ghg import cli
from ghg.catalog import default_catalog
from ghg.fgab import FgAbGroup
from ghg.gaugecalc import (
    Sphere,
    Surface,
    class_group,
    gauge_homotopy,
    gauge_homotopy_rational,
    make_bundle,
)
from ghg.verify import (
    SEED,
    check_extension_oracle,
    check_group_order_oracle,
    check_hom_oracle,
    check_sign_invariance,
    check_snf_suite,
    rational_via_zero_sequence,
)

CAT = default_catalog()


def test_criterion_gcd_table_through_cli(capsys):
    """pi_2 over S^4 equals Z/gcd(k, 12) for k in [-24, 24], via the
    command line entry point, in under a second."""
    start = time.perf_counter()
    for k in range(-24, 25):
        code = cli.run(
            ["compute", "--group", "SU2", "--base", "sphere:4",
             "--class", str(k), "--degree", "2"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.strip() == str(FgAbGroup.cyclic(gcd(k, 12)))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"gcd table took {elapsed:.2f}s"


def test_criterion_hopf_bundle_trivial():
    """The unit-class bundle over S^4 has trivial pi_2 gauge group."""
    result = gauge_homotopy(CAT, "SU2", make_bundle(CAT, "SU2", Sphere(4), (1,)), 2)
    assert result.is_resolved and result.resolved.is_trivial


def test_criterion_rational_closed_form():
    """Closed-form rational dimensions match the zero-map sequence
    route and the exponent bookkeeping for SU2, SU3, U1 over spheres
    S^1..S^6 and surfaces of genus 0..3, degrees 1..10, within 1s."""
    bases = [Sphere(m) for m in range(1, 7)] + [Surface(g) for g in range(4)]
    start = time.perf_counter()
    cases = 0
    for name in ("SU2", "SU3", "U1"):
        exps = CAT.entry(name).rational_exponents
        for base in bases:
            size = class_group(CAT, name, base).ngens
            bundle = make_bundle(CAT, name, base, (0,) * size)
            for n in range(1, 11):
                if isinstance(base, Sphere):
                    want = exps.count(n + base.dim) + exps.count(n)
                else:
                    want = (
                        exps.count(n + 2)
                        + 2 * base.genus * exps.count(n + 1)
                        + exps.count(n)
                    )
                assert gauge_homotopy_rational(CAT, name, bundle, n) == want
                assert rational_via_zero_sequence(CAT, name, base, n) == want
                cases += 1
    elapsed = time.perf_counter() - start
    assert cases == 300
    assert elapsed < 1.0, f"rational sweep took {elapsed:.2f}s"


def test_criterion_even_degree_vanishing():
    """Odd-exponent groups over even spheres have no rational homotopy
    in even degrees."""
    for name in ("SU2", "SU3"):
        for m in (2, 4, 6):
            size = class_group(CAT, name, Sphere(m)).ngens
            bundle = make_bundle(CAT, name, Sphere(m), (0,) * size)
            for n in (2, 4, 6, 8):
                assert gauge_homotopy_rational(CAT, name, bundle, n) == 0, (name, m, n)


def test_criterion_snf_contract():
    """1000 random matrices up to 6x6 with entries in [-9, 9]:
    U A V = D with unimodular U, V and a nonnegative divisor chain,
    within 5s."""
    start = time.perf_counter()
    check_snf_suite(None, random.Random(SEED))
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"SNF suite took {elapsed:.2f}s"


def test_criterion_group_and_hom_oracle():
    """200 random presentations, infinite ones included, have the gcd of
    their maximal minors as order (0 when infinite), and 200 random maps
    between groups of order <= 64 satisfy |ker| * |im| = |dom| and
    |im| * |coker| = |cod|, against brute-force enumeration."""
    check_group_order_oracle(None, random.Random(SEED))
    check_hom_oracle(None, random.Random(SEED))


def test_criterion_extension_oracle():
    """100 random (subgroup, quotient) pairs from groups of order
    <= 64: the source group always appears among the candidates, which
    are exactly the Ext^1 types wherever there are at most 256 classes."""
    check_extension_oracle(None, random.Random(SEED))


def test_criterion_sign_invariance():
    """100 random exact fragments: the middle group does not depend on
    the sign of either connecting map."""
    check_sign_invariance(None, random.Random(SEED))
