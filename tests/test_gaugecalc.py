"""Connecting homomorphisms and the gauge-group homotopy calculator."""
import itertools
import time
from math import gcd

import pytest

from ghg.catalog import TableDepthError, default_catalog
from ghg.exactseq import resolve_extension
from ghg.fgab import CapacityError, FgAbGroup
from ghg.gaugecalc import (
    BundleSpec,
    PairingUnavailable,
    Sphere,
    Surface,
    _genus_sub,
    class_group,
    connecting_hom_sphere,
    connecting_hom_surface,
    gauge_homotopy,
    gauge_homotopy_rational,
    make_bundle,
)
from ghg.verify import apply, image, middle_group, rational_via_zero_sequence
from test_fgab import SMALL
from test_golden import answered_queries

CAT = default_catalog()


def test_base_validation():
    with pytest.raises(ValueError):
        Sphere(0)
    with pytest.raises(ValueError):
        Surface(-1)
    assert str(Sphere(4)) == "sphere:4"
    assert str(Surface(2)) == "surface:2"
    assert Sphere(4).genus == 0
    assert Surface(3).dim == 2


def test_class_group():
    assert class_group(CAT, "SU2", Sphere(4)) == FgAbGroup(1)
    assert class_group(CAT, "SU2", Sphere(2)).is_trivial
    assert class_group(CAT, "TEST", Surface(3)) == FgAbGroup(1)


def test_make_bundle_reduces_class():
    b = make_bundle(CAT, "TEST", Sphere(3), (5,))  # classes live in Z/4
    assert b.clazz == (1,)
    assert make_bundle(CAT, "SU2", Sphere(4), [-7]).clazz == (-7,)  # Z: left as given


@pytest.mark.parametrize("build, depth_error", [
    pytest.param(lambda coords: make_bundle(CAT, "SU2", Sphere(4), coords), False,
                 id="make_bundle"),
    pytest.param(lambda coords: connecting_hom_sphere(CAT, "SU2", 4, coords, 3), False,
                 id="connecting_hom_sphere"),
    pytest.param(lambda coords: connecting_hom_sphere(CAT, "SU2", 4, coords, 10), True,
                 id="connecting_hom_sphere-past-table"),
    pytest.param(lambda coords: gauge_homotopy(CAT, "SU2", BundleSpec(Sphere(4), coords), 9),
                 True, id="gauge_homotopy-past-table"),
])
def test_class_coordinates_are_checked(build, depth_error):
    """A class is integer coordinates in pi_(dim-1): a non-integer
    coordinate is a TypeError, and a wrong count a ValueError naming the
    group. Both come before any degree is looked up, so a build that
    needs pi_13 of SU2, past its table, reports the class first and the
    table depth only for a good class."""
    for bad in ((1.5,), ("1",), (None,)):
        with pytest.raises(TypeError):
            build(bad)
    for count in ((), (1, 2)):
        with pytest.raises(ValueError, match=r"must lie in pi_3\(SU2\) = Z\^1"):
            build(count)
    if depth_error:
        with pytest.raises(TableDepthError, match="degree 13 requested"):
            build((1,))


def test_unreduced_class_meets_the_class_zero_split():
    """A BundleSpec built by hand is reduced by the engine, so the class
    4 in Z/4 is class 0 and splits."""
    want = gauge_homotopy(CAT, "TEST", BundleSpec(Sphere(3), (0,)), 1)
    assert want.is_resolved
    assert gauge_homotopy(CAT, "TEST", BundleSpec(Sphere(3), (4,)), 1) == want


def test_sphere_delta_is_negated_pairing():
    # <g, g> = 1 in pi_6(SU2) = Z/12, so delta_3 multiplies by -k
    for k in (1, 5, 12):
        d = connecting_hom_sphere(CAT, "SU2", 4, (k,), 3)
        assert d.images == (((-k) % 12,),)
        assert d.domain == FgAbGroup(1)
        assert d.codomain == FgAbGroup.cyclic(12)


def test_sphere_delta_zero_shortcuts():
    assert image(connecting_hom_sphere(CAT, "SU2", 4, (1,), 2)).is_trivial  # pi_2 = 0
    assert image(connecting_hom_sphere(CAT, "SU2", 4, (0,), 3)).is_trivial  # b = 0
    # abelian entries never need stored pairings
    assert image(connecting_hom_sphere(CAT, "U1", 2, (5,), 1)).is_trivial


def test_sphere_delta_wrong_class_group():
    with pytest.raises(ValueError, match="must lie in"):
        connecting_hom_sphere(CAT, "SU2", 2, (1,), 3)


def test_pairing_unavailable():
    with pytest.raises(PairingUnavailable) as info:
        connecting_hom_sphere(CAT, "SU2", 4, (1,), 4)
    exc = info.value
    assert (exc.group, exc.n, exc.m) == ("SU2", 4, 3)
    assert "pi_4 x pi_3" in str(exc)


# connecting_hom_surface(CAT, group, genus, class, n) at genus 0, 1, 2,
# as (codomain, images of the generators of pi_n), pinned exactly: a
# change of basis in the canonical codomain, which the groups alone
# would not show, fails here
SURFACE_DELTAS = {
    ("TEST", (1,), 1): [("Z/4", ((3,),)), ("Z^2 + Z/4", ((0, 0, 3),)),
                        ("Z^4 + Z/4", ((0, 0, 0, 0, 3),))],
    ("TEST", (1,), 2): [("Z^1 + Z/2", ((0, 1),)),
                        ("Z^1 + Z/2 + Z/4 + Z/4", ((0, 1, 0, 0),)),
                        ("Z^1 + Z/2 + Z/4 + Z/4 + Z/4 + Z/4", ((0, 1, 0, 0, 0, 0),))],
    ("TEST", (1,), 3): [("Z/2", ((1,), (1,))),
                        ("Z^2 + Z/2 + Z/2 + Z/2", ((0, 0, 0, 0, 1),) * 2),
                        ("Z^4 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2", ((0,) * 8 + (1,),) * 2)],
    ("TEST", (2,), 1): [("Z/4", ((2,),)), ("Z^2 + Z/4", ((0, 0, 2),)),
                        ("Z^4 + Z/4", ((0, 0, 0, 0, 2),))],
    ("TEST", (2,), 2): [("Z^1 + Z/2", ((0,) * 2,)), ("Z^1 + Z/2 + Z/4 + Z/4", ((0,) * 4,)),
                        ("Z^1 + Z/2 + Z/4 + Z/4 + Z/4 + Z/4", ((0,) * 6,))],
    ("TEST", (2,), 3): [("Z/2", ((0,),) * 2), ("Z^2 + Z/2 + Z/2 + Z/2", ((0,) * 5,) * 2),
                        ("Z^4 + Z/2 + Z/2 + Z/2 + Z/2 + Z/2", ((0,) * 9,) * 2)],
    ("SU2", (), 1): [("0", ())] * 3,
    ("SU2", (), 2): [("Z^1", ())] * 3,
    ("SU2", (), 3): [("Z/2", ((0,),)), ("Z^2 + Z/2", ((0,) * 3,)), ("Z^4 + Z/2", ((0,) * 5,))],
    ("SU2", (), 4): [("Z/2", ((0,),)), ("Z/2 + Z/2 + Z/2", ((0,) * 3,)),
                     ("Z/2 + Z/2 + Z/2 + Z/2 + Z/2", ((0,) * 5,))],
    ("U1", (1,), 1): [("0", ((),)), ("Z^2", ((0,) * 2,)), ("Z^4", ((0,) * 4,))],
    ("U1", (1,), 2): [("0", ())] * 3,
    ("U1", (1,), 3): [("0", ())] * 3,
}


def test_surface_delta_matrices_are_pinned():
    for (group, coords, n), by_genus in SURFACE_DELTAS.items():
        for genus, (codomain, images) in enumerate(by_genus):
            d = connecting_hom_surface(CAT, group, genus, coords, n)
            assert d.domain == CAT.entry(group).homotopy(n)
            assert (str(d.codomain), d.images) == (codomain, images), (group, coords, n, genus)


def test_surface_delta_lands_in_last_block():
    d = connecting_hom_surface(CAT, "TEST", 1, (1,), 1)
    assert d.codomain == FgAbGroup.of(2, (4,))
    # -<x, b> for the generator x of pi_1 is 3 in pi_2 = Z/4, the last
    # block, which the canonical codomain keeps as its Z/4 coordinate
    pairing = CAT.entry("TEST").samelson[(1, 1)]
    assert apply(pairing.against((1,)), (1,)) == (1,)
    assert apply(d, (1,)) == (0, 0, 3)
    assert apply(d, (4,)) == (0, 0, 0) and apply(d, (2,)) != (0, 0, 0)  # of order 4


def test_surface_delta_zero_shortcuts():
    assert image(connecting_hom_surface(CAT, "U1", 1, (3,), 1)).is_trivial
    su2 = ()  # pi_1(SU2) = 0
    d = connecting_hom_surface(CAT, "SU2", 1, su2, 3)
    assert image(d).is_trivial
    # codomain is still the full 2g + 1 block sum: Z^2 + Z/2
    assert d.domain == FgAbGroup(1)
    assert d.codomain == FgAbGroup.of(2, (2,))
    d = connecting_hom_surface(CAT, "SU2", 2, su2, 3)
    assert image(d).is_trivial and d.codomain == FgAbGroup.of(4, (2,))


def test_gauge_su2_over_s4():
    for k, want in ((6, "Z/6"), (1, "0"), (0, "Z/12"), (8, "Z/4")):
        bundle = make_bundle(CAT, "SU2", Sphere(4), (k,))
        r = gauge_homotopy(CAT, "SU2", bundle, 2)
        assert r.is_resolved and str(r.resolved) == want


def test_su2_gcd_closed_form():
    for k in range(-30, 31):
        r = gauge_homotopy(CAT, "SU2", make_bundle(CAT, "SU2", Sphere(4), (k,)), 2)
        assert r.is_resolved and r.resolved == FgAbGroup.cyclic(gcd(k, 12))


def test_gauge_degree_three_splits_for_trivial_bundle():
    bundle = make_bundle(CAT, "SU2", Sphere(4), (0,))
    r = gauge_homotopy(CAT, "SU2", bundle, 3)
    assert r.is_resolved and str(r.resolved) == "Z^1 + Z/2"


def test_trivial_bundle_splits_before_extension_search():
    # resolve_extension(Z/30, Z/12) alone leaves four candidates
    b = make_bundle(CAT, "SU3", Sphere(2), ())
    r = gauge_homotopy(CAT, "SU3", b, 8)
    assert r.is_resolved and r.resolved == FgAbGroup.of(0, (6, 60))


def test_gauge_degree_three_needs_missing_pairing():
    bundle = make_bundle(CAT, "SU2", Sphere(4), (1,))
    with pytest.raises(PairingUnavailable):
        gauge_homotopy(CAT, "SU2", bundle, 3)


def test_gauge_degree_zero_rejected():
    bundle = make_bundle(CAT, "SU2", Sphere(4), (0,))
    with pytest.raises(ValueError, match="start at 1"):
        gauge_homotopy(CAT, "SU2", bundle, 0)


def test_gauge_over_circle():
    """Trivial class group: pi_n(Gau) = pi_n(K) + pi_(n+1)(K)."""
    bundle = make_bundle(CAT, "SU2", Sphere(1), ())
    r = gauge_homotopy(CAT, "SU2", bundle, 3)
    assert r.is_resolved and r.resolved == FgAbGroup.of(1, (2,))


def test_gauge_table_depth_propagates():
    """The first degree past SU2's table (depth 12) is named, in the order
    the ends are read: pi_(n+1), pi_(n+dim), pi_n, pi_(n+dim-1). So at
    degree 10 over S^4 degree 14 is named, although 13 is missing too."""
    bundle = make_bundle(CAT, "SU2", Sphere(4), (1,))
    for n, missing in ((9, 13), (10, 14)):
        with pytest.raises(TableDepthError, match=f"degree {missing} requested"):
            gauge_homotopy(CAT, "SU2", bundle, n)


def test_gauge_ambiguous_extension():
    bundle = make_bundle(CAT, "TEST", Sphere(2), (2,))
    r = gauge_homotopy(CAT, "TEST", bundle, 2)
    assert not r.is_resolved
    assert [str(c) for c in r.candidates] == ["Z/2 + Z/4", "Z/8"]
    assert str(r.sub) == "Z/2" and str(r.quot) == "Z/4"


def test_gauge_surface_multi_block():
    bundle = make_bundle(CAT, "SU3", Surface(3), ())
    r = gauge_homotopy(CAT, "SU3", bundle, 4)
    assert r.is_resolved and r.resolved == FgAbGroup.of(6, (6,))


def test_high_genus_merges_in_linear_time():
    """pi_4(SU2)^16000 = (Z/2)^16000 joins sub as one chain of 16000
    copies, by one divisibility test rather than pair by pair."""
    start = time.perf_counter()
    r = gauge_homotopy(CAT, "SU2", BundleSpec(Surface(8000), ()), 3)
    assert time.perf_counter() - start < 1.0
    assert r.resolved == FgAbGroup(1, (2,) * 16001)


def test_genus_sub_matches_the_merge_of_its_copies():
    """sub = coker + h1^k, with h1's chain taken k times, equals of's merge
    of coker's chain and k repeats of h1's. A join reads the first and last
    factors alone, so chains of at most 2 factors cover every case."""
    groups = [g for g in SMALL if len(g.invariant_factors) <= 2]
    for coker, h1, k in itertools.product(groups, groups, range(6)):
        want = FgAbGroup.of(coker.rank + k * h1.rank,
                            coker.invariant_factors + k * h1.invariant_factors)
        assert _genus_sub(coker, h1, k) == want


def test_high_genus_refusal_is_fast():
    """gauge_homotopy's early genus refusal fires first: 2g = 400,000
    zero blocks give |tors sub| >= 2^400000, past the bound, so the query
    is refused before sub's 400,000 torsion factors are built."""
    bundle = make_bundle(CAT, "TEST", Surface(200000), (1,))
    start = time.perf_counter()
    with pytest.raises(CapacityError, match="exceeds the bound 10000"):
        gauge_homotopy(CAT, "TEST", bundle, 2)
    assert time.perf_counter() - start < 1.0


def test_genus_refusal_only_where_the_extension_refuses():
    """gauge_homotopy refuses before building sub exactly when
    resolve_extension on the built sub and quot would refuse too."""
    bounds = sorted({*range(40), *(2**e + d for e in range(6, 13) for d in (-1, 0, 1))})
    for genus, n, coords in itertools.product(range(4), (1, 2), ((1,), (2,), (3,))):
        bundle = make_bundle(CAT, "TEST", Surface(genus), coords)
        full = gauge_homotopy(CAT, "TEST", bundle, n, torsion_bound=10**9)
        for bound in bounds:
            try:
                want = resolve_extension(full.sub, full.quot, bound)
            except CapacityError:
                with pytest.raises(CapacityError, match=f"exceeds the bound {bound}$"):
                    gauge_homotopy(CAT, "TEST", bundle, n, torsion_bound=bound)
            else:
                assert gauge_homotopy(CAT, "TEST", bundle, n, torsion_bound=bound) == want


def test_genus_zero_equals_two_sphere():
    for coords, n in (((1,), 1), ((1,), 2), ((2,), 2)):
        surf = gauge_homotopy(CAT, "TEST", make_bundle(CAT, "TEST", Surface(0), coords), n)
        sph = gauge_homotopy(CAT, "TEST", make_bundle(CAT, "TEST", Sphere(2), coords), n)
        assert surf == sph


@pytest.mark.parametrize(
    "group, degree, coords",
    [("TEST", 1, (0,)), ("TEST", 1, (1,)), ("TEST", 1, (2,)), ("U1", 1, (1,)),
     ("SU2", 3, ()), ("SU3", 3, ())],
)
def test_surface_split_matches_literal_maps(group, degree, coords):
    """A genus-g surface computed as S^2 plus split pi_(n+1)^2g summands
    equals the middle group of the two full block maps."""
    for genus in (1, 2, 3):
        bundle = make_bundle(CAT, group, Surface(genus), coords)
        literal = middle_group(
            connecting_hom_surface(CAT, group, genus, bundle.clazz, degree + 1),
            connecting_hom_surface(CAT, group, genus, bundle.clazz, degree),
        )
        assert gauge_homotopy(CAT, group, bundle, degree) == literal


def test_sphere_queries_match_literal_maps():
    """On every answered sphere query of the golden grid, the engine, which
    builds no structural zero map, equals middle_group of the public maps
    connecting_hom_sphere builds. Class 0 splits in the engine, so there
    the literal candidates must contain its split answer."""
    spheres = [q for q in answered_queries(CAT) if isinstance(q[1].base, Sphere)]
    assert len(spheres) == 256
    for group, bundle, n in spheres:
        b, m = bundle.clazz, bundle.base.dim
        literal = middle_group(connecting_hom_sphere(CAT, group, m, b, n + 1),
                               connecting_hom_sphere(CAT, group, m, b, n))
        got = gauge_homotopy(CAT, group, bundle, n)
        if not any(b):
            assert (got.sub, got.quot) == (literal.sub, literal.quot)
            assert got.resolved in literal.candidates
        else:
            assert got == literal


def test_rational_values():
    assert gauge_homotopy_rational(CAT, "SU2", make_bundle(CAT, "SU2", Sphere(4), (0,)), 3) == 1
    assert gauge_homotopy_rational(CAT, "SU2", make_bundle(CAT, "SU2", Sphere(4), (0,)), 2) == 0
    assert gauge_homotopy_rational(CAT, "TEST", make_bundle(CAT, "TEST", Surface(2), (0,)), 2) == 4
    assert gauge_homotopy_rational(CAT, "U1", make_bundle(CAT, "U1", Surface(1), (0,)), 1) == 1
    assert gauge_homotopy_rational(CAT, "U1", make_bundle(CAT, "U1", Sphere(1), ()), 1) == 1
    # SU3 has exponents 3 and 5: dim pi_5 + dim pi_1 over S^4 in degree 1
    assert gauge_homotopy_rational(CAT, "SU3", make_bundle(CAT, "SU3", Sphere(4), (0,)), 1) == 1


def test_rational_is_class_independent():
    for n in range(1, 7):
        dims = {
            gauge_homotopy_rational(CAT, "SU2", make_bundle(CAT, "SU2", Sphere(4), (k,)), n)
            for k in (0, 1, 7)
        }
        assert len(dims) == 1


def test_rational_agrees_with_zero_sequence():
    for base in (Sphere(4), Sphere(5), Surface(0), Surface(2)):
        size = class_group(CAT, "SU2", base).ngens
        bundle = make_bundle(CAT, "SU2", base, (0,) * size)
        for n in range(1, 9):
            closed = gauge_homotopy_rational(CAT, "SU2", bundle, n)
            assert closed == rational_via_zero_sequence(CAT, "SU2", base, n)


def test_rational_degree_zero_rejected():
    bundle = make_bundle(CAT, "SU2", Sphere(4), (0,))
    with pytest.raises(ValueError):
        gauge_homotopy_rational(CAT, "SU2", bundle, 0)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: connecting_hom_sphere(CAT, "SU2", 4, (1,), 0), id="sphere-n-0"),
    pytest.param(lambda: connecting_hom_sphere(CAT, "SU2", 0, (1,), 3), id="sphere-m-0"),
    pytest.param(lambda: connecting_hom_surface(CAT, "SU2", -1, (1,), 3), id="genus-negative"),
])
def test_connecting_map_rejections(call):
    with pytest.raises(ValueError):
        call()
