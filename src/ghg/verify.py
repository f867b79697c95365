"""Runnable invariant suite behind the ``verify`` CLI command.

Each check is a named function returning a summary string on success
and raising CheckFailure with a diagnosis on failure. The random
checks draw from a fixed seed so a verify run is reproducible.

The oracles the checks hold the engine against live here, not in the
engine modules, which keep only what ``compute`` runs. Their algebra
takes a matrix as the engine does, as a list of integer rows, with its
width passed beside it only where it may have no rows: snf borders
fgab's Smith reduction to record unimodular transforms, matmul
multiplies them back out, and canonicalize reads a presentation's
canonical form, such as a group's own _diagonal_relations.
An element is its coordinate tuple, as a bundle class is: apply
evaluates a map on one, reduced in the codomain.
The oracles: middle_group resolves a literal five-term fragment, image
reads the transform U of snf, enumerate_elements lists a finite group,
det and is_diagonal test Smith forms directly (det also gives the
maximal minors, whose gcd is the order of a presentation),
rational_via_zero_sequence runs the rationalized sequence of zero maps,
and extension_types types the middle group of every class of
Ext^1(quot, sub), which is every extension of quot by sub, free rank
included.
"""
from __future__ import annotations

import itertools
import operator
import random
from math import gcd, prod

from . import SEED
from .catalog import Catalog, TableDepthError
from .exactseq import SequenceResult, TorsionBoundError, resolve_extension
from .fgab import (
    FgAbGroup,
    Homomorphism,
    _diagonal_relations,
    _presented,
    _reduced,
    _smith,
    cokernel,
    kernel,
)
from .gaugecalc import (
    BundleSpec,
    Sphere,
    Surface,
    class_group,
    connecting_hom_sphere,
    connecting_hom_surface,
    gauge_homotopy,
    gauge_homotopy_rational,
    make_bundle,
)

# How many draws each oracle check makes, and the entry bounds of the
# random matrices, presentations, maps and elements they draw.
SNF_MATRICES = 1000
CANONICAL_GROUPS = 200
ORDER_PRESENTATIONS = 200
HOM_MAPS = 200
EXTENSION_SUBGROUPS = 100
FREE_RANK_SUBGROUPS = 50
SIGN_FRAGMENTS = 100
MATRIX_MAX_DIM, MATRIX_SPAN = 6, 9
PRESENTATION_MAX_GENS, PRESENTATION_SPAN = 3, 6
HOM_FREE_SPAN, ELEMENT_SPAN = 3, 4
# The most Ext^1 classes extension_types types before it answers None.
EXT_CLASSES = 256


class CheckFailure(AssertionError):
    pass


# ------------------------------------------------------------------- algebra


def snf(a, ncols: int) -> tuple[list, list, list]:
    """Smith normal form of the integer rows a, ncols wide: unimodular
    (U, D, V), as row lists, with U a V == D.

    D has the same shape as ``a``, is diagonal with nonnegative entries,
    and consecutive diagonal entries divide each other (zeros last).
    _smith reduces the bordered matrix [[a, I], [I, 0]] to [[D, U], [V, 0]].

    >>> snf([[2, 0], [0, 3]], 2)[1]
    [[1, 0], [0, 6]]
    """
    nrows = len(a)
    m = [list(row) + [0] * nrows for row in a] + [[0] * (ncols + nrows) for _ in range(ncols)]
    for k, row in enumerate(m):
        row[ncols + k if k < nrows else k - nrows] = 1
    _smith(m, nrows, ncols)
    return ([row[ncols:] for row in m[:nrows]], [row[:ncols] for row in m[:nrows]],
            [row[:ncols] for row in m[nrows:]])


def matmul(a, b) -> list[list[int]]:
    """The product a b of row lists; a shape mismatch raises ValueError."""
    if any(len(row) != len(b) for row in a) or any(len(row) != len(b[0]) for row in b):
        raise ValueError("shape mismatch in product")
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) for col in cols] for row in a]


def canonicalize(relations, ncols: int) -> FgAbGroup:
    """Canonical form of Z^ncols modulo the row span of relations, which
    are left as they are.

    >>> canonicalize([[2, 0], [0, 3]], 2)
    FgAbGroup(rank=0, invariant_factors=(6,))
    """
    return _presented([list(row) for row in relations], ncols)


def apply(f: Homomorphism, x) -> tuple[int, ...]:
    """f(x), reduced, for x the coordinates of an element of f.domain."""
    if len(x) != f.domain.ngens:
        raise ValueError("element not in the domain")
    return _reduced(f.codomain, tuple(sum(c * y[i] for c, y in zip(x, f.images))
                                      for i in range(f.codomain.ngens)))


# ------------------------------------------------------------------- oracles


def middle_group(left: Homomorphism, right: Homomorphism) -> SequenceResult:
    """Resolve X in ... -> A --left--> B -> X -> C --right--> D -> ...
    from the literal maps: sub = coker left, quot = ker right."""
    return resolve_extension(cokernel(left), kernel(right))


def _image_smith(f: Homomorphism) -> tuple[FgAbGroup, FgAbGroup]:
    """(im f, coker f) from one Smith form U P V = D of P, the images of f
    stacked over the codomain relations rel_cod:
    coker f = Z^h / D, with zero and missing pivots free and unit ones
    dropped. For r nonzero pivots, rows r.. of U span the left kernel of
    P; a kernel row (x, y) has f(x) = -y rel_cod, so as the rows of rel_cod
    are independent, their first g coordinates are a basis of the preimage
    lattice K = {x : f(x) is a codomain relation}, and im f = Z^g / K."""
    g, h = f.domain.ngens, f.codomain.ngens
    u, d, _ = snf([*f.images, *_diagonal_relations(f.codomain.generator_orders())], h)
    diag = [d[i][i] for i in range(min(len(d), h))]
    coker = FgAbGroup.of(h - len(diag), diag)
    return canonicalize([row[:g] for row in u[h - coker.rank:]], g), coker


def image(f: Homomorphism) -> FgAbGroup:
    """Image of a homomorphism, read off the transform U of snf.

    >>> str(image(Homomorphism(FgAbGroup(1), FgAbGroup.cyclic(12), [(5,)])))
    'Z/12'
    """
    return _image_smith(f)[0]


def _subgroup_types(group: FgAbGroup, gens) -> tuple[FgAbGroup, FgAbGroup]:
    """Types of S and group/S, for S generated by the coordinate tuples gens."""
    return _image_smith(Homomorphism(FgAbGroup(len(gens)), group, gens))


def extension_types(sub: FgAbGroup, quot: FgAbGroup) -> tuple[FgAbGroup, ...] | None:
    """Every type of X in 0 -> sub -> X -> quot -> 0, sorted by rank then
    factor list, or None when there are more than EXT_CLASSES classes.

    For quot = Z^s + Z/b_1 + ... + Z/b_t, Ext^1(quot, sub) is the sum of
    the sub/b_j sub (Hilton & Stammbach, A Course in Homological Algebra,
    GTM 4, Ch. III), and the class c = (c_j) has middle group
    X_c = (sub + Z^t)/<(-c_j, b_j e_j)> + Z^s. Every extension is some
    X_c, so their types are all the types, free rank included. A
    coordinate of c_j on a generator of order d (0 when free) runs over
    range(gcd(d, b_j)), one representative per class.

    >>> [str(x) for x in extension_types(FgAbGroup(1), FgAbGroup.cyclic(2))]
    ['Z^1', 'Z^1 + Z/2']
    """
    orders, factors = sub.generator_orders(), quot.invariant_factors
    n, t = len(orders), len(factors)
    ranges = [range(gcd(d, b)) for b in factors for d in orders]
    if prod(map(len, ranges)) > EXT_CLASSES:
        return None
    types = set()
    for c in itertools.product(*ranges):
        # fresh rows per class: _presented reduces them in place
        rows = _diagonal_relations(orders + (0,) * t)
        rows += [[-x for x in c[j * n:(j + 1) * n]] + [b * (k == j) for k in range(t)]
                 for j, b in enumerate(factors)]
        x = _presented(rows, n + t)
        types.add(FgAbGroup(x.rank + quot.rank, x.invariant_factors))
    return tuple(sorted(types, key=lambda x: (x.rank, x.invariant_factors)))


def enumerate_elements(group: FgAbGroup) -> list[tuple[int, ...]]:
    """All elements of a finite group, coordinate-lexicographic order."""
    if group.rank != 0:
        raise ValueError(f"{group} is infinite")
    return list(itertools.product(*(range(d) for d in group.invariant_factors)))


def is_diagonal(m) -> bool:
    return all(v == 0 for i, row in enumerate(m) for j, v in enumerate(row) if i != j)


def det(m) -> int:
    """Exact determinant of the square rows m by fraction-free (Bareiss)
    elimination."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(row) for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # exact division: Bareiss guarantees divisibility by prev
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def rational_via_zero_sequence(
    catalog: Catalog, group: str, base: Sphere | Surface, n: int
) -> int:
    """Independent route to the rational dimension: rationalize the
    sequence, where both connecting maps vanish, and resolve the middle
    group of actual zero maps between free groups. delta_k runs from
    pi_k to pi_k^2g + pi_(k+dim-1), as over every base."""
    if n < 1:
        raise ValueError("gauge homotopy degrees start at 1 (degree 0 is out of scope)")

    exponents = catalog.entry(group).rational_exponents

    def zero_delta(k: int) -> Homomorphism:
        dim_k = exponents.count(k)
        target = 2 * base.genus * dim_k + exponents.count(k + base.dim - 1)
        return Homomorphism.zero(FgAbGroup(dim_k), FgAbGroup(target))

    result = middle_group(zero_delta(n + 1), zero_delta(n))
    if not result.is_resolved:
        raise ArithmeticError(f"a free quotient must split, got candidates {result.candidates}")
    return result.resolved.rank


# ---------------------------------------------------------------- generators


def random_matrix(rng) -> list[list[int]]:
    """Integer rows, at least one, each at least one entry wide."""
    rows = rng.randint(1, MATRIX_MAX_DIM)
    cols = rng.randint(1, MATRIX_MAX_DIM)
    span = MATRIX_SPAN
    return [[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)]


def random_presentation(rng) -> tuple[list[list[int]], int]:
    """(relation rows, generator count), the count passed as there may be no rows."""
    gens = rng.randint(0, PRESENTATION_MAX_GENS)
    rels = rng.randint(0, gens + 2)
    span = PRESENTATION_SPAN
    return [[rng.randint(-span, span) for _ in range(gens)] for _ in range(rels)], gens


def random_group(rng, max_order: int, max_rank: int = 1) -> FgAbGroup:
    while True:
        g = canonicalize(*random_presentation(rng))
        if g.rank <= max_rank and g.torsion_order <= max_order:
            return g


def random_hom(rng, dom: FgAbGroup, cod: FgAbGroup) -> Homomorphism:
    """Uniform-ish well-defined map: each image is drawn from the
    elements of the codomain killed by the generator's order."""
    images = []
    for d in dom.generator_orders():
        y = []
        for e in cod.generator_orders():
            if e == 0:
                y.append(rng.randint(-HOM_FREE_SPAN, HOM_FREE_SPAN) if d == 0 else 0)
            elif d == 0:
                y.append(rng.randrange(e))
            else:
                g = gcd(e, d)
                y.append((e // g) * rng.randrange(g))
        images.append(y)
    return Homomorphism(dom, cod, images)


# -------------------------------------------------------------------- checks


def check_snf_suite(catalog, rng):
    """U A V == D, |det U| = |det V| = 1, nonnegative divisor chain."""
    for k in range(SNF_MATRICES):
        a = random_matrix(rng)
        u, d, v = snf(a, len(a[0]))
        if matmul(matmul(u, a), v) != d:
            raise CheckFailure(f"transform product mismatch on matrix #{k}: {a!r}")
        if abs(det(u)) != 1 or abs(det(v)) != 1:
            raise CheckFailure(f"non-unimodular transform on matrix #{k}: {a!r}")
        if not is_diagonal(d):
            raise CheckFailure(f"D not diagonal on matrix #{k}: {a!r}")
        diag = [d[i][i] for i in range(min(len(d), len(d[0])))]
        if any(x < 0 for x in diag):
            raise CheckFailure(f"negative diagonal on matrix #{k}: {a!r}")
        for x, y in zip(diag, diag[1:]):
            if (x == 0 and y != 0) or (x != 0 and y % x != 0):
                raise CheckFailure(f"divisibility chain broken on matrix #{k}: {a!r}")
    return f"{SNF_MATRICES} random matrices verified by direct multiplication"


def check_canonicalize_idempotent(catalog, rng):
    for _ in range(CANONICAL_GROUPS):
        g = random_group(rng, 200, max_rank=2)
        if canonicalize(_diagonal_relations(g.generator_orders()), g.ngens) != g:
            raise CheckFailure(f"canonical form of {g} not a fixed point")
    return f"{CANONICAL_GROUPS} canonical groups are fixed points"


def check_group_order_oracle(catalog, rng):
    """The order of a random presentation, 0 when infinite, is the gcd of
    its maximal minors (the product of its Smith pivots, 0 when there are
    fewer pivots than generators)."""
    for _ in range(ORDER_PRESENTATIONS):
        rows, gens = random_presentation(rng)
        minors = map(det, itertools.combinations(rows, gens))
        if (canonicalize(rows, gens).order or 0) != gcd(*minors):
            raise CheckFailure(f"order mismatch for {rows} on {gens} generators")
    return f"{ORDER_PRESENTATIONS} random presentations cross-checked by their maximal minors"


def check_hom_oracle(catalog, rng):
    """|ker| and |im| against brute force, with |ker| * |im| = |dom| and
    |im| * |coker| = |cod|, for random maps between finite groups. Fixed
    maps into codomains with free rank, whose torsion coordinates start
    after the free ones, take every check but the last."""
    maps = [random_hom(rng, random_group(rng, 64, max_rank=0), random_group(rng, 64, max_rank=0))
            for _ in range(HOM_MAPS)]
    fixed = [Homomorphism(FgAbGroup.cyclic(4), FgAbGroup(1, (4,)), [(0, 2)]),
             Homomorphism(FgAbGroup(0, (2, 4)), FgAbGroup(2, (2, 8)), [(0, 0, 1, 4), (0, 0, 1, 2)]),
             Homomorphism(FgAbGroup.cyclic(6), FgAbGroup(1, (2, 6)), [(0, 1, 3)])]
    for f in maps + fixed:
        ker, im = kernel(f), image(f)
        values = [apply(f, x) for x in enumerate_elements(f.domain)]
        ker_n = sum(1 for y in values if not any(y))
        im_n = len(set(values))
        if ker.order != ker_n or im.order != im_n:
            raise CheckFailure(f"decomposition disagrees with enumeration for {f}")
        if ker.order * im.order != f.domain.order:
            raise CheckFailure(f"|ker|*|im| != |dom| for {f}")
        if f.codomain.rank == 0 and im.order * cokernel(f).order != f.codomain.order:
            raise CheckFailure(f"|im|*|coker| != |cod| for {f}")
    return (f"{HOM_MAPS} random maps and {len(fixed)} fixed maps into free-rank codomains "
            "decomposed and recounted")


def _check_subgroup_pairs(draws, what: str) -> str:
    """For each drawn group X and generators of a subgroup S,
    resolve_extension(S, X/S) must list X, and must list exactly the
    extension_types(S, X/S) wherever there are at most EXT_CLASSES classes;
    a group missing from the list is named first."""
    compared = 0
    for x, gens in draws:
        sub, quot = _subgroup_types(x, gens)
        candidates = resolve_extension(sub, quot).candidates
        types = extension_types(sub, quot)
        missing = [g for g in (x,) + (types or ()) if g not in candidates]
        if missing:
            raise CheckFailure(f"{missing[0]} missing from resolve_extension({sub}, {quot})")
        if types is not None and candidates != types:
            raise CheckFailure(f"resolve_extension({sub}, {quot}) lists "
                               f"{', '.join(map(str, candidates))}, "
                               f"Ext^1 gives {', '.join(map(str, types))}")
        compared += types is not None
    return (f"{len(draws)} {what} re-contain the source group, and {compared}/"
            f"{len(draws)} with at most {EXT_CLASSES} Ext^1 classes list exactly the Ext^1 types")


def check_extension_oracle(catalog, rng):
    """Build X, a random subgroup S and X/S, with X finite; then the fixed
    X = Z/16, S = <8>: sub Z/2 and quot Z/8 take a horizontal strip of
    the drop below mu = (1) plus two cells, so a strip that outgrows
    the row above lists the extra type Z/4 + Z/4."""
    draws = []
    for _ in range(EXTENSION_SUBGROUPS):
        x = random_group(rng, 64, max_rank=0)
        k = rng.randint(0, 3)
        draws.append((x, [_bounded_element(rng, x) for _ in range(k)]))
    draws.append((FgAbGroup.cyclic(16), [(8,)]))
    return _check_subgroup_pairs(
        draws, f"subgroup/quotient pairs ({EXTENSION_SUBGROUPS} random, 1 fixed)")


def check_free_rank_oracle(catalog, rng):
    """Build X = Z^r + T with r >= 1, a subgroup S generated by elements
    with free coordinates, and X/S, where the free part of X can absorb
    torsion of X/S."""
    draws = []
    for _ in range(FREE_RANK_SUBGROUPS):
        x = FgAbGroup(rng.randint(1, 2), random_group(rng, 32, max_rank=0).invariant_factors)
        k = rng.randint(1, 3)
        draws.append((x, [_bounded_element(rng, x) for _ in range(k)]))
    return _check_subgroup_pairs(draws, "random subgroups of infinite groups")


def check_sign_invariance(catalog, rng):
    """middle_group is unchanged by negating either connecting map, free ranks included."""

    def neg(f):
        return Homomorphism(f.domain, f.codomain, [[-c for c in y] for y in f.images])

    for _ in range(SIGN_FRAGMENTS):
        a = random_group(rng, 16)
        b = random_group(rng, 8)
        c = random_group(rng, 8)
        d = random_group(rng, 16)
        left = random_hom(rng, a, b)
        right = random_hom(rng, c, d)
        base = middle_group(left, right)
        if middle_group(neg(left), right) != base or middle_group(left, neg(right)) != base:
            raise CheckFailure(f"sign sensitivity for fragment {left} / {right}")
    return f"{SIGN_FRAGMENTS} random fragments stable under negating either map"


def check_catalog_consistency(catalog, rng):
    """apply(against(b), a) equals the bilinear sum sum_ij a_i b_j
    values[i][j], taken on integers and reduced once in the target, for
    sampled bounded a, b and their sums; the loader has already checked
    that the values are torsion and that each row and column is a
    homomorphism."""
    for name in catalog.names():
        for (n, m), pairing in catalog.entry(name).samelson.items():
            for _ in range(20):
                a1 = _bounded_element(rng, pairing.source_n)
                a2 = _bounded_element(rng, pairing.source_n)
                b1 = _bounded_element(rng, pairing.source_m)
                b2 = _bounded_element(rng, pairing.source_m)
                sums = tuple(map(operator.add, a1, a2)), tuple(map(operator.add, b1, b2))
                for a, b in ((a1, b1), (a2, b2), sums):
                    bilinear = _reduced(pairing.target, tuple(
                        sum(x * y * v[k] for x, row in zip(a, pairing.values)
                            for y, v in zip(b, row)) for k in range(pairing.target.ngens)))
                    if apply(pairing.against(b), a) != bilinear:
                        raise CheckFailure(f"{name}: pairing ({n},{m}) against {b} "
                                           f"maps {a} off the bilinear sum")
    return f"{len(catalog.names())} entries consistent"


def _bounded_element(rng, group) -> tuple[int, ...]:
    return tuple(rng.randint(-ELEMENT_SPAN, ELEMENT_SPAN) if d == 0 else rng.randrange(d)
                 for d in group.generator_orders())


def check_su2_gcd_table(catalog, rng):
    """pi_2 of the gauge group of the SU2-bundle over S^4 with second
    Chern number k, through the full engine, matches the gcd closed
    form; k = 1 is the Hopf bundle, whose pi_2 vanishes."""
    for k in range(-24, 25):
        bundle = make_bundle(catalog, "SU2", Sphere(4), (k,))
        got = gauge_homotopy(catalog, "SU2", bundle, 2)
        want = FgAbGroup.cyclic(gcd(k, 12))
        if got.candidates != (want,):
            raise CheckFailure(f"k={k}: engine {', '.join(map(str, got.candidates))}, "
                               f"closed form {want}")
    return "k in [-24, 24] matches Z/gcd(k, 12)"


def _all_bases():
    return [Sphere(m) for m in range(1, 7)] + [Surface(g) for g in range(4)]


def check_rational_two_path(catalog, rng):
    """Closed form equals the zero-map sequence route everywhere."""
    tried = 0
    for name in catalog.names():
        for base in _all_bases():
            bundle = BundleSpec(base, None)  # the rational answer never reads the class
            for n in range(1, 11):
                closed = gauge_homotopy_rational(catalog, name, bundle, n)
                via_seq = rational_via_zero_sequence(catalog, name, base, n)
                if closed != via_seq:
                    raise CheckFailure(
                        f"{name} over {base} degree {n}: closed {closed}, sequence {via_seq}"
                    )
                tried += 1
    return f"{tried} (group, base, degree) triples agree across both routes"


def check_rational_class_independence(catalog, rng):
    """The rational answer, which never reads the bundle class, is the
    rank of every candidate the integral engine gives for sampled
    classes, in degrees 1 and 2."""
    cases = [("SU2", Sphere(4)), ("TEST", Surface(2)), ("TEST", Sphere(2)), ("U1", Surface(1))]
    draws = 5
    for name, base in cases:
        for _ in range(draws):
            coords = tuple(
                rng.randint(-3, 3) if d == 0 else rng.randrange(d)
                for d in class_group(catalog, name, base).generator_orders()
            )
            bundle = make_bundle(catalog, name, base, coords)
            for n in (1, 2):
                dim = gauge_homotopy_rational(catalog, name, bundle, n)
                ranks = {c.rank for c in gauge_homotopy(catalog, name, bundle, n).candidates}
                if ranks != {dim}:
                    raise CheckFailure(f"{name} over {base} class {coords} degree {n}: "
                                       f"ranks {ranks}, not Q^{dim}")
    return f"{draws * len(cases)} sampled bundles in degrees 1 and 2 match the rational rank"


def check_class_negation(catalog, rng):
    """Negating the bundle class negates delta but fixes the answer."""
    for k in (1, 2, 5, 12):
        d_plus = connecting_hom_sphere(catalog, "SU2", 4, (k,), 3)
        d_minus = connecting_hom_sphere(catalog, "SU2", 4, (-k,), 3)
        negated = _reduced(d_plus.codomain, tuple(-c for c in apply(d_plus, (1,))))
        if apply(d_minus, (1,)) != negated:
            raise CheckFailure(f"delta not negated entrywise at k={k}")
        a = gauge_homotopy(catalog, "SU2", BundleSpec(Sphere(4), (k,)), 2)
        b = gauge_homotopy(catalog, "SU2", BundleSpec(Sphere(4), (-k,)), 2)
        if a != b:
            raise CheckFailure(f"k and -k disagree at k={k}")
    return "negating the class negates delta and fixes the middle group"


def check_genus_zero_matches_sphere(catalog, rng):
    """Genus 0 is S^2: the surface and sphere calculators and the middle
    group of the literal genus-0 surface maps give the same answer."""
    for name in ("SU2", "TEST", "U1"):
        coords = (1,) * class_group(catalog, name, Surface(0)).ngens
        b = make_bundle(catalog, name, Surface(0), coords).clazz
        for n in (1, 2):
            surface = gauge_homotopy(catalog, name, BundleSpec(Surface(0), b), n)
            sphere = gauge_homotopy(catalog, name, BundleSpec(Sphere(2), b), n)
            literal = middle_group(
                connecting_hom_surface(catalog, name, 0, b, n + 1),
                connecting_hom_surface(catalog, name, 0, b, n),
            )
            if not surface == sphere == literal:
                raise CheckFailure(
                    f"{name} class {coords} degree {n}: surface {surface}, "
                    f"sphere {sphere}, literal surface maps {literal}"
                )
    return "genus-0 surfaces agree with the S^2 sphere route"


def check_trivial_bundle_split(catalog, rng):
    """Class 0 splits: the constant maps are a section of evaluation
    Map(B, K) -> K, so Gau(P) = K x Map_*(B, K), and the suspension of B
    is S^(dim+1) plus 2g copies of S^2. So the engine must answer exactly
    pi_n(K) + pi_(n+dim)(K) + pi_(n+1)(K)^2g, read straight off the pi
    tables, and the same at torsion bound 0, since a split is settled
    before the bound; queries past a table are skipped and counted."""
    compared = skipped = 0
    for name, base, n in itertools.product(catalog.names(), _all_bases(), range(1, 11)):
        try:
            bundle = BundleSpec(base, (0,) * class_group(catalog, name, base).ngens)
            got = gauge_homotopy(catalog, name, bundle, n).candidates
            parts = [catalog.entry(name).homotopy(d)
                     for d in (n, n + base.dim) + (n + 1,) * 2 * base.genus]
        except TableDepthError:
            skipped += 1
            continue
        want = FgAbGroup.of(sum(p.rank for p in parts),
                            [d for p in parts for d in p.invariant_factors])
        if got != (want,):
            raise CheckFailure(f"{name} over {base} degree {n}: engine "
                               f"{', '.join(map(str, got))}, split {want}")
        try:
            if gauge_homotopy(catalog, name, bundle, n, 0).candidates != got:
                raise CheckFailure(f"{name} over {base} degree {n}: answer changes at torsion bound 0")
        except TorsionBoundError:
            raise CheckFailure(f"{name} over {base} degree {n}: refused at torsion bound 0") from None
        compared += 1
    return (f"{compared} class-0 queries equal the split pi_n + pi_(n+dim) + pi_(n+1)^2g; "
            f"{skipped} past a table skipped")


CHECKS = [
    ("snf_random_suite", check_snf_suite),
    ("canonicalize_idempotent", check_canonicalize_idempotent),
    ("group_order_oracle", check_group_order_oracle),
    ("hom_oracle", check_hom_oracle),
    ("extension_oracle", check_extension_oracle),
    ("free_rank_oracle", check_free_rank_oracle),
    ("sign_invariance", check_sign_invariance),
    ("catalog_consistency", check_catalog_consistency),
    ("su2_gcd_table", check_su2_gcd_table),
    ("rational_two_path", check_rational_two_path),
    ("rational_class_independence", check_rational_class_independence),
    ("class_negation", check_class_negation),
    ("genus_zero_matches_sphere", check_genus_zero_matches_sphere),
    ("trivial_bundle_split", check_trivial_bundle_split),
]


def run_all(catalog: Catalog, seed: int = SEED):
    """Yield (name, passed, detail) for each check in CHECKS order."""
    for name, fn in CHECKS:
        rng = random.Random(seed)  # each check reproducible in isolation
        try:
            yield name, True, fn(catalog, rng)
        except CheckFailure as exc:
            yield name, False, str(exc)
        except Exception as exc:  # a check must never crash the report
            yield name, False, f"{type(exc).__name__}: {exc}"
