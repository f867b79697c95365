"""Runnable invariant suite behind the ``verify`` CLI command.

Each check is a named function returning a summary string on success
and raising CheckFailure with a diagnosis on failure. The random
checks draw from a fixed seed so a verify run is reproducible.

The oracles the checks hold the engine against live here, not in the
engine modules, which keep only what ``compute`` runs. Their algebra:
snf borders fgab's Smith reduction to record unimodular transforms,
matmul multiplies them back out, relation_matrix presents a group in
canonical form and canonicalize reads a presentation's canonical form.
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
from .catalog import Catalog
from .exactseq import SequenceResult, resolve_extension
from .fgab import (
    FgAbGroup,
    GroupElement,
    Homomorphism,
    IntMatrix,
    _diagonal_relations,
    _presented,
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


def snf(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: return unimodular (U, D, V) with U a V == D.

    D has the same shape as ``a``, is diagonal with nonnegative entries,
    and consecutive diagonal entries divide each other (zeros last).
    _smith reduces the bordered matrix [[a, I], [I, 0]] to [[D, U], [V, 0]].

    >>> u, d, v = snf(IntMatrix([[2, 0], [0, 3]]))
    >>> d
    IntMatrix([[1, 0], [0, 6]], cols=2)
    """
    nrows, ncols = a.rows, a.cols
    m = [list(row) + [int(i == k) for k in range(nrows)] for i, row in enumerate(a.data)]
    m += [[int(i == j) for j in range(ncols)] + [0] * nrows for i in range(ncols)]
    _smith(m, nrows, ncols)
    return (IntMatrix([row[ncols:] for row in m[:nrows]], nrows),
            IntMatrix([row[:ncols] for row in m[:nrows]], ncols),
            IntMatrix([row[:ncols] for row in m[nrows:]], ncols))


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b; a shape mismatch raises ValueError."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch in product")
    # zip(*()) is empty, but a product with no inner dimension is zero
    bcols = list(zip(*b.data)) if b.rows else [()] * b.cols
    return IntMatrix([[sum(map(operator.mul, row, col)) for col in bcols]
                      for row in a.data], b.cols)


def relation_matrix(group: FgAbGroup) -> IntMatrix:
    """The defining relations of a group in canonical form.

    >>> relation_matrix(FgAbGroup(1, (2,)))
    IntMatrix([[0, 2]], cols=2)
    """
    return IntMatrix(_diagonal_relations(group.generator_orders()), group.ngens)


def canonicalize(relations: IntMatrix) -> FgAbGroup:
    """Canonical form of Z^relations.cols modulo the row span of relations.

    >>> canonicalize(IntMatrix([[2, 0], [0, 3]]))
    FgAbGroup(rank=0, invariant_factors=(6,))
    """
    return _presented([list(row) for row in relations.data], relations.cols)


# ------------------------------------------------------------------- oracles


def middle_group(left: Homomorphism, right: Homomorphism) -> SequenceResult:
    """Resolve X in ... -> A --left--> B -> X -> C --right--> D -> ...
    from the literal maps: sub = coker left, quot = ker right."""
    return resolve_extension(cokernel(left), kernel(right))


def _image_smith(f: Homomorphism) -> tuple[FgAbGroup, FgAbGroup]:
    """(im f, coker f) from one Smith form U P V = D of P = [f^T ; rel_cod]:
    coker f = Z^h / D, with zero and missing pivots free and unit ones
    dropped. For r nonzero pivots, rows r.. of U span the left kernel of
    P; a kernel row (x, y) has f(x) = -y rel_cod, so as the rows of rel_cod
    are independent, their first g coordinates are a basis of the preimage
    lattice K = {x : f(x) is a codomain relation}, and im f = Z^g / K."""
    g, h = f.domain.ngens, f.codomain.ngens
    # f^T row by row: with h = 0, zip(*f.matrix.data) would give no rows
    rows = [[row[j] for row in f.matrix.data] for j in range(g)]
    u, d, _ = snf(IntMatrix(rows + list(relation_matrix(f.codomain).data), h))
    diag = [d.data[i][i] for i in range(min(d.rows, h))]
    coker = FgAbGroup.of(h - len(diag), diag)
    return canonicalize(IntMatrix([row[:g] for row in u.data[h - coker.rank:]], g)), coker


def image(f: Homomorphism) -> FgAbGroup:
    """Image of a homomorphism, read off the transform U of snf.

    >>> str(image(Homomorphism(FgAbGroup(1), FgAbGroup.cyclic(12), IntMatrix([[5]]))))
    'Z/12'
    """
    return _image_smith(f)[0]


def _subgroup_types(group: FgAbGroup, gens) -> tuple[FgAbGroup, FgAbGroup]:
    """Types of S and group/S, for S generated by the coordinate tuples gens."""
    return _image_smith(Homomorphism(FgAbGroup(len(gens)), group,
                                     IntMatrix.from_columns(gens, group.ngens)))


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


def enumerate_elements(group: FgAbGroup) -> list[GroupElement]:
    """All elements of a finite group, coordinate-lexicographic order."""
    if group.rank != 0:
        raise ValueError(f"{group} is infinite")
    ranges = [range(d) for d in group.invariant_factors]
    return [GroupElement(group, coords) for coords in itertools.product(*ranges)]


def is_diagonal(m: IntMatrix) -> bool:
    return all(
        v == 0
        for i, row in enumerate(m.data)
        for j, v in enumerate(row)
        if i != j
    )


def det(m: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    if n == 0:
        return 1
    a = [list(row) for row in m.data]
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


def random_matrix(rng) -> IntMatrix:
    rows = rng.randint(1, MATRIX_MAX_DIM)
    cols = rng.randint(1, MATRIX_MAX_DIM)
    span = MATRIX_SPAN
    return IntMatrix([[rng.randint(-span, span) for _ in range(cols)] for _ in range(rows)])


def random_presentation(rng) -> IntMatrix:
    gens = rng.randint(0, PRESENTATION_MAX_GENS)
    rels = rng.randint(0, gens + 2)
    span = PRESENTATION_SPAN
    return IntMatrix(
        [[rng.randint(-span, span) for _ in range(gens)] for _ in range(rels)], gens
    )


def random_group(rng, max_order: int, max_rank: int = 1) -> FgAbGroup:
    while True:
        g = canonicalize(random_presentation(rng))
        if g.rank <= max_rank and g.torsion_order <= max_order:
            return g


def random_hom(rng, dom: FgAbGroup, cod: FgAbGroup) -> Homomorphism:
    """Uniform-ish well-defined map: each column is drawn from the
    elements of the codomain killed by the generator's order."""
    cols = []
    for d in dom.generator_orders():
        col = []
        for e in cod.generator_orders():
            if e == 0:
                col.append(rng.randint(-HOM_FREE_SPAN, HOM_FREE_SPAN) if d == 0 else 0)
            elif d == 0:
                col.append(rng.randrange(e))
            else:
                g = gcd(e, d)
                col.append((e // g) * rng.randrange(g))
        cols.append(col)
    return Homomorphism(dom, cod, IntMatrix.from_columns(cols, cod.ngens))


# -------------------------------------------------------------------- checks


def check_snf_suite(catalog, rng):
    """U A V == D, |det U| = |det V| = 1, nonnegative divisor chain."""
    for k in range(SNF_MATRICES):
        a = random_matrix(rng)
        u, d, v = snf(a)
        if matmul(matmul(u, a), v) != d:
            raise CheckFailure(f"transform product mismatch on matrix #{k}: {a!r}")
        if abs(det(u)) != 1 or abs(det(v)) != 1:
            raise CheckFailure(f"non-unimodular transform on matrix #{k}: {a!r}")
        if not is_diagonal(d):
            raise CheckFailure(f"D not diagonal on matrix #{k}: {a!r}")
        diag = [d.data[i][i] for i in range(min(d.rows, d.cols))]
        if any(x < 0 for x in diag):
            raise CheckFailure(f"negative diagonal on matrix #{k}: {a!r}")
        for x, y in zip(diag, diag[1:]):
            if (x == 0 and y != 0) or (x != 0 and y % x != 0):
                raise CheckFailure(f"divisibility chain broken on matrix #{k}: {a!r}")
    return f"{SNF_MATRICES} random matrices verified by direct multiplication"


def check_canonicalize_idempotent(catalog, rng):
    for _ in range(CANONICAL_GROUPS):
        g = random_group(rng, 200, max_rank=2)
        if canonicalize(relation_matrix(g)) != g:
            raise CheckFailure(f"canonical form of {g} not a fixed point")
    return f"{CANONICAL_GROUPS} canonical groups are fixed points"


def check_group_order_oracle(catalog, rng):
    """The order of a random presentation, 0 when infinite, is the gcd of
    its maximal minors (the product of its Smith pivots, 0 when there are
    fewer pivots than generators)."""
    for _ in range(ORDER_PRESENTATIONS):
        pres = random_presentation(rng)
        minors = (det(IntMatrix(rows, pres.cols))
                  for rows in itertools.combinations(pres.data, pres.cols))
        if (canonicalize(pres).order or 0) != gcd(*minors):
            raise CheckFailure(f"order mismatch for presentation {pres}")
    return f"{ORDER_PRESENTATIONS} random presentations cross-checked by their maximal minors"


def check_hom_oracle(catalog, rng):
    """|ker| * |im| = |dom| and |im| * |coker| = |cod|, against brute force."""
    for _ in range(HOM_MAPS):
        dom = random_group(rng, 64, max_rank=0)
        cod = random_group(rng, 64, max_rank=0)
        f = random_hom(rng, dom, cod)
        ker, im, coker = kernel(f), image(f), cokernel(f)
        elems = enumerate_elements(dom)
        ker_n = sum(1 for x in elems if f.apply(x).is_zero)
        im_n = len({f.apply(x).coords for x in elems})
        if ker.order != ker_n or im.order != im_n:
            raise CheckFailure(f"decomposition disagrees with enumeration for {f}")
        if ker.order * im.order != dom.order:
            raise CheckFailure(f"|ker|*|im| != |dom| for {f}")
        if im.order * coker.order != cod.order:
            raise CheckFailure(f"|im|*|coker| != |cod| for {f}")
    return f"{HOM_MAPS} random maps decomposed and recounted"


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
    return (f"{len(draws)} random {what} re-contain the source group, and {compared}/"
            f"{len(draws)} with at most {EXT_CLASSES} Ext^1 classes list exactly the Ext^1 types")


def check_extension_oracle(catalog, rng):
    """Build X, a random subgroup S and X/S, with X finite."""
    draws = []
    for _ in range(EXTENSION_SUBGROUPS):
        x = random_group(rng, 64, max_rank=0)
        k = rng.randint(0, 3)
        draws.append((x, [tuple(rng.randrange(d) for d in x.invariant_factors) for _ in range(k)]))
    return _check_subgroup_pairs(draws, "subgroup/quotient pairs")


def check_free_rank_oracle(catalog, rng):
    """Build X = Z^r + T with r >= 1, a subgroup S generated by elements
    with free coordinates, and X/S, where the free part of X can absorb
    torsion of X/S."""
    draws = []
    for _ in range(FREE_RANK_SUBGROUPS):
        x = FgAbGroup(rng.randint(1, 2), random_group(rng, 32, max_rank=0).invariant_factors)
        k = rng.randint(1, 3)
        draws.append((x, [_bounded_element(rng, x).coords for _ in range(k)]))
    return _check_subgroup_pairs(draws, "subgroups of infinite groups")


def check_sign_invariance(catalog, rng):
    """middle_group is unchanged by negating either connecting map."""

    def neg(f):
        return Homomorphism(f.domain, f.codomain,
                            IntMatrix([[-v for v in row] for row in f.matrix.data], f.matrix.cols))

    for _ in range(SIGN_FRAGMENTS):
        a = random_group(rng, 16)
        b = random_group(rng, 8, max_rank=0)
        c = random_group(rng, 8, max_rank=0)
        d = random_group(rng, 16)
        left = random_hom(rng, a, b)
        right = random_hom(rng, c, d)
        base = middle_group(left, right)
        if middle_group(neg(left), right) != base or middle_group(left, neg(right)) != base:
            raise CheckFailure(f"sign sensitivity for fragment {left} / {right}")
    return f"{SIGN_FRAGMENTS} random fragments stable under negating either map"


def check_catalog_consistency(catalog, rng):
    """Rank/exponent agreement, pairing torsion and annihilation,
    biadditivity of stored pairings on bounded coordinates, which cannot
    fail: against(b) is a Homomorphism (see ROADMAP item 7)."""
    for name in catalog.names():
        entry = catalog.entry(name)
        for degree, group in entry.pi.items():
            if group.rank != entry.rational_exponents.count(degree):
                raise CheckFailure(f"{name}: rank at degree {degree} off the exponents")
        for (n, m), pairing in entry.samelson.items():
            for row in pairing.values:
                for val in row:
                    if val.order() == 0:
                        raise CheckFailure(f"{name}: non-torsion pairing value")
            # biadditivity of the generator-table extension on a sample
            for _ in range(20):
                a1 = _bounded_element(rng, pairing.source_n)
                a2 = _bounded_element(rng, pairing.source_n)
                b1 = _bounded_element(rng, pairing.source_m)
                b2 = _bounded_element(rng, pairing.source_m)
                at_b1, at_b2 = pairing.against(b1), pairing.against(b2)
                left = at_b1.apply(a1 + a2)
                if left != at_b1.apply(a1) + at_b1.apply(a2):
                    raise CheckFailure(f"{name}: pairing ({n},{m}) not additive on the left")
                right = pairing.against(b1 + b2).apply(a1)
                if right != at_b1.apply(a1) + at_b2.apply(a1):
                    raise CheckFailure(f"{name}: pairing ({n},{m}) not additive on the right")
    return f"{len(catalog.names())} entries consistent"


def _bounded_element(rng, group):
    coords = [
        rng.randint(-ELEMENT_SPAN, ELEMENT_SPAN) if d == 0 else rng.randrange(d)
        for d in group.generator_orders()
    ]
    return GroupElement(group, tuple(coords))


def _su2_pi2_over_s4(catalog, k):
    """pi_2 of the gauge group of the SU2-bundle over S^4 with second
    Chern number k, through the full engine."""
    bundle = make_bundle(catalog, "SU2", Sphere(4), (k,))
    result = gauge_homotopy(catalog, "SU2", bundle, 2)
    if not result.is_resolved:
        raise CheckFailure(f"k={k}: unresolved, candidates {result.candidates}")
    return result.resolved


def check_su2_gcd_table(catalog, rng):
    """pi_2 over S^4 through the engine matches the gcd closed form."""
    for k in range(-24, 25):
        got = _su2_pi2_over_s4(catalog, k)
        want = FgAbGroup.cyclic(gcd(k, 12))
        if got != want:
            raise CheckFailure(f"k={k}: engine {got}, closed form {want}")
    return "k in [-24, 24] matches Z/gcd(k, 12)"


def check_hopf_bundle(catalog, rng):
    if not _su2_pi2_over_s4(catalog, 1).is_trivial:
        raise CheckFailure("pi_2 of the gauge group of the Hopf bundle is not trivial")
    return "pi_2(Gau) of the Hopf bundle (k=1) vanishes"


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
    """The rational answer ignores the bundle class, and is the rank of
    every candidate the integral engine gives for that class."""
    cases = [("SU2", Sphere(4)), ("TEST", Surface(2)), ("TEST", Sphere(2)), ("U1", Surface(1))]
    for name, base in cases:
        seen = set()
        for _ in range(5):
            coords = tuple(
                rng.randint(-3, 3) if d == 0 else rng.randrange(d)
                for d in class_group(catalog, name, base).generator_orders()
            )
            bundle = make_bundle(catalog, name, base, coords)
            dim = gauge_homotopy_rational(catalog, name, bundle, 2)
            ranks = {c.rank for c in gauge_homotopy(catalog, name, bundle, 2).candidates}
            if ranks != {dim}:
                raise CheckFailure(f"{name} over {base} class {coords}: ranks {ranks}, not Q^{dim}")
            seen.add(dim)
        if len(seen) != 1:
            raise CheckFailure(f"{name} over {base}: class-dependent rational answer {seen}")
    return f"{len(cases)} sampled bundles are class-independent"


def check_even_degree_vanishing(catalog, rng):
    """Odd exponents + even sphere + even degree force dimension 0; the
    loader rejects even exponents, so this cannot fail (ROADMAP item 7)."""
    for name in ("SU2", "SU3"):
        for m in (2, 4, 6):
            size = class_group(catalog, name, Sphere(m)).ngens
            bundle = make_bundle(catalog, name, Sphere(m), (0,) * size)
            for n in (2, 4, 6, 8):
                dim = gauge_homotopy_rational(catalog, name, bundle, n)
                if dim != 0:
                    raise CheckFailure(f"{name}, S^{m}, degree {n}: expected 0, got Q^{dim}")
    return "SU2/SU3 over even spheres vanish in even degrees"


def check_class_negation(catalog, rng):
    """Negating the bundle class negates delta but fixes the answer."""
    g3 = catalog.pi("SU2", 3)
    for k in (1, 2, 5, 12):
        plus = GroupElement(g3, (k,))
        minus = GroupElement(g3, (-k,))
        d_plus = connecting_hom_sphere(catalog, "SU2", 4, plus, 3)
        d_minus = connecting_hom_sphere(catalog, "SU2", 4, minus, 3)
        gen = GroupElement(g3, (1,))
        if d_minus.apply(gen) != -d_plus.apply(gen):
            raise CheckFailure(f"delta not negated entrywise at k={k}")
        a = gauge_homotopy(catalog, "SU2", BundleSpec(Sphere(4), plus), 2)
        b = gauge_homotopy(catalog, "SU2", BundleSpec(Sphere(4), minus), 2)
        if a != b:
            raise CheckFailure(f"k and -k disagree at k={k}")
    return "negating the class negates delta and fixes the middle group"


def check_genus_zero_matches_sphere(catalog, rng):
    """Genus 0 is S^2: the surface and sphere calculators and the middle
    group of the literal genus-0 surface maps give the same answer."""
    for name in ("SU2", "TEST", "U1"):
        orders = class_group(catalog, name, Surface(0)).generator_orders()
        coords = tuple(1 if d == 0 else 1 % d for d in orders)
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


CHECKS = [
    ("snf_random_suite", check_snf_suite),
    ("canonicalize_idempotent", check_canonicalize_idempotent),
    ("group_order_oracle", check_group_order_oracle),
    ("hom_decompose_oracle", check_hom_oracle),
    ("extension_oracle", check_extension_oracle),
    ("free_rank_oracle", check_free_rank_oracle),
    ("sign_invariance", check_sign_invariance),
    ("catalog_consistency", check_catalog_consistency),
    ("su2_gcd_table", check_su2_gcd_table),
    ("hopf_bundle", check_hopf_bundle),
    ("rational_two_path", check_rational_two_path),
    ("rational_class_independence", check_rational_class_independence),
    ("even_degree_vanishing", check_even_degree_vanishing),
    ("class_negation", check_class_negation),
    ("genus_zero_matches_sphere", check_genus_zero_matches_sphere),
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
