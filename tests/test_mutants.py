"""The mutant table of ``ghg verify``: which checks catch which faults.

Each row plants one fault in the package with mock.patch.object, with no
source rewriting, and pins exactly the checks that verify.run_all
reports as failed at the shipped seed (mutation testing: DeMillo,
Lipton & Sayward, "Hints on test data selection", IEEE Computer 11(4),
1978). A module-level function is patched in every ghg module that
binds it, so that ``from .fgab import kernel`` sees the fault too; a
method or property is patched on its class. A row that no check fails
is an equivalent mutant, and says why no check can fail it.

Every check fails alone on some row.
"""
import sys
from contextlib import ExitStack
from itertools import product, zip_longest
from math import prod
from types import SimpleNamespace
from typing import Callable, NamedTuple
from unittest import mock

import pytest

from ghg import SEED, exactseq, fgab, gaugecalc, verify
from ghg.catalog import PairingMatrix, default_catalog
from ghg.exactseq import DEFAULT_TORSION_BOUND, SequenceResult, TorsionBoundError, resolve_extension
from ghg.fgab import FgAbGroup, Homomorphism, direct_sum

CAT = default_catalog()


class Mutant(NamedTuple):
    fault: str
    owner: object  # the defining module of a function, or the class of a method
    name: str
    make: Callable  # make(real) returns the faulty replacement
    failing: frozenset  # exactly the checks run_all reports as failed
    why: str = ""  # for an equivalent mutant, why no check can fail it


def _binders(owner, name) -> list:
    """Where owner.name must be patched: every loaded ghg module whose
    namespace binds the same object under that name, or the class."""
    if isinstance(owner, type):
        return [owner]
    real = getattr(owner, name)
    return [module for key, module in sorted(sys.modules.items())
            if key.partition(".")[0] == "ghg" and vars(module).get(name) is real]


def _on_result(transform):
    """A patch maker: the real function's answer, then transform(answer, *args)."""
    def make(real):
        def fake(*args, **kwargs):
            return transform(real(*args, **kwargs), *args)
        return fake
    return make


def _neg(b: tuple) -> tuple:
    return tuple(-c for c in b)


def _scaled(f: Homomorphism, k: int) -> Homomorphism:
    return Homomorphism(f.domain, f.codomain, [[k * c for c in y] for y in f.images])


def _drop_last_candidate(result, sub, quot, *bound):
    return SequenceResult(sub, quot, result.candidates[:-1] or result.candidates)


def _aligned_at_smallest(per_prime):
    """_assemble with each prime's parts lined up from the smallest, so
    that the k-th smallest factor is prod_p p**(k-th smallest part)."""
    primes = tuple(per_prime)
    return sorted(tuple(prod(map(pow, primes, exps))
                        for exps in zip_longest(*(part[::-1] for part in combo), fillvalue=0))
                  for combo in product(*per_prime.values()))


def _border_rows_untouched(real):
    """_smith that reduces its block but leaves the rows below it, which
    record the column transforms, as they were."""
    def _smith(m, nrows, ncols):
        border = [row[:] for row in m[nrows:]]
        diagonal = real(m, nrows, ncols)
        m[nrows:] = border
        return diagonal
    return _smith


def _unreduced_images(real):
    def __init__(self, domain, codomain, images):
        images = tuple(map(tuple, images))
        real(self, domain, codomain, images)
        object.__setattr__(self, "images", images)
    return __init__


def _transposed_v(usv, a, ncols):
    u, d, v = usv
    return u, d, [list(col) for col in zip(*v)]


def _strips_one_cell_over(before, lam, high):
    """_strips with room for one cell more than the drop above each row
    that can grow, keeping only the shapes that are still partitions."""
    strips = [(lam, 0)]
    cap = 0
    for i in range(1, len(lam)):
        cap += lam[i - 1] - before[i - 1]
        room = lam[i - 1] - lam[i]
        if room and cap:
            limit = min(high, cap)
            strips = [(s[:i] + (s[i] + a,) + s[i + 1:], n + a)
                      for s, n in strips for a in range(min(room + 1, limit - n) + 1)]
    return [(s, n) for s, n in strips if list(s) == sorted(s, reverse=True)]


def _torsion_read_from_index_0(real):
    """kernel reading each image's torsion coordinates from index 0, not
    from cod.rank, so a free-rank codomain's free entries stand in for them."""
    def kernel(f):
        q = f.codomain.rank
        images = tuple(y[:q] + y[:len(y) - q] for y in f.images)
        return real(SimpleNamespace(domain=f.domain, codomain=f.codomain, images=images))
    return kernel


def _negative_free_read_as_0(real):
    """cokernel or kernel reading each negative free coordinate of an
    image as 0, which only a map with free images of either sign shows."""
    def fake(f):
        q = f.codomain.rank
        images = tuple(tuple(max(c, 0) for c in y[:q]) + y[q:] for y in f.images)
        return real(SimpleNamespace(domain=f.domain, codomain=f.codomain, images=images))
    return fake


def _kernel_loses_rank(ker, f):
    if ker.rank and any(map(any, f.images)):
        return FgAbGroup(ker.rank - 1, ker.invariant_factors)
    return ker


def _class_zero_unsplit(result, catalog, group, bundle, n, *bound):
    return resolve_extension(result.sub, result.quot, *bound) if not any(bundle.clazz) else result


def _refused_whatever_the_class(result, catalog, group, bundle, n,
                                torsion_bound=DEFAULT_TORSION_BOUND):
    """The early genus refusal of gauge_homotopy without its class test,
    so that it refuses class-0 queries, which split before any bound."""
    if (2 * bundle.base.genus >= max(1, torsion_bound.bit_length())
            and catalog.entry(group).homotopy(n + 1).invariant_factors
            and result.quot.invariant_factors):
        raise TorsionBoundError(torsion_bound)
    return result


def _class_zero_refused(real):
    """gauge_homotopy claims a missing pairing for class 0 above degree 2,
    a refusal a class-0 query must never meet."""
    def fake(catalog, group, bundle, n, *rest):
        if not any(bundle.clazz) and n >= 3:
            raise gaugecalc.PairingUnavailable(group, n, 1)
        return real(catalog, group, bundle, n, *rest)
    return fake


def _rational_plus_one(when):
    return _on_result(lambda dim, catalog, group, bundle, n: dim + when(bundle.base, n))


def _row(fault, owner, name, make, *failing, why=""):
    return Mutant(fault, owner, name, make, frozenset(failing), why)


MUTANTS = [
    _row("resolve_extension drops the last of several candidates",
         exactseq, "resolve_extension", _on_result(_drop_last_candidate),
         "extension_oracle", "free_rank_oracle"),
    _row("resolve_extension always splits",
         exactseq, "resolve_extension",
         lambda real: lambda sub, quot, *bound: SequenceResult(sub, quot, (direct_sum(sub, quot),)),
         "extension_oracle", "free_rank_oracle"),
    _row("lr_support drops its last type when r = 0",
         exactseq, "lr_support",
         _on_result(lambda lams, mu, nu, r: lams[:-1] if r == 0 and len(lams) > 1 else lams),
         "extension_oracle"),
    _row("lr_support ignores r",
         exactseq, "lr_support", lambda real: lambda mu, nu, r: real(mu, nu, 0),
         "free_rank_oracle"),
    _row("_strips ignores the free rank",
         exactseq, "_strips",
         _on_result(lambda strips, before, lam, high: [(s, n) for s, n in strips if n == high]),
         "free_rank_oracle"),
    _row("_strips lets a row grow one cell past the drop above it",
         exactseq, "_strips", lambda real: _strips_one_cell_over,
         "extension_oracle"),
    # an empty shape before lam lets every row take up to high cells
    _row("_strips drops the lattice-word cap",
         exactseq, "_strips",
         lambda real: lambda before, lam, high: real((0,) * len(lam), lam, high),
         "free_rank_oracle"),
    _row("_assemble lines primes up at the smallest part",
         exactseq, "_assemble", lambda real: _aligned_at_smallest,
         "extension_oracle", "free_rank_oracle", "sign_invariance"),
    _row("cokernel drops its last invariant factor",
         fgab, "cokernel", _on_result(lambda g, f: FgAbGroup(g.rank, g.invariant_factors[:-1])),
         "hom_oracle", "su2_gcd_table", "genus_zero_matches_sphere"),
    _row("cokernel reads a negative free coordinate as 0",
         fgab, "cokernel", _negative_free_read_as_0,
         "sign_invariance"),
    _row("kernel gains Z/2 when it is free",
         fgab, "kernel",
         _on_result(lambda g, f: direct_sum(g, FgAbGroup.cyclic(2))
                    if g.rank and not g.invariant_factors else g),
         "rational_two_path", "genus_zero_matches_sphere"),
    _row("kernel answers the domain when the codomain has torsion",
         fgab, "kernel", _on_result(lambda g, f: f.domain if f.codomain.invariant_factors else g),
         "hom_oracle"),
    _row("kernel reads a free-rank codomain's torsion coordinates from index 0",
         fgab, "kernel", _torsion_read_from_index_0,
         "hom_oracle"),
    _row("kernel reads a negative free coordinate as 0",
         fgab, "kernel", _negative_free_read_as_0,
         "sign_invariance"),
    # degree 1 of rational_class_independence is what catches this one
    _row("kernel of a nonzero map loses one free rank",
         fgab, "kernel", _on_result(_kernel_loses_rank),
         "rational_class_independence"),
    _row("_smith leaves the rows below its block alone",
         fgab, "_smith", _border_rows_untouched,
         "snf_random_suite", "genus_zero_matches_sphere"),
    _row("snf returns V transposed",
         verify, "snf", _on_result(_transposed_v),
         "snf_random_suite"),
    _row("_diagonal_relations drops the relation of a generator of order above 64",
         fgab, "_diagonal_relations",
         _on_result(lambda rows, orders: [row for row in rows if max(row) <= 64]),
         "canonicalize_idempotent"),
    _row("FgAbGroup.order ignores the free rank",
         FgAbGroup, "order", lambda real: property(lambda group: group.torsion_order),
         "group_order_oracle"),
    _row("PairingMatrix.against negates b",
         PairingMatrix, "against", lambda real: lambda pairing, b: real(pairing, _neg(b)),
         "catalog_consistency"),
    _row("delta ignores the sign of the class",
         gaugecalc, "_pairing_map",
         lambda real: lambda entry, b, *rest: real(entry, tuple(map(abs, b)), *rest),
         "class_negation"),
    # hopf_bundle, now deleted, failed on the next two rows and on no other
    _row("delta is always zero",
         gaugecalc, "_pairing_map", _on_result(lambda f, *args: None),
         "su2_gcd_table"),
    _row("delta is doubled",
         gaugecalc, "_pairing_map", _on_result(lambda f, *args: f and _scaled(f, 2)),
         "su2_gcd_table"),
    _row("connecting_hom_surface answers the zero map",
         gaugecalc, "connecting_hom_surface",
         _on_result(lambda d, *args: Homomorphism.zero(d.domain, d.codomain)),
         "genus_zero_matches_sphere"),
    _row("gauge_homotopy sends class 0 to resolve_extension",
         gaugecalc, "gauge_homotopy", _on_result(_class_zero_unsplit),
         "trivial_bundle_split"),
    _row("gauge_homotopy refuses class 0 for a missing pairing",
         gaugecalc, "gauge_homotopy", _class_zero_refused,
         "trivial_bundle_split"),
    _row("the early genus refusal ignores the class",
         gaugecalc, "gauge_homotopy", _on_result(_refused_whatever_the_class),
         "trivial_bundle_split"),
    _row("the rational closed form is +1 at degree 7",
         gaugecalc, "gauge_homotopy_rational", _rational_plus_one(lambda base, n: n == 7),
         "rational_two_path"),
    _row("the rational closed form is +1 at genus > 1",
         gaugecalc, "gauge_homotopy_rational", _rational_plus_one(lambda base, n: base.genus > 1),
         "rational_two_path", "rational_class_independence"),
    # even_degree_vanishing, now deleted, failed on this row and on no other
    _row("the rational closed form is +1 in even degrees over even spheres",
         gaugecalc, "gauge_homotopy_rational",
         _rational_plus_one(lambda base, n: n % 2 == 0 and base.dim % 2 == 0 and not base.genus),
         "rational_two_path", "rational_class_independence"),
    _row("delta is <., b> instead of <., -b>",
         gaugecalc, "_pairing_map",
         lambda real: lambda entry, b, *rest: real(entry, _neg(b), *rest),
         why="coker and ker of -f equal those of f, and every check reads delta through them, "
             "or compares it with another delta built the same way (class_negation)"),
    _row("Homomorphism keeps its images unreduced",
         Homomorphism, "__init__", _unreduced_images,
         why="the checks read a map only through verify.apply, which reduces, and "
             "through Smith forms that hold the codomain relations; map equality is what "
             "changes, and tests/test_fgab.py::test_equal_maps_compare_equal pins it"),
]


def _failed_checks(mutant: Mutant) -> set:
    with ExitStack() as stack:
        fake = mutant.make(getattr(mutant.owner, mutant.name))
        for target in _binders(mutant.owner, mutant.name):
            stack.enter_context(mock.patch.object(target, mutant.name, fake))
        return {name for name, passed, _ in verify.run_all(CAT, SEED) if not passed}


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.fault for m in MUTANTS])
def test_mutant_fails_exactly_its_checks(mutant):
    assert _failed_checks(mutant) == mutant.failing


def test_table_is_complete():
    """Only an equivalent mutant, with its reason, fails no check; every
    check fails alone on some row."""
    checks = [name for name, _ in verify.CHECKS]
    for m in MUTANTS:
        assert bool(m.failing) != bool(m.why), m.fault
        assert m.failing <= set(checks), m.fault
    alone = {name for m in MUTANTS if len(m.failing) == 1 for name in m.failing}
    assert sorted(alone) == sorted(checks)


def test_functions_are_patched_wherever_bound():
    where = {name: [m.__name__ for m in _binders(owner, name)]
             for owner, name in ((exactseq, "resolve_extension"), (fgab, "kernel"),
                                 (fgab, "cokernel"), (fgab, "_smith"))}
    assert where == {"resolve_extension": ["ghg.exactseq", "ghg.gaugecalc", "ghg.verify"],
                     "kernel": ["ghg.fgab", "ghg.gaugecalc", "ghg.verify"],
                     "cokernel": ["ghg.fgab", "ghg.gaugecalc", "ghg.verify"],
                     "_smith": ["ghg.fgab", "ghg.gaugecalc", "ghg.verify"]}
