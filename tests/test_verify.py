"""The verify suite catches what it is meant to catch, with or without -O."""
import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ghg import gaugecalc, verify
from ghg.catalog import Catalog, PairingMatrix, default_catalog
from ghg.exactseq import SequenceResult, resolve_extension
from ghg.fgab import FgAbGroup, Homomorphism

CAT = default_catalog()
SRC = Path(verify.__file__).resolve().parent


def test_genus_zero_check_catches_a_planted_mismatch(monkeypatch):
    real = verify.connecting_hom_surface

    def zeroed(catalog, group, genus, b, n):
        d = real(catalog, group, genus, b, n)
        return Homomorphism.zero(d.domain, d.codomain)

    monkeypatch.setattr(verify, "connecting_hom_surface", zeroed)
    with pytest.raises(verify.CheckFailure, match="literal surface maps"):
        verify.check_genus_zero_matches_sphere(CAT, None)


def test_free_rank_oracle_catches_unabsorbed_torsion(monkeypatch):
    """A resolve_extension that keeps the full torsion order of sub + quot,
    as if every sub were finite, misses X = Z^r + T where the free part
    absorbs torsion; the extension oracle alone draws only finite X."""
    real = verify.resolve_extension

    def full_torsion_only(sub, quot):
        full = sub.torsion_order * quot.torsion_order
        kept = (c for c in real(sub, quot).candidates if c.torsion_order == full)
        return SequenceResult(sub, quot, kept)

    monkeypatch.setattr(verify, "resolve_extension", full_torsion_only)
    verify.check_extension_oracle(CAT, random.Random(verify.SEED))
    with pytest.raises(verify.CheckFailure, match="missing from resolve_extension"):
        verify.check_free_rank_oracle(CAT, random.Random(verify.SEED))


def test_free_rank_oracle_catches_a_spurious_candidate(monkeypatch):
    """A resolve_extension that also lists a cyclic group of twice the full
    torsion order still lists every source group, so only the comparison
    with the Ext^1 types catches it."""
    real = verify.resolve_extension

    def spurious(sub, quot):
        extra = FgAbGroup.cyclic(2 * sub.torsion_order * quot.torsion_order)
        return SequenceResult(sub, quot, real(sub, quot).candidates + (extra,))

    verify.check_free_rank_oracle(CAT, random.Random(verify.SEED))
    monkeypatch.setattr(verify, "resolve_extension", spurious)
    with pytest.raises(verify.CheckFailure, match="Ext\\^1 gives"):
        verify.check_free_rank_oracle(CAT, random.Random(verify.SEED))


def test_trivial_bundle_check_catches_a_class_zero_that_does_not_split(monkeypatch):
    """An engine that sends class 0 to resolve_extension, as if it had no
    section, answers Z/2 + Z/2 and Z/4 for SU2 over S^1 in degree 4;
    every other check passes it, and the split closed form fails it."""
    monkeypatch.setattr(gaugecalc, "SequenceResult",
                        lambda sub, quot, candidates: resolve_extension(sub, quot))
    failed = {name: detail for name, passed, detail in verify.run_all(CAT) if not passed}
    assert failed == {"trivial_bundle_split": "SU2 over sphere:1 degree 4: engine "
                                              "Z/2 + Z/2, Z/4, split Z/2 + Z/2"}


def test_extension_types_small_cases():
    z2, z4 = FgAbGroup.cyclic(2), FgAbGroup.cyclic(4)
    z, z_z2 = FgAbGroup(1), FgAbGroup(1, (2,))
    assert verify.extension_types(z2, z2) == (FgAbGroup(0, (2, 2)), z4)
    # the doubling map Z -> Z has cokernel Z/2
    assert verify.extension_types(z, z2) == (z, z_z2)
    assert verify.extension_types(z2, z) == (z_z2,)
    for g in (z_z2, FgAbGroup(2, (2, 6))):
        assert verify.extension_types(FgAbGroup(0), g) == (g,)
        assert verify.extension_types(g, FgAbGroup(0)) == (g,)
    cube = FgAbGroup(0, (2, 2, 2))
    assert verify.extension_types(cube, cube) is None


def test_library_has_no_assert_statements():
    """python -O strips assert, so library self-checks must be explicit."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def _calls_itself(fn: ast.FunctionDef) -> bool:
    """fn calls its own name, directly or as a method of self or cls."""
    for node in ast.walk(fn):
        f = node.func if isinstance(node, ast.Call) else None
        if isinstance(f, ast.Name) and f.id == fn.name:
            return True
        if (isinstance(f, ast.Attribute) and f.attr == fn.name
                and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")):
            return True
    return False


def test_library_has_no_recursion():
    """A recursive walk takes one interpreter frame per level of its
    input, so deep inputs raise RecursionError: library functions walk
    with explicit stacks. Offenders are named module.outer.inner."""
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        todo = [(path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))]
        while todo:
            prefix, node = todo.pop()
            for child in ast.iter_child_nodes(node):
                name = prefix
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    name = f"{prefix}.{child.name}"
                    if not isinstance(child, ast.ClassDef) and _calls_itself(child):
                        offenders.append(name)
                todo.append((name, child))
    assert offenders == []


def test_group_order_oracle_catches_a_wrong_canonical_form(monkeypatch):
    """Counting the elements of canonicalize's answer checks nothing, as
    enumeration lists exactly prod(invariant_factors); the maximal minors
    of the presentation catch a canonical form with a doubled factor."""
    real = verify.canonicalize

    def doubled_last(relations, ncols):
        g = real(relations, ncols)
        return FgAbGroup(g.rank, g.invariant_factors[:-1] + tuple(2 * d for d in g.invariant_factors[-1:]))

    verify.check_group_order_oracle(CAT, random.Random(verify.SEED))
    monkeypatch.setattr(verify, "canonicalize", doubled_last)
    with pytest.raises(verify.CheckFailure, match="order mismatch"):
        verify.check_group_order_oracle(CAT, random.Random(verify.SEED))


def test_rational_class_check_reads_the_engine(monkeypatch):
    """gauge_homotopy_rational never reads the class, so the check holds
    the integral engine's candidate ranks for each class against it: a
    kernel that answers the codomain for a zero map changes the rank."""
    real = gaugecalc.kernel

    def codomain_for_zero(f):
        return f.codomain if not any(map(any, f.images)) else real(f)

    verify.check_rational_class_independence(CAT, random.Random(verify.SEED))
    monkeypatch.setattr(gaugecalc, "kernel", codomain_for_zero)
    with pytest.raises(verify.CheckFailure, match=r"TEST over surface:2 class \(2,\) "
                                                  r"degree 2: ranks \{5\}, not Q\^4"):
        verify.check_rational_class_independence(CAT, random.Random(verify.SEED))


def test_catalog_check_catches_a_negated_pairing(monkeypatch):
    """An against that negates its argument returns <., -b>. Its entries
    are reduced coordinates, so the types cannot tell; the bilinear sum
    does, on SU2's (3, 3) pairing into Z/12 and TEST's (1, 1) into Z/4."""
    real = PairingMatrix.against
    monkeypatch.setattr(PairingMatrix, "against",
                        lambda pairing, b: real(pairing, tuple(-c for c in b)))
    for name, pairing in (("SU2", (3, 3)), ("TEST", (1, 1))):
        alone = Catalog({name: CAT.entry(name)}, CAT.path)
        with pytest.raises(verify.CheckFailure, match=rf"{name}: pairing \({pairing[0]},"
                                                      rf"{pairing[1]}\) against .* bilinear"):
            verify.check_catalog_consistency(alone, random.Random(verify.SEED))


def test_verify_under_optimize_replays_the_golden_report():
    """With asserts stripped, ghg verify still passes every check and
    prints tests/golden_verify.json byte for byte."""
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "ghg.cli", "verify", "--format", "json"],
        env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    golden = Path(__file__).resolve().parent / "golden_verify.json"
    assert proc.stdout == golden.read_text(encoding="utf-8")
