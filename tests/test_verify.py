"""The verify suite catches what it is meant to catch, with or without -O."""
import ast
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from ghg import verify
from ghg.catalog import default_catalog
from ghg.exactseq import SequenceResult
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

    def doubled_last(pres):
        g = real(pres)
        return FgAbGroup(g.rank, g.invariant_factors[:-1] + tuple(2 * d for d in g.invariant_factors[-1:]))

    verify.check_group_order_oracle(CAT, random.Random(verify.SEED))
    monkeypatch.setattr(verify, "canonicalize", doubled_last)
    with pytest.raises(verify.CheckFailure, match="order mismatch"):
        verify.check_group_order_oracle(CAT, random.Random(verify.SEED))


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
