"""The value types: immutable, field-wise equality and hash, dataclass-style repr."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ghg.catalog import Catalog, GroupCatalogEntry, PairingMatrix, default_catalog
from ghg.exactseq import SequenceResult, resolve_extension
from ghg.fgab import FgAbGroup, Homomorphism
from ghg.gaugecalc import BundleSpec, Sphere, Surface

Z2 = FgAbGroup.cyclic(2)
Z4 = FgAbGroup.cyclic(4)
ENTRY = default_catalog().entry("SU2")


def hashable_cases():
    """(value, field names in order, repr) for every hashable value type."""
    return [
        (FgAbGroup(1, (2,)), ("rank", "invariant_factors"),
         "FgAbGroup(rank=1, invariant_factors=(2,))"),
        (FgAbGroup(0), ("rank", "invariant_factors"),
         "FgAbGroup(rank=0, invariant_factors=())"),
        (Homomorphism.zero(FgAbGroup(0), Z4), ("domain", "codomain", "images"),
         "Homomorphism(domain=FgAbGroup(rank=0, invariant_factors=()), "
         "codomain=FgAbGroup(rank=0, invariant_factors=(4,)), images=())"),
        (Homomorphism(Z2, Z4, [(2,)]), ("domain", "codomain", "images"),
         "Homomorphism(domain=FgAbGroup(rank=0, invariant_factors=(2,)), "
         "codomain=FgAbGroup(rank=0, invariant_factors=(4,)), images=((2,),))"),
        (PairingMatrix(Z2, Z2, Z4, (((2,),),)),
         ("source_n", "source_m", "target", "values"),
         "PairingMatrix(source_n=FgAbGroup(rank=0, invariant_factors=(2,)), "
         "source_m=FgAbGroup(rank=0, invariant_factors=(2,)), "
         "target=FgAbGroup(rank=0, invariant_factors=(4,)), "
         "values=(((2,),),))"),
        (SequenceResult(Z2, Z2, (FgAbGroup(0, (2, 2)), Z4)), ("sub", "quot", "candidates"),
         "SequenceResult(sub=FgAbGroup(rank=0, invariant_factors=(2,)), "
         "quot=FgAbGroup(rank=0, invariant_factors=(2,)), "
         "candidates=(FgAbGroup(rank=0, invariant_factors=(2, 2)), "
         "FgAbGroup(rank=0, invariant_factors=(4,))))"),
        (Sphere(2), ("dim",), "Sphere(dim=2)"),
        (Surface(2), ("genus",), "Surface(genus=2)"),
        (BundleSpec(Sphere(2), (2,)), ("base", "clazz"),
         "BundleSpec(base=Sphere(dim=2), clazz=(2,))"),
        (BundleSpec(Surface(1), None), ("base", "clazz"),
         "BundleSpec(base=Surface(genus=1), clazz=None)"),
    ]


def dict_cases():
    """Value types holding dicts: equal field-wise, unhashable like their dicts."""
    return [
        (ENTRY, ("name", "abelian", "rational_exponents", "pi", "pi_sources", "samelson")),
        (Catalog({"SU2": ENTRY}, "x.json"), ("entries", "path")),
    ]


@pytest.mark.parametrize("value, fields, text", hashable_cases())
def test_hashable_value_contract(value, fields, text):
    astuple = tuple(getattr(value, f) for f in fields)
    assert hash(value) == hash(astuple)
    assert repr(value) == text
    twin = type(value)(*astuple)
    assert twin == value and hash(twin) == hash(value) and not twin != value
    assert value != astuple
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, None)
        with pytest.raises(AttributeError):
            delattr(value, f)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert tuple(getattr(value, f) for f in fields) == astuple


@pytest.mark.parametrize("value, fields", dict_cases())
def test_dict_value_contract(value, fields):
    twin = type(value)(**{f: getattr(value, f) for f in fields})
    assert twin == value
    with pytest.raises(TypeError):
        hash(value)
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(value, f, None)


def test_value_repr_hides_catalog_tables():
    assert repr(ENTRY) == "GroupCatalogEntry(name='SU2', abelian=False, rational_exponents=(3,))"
    assert repr(Catalog({}, "x.json")) == "Catalog(entries={}, path='x.json')"


def test_equality_needs_the_same_class():
    assert Sphere(2) != Surface(2)
    assert not Sphere(2) == Surface(2)
    assert Sphere(2) == Sphere(2) and Sphere(2) != Sphere(3)
    assert len({Sphere(2), Sphere(2), Surface(2)}) == 2


def test_constructor_checks_and_defaults():
    assert FgAbGroup(0) == FgAbGroup(0, ())
    assert FgAbGroup(0, [6]).invariant_factors == (6,)
    assert SequenceResult(Z2, Z2, [Z4]).candidates == (Z4,)
    with pytest.raises(ValueError):
        SequenceResult(Z2, Z2, [])
    with pytest.raises(ValueError):
        FgAbGroup(0, (4, 2))
    with pytest.raises(ValueError):
        Sphere(0)
    with pytest.raises(ValueError):
        Surface(-1)
    assert str(FgAbGroup(True)) == "Z^1"
    for bad in (lambda: FgAbGroup(1.5), lambda: FgAbGroup(0, (2.5,)), lambda: FgAbGroup(0, ("6",)),
                lambda: FgAbGroup.of(0, (2.5,)), lambda: FgAbGroup.of(1.5),
                lambda: FgAbGroup.cyclic("6"), lambda: Homomorphism(Z2, Z4, [(1.5,)])):
        with pytest.raises(TypeError):
            bad()


def test_unresolved_result_hash_is_process_independent():
    """An unresolved result hashes its fields only, never an object
    address, so two interpreters with different hash seeds agree."""
    assert not resolve_extension(Z2, Z2).is_resolved
    probe = ("from ghg.exactseq import resolve_extension; from ghg.fgab import FgAbGroup; "
             "z2 = FgAbGroup.cyclic(2); print(hash(resolve_extension(z2, z2)))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    hashes = {
        subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True,
                       env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)).stdout
        for seed in ("0", "1")
    }
    assert len(hashes) == 1
