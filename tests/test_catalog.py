"""Catalog loading, lookup semantics, and schema validation."""
import itertools
import json
import operator
import random
from math import gcd
from pathlib import Path

import pytest

from ghg.catalog import (
    CatalogParseError,
    CatalogValidationError,
    PairingMatrix,
    TableDepthError,
    UnknownGroupError,
    default_catalog,
    default_catalog_path,
    load_catalog,
    resolve_catalog_path,
)
from ghg.fgab import FgAbGroup, Homomorphism, _reduced
from ghg.gaugecalc import PairingUnavailable, connecting_hom_sphere
from ghg.verify import apply, image


def entry_dict(**overrides):
    """Minimal valid entry; tests mutate copies of it."""
    base = {
        "name": "G",
        "connected": True,
        "rational_exponents": [1],
        "pi": [
            {"degree": 0, "rank": 0, "factors": [], "source": "fixture"},
            {"degree": 1, "rank": 1, "factors": [], "source": "fixture"},
            {"degree": 2, "rank": 0, "factors": [2], "source": "fixture"},
        ],
        "samelson": [{"n": 1, "m": 1, "values": [[[1]]]}],
    }
    base.update(overrides)
    return base


def shipped_entry(name):
    """A fresh copy of a shipped catalog entry as raw JSON."""
    raw = json.loads(default_catalog_path().read_text(encoding="utf-8"))
    return next(e for e in raw if e["name"] == name)


def unit(group, i):
    """Generator i of a group in canonical form, as its coordinates."""
    return tuple(int(k == i) for k in range(group.ngens))


def negated(group, x):
    """-x in group, reduced."""
    return _reduced(group, tuple(-c for c in x))


def write_catalog(tmp_path, entries):
    p = tmp_path / "cat.json"
    p.write_text(json.dumps(entries), encoding="utf-8")
    return p


def test_default_catalog_names():
    cat = default_catalog()
    assert set(cat.names()) >= {"SU2", "SU3", "U1"}
    assert str(default_catalog_path()).endswith("catalog.json")


def test_su2_low_degrees():
    cat = default_catalog()
    assert cat.entry("SU2").homotopy(0).is_trivial
    assert cat.entry("SU2").homotopy(2).is_trivial
    assert cat.entry("SU2").homotopy(3) == FgAbGroup(1)
    assert cat.entry("SU2").homotopy(4) == FgAbGroup.cyclic(2)
    assert cat.entry("SU2").homotopy(6) == FgAbGroup.cyclic(12)
    assert cat.entry("SU2").depth == 12


def test_pi_beyond_depth():
    """A degree past the depth is a TableDepthError naming both, and not a
    ValueError."""
    entry = default_catalog().entry("SU2")
    with pytest.raises(TableDepthError, match="ends at degree 12; degree 13 requested") as err:
        entry.homotopy(entry.depth + 1)
    assert (err.value.depth, err.value.degree) == (12, 13)
    assert not isinstance(err.value, ValueError)


def test_negative_degree_rejected():
    """A negative degree is a plain ValueError, not a TableDepthError."""
    entry = default_catalog().entry("SU2")
    with pytest.raises(ValueError, match="^negative homotopy degree$") as err:
        entry.homotopy(-1)
    assert not isinstance(err.value, TableDepthError)


def test_unknown_group():
    cat = default_catalog()
    with pytest.raises(UnknownGroupError, match="NOPE"):
        cat.entry("NOPE")


def test_stored_pairing_lookup():
    cat = default_catalog()
    p = cat.entry("SU2").samelson[(3, 3)]
    assert not p.is_zero
    # bilinear extension of <g, g> = 1 in Z/12
    assert apply(p.against((3,)), (2,)) == (6,)
    assert apply(p.against((0,)), (2,)) == (0,)


def test_trivial_source_gives_zero_pairing():
    # the entry stores only pairings; connecting_hom_sphere decides the
    # structural zeros without reading them
    cat = default_catalog()
    assert (2, 3) not in cat.entry("SU2").samelson  # pi_2 = 0
    delta = connecting_hom_sphere(cat, "SU2", 4, (1,), 2)  # pi_2 -> pi_5 = Z/2
    assert image(delta).is_trivial and not delta.codomain.is_trivial
    # trivial class group: an S^3 bundle has its class in pi_2 = 0
    assert (3, 2) not in cat.entry("SU2").samelson
    delta = connecting_hom_sphere(cat, "SU2", 3, (), 3)  # pi_3 -> pi_5
    assert image(delta).is_trivial and not delta.domain.is_trivial and not delta.codomain.is_trivial


def test_abelian_flag_gives_zero_pairing(tmp_path):
    cat = default_catalog()
    assert not cat.entry("U1").samelson
    # a copy of TEST marked abelian, nothing stored: every map on it is
    # zero although domain, class group and codomain are all nontrivial
    entry = dict(shipped_entry("TEST"), name="TA", abelian=True, samelson=[])
    cat = load_catalog(write_catalog(tmp_path, [entry]))
    assert not cat.entry("TA").samelson
    delta = connecting_hom_sphere(cat, "TA", 2, (1,), 1)  # pi_1 = Z -> pi_2 = Z/4
    assert image(delta).is_trivial and not delta.codomain.is_trivial


def test_abelian_entry_rejects_nonzero_pairing(tmp_path):
    entry = dict(shipped_entry("TEST"), abelian=True)
    with pytest.raises(CatalogValidationError, match="abelian") as info:
        load_catalog(write_catalog(tmp_path, [entry]))
    assert info.value.field == "samelson.values"
    zeroed = dict(entry, samelson=[{"n": 1, "m": 1, "values": [[[0]]]}])
    assert load_catalog(write_catalog(tmp_path, [zeroed])).entry("TEST").abelian


def test_connected_entry_rejects_nontrivial_pi_0(tmp_path):
    entry = shipped_entry("SU2")
    entry["pi"][0] = dict(entry["pi"][0], factors=[2])
    with pytest.raises(CatalogValidationError, match="pi_0") as info:
        load_catalog(write_catalog(tmp_path, [entry]))
    assert info.value.field == "pi"


def test_unstored_pairing_is_none():
    """An unstored pairing is unknown, not zero: delta_5 over S^4 needs
    <pi_5, pi_3> -> pi_8 = Z/2, which SU2's entry lacks."""
    cat = default_catalog()
    assert cat.entry("SU2").samelson.get((5, 3)) is None
    with pytest.raises(PairingUnavailable, match="pi_5 x pi_3"):
        connecting_hom_sphere(cat, "SU2", 4, (1,), 5)


def test_pairing_needs_catalogued_degrees():
    cat = default_catalog()
    with pytest.raises(TableDepthError, match="degree 13 requested"):
        connecting_hom_sphere(cat, "SU2", 8, (1,), 6)  # target degree 13 beyond the table


def test_pairing_matrix_shape_checks():
    z12 = FgAbGroup.cyclic(12)
    free = FgAbGroup(1)
    good = PairingMatrix(free, free, z12, (((1,),),))
    assert not good.is_zero
    with pytest.raises(ValueError):
        PairingMatrix(free, free, z12, ())  # row count mismatch
    with pytest.raises(ValueError, match="torsion"):
        # value of infinite order is not allowed
        PairingMatrix(free, free, FgAbGroup(1), (((1,),),))


def test_pairing_annihilation_check():
    # source generator of order 2 forces 2 * value = 0
    z2 = FgAbGroup.cyclic(2)
    z4 = FgAbGroup.cyclic(4)
    with pytest.raises(ValueError, match="ill-defined homomorphism"):
        PairingMatrix(z2, z2, z4, (((1,),),))
    assert PairingMatrix(z2, z2, z4, (((6,),),)).values == (((2,),),)


Z = FgAbGroup(1)


# A row <e_i, .> is checked against the orders of pi_m and a column
# <., f_j> against those of pi_n, so the right-variable case is caught
# by the row builds alone and the left-variable case by the column
# builds alone. Pairing an order-2 generator with itself would be
# rejected by both.
@pytest.mark.parametrize("source_n, source_m, target, reason", [
    pytest.param(Z, FgAbGroup.cyclic(2), FgAbGroup.cyclic(4), "ill-defined", id="right-variable"),
    pytest.param(FgAbGroup.cyclic(2), Z, FgAbGroup.cyclic(4), "ill-defined", id="left-variable"),
    pytest.param(Z, Z, Z, "torsion", id="not-torsion"),
    pytest.param(Z, Z, FgAbGroup.cyclic(4), None, id="accepted"),
])
def test_pairing_checks_each_variable(source_n, source_m, target, reason):
    if reason is None:
        assert PairingMatrix(source_n, source_m, target, (((1,),),)).values == (((1,),),)
    else:
        with pytest.raises(ValueError, match=reason):
            PairingMatrix(source_n, source_m, target, (((1,),),))


# The same through the loader. A free pi sits only at an odd degree, so a
# pairing of two free generators lands in an even degree, where pi is
# finite: the not-torsion case cannot be written as a valid catalog.
@pytest.mark.parametrize("factors, n, m, reason", [
    pytest.param([[], [2], [4]], 1, 2, "ill-defined", id="right-variable"),
    pytest.param([[], [2], [4]], 2, 1, "ill-defined", id="left-variable"),
    pytest.param([[], [4]], 1, 1, None, id="accepted"),
])
def test_loader_checks_each_variable(tmp_path, factors, n, m, reason):
    """pi_1 = Z, then pi_2, pi_3, ... with the given factors; the one
    pairing (n, m) has the value 1."""
    pi = [{"degree": d, "rank": int(d == 1), "factors": f, "source": "x"}
          for d, f in enumerate([[]] + factors)]
    path = write_catalog(tmp_path, [entry_dict(pi=pi, samelson=[
        {"n": n, "m": m, "values": [[[1]]]}])])
    if reason is None:
        assert load_catalog(path).entry("G").samelson[(n, m)].values == (((1,),),)
    else:
        expected = rf"pairing \({n}, {m}\): {reason}"
        with pytest.raises(CatalogValidationError, match=expected) as info:
            load_catalog(path)
        assert info.value.field == "samelson.values"


def test_test_entry_biadditivity():
    """The synthetic entry exercises multi-generator targets."""
    cat = default_catalog()
    p = cat.entry("TEST").samelson[(3, 1)]
    f = p.against((3,))
    parts = map(operator.add, apply(f, (2, 0)), apply(f, (0, 1)))
    assert apply(f, (2, 1)) == _reduced(f.codomain, tuple(parts))


def test_against_is_the_stored_table_as_a_homomorphism():
    """Column i of <., f_j> is values[i][j]; <., -b> is -<., b> on every
    class with free coordinates in -2..2; and delta_n is <., -b>."""
    cat = default_catalog()
    pairings = [(name, n, m, p) for name in cat.names()
                for (n, m), p in cat.entry(name).samelson.items()]
    assert len(pairings) == 5
    for name, n, m, p in pairings:
        gens = [unit(p.source_n, i) for i in range(p.source_n.ngens)]
        for j in range(p.source_m.ngens):
            f = p.against(unit(p.source_m, j))
            assert f.domain == p.source_n and f.codomain == p.target
            assert list(f.images) == [row[j] for row in p.values]
        axes = [range(-2, 3) if d == 0 else range(d) for d in p.source_m.generator_orders()]
        for b in itertools.product(*axes):
            minus = p.against(tuple(-c for c in b))
            # the columns are reduced coordinates, so they negate as elements
            assert [apply(minus, a) for a in gens] == [negated(p.target, apply(p.against(b), a))
                                                       for a in gens]
            assert connecting_hom_sphere(cat, name, m + 1, b, n) == minus


def reference_against(pairing, b):
    """<., b> with image i the element sum sum_j b_j values[i][j], built
    term by term, each term and each partial sum reduced in the target."""
    target = pairing.target
    images = []
    for row in pairing.values:
        total = (0,) * target.ngens
        for y, v in zip(b, row):
            term = _reduced(target, tuple(y * c for c in v))
            total = _reduced(target, tuple(map(operator.add, total, term)))
        images.append(total)
    return Homomorphism(pairing.source_n, pairing.target, images)


def random_pairing(rng, shape):
    """A random valid PairingMatrix of shape (rows, columns) of generators:
    each torsion coordinate of a value is a multiple of t / gcd(t, g), for t
    its target factor and g the gcd of the orders of the two generators
    paired, so both orders kill it."""
    def group(rank, ntors, first):
        chain = [rng.choice(first)]
        for _ in range(ntors - 1):
            chain.append(chain[-1] * rng.choice((1, 2)))
        return FgAbGroup(rank, tuple(chain[:ntors]))
    source_n, source_m = (group(rank, ngens - rank, (2, 3)) for ngens in shape
                          for rank in [rng.randint(0, ngens)])
    target = group(rng.randint(0, 1), rng.randint(1, 2), (2, 4, 6))
    values = [[(0,) * target.rank + tuple(t // gcd(t, g) * rng.randrange(gcd(t, g))
                                         for t in target.invariant_factors)
               for g in (gcd(d, e) for e in source_m.generator_orders())]
              for d in source_n.generator_orders()]
    return PairingMatrix(source_n, source_m, target, values)


def test_against_matches_the_element_sum():
    """against builds its map unchecked, from integer coordinates; it
    equals the element-sum definition, built through the checked
    Homomorphism constructor, entry for entry, for every class with free
    coordinates in -3..3 and every torsion residue. The pairings are the
    stored ones and 40 random tables of shapes the shipped catalog lacks:
    square ones of 2 x 2 and larger, and sources with free rank."""
    cat = default_catalog()
    stored = [p for name in cat.names() for p in cat.entry(name).samelson.values()]
    assert len(stored) == 5
    rng, shapes = random.Random(41), [(2, 2), (3, 3), (1, 3), (3, 1), (2, 3)] * 8
    drawn = [random_pairing(rng, shape) for shape in shapes]
    assert {(p.source_n.ngens, p.source_m.ngens) for p in drawn} == set(shapes)
    assert any(p.source_n.rank and p.source_m.rank and p.source_n.ngens == p.source_m.ngens
               for p in drawn)
    assert sum(not p.is_zero for p in drawn) > 30
    for p in stored + drawn:
        axes = [range(-3, 4) if d == 0 else range(d) for d in p.source_m.generator_orders()]
        for b in itertools.product(*axes):
            got, want = p.against(b), reference_against(p, b)
            assert got == want and got.images == want.images, (p, b)


def test_load_roundtrip(tmp_path):
    path = write_catalog(tmp_path, [entry_dict()])
    cat = load_catalog(path)
    assert cat.names() == ("G",)
    assert cat.entry("G").homotopy(2) == FgAbGroup.cyclic(2)
    assert apply(cat.entry("G").samelson[(1, 1)].against((1,)), (1,)) == (1,)


def test_missing_file(tmp_path):
    with pytest.raises(CatalogParseError, match="cannot read"):
        load_catalog(tmp_path / "absent.json")


def test_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", encoding="utf-8")
    with pytest.raises(CatalogParseError, match="not valid JSON"):
        load_catalog(p)


def test_top_level_must_be_list(tmp_path):
    p = tmp_path / "obj.json"
    p.write_text("{}", encoding="utf-8")
    with pytest.raises(CatalogParseError, match="list"):
        load_catalog(p)


def test_duplicate_entry_name(tmp_path):
    path = write_catalog(tmp_path, [entry_dict(), entry_dict()])
    with pytest.raises(CatalogValidationError, match="duplicate"):
        load_catalog(path)


def test_unknown_entry_field(tmp_path):
    path = write_catalog(tmp_path, [entry_dict(color="red")])
    with pytest.raises(CatalogValidationError) as info:
        load_catalog(path)
    assert info.value.field == "color"


def test_disconnected_rejected(tmp_path):
    path = write_catalog(tmp_path, [entry_dict(connected=False)])
    with pytest.raises(CatalogValidationError, match="connected"):
        load_catalog(path)


def test_even_exponent_rejected(tmp_path):
    path = write_catalog(tmp_path, [entry_dict(rational_exponents=[2])])
    with pytest.raises(CatalogValidationError, match="odd positive"):
        load_catalog(path)


def test_negative_rank_blames_rank(tmp_path):
    e = entry_dict()
    e["pi"][2]["rank"] = -1
    path = write_catalog(tmp_path, [e])
    with pytest.raises(CatalogValidationError, match="negative rank") as info:
        load_catalog(path)
    assert info.value.field == "pi.rank"


def test_rank_exponent_mismatch(tmp_path):
    e = entry_dict(rational_exponents=[1, 1])
    path = write_catalog(tmp_path, [e])
    with pytest.raises(CatalogValidationError, match="multiplicity"):
        load_catalog(path)


def test_duplicate_degree(tmp_path):
    e = entry_dict()
    e["pi"] = e["pi"] + [{"degree": 2, "rank": 0, "factors": [], "source": "x"}]
    path = write_catalog(tmp_path, [e])
    with pytest.raises(CatalogValidationError, match="twice"):
        load_catalog(path)


def test_degree_gap(tmp_path):
    e = entry_dict()
    e["pi"] = [e["pi"][0], e["pi"][1], {"degree": 5, "rank": 0, "factors": [], "source": "x"}]
    path = write_catalog(tmp_path, [e])
    with pytest.raises(CatalogValidationError, match="gaps"):
        load_catalog(path)


def test_pi_row_unknown_field(tmp_path):
    e = entry_dict()
    e["pi"][0] = dict(e["pi"][0], note="hi")
    path = write_catalog(tmp_path, [e])
    with pytest.raises(CatalogValidationError, match="unknown field"):
        load_catalog(path)


def test_bool_is_not_an_integer(tmp_path):
    for table, key in [("pi", "degree"), ("pi", "rank"), ("samelson", "n"), ("samelson", "m")]:
        e = entry_dict()
        e[table][0] = dict(e[table][0], **{key: True})
        path = write_catalog(tmp_path, [e])
        with pytest.raises(CatalogValidationError) as info:
            load_catalog(path)
        assert info.value.field == f"{table}.{key}"


def test_samelson_needs_table_degrees(tmp_path):
    e = entry_dict()
    e["samelson"] = [{"n": 1, "m": 2, "values": [[[0]]]}]  # pi_3 not listed
    path = write_catalog(tmp_path, [e])
    with pytest.raises(CatalogValidationError, match="pi_3"):
        load_catalog(path)


def test_samelson_duplicate_pair(tmp_path):
    e = entry_dict()
    e["samelson"] = e["samelson"] * 2
    path = write_catalog(tmp_path, [e])
    with pytest.raises(CatalogValidationError, match="twice"):
        load_catalog(path)


def test_samelson_bad_value_shape(tmp_path):
    e = entry_dict()
    e["samelson"] = [{"n": 1, "m": 1, "values": [[[1, 1]]]}]  # target has 1 gen
    path = write_catalog(tmp_path, [e])
    with pytest.raises(CatalogValidationError):
        load_catalog(path)


def test_samelson_annihilation_enforced(tmp_path):
    e = entry_dict()
    e["pi"] = [
        {"degree": 0, "rank": 0, "factors": [], "source": "x"},
        {"degree": 1, "rank": 1, "factors": [2], "source": "x"},
        {"degree": 2, "rank": 0, "factors": [8], "source": "x"},
    ]
    # generator of order 2 paired to an order-8 value: 2 * 1 != 0 in Z/8
    e["samelson"] = [{"n": 1, "m": 1, "values": [[[0], [0]], [[0], [1]]]}]
    e["rational_exponents"] = [1]
    path = write_catalog(tmp_path, [e])
    with pytest.raises(CatalogValidationError, match=r"pairing \(1, 1\): ill-defined homomorphism"):
        load_catalog(path)


# A pairing rejection names the pairing, then the count, cell or partial
# map at fault: the row <e_i, .> on pi_m or the column <., f_j> on pi_n.
# pi_1 = Z + Z/f_1, pi_2 = Z/f_2, ... for the factor lists given.
@pytest.mark.parametrize("factors, n, m, values, message", [
    pytest.param([[], [2]], 1, 1, [[[True]]], "expected an integer", id="bool-cell"),
    pytest.param([[], [2]], 1, 1, [[["1"]]], "expected an integer", id="string-cell"),
    pytest.param([[], [2]], 1, 1, [[[1]], [[1]]], "2 value rows, not 1", id="row-count"),
    pytest.param([[], [2]], 1, 1, [[[1], [1]]], "row 0 has 2 cells, not 1", id="cell-count"),
    pytest.param([[2], [8]], 1, 1, [[[0], [0]], [[0], [4, 0]]],
                 "cell (1, 1) has length 2, not 1", id="cell-length"),
    pytest.param([[], [2], [4]], 1, 2, [[[1]]],
                 "ill-defined homomorphism: generator 0 has order 2 but 2 times its image "
                 "(1,) is nonzero, in row <e_0, .>", id="ill-defined-row"),
    pytest.param([[], [2], [4]], 2, 1, [[[1]]],
                 "ill-defined homomorphism: generator 0 has order 2 but 2 times its image "
                 "(1,) is nonzero, in column <., f_0>", id="ill-defined-column"),
])
def test_pairing_rejections_name_the_cell(tmp_path, factors, n, m, values, message):
    pi = [{"degree": d, "rank": int(d == 1), "factors": f, "source": "x"}
          for d, f in enumerate([[]] + factors)]
    pairing = {"n": n, "m": m, "values": values}
    path = write_catalog(tmp_path, [entry_dict(pi=pi, samelson=[pairing])])
    with pytest.raises(CatalogValidationError) as info:
        load_catalog(path)
    assert info.value.field == "samelson.values"
    assert str(info.value).endswith(f"'samelson.values': pairing ({n}, {m}): {message}")


def test_resolve_catalog_path(tmp_path, monkeypatch):
    monkeypatch.delenv("GHG_CATALOG", raising=False)
    assert resolve_catalog_path(None) == default_catalog_path()
    monkeypatch.setenv("GHG_CATALOG", str(tmp_path / "env.json"))
    assert resolve_catalog_path(None) == tmp_path / "env.json"
    # explicit flag wins over the environment, even an empty one
    assert resolve_catalog_path(str(tmp_path / "flag.json")) == tmp_path / "flag.json"
    assert resolve_catalog_path("") == Path("")


def _edited(edit):
    """A one-entry catalog: entry_dict() changed in place by edit."""
    e = entry_dict()
    edit(e)
    return [e]


def _load(entries):
    return lambda tmp_path: load_catalog(write_catalog(tmp_path, entries))


Z2 = FgAbGroup.cyclic(2)
Z4 = FgAbGroup.cyclic(4)
Z2_PAIRING = PairingMatrix(Z2, Z2, Z2, (((1,),),))


@pytest.mark.parametrize("call, exc, field", [
    pytest.param(_load(_edited(lambda e: e["pi"][0].pop("source"))),
                 CatalogValidationError, "pi.source", id="missing-field"),
    pytest.param(_load([entry_dict(rational_exponents=["1"])]),
                 CatalogValidationError, "rational_exponents", id="not-an-integer"),
    pytest.param(_load([5]), CatalogParseError, None, id="non-object-entry"),
    pytest.param(_load(_edited(lambda e: e.pop("name"))), CatalogParseError, None, id="nameless-entry"),
    pytest.param(_load([entry_dict(abelian="yes")]), CatalogValidationError, "abelian",
                 id="non-boolean-abelian"),
    pytest.param(_load(_edited(lambda e: e["pi"].append(3))), CatalogValidationError, "pi",
                 id="non-object-pi-row"),
    pytest.param(_load(_edited(lambda e: e["pi"][0].update(degree=-1))),
                 CatalogValidationError, "pi.degree", id="negative-degree"),
    pytest.param(_load(_edited(lambda e: e["pi"][2].update(factors=[4, 2]))),
                 CatalogValidationError, "pi.factors", id="bad-factors"),
    pytest.param(_load([entry_dict(pi=[])]), CatalogValidationError, "pi", id="empty-pi-table"),
    # the gap check must not allocate up to the largest degree
    pytest.param(_load(_edited(lambda e: e["pi"].append(
                     {"degree": 2**70, "rank": 0, "factors": [], "source": "x"}))),
                 CatalogValidationError, "pi", id="huge-degree"),
    pytest.param(_load([entry_dict(samelson=[1])]), CatalogValidationError, "samelson",
                 id="non-object-samelson-row"),
    pytest.param(_load(_edited(lambda e: e["samelson"][0].update(note="x"))),
                 CatalogValidationError, "samelson.note", id="unknown-samelson-field"),
    pytest.param(_load([entry_dict(samelson=[{"n": 0, "m": 1, "values": []}])]),
                 CatalogValidationError, "samelson", id="pairing-degree-0"),
    # every field of a row is read before any check on their values
    pytest.param(_load([entry_dict(samelson=[{"n": 0, "m": 1}])]),
                 CatalogValidationError, "samelson.values", id="pairing-degree-0-without-values"),
    pytest.param(lambda _: PairingMatrix(Z2, Z2, Z2, ((),)), ValueError, None,
                 id="pairing-column-count"),
    # a value is a coordinate tuple, which carries no group: one from the
    # wrong group shows as a tuple of the wrong length
    pytest.param(lambda _: PairingMatrix(Z2, Z2, Z4, (((1, 0),),)),
                 ValueError, None, id="pairing-value-group"),
    # <a, b> is apply(against(b), a), so each side checks its own group;
    # an element from another group shows as a tuple of the wrong length
    pytest.param(lambda _: apply(Z2_PAIRING.against((1,)), (1, 0)),
                 ValueError, None, id="apply-left-group"),
    pytest.param(lambda _: Z2_PAIRING.against((1, 0)),
                 ValueError, None, id="apply-right-group"),
])
def test_rejections(tmp_path, call, exc, field):
    with pytest.raises(exc) as info:
        call(tmp_path)
    assert getattr(info.value, "field", None) == field
