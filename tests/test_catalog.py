"""Catalog loading, lookup semantics, and schema validation."""
import itertools
import json
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
from ghg.fgab import FgAbGroup, GroupElement
from ghg.gaugecalc import PairingUnavailable, connecting_hom_sphere
from ghg.verify import image


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
    """Generator i of a group in canonical form."""
    return GroupElement(group, tuple(int(k == i) for k in range(group.ngens)))


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
    assert cat.pi("SU2", 0).is_trivial
    assert cat.pi("SU2", 2).is_trivial
    assert cat.pi("SU2", 3) == FgAbGroup(1)
    assert cat.pi("SU2", 4) == FgAbGroup.cyclic(2)
    assert cat.pi("SU2", 6) == FgAbGroup.cyclic(12)
    assert cat.entry("SU2").depth == 12


def test_pi_beyond_depth():
    cat = default_catalog()
    with pytest.raises(TableDepthError, match="ends at degree 12; degree 13"):
        cat.pi("SU2", 13)


def test_negative_degree_rejected():
    cat = default_catalog()
    with pytest.raises(ValueError):
        cat.pi("SU2", -1)


def test_unknown_group():
    cat = default_catalog()
    with pytest.raises(UnknownGroupError, match="NOPE"):
        cat.entry("NOPE")


def test_stored_pairing_lookup():
    cat = default_catalog()
    p = cat.entry("SU2").samelson[(3, 3)]
    assert not p.is_zero
    g3 = cat.pi("SU2", 3)
    a = GroupElement(g3, (2,))
    b = GroupElement(g3, (3,))
    # bilinear extension of <g, g> = 1 in Z/12
    assert p.against(b).apply(a).coords == (6,)
    assert p.against(GroupElement.zero(g3)).apply(a).is_zero


def test_trivial_source_gives_zero_pairing():
    # the entry stores only pairings; connecting_hom_sphere decides the
    # structural zeros without reading them
    cat = default_catalog()
    assert (2, 3) not in cat.entry("SU2").samelson  # pi_2 = 0
    b = GroupElement(cat.pi("SU2", 3), (1,))
    delta = connecting_hom_sphere(cat, "SU2", 4, b, 2)  # pi_2 -> pi_5 = Z/2
    assert image(delta).is_trivial and not delta.codomain.is_trivial
    # trivial class group: an S^3 bundle has its class in pi_2 = 0
    assert (3, 2) not in cat.entry("SU2").samelson
    clazz = GroupElement.zero(cat.pi("SU2", 2))
    delta = connecting_hom_sphere(cat, "SU2", 3, clazz, 3)  # pi_3 -> pi_5
    assert image(delta).is_trivial and not delta.domain.is_trivial and not delta.codomain.is_trivial


def test_abelian_flag_gives_zero_pairing(tmp_path):
    cat = default_catalog()
    assert not cat.entry("U1").samelson
    # a copy of TEST marked abelian, nothing stored: every map on it is
    # zero although domain, class group and codomain are all nontrivial
    entry = dict(shipped_entry("TEST"), name="TA", abelian=True, samelson=[])
    cat = load_catalog(write_catalog(tmp_path, [entry]))
    assert not cat.entry("TA").samelson
    b = GroupElement(cat.pi("TA", 1), (1,))
    delta = connecting_hom_sphere(cat, "TA", 2, b, 1)  # pi_1 = Z -> pi_2 = Z/4
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
    b = GroupElement(cat.pi("SU2", 3), (1,))
    with pytest.raises(PairingUnavailable, match="pi_5 x pi_3"):
        connecting_hom_sphere(cat, "SU2", 4, b, 5)


def test_pairing_needs_catalogued_degrees():
    cat = default_catalog()
    b = GroupElement(cat.pi("SU2", 7), (1,))
    with pytest.raises(TableDepthError, match="degree 13 requested"):
        connecting_hom_sphere(cat, "SU2", 8, b, 6)  # target degree 13 beyond the table


def test_pairing_matrix_shape_checks():
    z12 = FgAbGroup.cyclic(12)
    free = FgAbGroup(1)
    good = PairingMatrix(3, 3, free, free, z12, ((GroupElement(z12, (1,)),),))
    assert not good.is_zero
    with pytest.raises(ValueError):
        PairingMatrix(3, 3, free, free, z12, ())  # row count mismatch
    with pytest.raises(ValueError):
        # value of infinite order is not allowed
        PairingMatrix(1, 1, free, free, FgAbGroup(1), ((GroupElement(FgAbGroup(1), (1,)),),))


def test_pairing_annihilation_check():
    # source generator of order 2 forces 2 * value = 0
    z2 = FgAbGroup.cyclic(2)
    z4 = FgAbGroup.cyclic(4)
    with pytest.raises(ValueError, match="not killed"):
        PairingMatrix(1, 1, z2, z2, z4, ((GroupElement(z4, (1,)),),))
    PairingMatrix(1, 1, z2, z2, z4, ((GroupElement(z4, (2,)),),))


def test_test_entry_biadditivity():
    """The synthetic entry exercises multi-generator targets."""
    cat = default_catalog()
    p = cat.entry("TEST").samelson[(3, 1)]
    g3 = cat.pi("TEST", 3)
    g1 = cat.pi("TEST", 1)
    a = GroupElement(g3, (2, 1))
    f = p.against(GroupElement(g1, (3,)))
    assert f.apply(a) == f.apply(GroupElement(g3, (2, 0))) + f.apply(GroupElement(g3, (0, 1)))


def test_against_is_the_stored_table_as_a_homomorphism():
    """Column i of <., f_j> is values[i][j]; <., -b> is -<., b> on every
    class with free coordinates in -2..2; and delta_n is <., -b>."""
    cat = default_catalog()
    pairings = [(name, p) for name in cat.names() for p in cat.entry(name).samelson.values()]
    assert len(pairings) == 5
    for name, p in pairings:
        gens = [unit(p.source_n, i) for i in range(p.source_n.ngens)]
        for j in range(p.source_m.ngens):
            f = p.against(unit(p.source_m, j))
            assert f.domain == p.source_n and f.codomain == p.target
            assert [tuple(r[i] for r in f.matrix.data) for i in range(len(gens))] == [
                row[j].coords for row in p.values]
        axes = [range(-2, 3) if d == 0 else range(d) for d in p.source_m.generator_orders()]
        for coords in itertools.product(*axes):
            b = GroupElement(p.source_m, coords)
            minus = p.against(-b)
            # the columns are reduced coordinates, so they negate as elements
            assert [minus.apply(a) for a in gens] == [-p.against(b).apply(a) for a in gens]
            assert connecting_hom_sphere(cat, name, p.m + 1, b, p.n) == minus


def test_load_roundtrip(tmp_path):
    path = write_catalog(tmp_path, [entry_dict()])
    cat = load_catalog(path)
    assert cat.names() == ("G",)
    assert cat.pi("G", 2) == FgAbGroup.cyclic(2)
    gen = GroupElement(cat.pi("G", 1), (1,))
    assert cat.entry("G").samelson[(1, 1)].against(gen).apply(gen).coords == (1,)


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
    with pytest.raises(CatalogValidationError, match="not killed"):
        load_catalog(path)


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
Z2_PAIRING = PairingMatrix(1, 1, Z2, Z2, Z2, ((GroupElement(Z2, (1,)),),))


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
    pytest.param(lambda _: PairingMatrix(1, 1, Z2, Z2, Z2, ((),)), ValueError, None,
                 id="pairing-column-count"),
    pytest.param(lambda _: PairingMatrix(1, 1, Z2, Z2, Z4, ((GroupElement(Z2, (1,)),),)),
                 ValueError, None, id="pairing-value-group"),
    # <a, b> is against(b).apply(a), so each side checks its own group
    pytest.param(lambda _: Z2_PAIRING.against(GroupElement(Z2, (1,))).apply(GroupElement(Z4, (1,))),
                 ValueError, None, id="apply-left-group"),
    pytest.param(lambda _: Z2_PAIRING.against(GroupElement(Z4, (1,))).apply(GroupElement(Z2, (1,))),
                 ValueError, None, id="apply-right-group"),
])
def test_rejections(tmp_path, call, exc, field):
    with pytest.raises(exc) as info:
        call(tmp_path)
    assert getattr(info.value, "field", None) == field
