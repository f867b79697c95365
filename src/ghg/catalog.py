"""Curated homotopy groups and Samelson pairings of structure groups.

The catalog is a JSON file (see the shipped ``data/catalog.json``) and
the loader is deliberately strict: unknown fields, non-canonical
factors, inconsistent ranks, a nontrivial pi_0, even rational
exponents, a pairing table that is not a homomorphism in each variable
or has a non-torsion value, and nonzero pairing values on an abelian
entry all reject the whole file. A pairing is stored as its table of
reduced integer coordinates. Catalog serves names and entries; pi
groups, pairings and rational exponents are read off the entry
(GroupCatalogEntry.homotopy, .samelson, .rational_exponents). A
pairing missing from entry.samelson is unknown, never a silent zero:
gaugecalc raises PairingUnavailable for it.
"""
from __future__ import annotations

import json
import operator
import os
import sys
from pathlib import Path

from .fgab import FgAbGroup, Homomorphism, Value, _reduced

_ENTRY_FIELDS = {"name", "connected", "abelian", "rational_exponents", "pi", "samelson"}
_PI_FIELDS = {"degree": int, "rank": int, "factors": list, "source": str}
_SAMELSON_FIELDS = {"n": int, "m": int, "values": list}


class CatalogError(Exception):
    """Base class for catalog problems."""


class CatalogParseError(CatalogError):
    """The file is not syntactically a catalog."""


class CatalogValidationError(CatalogError):
    """An entry violates a catalog invariant."""

    def __init__(self, entry: str, field_name: str, message: str):
        self.entry = entry
        self.field = field_name
        super().__init__(f"entry {entry!r}, field {field_name!r}: {message}")


class UnknownGroupError(CatalogError):
    def __init__(self, name: str, known):
        super().__init__(f"unknown group {name!r}; catalogued: {', '.join(known)}")


class TableDepthError(CatalogError):
    def __init__(self, name: str, depth: int, degree: int):
        self.depth = depth
        self.degree = degree
        super().__init__(
            f"pi table for {name} ends at degree {depth}; degree {degree} requested"
        )


class PairingMatrix(Value):
    """Values of a biadditive pairing pi_n x pi_m -> pi_(n+m) on the
    canonical generator pairs: values[i][j] is <e_i, f_j>, the reduced
    target coordinates. A table extends to a pairing exactly when each
    row <e_i, .> and each column <., f_j> is a homomorphism and every
    value is torsion, so rows and columns are built as Homomorphisms.
    The degrees (n, m) are not fields: the entry keys its pairings by
    them, as samelson[(n, m)]."""

    __slots__ = ("source_n", "source_m", "target", "values")

    def __init__(self, source_n: FgAbGroup, source_m: FgAbGroup, target: FgAbGroup, values):
        if len(values) != source_n.ngens:
            raise ValueError(f"{len(values)} value rows, not {source_n.ngens}")
        for i, row in enumerate(values):
            if len(row) != source_m.ngens:
                raise ValueError(f"row {i} has {len(row)} cells, not {source_m.ngens}")
            for j, v in enumerate(row):
                if len(v) != target.ngens:
                    raise ValueError(f"cell ({i}, {j}) has length {len(v)}, not {target.ngens}")
        values = tuple(_named_map(source_m, target, row, f"row <e_{i}, .>").images
                       for i, row in enumerate(values))
        for j, column in enumerate(zip(*values)):
            _named_map(source_n, target, column, f"column <., f_{j}>")
        if any(any(v[:target.rank]) for row in values for v in row):
            raise ValueError("pairing values must be torsion")
        set_source_n, set_source_m, set_target, set_values = self._setters
        set_source_n(self, source_n)
        set_source_m(self, source_m)
        set_target(self, target)
        set_values(self, values)

    @property
    def is_zero(self) -> bool:
        return not any(any(v) for row in self.values for v in row)

    def against(self, b: tuple[int, ...]) -> Homomorphism:
        """<., b> : pi_n -> pi_(n+m) for b in pi_m, given by its coordinates: image i
        is sum_j b_j values[i][j], summed on integers, then reduced. It is built
        unchecked, as each column <., f_j> is a map: d e_i = 0 gives d <e_i, b> = 0.

        >>> z4 = FgAbGroup.cyclic(4)
        >>> pairing = PairingMatrix(z4, z4, z4, (((1,),),))
        >>> pairing.against((-1,)).images
        ((3,),)
        """
        if len(b) != self.source_m.ngens:
            raise ValueError(f"right argument must lie in {self.source_m}")
        target = self.target
        if not any(b):  # also the case of no generators, where a row is empty
            return Homomorphism.zero(self.source_n, target)
        images = tuple([_reduced(target, tuple([sum(map(operator.mul, b, c)) for c in zip(*row)]))
                        for row in self.values])
        return Homomorphism._from_images(self.source_n, target, images)


def _named_map(domain: FgAbGroup, target: FgAbGroup, images, where: str) -> Homomorphism:
    """Homomorphism(domain, target, images), a rejection naming where."""
    try:
        return Homomorphism(domain, target, images)
    except ValueError as exc:
        raise ValueError(f"{exc}, in {where}") from None


class GroupCatalogEntry(Value):
    __slots__ = ("name", "abelian", "rational_exponents", "pi", "pi_sources", "samelson")
    _repr_hidden = ("pi", "pi_sources", "samelson")

    def __init__(
        self,
        name: str,
        abelian: bool,
        rational_exponents: tuple[int, ...],
        pi: dict[int, FgAbGroup],
        pi_sources: dict[int, str],
        samelson: dict[tuple[int, int], PairingMatrix],
    ):
        set_name, set_abelian, set_exponents, set_pi, set_sources, set_samelson = self._setters
        set_name(self, name)
        set_abelian(self, abelian)
        set_exponents(self, rational_exponents)
        set_pi(self, pi)
        set_sources(self, pi_sources)
        set_samelson(self, samelson)

    @property
    def depth(self) -> int:
        return max(self.pi)

    def homotopy(self, degree: int) -> FgAbGroup:
        """Catalogued pi_degree, or a table-depth signal beyond the table."""
        try:
            return self.pi[degree]
        except KeyError:
            if degree < 0:
                raise ValueError("negative homotopy degree") from None
            raise TableDepthError(self.name, self.depth, degree) from None


class Catalog(Value):
    __slots__ = ("entries", "path")

    def __init__(self, entries: dict[str, GroupCatalogEntry], path: str):
        set_entries, set_path = self._setters
        set_entries(self, entries)
        set_path(self, path)

    def names(self) -> tuple[str, ...]:
        return tuple(self.entries)

    def entry(self, name: str) -> GroupCatalogEntry:
        try:
            return self.entries[name]
        except KeyError:
            raise UnknownGroupError(name, self.names()) from None


def default_catalog_path() -> Path:
    return Path(__file__).parent / "data" / "catalog.json"


def resolve_catalog_path(flag_value: str | None = None) -> Path:
    """Flag, even empty, beats a nonempty GHG_CATALOG beats the shipped file."""
    if flag_value is not None:
        return Path(flag_value)
    env = os.environ.get("GHG_CATALOG")
    if env:
        return Path(env)
    return default_catalog_path()


def default_catalog() -> Catalog:
    return load_catalog(default_catalog_path())


def load_catalog(path) -> Catalog:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except OSError as exc:
        raise CatalogParseError(f"cannot read catalog {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise CatalogParseError(f"catalog {path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise CatalogParseError(f"catalog {path} nests too deeply to read") from exc
    except ValueError as exc:  # the only one left: the int digit limit
        limit = sys.get_int_max_str_digits()
        raise CatalogParseError(f"catalog {path} holds an integer over {limit} digits") from exc
    if not isinstance(raw, list):
        raise CatalogParseError(f"catalog {path} must be a JSON list of entries")
    entries: dict[str, GroupCatalogEntry] = {}
    for item in raw:
        entry = _build_entry(item)
        if entry.name in entries:
            raise CatalogValidationError(entry.name, "name", "duplicate entry name")
        entries[entry.name] = entry
    return Catalog(entries, str(path))


def _want(mapping, key, types, entry, where):
    if key not in mapping:
        raise CatalogValidationError(entry, where + key, "missing required field")
    value = mapping[key]
    if not isinstance(value, types) or isinstance(value, bool) and types is int:
        raise CatalogValidationError(entry, where + key, f"expected {types}, got {type(value).__name__}")
    return value


def _int(value, entry, where, prefix=""):
    # bool is an int subclass; keep the schema strict
    if not isinstance(value, int) or isinstance(value, bool):
        raise CatalogValidationError(entry, where, prefix + "expected an integer")
    return value


def _rows(item, table, fields, name):
    """The rows of one table, each as the tuple of its fields in the
    order of fields (a field -> type map), after the row checks that
    every table shares."""
    for row in _want(item, table, list, name, ""):
        if not isinstance(row, dict):
            raise CatalogValidationError(name, table, f"{table} rows must be objects")
        bad = row.keys() - fields
        if bad:
            raise CatalogValidationError(name, f"{table}.{sorted(bad)[0]}", "unknown field")
        yield tuple(_want(row, key, types, name, table + ".") for key, types in fields.items())


def _build_entry(item) -> GroupCatalogEntry:
    if not isinstance(item, dict):
        raise CatalogParseError("catalog entries must be JSON objects")
    name = item.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogParseError("every entry needs a nonempty string name")
    unknown = set(item) - _ENTRY_FIELDS
    if unknown:
        raise CatalogValidationError(name, sorted(unknown)[0], "unknown field")
    if _want(item, "connected", bool, name, "") is not True:
        raise CatalogValidationError(name, "connected", "only connected groups are supported")
    abelian = item.get("abelian", False)
    if not isinstance(abelian, bool):
        raise CatalogValidationError(name, "abelian", "expected a boolean")
    exponents = _want(item, "rational_exponents", list, name, "")
    exponents = tuple(_int(e, name, "rational_exponents") for e in exponents)
    for e in exponents:
        if e < 1 or e % 2 == 0:
            raise CatalogValidationError(
                name, "rational_exponents", f"exponent {e} is not an odd positive integer"
            )

    pi: dict[int, FgAbGroup] = {}
    sources: dict[int, str] = {}
    for degree, rank, factors, source in _rows(item, "pi", _PI_FIELDS, name):
        if degree < 0:
            raise CatalogValidationError(name, "pi.degree", "negative degree")
        if rank < 0:
            raise CatalogValidationError(name, "pi.rank", "negative rank")
        if degree in pi:
            raise CatalogValidationError(name, "pi.degree", f"degree {degree} listed twice")
        try:
            group = FgAbGroup(rank, tuple(_int(d, name, "pi.factors") for d in factors))
        except ValueError as exc:
            raise CatalogValidationError(name, "pi.factors", str(exc)) from None
        if degree == 0 and group.invariant_factors:
            raise CatalogValidationError(name, "pi", "a connected group has pi_0 = 0")
        pi[degree] = group
        sources[degree] = source
    if not pi:
        raise CatalogValidationError(name, "pi", "empty pi table")
    # the degrees are distinct and nonnegative, so they fill 0..max exactly when there are max + 1
    if len(pi) != max(pi) + 1:
        raise CatalogValidationError(name, "pi", "degrees must cover 0..depth without gaps")
    for degree, group in pi.items():
        if group.rank != exponents.count(degree):
            raise CatalogValidationError(
                name,
                "pi.rank",
                f"rank {group.rank} at degree {degree} does not match the "
                f"multiplicity {exponents.count(degree)} in rational_exponents",
            )

    samelson: dict[tuple[int, int], PairingMatrix] = {}
    for n, m, values in _rows(item, "samelson", _SAMELSON_FIELDS, name):
        if n < 1 or m < 1:
            raise CatalogValidationError(name, "samelson", "pairing degrees start at 1")
        for needed in (n, m, n + m):
            if needed not in pi:
                raise CatalogValidationError(
                    name, "samelson", f"pairing ({n}, {m}) needs pi_{needed} in the table"
                )
        if (n, m) in samelson:
            raise CatalogValidationError(name, "samelson", f"pairing ({n}, {m}) listed twice")
        pairing = f"pairing ({n}, {m}): "
        try:
            parsed = [[[_int(c, name, "samelson.values", pairing) for c in cell] for cell in vrow]
                      for vrow in values]
            samelson[(n, m)] = PairingMatrix(pi[n], pi[m], pi[n + m], parsed)
        except (TypeError, ValueError) as exc:
            raise CatalogValidationError(name, "samelson.values", f"{pairing}{exc}") from None
        if abelian and not samelson[(n, m)].is_zero:
            raise CatalogValidationError(
                name, "samelson.values", f"pairing ({n}, {m}) of an abelian group must be zero"
            )

    return GroupCatalogEntry(
        name=name,
        abelian=abelian,
        rational_exponents=exponents,
        pi=pi,
        pi_sources=sources,
        samelson=samelson,
    )
