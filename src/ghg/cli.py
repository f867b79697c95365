"""Command line front end.

Commands: compute, rational, catalog, verify. Exit codes: 0 on
success, 1 for usage problems, 2 when the computation cannot be
carried out (missing pairing data, table too shallow, torsion bound
exceeded, catalog errors), 3 when verify finds a failing check.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .catalog import (
    CatalogError,
    CatalogParseError,
    CatalogValidationError,
    load_catalog,
    resolve_catalog_path,
)
from .exactseq import DEFAULT_TORSION_BOUND
from .fgab import CapacityError
from .gaugecalc import (
    BundleSpec,
    PairingUnavailable,
    Sphere,
    Surface,
    class_group,
    gauge_homotopy,
    gauge_homotopy_rational,
    make_bundle,
)
from .verify import SEED, run_all


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # raise instead of exiting so run() can map usage problems to code 1
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument(
        "--catalog",
        metavar="PATH",
        default=None,
        help="catalog JSON file (default: GHG_CATALOG or the shipped table)",
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )

    parser = _Parser(prog="ghg", description="homotopy groups of gauge groups")
    parser.add_argument("--version", action="version", version=f"ghg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def bundle_args(p):
        p.add_argument("--group", required=True, help="catalog entry name, e.g. SU2")
        p.add_argument(
            "--base",
            required=True,
            help="base space, sphere:M (M >= 1) or surface:G (genus G >= 0)",
        )
        p.add_argument(
            "--class",
            dest="clazz",
            metavar="COORDS",
            default=None,
            help="bundle class as comma-separated coordinates (default: 0)",
        )
        p.add_argument("--degree", type=int, required=True, help="homotopy degree, >= 1")

    p = sub.add_parser("compute", parents=[common], help="integral homotopy group")
    bundle_args(p)
    p.add_argument(
        "--torsion-bound",
        type=int,
        default=DEFAULT_TORSION_BOUND,
        help=f"largest extension torsion order to resolve (default: {DEFAULT_TORSION_BOUND})",
    )

    p = sub.add_parser("rational", parents=[common], help="rational homotopy dimension")
    bundle_args(p)

    sub.add_parser("catalog", parents=[common], help="list the catalogued groups")

    p = sub.add_parser("verify", parents=[common], help="run the invariant checks")
    p.add_argument("--seed", type=int, default=SEED, help=f"random seed (default: {SEED})")

    return parser


def _parse_base(text: str) -> Sphere | Surface:
    kind, sep, tail = text.partition(":")
    if not sep or not tail:
        raise UsageError(f"base must look like sphere:M or surface:G, got {text!r}")
    try:
        value = int(tail)
    except ValueError:
        raise UsageError(f"base parameter must be an integer, got {tail!r}") from None
    make = {"sphere": Sphere, "surface": Surface}.get(kind)
    if make is None:
        raise UsageError(f"unknown base kind {kind!r} (expected sphere or surface)")
    try:
        return make(value)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_class(text, group) -> tuple[int, ...]:
    if text is None:
        return (0,) * group.ngens
    try:
        coords = tuple(int(part.strip()) for part in text.split(","))
    except ValueError:
        raise UsageError(f"class coordinates must be integers, got {text!r}") from None
    if len(coords) == group.ngens:
        return coords
    if len(coords) == 1 and group.ngens == 0:
        return ()  # every integer lands on the only element
    raise UsageError(
        f"class needs {group.ngens} coordinate(s) for {group}, got {len(coords)}"
    )


def _load(args):
    return load_catalog(resolve_catalog_path(args.catalog))


def _group_doc(g) -> dict:
    return {"name": str(g), "rank": g.rank, "factors": list(g.invariant_factors)}


def _cmd_compute(args) -> int:
    base = _parse_base(args.base)
    if args.degree < 1:
        raise UsageError("degree must be at least 1")
    if args.torsion_bound < 0:
        raise UsageError("torsion bound must be nonnegative")
    catalog = _load(args)
    coords = _parse_class(args.clazz, class_group(catalog, args.group, base))
    bundle = make_bundle(catalog, args.group, base, coords)
    result = gauge_homotopy(
        catalog, args.group, bundle, args.degree, torsion_bound=args.torsion_bound
    )
    if args.format == "json":
        doc = {
            "command": "compute",
            "group": args.group,
            "base": str(base),
            "class": list(bundle.clazz.coords),
            "degree": args.degree,
            "torsion_bound": args.torsion_bound,
            "resolved": result.is_resolved,
            "sub": _group_doc(result.sub),
            "quot": _group_doc(result.quot),
        }
        if result.is_resolved:
            doc["result"] = _group_doc(result.resolved)
        else:
            doc["candidates"] = [_group_doc(c) for c in result.candidates]
        _emit(doc)
    elif result.is_resolved:
        print(result.resolved)
    else:
        names = ", ".join(str(c) for c in result.candidates)
        print(f"extension of {result.quot} by {result.sub}; candidates: {names}")
    return 0


def _cmd_rational(args) -> int:
    base = _parse_base(args.base)
    if args.degree < 1:
        raise UsageError("degree must be at least 1")
    catalog = _load(args)
    if args.clazz is None:  # the answer never reads the class, so skip its group
        bundle = BundleSpec(base, None)
    else:
        coords = _parse_class(args.clazz, class_group(catalog, args.group, base))
        bundle = make_bundle(catalog, args.group, base, coords)
    dim = gauge_homotopy_rational(catalog, args.group, bundle, args.degree)
    if args.format == "json":
        _emit(
            {
                "command": "rational",
                "group": args.group,
                "base": str(base),
                "degree": args.degree,
                "dimension": dim,
                "name": f"Q^{dim}",
            }
        )
    else:
        print(f"Q^{dim}")
    return 0


def _cmd_catalog(args) -> int:
    catalog = _load(args)
    if args.format == "json":
        entries = []
        for name in catalog.names():
            e = catalog.entry(name)
            entries.append(
                {
                    "name": name,
                    "abelian": bool(e.abelian),
                    "depth": e.depth,
                    "rational_exponents": list(e.rational_exponents),
                    "pairings": sorted([n, m] for (n, m) in e.samelson),
                }
            )
        _emit({"command": "catalog", "path": str(catalog.path), "entries": entries})
    else:
        for name in catalog.names():
            e = catalog.entry(name)
            pairs = ", ".join(f"({n},{m})" for n, m in sorted(e.samelson)) or "none"
            exps = ", ".join(str(x) for x in e.rational_exponents)
            print(f"{name}: depth {e.depth}; exponents [{exps}]; pairings {pairs}")
    return 0


def _cmd_verify(args) -> int:
    catalog = _load(args)
    results = run_all(catalog, seed=args.seed)
    passed = sum(1 for r in results if r.passed)
    if args.format == "json":
        _emit(
            {
                "command": "verify",
                "seed": args.seed,
                "passed": passed,
                "total": len(results),
                "checks": [
                    {"name": r.name, "passed": r.passed, "detail": r.detail}
                    for r in results
                ],
            }
        )
    else:
        for r in results:
            print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
        print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 3


def _emit(doc) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True))


_COMMANDS = {
    "compute": _cmd_compute,
    "rational": _cmd_rational,
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"ghg: usage error: {exc}", file=sys.stderr)
        return 1
    except (CatalogParseError, CatalogValidationError) as exc:
        print(f"ghg: catalog: {exc}", file=sys.stderr)
        return 2
    except (CatalogError, PairingUnavailable, CapacityError) as exc:
        print(f"ghg: compute: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
