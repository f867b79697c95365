"""Command line front end.

Commands: compute, rational, catalog, verify. Each builds one document
and its text rendering, and run alone prints one of them. Exit codes:
0 on success, 1 for usage problems, 2 when the computation cannot be
carried out (missing pairing data, table too shallow, torsion bound
exceeded, an exponent too large to factor, catalog errors), 3 when
verify finds a failing check.

The check suite ghg.verify is registered in sys.modules at import, but
lazily: its body is compiled and run on the first attribute read, so
compute, rational and catalog processes never compile it, while code
that looks the module up right after importing ghg.cli still finds it.
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import sys

from . import SEED, __version__
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
    Sphere,
    Surface,
    class_group,
    gauge_homotopy,
    gauge_homotopy_rational,
    make_bundle,
)


def _lazy_verify():
    """ghg.verify, registered in sys.modules and bound on the package, with
    its body run on the first attribute read; a module imported before
    is returned as it is. Uses __package__, since under `python -m
    ghg.cli` this module runs as __main__."""
    name = f"{__package__}.verify"
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = importlib.util.module_from_spec(spec)
        sys.modules[name] = module
        spec.loader.exec_module(module)
    sys.modules[__package__].verify = module
    return module


verify = _lazy_verify()


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
        p.add_argument("--degree", type=_int("degree"), required=True, help="homotopy degree, >= 1")

    p = sub.add_parser("compute", parents=[common], help="integral homotopy group")
    bundle_args(p)
    p.add_argument(
        "--torsion-bound",
        type=_int("torsion bound"),
        default=DEFAULT_TORSION_BOUND,
        help=f"largest extension torsion order to resolve (default: {DEFAULT_TORSION_BOUND})",
    )

    p = sub.add_parser("rational", parents=[common], help="rational homotopy dimension")
    bundle_args(p)

    sub.add_parser("catalog", parents=[common], help="list the catalogued groups")

    p = sub.add_parser("verify", parents=[common], help="run the invariant checks")
    p.add_argument("--seed", type=_int("seed"), default=SEED, help=f"random seed (default: {SEED})")

    return parser


def _int(what: str):
    """An int parser for the value named what: named int, so that argparse keeps
    its "invalid int value" text, and past the int digit limit a UsageError."""
    def parse(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            if sum(c.isdecimal() for c in text) <= sys.get_int_max_str_digits():
                raise
            raise UsageError(f"{what} has over {sys.get_int_max_str_digits()} digits") from None
    parse.__name__ = "int"
    return parse


def _parse_base(text: str) -> Sphere | Surface:
    kind, sep, tail = text.partition(":")
    if not sep or not tail:
        raise UsageError(f"base must look like sphere:M or surface:G, got {text!r}")
    try:
        value = _int("base parameter")(tail)
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
        coords = tuple(_int("class coordinate")(part.strip()) for part in text.split(","))
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
    if args.catalog == "":  # an unset shell variable, say: never fall back
        raise UsageError("--catalog needs a path, got an empty string")
    return load_catalog(resolve_catalog_path(args.catalog))


def _group_doc(g) -> dict:
    return {"name": str(g), "rank": g.rank, "factors": list(g.invariant_factors)}


def _cmd_compute(args) -> tuple[int, dict, str]:
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
    doc = {
        "command": "compute",
        "group": args.group,
        "base": str(base),
        "class": list(bundle.clazz),
        "degree": args.degree,
        "torsion_bound": args.torsion_bound,
        "resolved": result.is_resolved,
        "sub": _group_doc(result.sub),
        "quot": _group_doc(result.quot),
    }
    if result.is_resolved:
        doc["result"] = _group_doc(result.resolved)
        return 0, doc, f"{result.resolved}\n"
    doc["candidates"] = [_group_doc(c) for c in result.candidates]
    names = ", ".join(str(c) for c in result.candidates)
    return 0, doc, f"extension of {result.quot} by {result.sub}; candidates: {names}\n"


def _cmd_rational(args) -> tuple[int, dict, str]:
    base = _parse_base(args.base)
    if args.degree < 1:
        raise UsageError("degree must be at least 1")
    catalog = _load(args)
    if args.clazz is not None:  # checked for its count only: the answer never reads it
        _parse_class(args.clazz, class_group(catalog, args.group, base))
    dim = gauge_homotopy_rational(catalog, args.group, BundleSpec(base, None), args.degree)
    doc = {
        "command": "rational",
        "group": args.group,
        "base": str(base),
        "degree": args.degree,
        "dimension": dim,
        "name": f"Q^{dim}",
    }
    return 0, doc, f"Q^{dim}\n"


def _cmd_catalog(args) -> tuple[int, dict, str]:
    catalog = _load(args)
    entries, text = [], ""
    for name in catalog.names():
        e = catalog.entry(name)
        pairings = sorted([n, m] for (n, m) in e.samelson)
        entries.append(
            {
                "name": name,
                "abelian": bool(e.abelian),
                "depth": e.depth,
                "rational_exponents": list(e.rational_exponents),
                "pairings": pairings,
            }
        )
        pairs = ", ".join(f"({n},{m})" for n, m in pairings) or "none"
        exps = ", ".join(str(x) for x in e.rational_exponents)
        text += f"{name}: depth {e.depth}; exponents [{exps}]; pairings {pairs}\n"
    return 0, {"command": "catalog", "path": str(catalog.path), "entries": entries}, text


def _cmd_verify(args) -> tuple[int, dict, str]:
    catalog = _load(args)
    checks = [
        {"name": name, "passed": passed, "detail": detail}
        for name, passed, detail in verify.run_all(catalog, seed=args.seed)
    ]
    passed = sum(c["passed"] for c in checks)
    doc = {
        "command": "verify",
        "seed": args.seed,
        "passed": passed,
        "total": len(checks),
        "checks": checks,
    }
    text = "".join(
        f"{'PASS' if c['passed'] else 'FAIL'} {c['name']}: {c['detail']}\n" for c in checks
    ) + f"{passed}/{len(checks)} checks passed\n"
    return 0 if passed == len(checks) else 3, doc, text


_COMMANDS = {
    "compute": _cmd_compute,
    "rational": _cmd_rational,
    "catalog": _cmd_catalog,
    "verify": _cmd_verify,
}


def run(argv=None) -> int:
    """Parse argv and execute; returns the process exit code. This is
    the one place that prints a command's output: its document as JSON
    under --format json, else its text."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code, doc, text = _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"ghg: usage error: {exc}", file=sys.stderr)
        return 1
    except (CatalogParseError, CatalogValidationError) as exc:
        print(f"ghg: catalog: {exc}", file=sys.stderr)
        return 2
    except (CatalogError, CapacityError) as exc:
        print(f"ghg: compute: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    return code


def main(argv=None) -> None:
    sys.exit(run(argv))


if __name__ == "__main__":
    main()
