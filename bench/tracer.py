"""In-memory span tracer for the public functions of the ghg layers.

A span is recorded for each call into a traced function: its name,
start, end, parent span and query id. ``from .fgab import hom_decompose``
binds a copy of the function in every importing module, so the wrapper
replaces the original in every ``ghg`` module namespace that holds it.
A function that the package no longer has is reported as absent.
"""
from __future__ import annotations

import functools
import sys
import time

TRACED = {
    "cli": ("run",),
    "catalog": ("load_catalog",),
    "gaugecalc": ("gauge_homotopy", "connecting_hom_sphere", "connecting_hom_surface"),
    "fgab": (
        "snf",
        "hom_decompose",
        "canonicalize",
        "direct_sum_with_injections",
        "enumerate_elements",
    ),
    "exactseq": ("middle_group", "resolve_extension", "subgroup_quotient_pairs"),
}

# span fields
NAME, START, END, PARENT, QUERY, EXTRA = range(6)


def _max_bits(*matrices) -> int:
    return max(
        (abs(x).bit_length() for m in matrices for row in m.data for x in row),
        default=0,
    )


def _snf_extra(args, result) -> dict:
    a = args[0]
    return {"dim": max(a.rows, a.cols), "bits": _max_bits(*result)}


def _resolve_extra(args, result) -> dict:
    return {"candidates": 1 if result.is_resolved else len(result.candidates)}


def _sqp_extra(args, result) -> dict:
    return {"order": args[0].torsion_order}


def _elements_extra(args, result) -> dict:
    return {"elements": len(result)}


EXTRAS = {
    "fgab.snf": _snf_extra,
    "exactseq.resolve_extension": _resolve_extra,
    "exactseq.subgroup_quotient_pairs": _sqp_extra,
    "fgab.enumerate_elements": _elements_extra,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.query = None
        self.absent: list[str] = []
        self._cached = None
        self._banked = [0, 0]

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self.stack
        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            span = [name, time.perf_counter(), None, stack[-1] if stack else None,
                    self.query, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, result)
            return result

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        """Replace every traced function in every loaded ghg namespace."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "ghg" or n.startswith("ghg."))]
        for short, names in TRACED.items():
            home = sys.modules.get(f"ghg.{short}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.absent.append(f"{short}.{fname}")
                    continue
                if fname == "subgroup_quotient_pairs":
                    self._cached = original
                wrapper = self.wrap(f"{short}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
        verify = sys.modules.get("ghg.verify")
        checks = getattr(verify, "CHECKS", None)
        if checks is None:
            self.absent.append("verify.CHECKS")
        else:
            for i, (cname, fn) in enumerate(checks):
                checks[i] = (cname, self.wrap(f"verify.{cname}", fn))

    def _cache_stats(self) -> tuple[int, int]:
        info = self._cached.cache_info()
        return info.hits, info.misses

    def bank_cache_stats(self) -> None:
        """Keep the cache statistics before the cache is cleared, since
        cache_clear also resets them."""
        if self._cached is not None and hasattr(self._cached, "cache_info"):
            hits, misses = self._cache_stats()
            self._banked[0] += hits
            self._banked[1] += misses

    def summary(self, clock=None) -> dict:
        """Per span name: calls, inclusive seconds, self seconds and the
        name's counters; plus the cache statistics and absent names.
        With a closed speed.Clock that ran across the spans, seconds are
        its reference seconds, without its loop runs; else they are raw."""
        if clock is None:
            durations = [span[END] - span[START] for span in self.spans]
        else:
            durations = [clock.scaled(span[START], span[END]) for span in self.spans]
        child = [0.0] * len(self.spans)
        for span, dur in zip(self.spans, durations):
            if span[PARENT] is not None:
                child[span[PARENT]] += dur
        out: dict[str, dict] = {}
        for i, span in enumerate(self.spans):
            name = span[NAME]
            d = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            dur = durations[i]
            d["calls"] += 1
            d["s"] += dur
            d["self_s"] += dur - child[i]
            extra = span[EXTRA]
            if extra is None:
                continue
            if name == "fgab.snf":
                d["max_dim"] = max(d.get("max_dim", 0), extra["dim"])
                d["max_entry_bits"] = max(d.get("max_entry_bits", 0), extra["bits"])
            elif name == "exactseq.subgroup_quotient_pairs":
                d["max_order"] = max(d.get("max_order", 0), extra["order"])
            elif name == "fgab.enumerate_elements":
                d["elements"] = d.get("elements", 0) + extra["elements"]
        self._extension_counts(out)
        if self._cached is not None and hasattr(self._cached, "cache_info"):
            hits, misses = self._cache_stats()
            d = out.setdefault("exactseq.subgroup_quotient_pairs",
                               {"calls": 0, "s": 0.0, "self_s": 0.0})
            d["hits"] = hits + self._banked[0]
            d["misses"] = misses + self._banked[1]
        return {"spans": out, "absent": list(self.absent)}

    def _extension_counts(self, out: dict) -> None:
        # a resolve_extension call is enumerated when it tests candidate
        # types through subgroup_quotient_pairs, i.e. no rule settled it
        tested: dict[int, int] = {}
        for span in self.spans:
            if span[NAME] == "exactseq.subgroup_quotient_pairs" and span[PARENT] is not None:
                parent = self.spans[span[PARENT]]
                if parent[NAME] == "exactseq.resolve_extension":
                    tested[span[PARENT]] = tested.get(span[PARENT], 0) + 1
        if "exactseq.resolve_extension" not in out:
            return
        d = out["exactseq.resolve_extension"]
        d["enumerated"] = len(tested)
        d["types_tested"] = sum(tested.values())
        d["candidates"] = sum(
            self.spans[i][EXTRA]["candidates"] for i in tested if self.spans[i][EXTRA]
        )
