"""Spans around the package's public functions, installed from outside.

The package's modules import names from each other directly (census uses
its own binding of `classify`, sphericality its own `reduced_word`, ...),
so a wrapper is bound in place of the original in every loaded
`levispherical` module that holds it, and put back by remove().

Spans stay in memory as [name, start, duration, parent index] and are
written out by write().  A span's self time is its duration minus the
durations of its direct children.  No wrapped function calls another of the
same name, so summing durations per name counts no time twice.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (span name, module, attribute) of every public function wrapped.
FUNCTIONS = (
    ("rootsys.build", "rootsys", "build_root_system"),
    ("cli.main", "cli", "main"),
    ("census.run", "census", "run_census"),
    ("census.cross_check", "census", "cross_check"),
    ("sphericality.classify", "sphericality", "classify"),
    ("weyl.from_word", "weyl", "from_word"),
    ("weyl.left_descents", "weyl", "left_descents"),
    ("weyl.reduced_word", "weyl", "reduced_word"),
    ("weyl.length", "weyl", "length"),
    ("weyl.longest_parabolic", "weyl", "longest_parabolic"),
    ("weyl.multiply", "weyl", "multiply"),
    ("characters.demazure", "characters", "demazure_char"),
    ("characters.decompose", "characters", "decompose_levi"),
    ("characters.levi_irreducible", "characters", "levi_irreducible_char"),
    ("characters.mf_check", "characters", "is_multiplicity_free"),
    ("characters.witness", "characters", "witness_search"),
)
# Generator functions: the span covers only the time spent inside next().
GENERATORS = (("weyl.enumerate", "weyl", "enumerate_group"),)
# (span name, module, class, method) of the record serialisers.
METHODS = (
    ("census.serialize", "census", "CensusRecord", "to_json_line"),
    ("census.parse", "census", "CensusRecord", "from_json_line"),
)

# Counts read off results: span name -> {counter: function of the result}.
RESULT_COUNTS = {
    "characters.demazure": {"terms": len},
    "characters.decompose": {"entries": len},
    "characters.witness": {
        "found": lambda res: res is not None,
        "inconclusive": lambda res: res is None,
    },
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self._restore: list[tuple] = []

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._open[-1] if self._open else -1])
        return idx

    def _wrap(self, name: str, fn):
        spans, opened, counts = self.spans, self._open, self.counts
        derived = RESULT_COUNTS.get(name, {})

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._begin(name)
            opened.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = spans[idx]
                span[1] = start
                span[2] = perf_counter() - start
                opened.pop()
            for key, of in derived.items():
                counts[f"{name}.{key}"] += of(result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._drain(name, self._begin(name), fn(*args, **kwargs))

        return traced

    def _drain(self, name: str, idx: int, items):
        span = self.spans[idx]
        span[1] = perf_counter()
        yielded = 0
        try:
            while True:
                self._open.append(idx)
                t0 = perf_counter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    span[2] += perf_counter() - t0
                    self._open.pop()
                yielded += 1
                yield item
        finally:
            self.counts[f"{name}.items"] += yielded

    def _rebind(self, original, replacement) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "levispherical" and not modname.startswith("levispherical."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        for name, modname, attr in FUNCTIONS:
            fn = getattr(sys.modules[f"levispherical.{modname}"], attr)
            self._rebind(fn, self._wrap(name, fn))
        for name, modname, attr in GENERATORS:
            fn = getattr(sys.modules[f"levispherical.{modname}"], attr)
            self._rebind(fn, self._wrap_generator(name, fn))
        for name, modname, clsname, attr in METHODS:
            cls = getattr(sys.modules[f"levispherical.{modname}"], clsname)
            original = cls.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self._wrap(name, original.__func__))
            else:
                replacement = self._wrap(name, original)
            setattr(cls, attr, replacement)
            self._restore.append((cls, attr, original))

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def totals(self) -> dict[str, tuple[int, float, float]]:
        """Per span name: (calls, total seconds, self seconds)."""
        child = [0.0] * len(self.spans)
        for _name, _start, duration, parent in self.spans:
            if parent >= 0:
                child[parent] += duration
        out: dict[str, list] = {}
        for idx, (name, _start, duration, _parent) in enumerate(self.spans):
            agg = out.setdefault(name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - child[idx]
        return {name: tuple(agg) for name, agg in out.items()}

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json (all but trace overhead)."""
        tot = self.totals()

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return tot.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return tot.get(name, (0, 0.0, 0.0))[2]

        out = {
            "rootsys.build_s": total("rootsys.build"),
            "cli.self_s": own("cli.main"),
            "census.run.self_s": own("census.run"),
            "census.serialize_s": total("census.serialize"),
            "census.serialize.calls": calls("census.serialize"),
            "census.parse_s": total("census.parse"),
            "census.cross_check.self_s": own("census.cross_check"),
            "sphericality.classify.calls": calls("sphericality.classify"),
            "sphericality.classify.self_s": own("sphericality.classify"),
            "weyl.enumerate_s": total("weyl.enumerate"),
            "weyl.elements": self.counts["weyl.enumerate.items"],
        }
        for fn in ("from_word", "left_descents", "reduced_word", "length",
                   "longest_parabolic", "multiply"):
            out[f"weyl.{fn}.calls"] = calls(f"weyl.{fn}")
            out[f"weyl.{fn}.s"] = total(f"weyl.{fn}")
        for layer in ("demazure", "decompose", "levi_irreducible", "mf_check", "witness"):
            out[f"characters.{layer}.calls"] = calls(f"characters.{layer}")
            out[f"characters.{layer}.s"] = total(f"characters.{layer}")
        out["characters.demazure.terms"] = self.counts["characters.demazure.terms"]
        out["characters.decompose.entries"] = self.counts["characters.decompose.entries"]
        searches = calls("characters.witness")
        found = self.counts["characters.witness.found"]
        out["characters.witness.found_ratio"] = found / searches if searches else 0.0
        out["characters.witness.inconclusive"] = self.counts["characters.witness.inconclusive"]
        return out

    def write(self, path) -> None:
        """One line per span: index, name, start, duration, parent index."""
        with open(path, "w") as fh:
            for idx, (name, start, duration, parent) in enumerate(self.spans):
                fh.write(f"{idx}\t{name}\t{start:.9f}\t{duration:.9f}\t{parent}\n")
