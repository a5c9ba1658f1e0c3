"""Spans around the calls into each layer, recorded by the benchmark's own
wrappers, and the per-layer metrics computed from them.

A span is (name, start, end, parent span, query id, note).  `install`
replaces every module attribute of the program that holds a traced function
with one wrapper, so calls from other modules (`minor` calling
`core.induced_strongly_connected` through its own module attribute) and
calls inside a module through its globals (`build_linked` calling `verify`)
are both seen.  Spans stay in memory; `write` saves one round's spans when
the run ends.
"""

from __future__ import annotations

import gzip
import statistics
import sys
import time
from array import array

# (layer module, function) pairs wrapped in a traced round
TRACED = (
    ("core", "induced_strongly_connected"),
    ("core", "is_strongly_connected"),
    ("core", "contract"),
    ("core", "delete_edge"),
    ("core", "delete_vertex"),
    ("core", "parse_digraph"),
    ("connectivity", "max_disjoint_paths"),
    ("connectivity", "min_separation"),
    ("connectivity", "minimal_union_paths"),
    ("pathdecomp", "exact_pathwidth"),
    ("pathdecomp", "build_linked"),
    ("pathdecomp", "verify"),
    ("minor", "find_minor"),
    ("minor", "verify_mapping"),
    ("minor", "canonical_form"),
    ("minor", "closure_oracle"),
    ("cli", "main"),
)
LAYERS = ("core", "connectivity", "pathdecomp", "minor", "cli")

# Per-layer metrics, in report order.  Times are seconds per round and counts
# are per round; every round runs the same queries.
PER_LAYER = (
    ("core.sc_check_calls", "count"),
    ("core.sc_check_s", "s"),
    ("core.contract_calls", "count"),
    ("core.contract_s", "s"),
    ("core.delete_calls", "count"),
    ("connectivity.flow_calls", "count"),
    ("connectivity.flow_s", "s"),
    ("pathdecomp.pathwidth_s", "s"),
    ("pathdecomp.linked_s", "s"),
    ("pathdecomp.linked_rounds", "count"),
    ("pathdecomp.verify_calls", "count"),
    ("pathdecomp.verify_s", "s"),
    ("minor.find_minor_calls", "count"),
    ("minor.find_minor_s", "s"),
    ("minor.find_minor_self_s", "s"),
    ("minor.verify_mapping_s", "s"),
    ("minor.canonical_calls", "count"),
    ("minor.canonical_s", "s"),
    ("minor.canonical_hit_ratio", "ratio"),
    ("minor.closure_s", "s"),
    ("minor.closure_children", "count"),
    ("minor.closure_minors", "count"),
    ("cli.command_s", "s"),
    ("cli.parse_s", "s"),
    ("core.self_s", "s"),
    ("connectivity.self_s", "s"),
    ("pathdecomp.self_s", "s"),
    ("minor.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.spans", "count"),
    ("trace.overhead_pct", "%"),
)
COUNTS = tuple(name for name, unit in PER_LAYER if unit == "count")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.query = array("i")
        self.note = array("q")
        self.stack: list[int] = []
        self.current_query = -1

    def wrap(self, name: str, fn, note=None):
        """`note(result, hits)` gives one integer to store on the span, where
        `hits` counts the hits of the function's own cache during the call
        (0 without an `lru_cache`)."""
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        stack = self.stack
        cache_info = getattr(fn, "cache_info", None)

        def traced(*args, **kwargs):
            i = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.query.append(self.current_query)
            self.note.append(0)
            self.end.append(0.0)
            stack.append(i)
            before = cache_info().hits if cache_info else 0
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[i] = clock()
                stack.pop()
            if note is not None:
                self.note[i] = note(result, cache_info().hits - before if cache_info else 0)
            return result

        return traced

    def install(self, package: str = "digraph_minors"):
        modules = [m for key, m in sys.modules.items()
                   if key == package or key.startswith(package + ".")]
        for layer, func in TRACED:
            original = getattr(sys.modules[f"{package}.{layer}"], func, None)
            if original is None:  # gone from the program: its metrics read 0
                continue
            note = None
            if func == "canonical_form":
                note = lambda result, hits: hits  # noqa: E731
            elif func == "closure_oracle":
                note = lambda result, hits: len(result)  # noqa: E731
            wrapper = self.wrap(f"{layer}.{func}", original, note)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
        decomp = sys.modules[f"{package}.pathdecomp"].PathDecomposition
        from_json = decomp.__dict__["from_json"].__func__
        decomp.from_json = classmethod(self.wrap("pathdecomp.from_json", from_json))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (one round)."""
        names = [self.names[i] for i in self.name]
        dur = [e - s for s, e in zip(self.start, self.end)]
        layer = [n.split(".")[0] for n in names]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]

        def parent_name(i):
            p = self.parent[i]
            return names[p] if p >= 0 else ""

        def parent_layer(i):
            p = self.parent[i]
            return layer[p] if p >= 0 else ""

        def spans(*wanted, outer=False):
            """Indices of spans with one of the wanted names; `outer` keeps
            only calls from outside the span's own layer."""
            return [i for i, n in enumerate(names)
                    if n in wanted and not (outer and parent_layer(i) == layer[i])]

        def total(idx):
            return sum(dur[i] for i in idx)

        sc = spans("core.induced_strongly_connected", "core.is_strongly_connected", outer=True)
        contracts = spans("core.contract", outer=True)
        deletes = spans("core.delete_edge", "core.delete_vertex", outer=True)
        flows = spans("connectivity.max_disjoint_paths", "connectivity.min_separation",
                      "connectivity.minimal_union_paths", outer=True)
        verifies = spans("pathdecomp.verify")
        finds = spans("minor.find_minor")
        canon = spans("minor.canonical_form")
        hits = sum(self.note[i] for i in canon)
        closures = spans("minor.closure_oracle")
        children = [i for i in contracts + deletes if parent_name(i) == "minor.closure_oracle"]
        parses = [i for i in spans("core.parse_digraph", "pathdecomp.from_json")
                  if parent_name(i) == "cli.main"]
        out = {
            "core.sc_check_calls": len(sc),
            "core.sc_check_s": total(sc),
            "core.contract_calls": len(contracts),
            "core.contract_s": total(contracts),
            "core.delete_calls": len(deletes),
            "connectivity.flow_calls": len(flows),
            "connectivity.flow_s": total(flows),
            "pathdecomp.pathwidth_s": total(spans("pathdecomp.exact_pathwidth")),
            "pathdecomp.linked_s": total(spans("pathdecomp.build_linked")),
            "pathdecomp.linked_rounds": sum(
                1 for i in spans("connectivity.min_separation")
                if parent_name(i) == "pathdecomp.build_linked"),
            "pathdecomp.verify_calls": len(verifies),
            "pathdecomp.verify_s": total(verifies),
            "minor.find_minor_calls": len(finds),
            "minor.find_minor_s": total(finds),
            "minor.find_minor_self_s": sum(dur[i] - covered[i] for i in finds),
            "minor.verify_mapping_s": total(spans("minor.verify_mapping")),
            "minor.canonical_calls": len(canon),
            "minor.canonical_s": total(canon),
            "minor.canonical_hit_ratio": hits / len(canon) if canon else 0.0,
            "minor.closure_s": total(closures),
            "minor.closure_children": len(children),
            "minor.closure_minors": sum(self.note[i] for i in closures),
            "cli.command_s": total(spans("cli.main")),
            "cli.parse_s": total(parses),
            "trace.spans": len(dur),
        }
        for name in LAYERS:
            out[f"{name}.self_s"] = sum(
                dur[i] - covered[i] for i in range(len(dur)) if layer[i] == name)
        return out

    def write(self, path):
        """Save the spans as gzip'd tab-separated lines:
        query, name, start, end, parent (-1 for a top-level span)."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("query\tname\tstart\tend\tparent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.query[i]}\t{self.names[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.parent[i]}\n")


def combine(rounds: list[dict], overhead_pct: float) -> tuple[dict, bool]:
    """Per-layer metrics over the traced rounds: the median of each time and
    the count of a round, with whether the counts agreed across rounds."""
    out = {}
    steady = True
    for name, unit in PER_LAYER:
        if name == "trace.overhead_pct":
            out[name] = overhead_pct
            continue
        values = [r[name] for r in rounds]
        if name in COUNTS:
            steady = steady and len(set(values)) == 1
            out[name] = values[0]
        else:
            out[name] = statistics.median(values)
    return out, steady
