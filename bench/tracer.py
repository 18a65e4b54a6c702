"""Span tracing of the ``positroids`` package, installed from outside.

``install()`` replaces each traced function by a wrapper in every module
namespace that binds it (``experiments.plucker`` as well as
``linalg.plucker``) and each traced method on its class.  A wrapper records
one span per call: a span id, the id of the enclosing traced span, a name
and start and end times.  Generators are timed over their iteration: every
resumption is a segment of the same span, so the consumer's own work
between items is not charged to the generator.

Spans stay in memory (compact arrays) until ``summary()``; a layer's self
time is the time its spans cover minus the time covered by their direct
child spans.  Time spent in an untraced helper counts for the nearest
traced caller.  Functions or caches that a later version of the package
renames or removes are skipped and their metrics left out, not failed.
"""

import importlib
import inspect
import itertools
import sys
import time
from array import array
from math import comb

PACKAGE = "positroids"
MODULES = ("permutations", "diagrams", "plabic", "catalan", "linalg", "signs",
           "experiments", "cli")

# Traced callables per module; dotted names are methods.
TARGETS = {
    "permutations": ["identity", "DecoratedPermutation.__post_init__",
                     "DecoratedPermutation.left_shift",
                     "DecoratedPermutation.parity_involution"],
    "diagrams": ["enumerate_diagrams", "le_normalize", "omega_LD",
                 "pipe_dream_permutation", "pipe_dream", "is_le_diagram",
                 "noncrossing_pairs"],
    "plabic": ["PlabicGraph.canonical_form", "blow_up", "split", "trip_permutation",
               "k_statistic", "enumerate_bcfw_graphs", "bcfw_permutations", "_family",
               "graph_from_le", "build_network", "Network.matrix"],
    "catalan": ["enumerate_trees", "enumerate_dyck_paths", "enumerate_path_pairs",
                "enumerate_path_tuples", "omega_TL", "omega_PL", "omega_LP",
                "tree_to_graph", "graph_to_tree", "paths_to_plane_partition",
                "plane_partition_to_paths", "dyck_step_labels", "macmahon"],
    "linalg": ["plucker", "z_map", "rref", "kernel_basis",
               "find_kernel_vector_with_signs", "positroid_membership",
               "make_tp_matrix", "sample_cell", "parameterize", "gr_equal",
               "RationalMatrix.det"],
    "signs": ["standard_basis_k2", "m2_standard_basis", "p_domino_basis",
              "classify_k2", "dom_coordinates", "dom_decomposition",
              "alternating_domino_sequence"],
    "experiments": ["count_report", "disjointness_experiment", "conjecture_sweeps",
                    "m3_counterexample", "matching_vector"],
    "cli": ["run"],
}

# lru_caches read through cache_info() after a traced round.
CACHES = ("_unit_support", "_tp_cached", "_tree_shapes", "_dyck_words", "_tree_by_graph")


def _plucker_minors(args, kwargs) -> int:
    """Maximal minors one ``plucker`` call evaluates: C(n, k)."""
    matrix = args[0] if args else kwargs["matrix"]
    return comb(matrix.cols, matrix.rows)


# name -> hook(args, kwargs) returning a count added to "<name>.<counter>"
CALL_COUNTERS = {"linalg.plucker": ("minors", _plucker_minors)}
# spans whose result length is kept (distinct family members per computed key)
RESULT_LENGTHS = {"plabic._family"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.sid = array("q")
        self.parent = array("q")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.new_sid = itertools.count().__next__
        self.counters: dict[str, int] = {}
        self.result_len: dict[int, int] = {}
        self.skipped: list[str] = []

    # ------------------------------------------------------------------
    # wrappers

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _record(self, sid, parent, nid, t0, t1):
        self.sid.append(sid)
        self.parent.append(parent)
        self.name.append(nid)
        self.start.append(t0)
        self.end.append(t1)

    def wrap(self, fn, name: str):
        nid = self._name_id(name)
        clock = time.perf_counter
        stack = self.stack
        new_sid = self.new_sid
        record = self._record
        counter = CALL_COUNTERS.get(name)
        keep_len = name in RESULT_LENGTHS
        counters = self.counters
        result_len = self.result_len

        if inspect.isgeneratorfunction(fn):
            items_key = name + ".objects"

            def traced_gen(*args, **kwargs):
                sid = new_sid()
                it = fn(*args, **kwargs)
                produced = 0
                try:
                    while True:
                        # the consumer may resume us from a different span
                        parent = stack[-1]
                        stack.append(sid)
                        t0 = clock()
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            t1 = clock()
                            stack.pop()
                            record(sid, parent, nid, t0, t1)
                        produced += 1
                        yield item
                finally:
                    counters[items_key] = counters.get(items_key, 0) + produced

            traced_gen.__wrapped__ = fn
            traced_gen.__name__ = fn.__name__
            return traced_gen

        def traced(*args, **kwargs):
            sid = new_sid()
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                record(sid, parent, nid, t0, t1)
            if counter is not None:
                key = name + "." + counter[0]
                counters[key] = counters.get(key, 0) + counter[1](args, kwargs)
            if keep_len:
                result_len[sid] = len(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    # ------------------------------------------------------------------
    # installation

    def install(self) -> None:
        modules = {}
        for short in MODULES:
            try:
                modules[short] = importlib.import_module(f"{PACKAGE}.{short}")
            except ImportError:
                self.skipped.append(short)
        for short, targets in TARGETS.items():
            module = modules.get(short)
            if module is None:
                continue
            for target in targets:
                name = f"{short}.{target}"
                if "." in target:
                    self._patch_method(module, target, name)
                else:
                    self._patch_function(module, target, name, modules.values())

    def _patch_function(self, module, attr, name, modules) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            self.skipped.append(name)
            return
        traced = self.wrap(original, name)
        for other in modules:
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, traced)

    def _patch_method(self, module, target, name) -> None:
        cls_name, attr = target.split(".")
        cls = getattr(module, cls_name, None)
        raw = vars(cls).get(attr) if isinstance(cls, type) else None
        if isinstance(raw, (staticmethod, classmethod)):
            setattr(cls, attr, type(raw)(self.wrap(raw.__func__, name)))
        elif inspect.isfunction(raw):
            setattr(cls, attr, self.wrap(raw, name))
        else:
            self.skipped.append(name)

    # ------------------------------------------------------------------
    # results

    def summary(self) -> dict:
        """Per traced name: calls, total and self seconds; plus counters."""
        total: dict[int, float] = {}
        child: dict[int, float] = {}
        name_of: dict[int, int] = {}
        built_under: dict[int, int] = {}
        names = self.names
        builders = {i for i, n in enumerate(names) if n in ("plabic.blow_up", "plabic.split")}
        for sid, parent, nid, t0, t1 in zip(self.sid, self.parent, self.name,
                                            self.start, self.end):
            d = t1 - t0
            total[sid] = total.get(sid, 0.0) + d
            name_of[sid] = nid
            if parent >= 0:
                child[parent] = child.get(parent, 0.0) + d
                if nid in builders:
                    built_under[parent] = built_under.get(parent, 0) + 1
        stats = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
                 for name in names}
        for sid, d in total.items():
            entry = stats[names[name_of[sid]]]
            entry["calls"] += 1
            entry["total_s"] += d
            entry["self_s"] += d - child.get(sid, 0.0)
        # children built inside the family recursion against distinct members kept
        built = distinct = 0
        for sid, length in self.result_len.items():
            children = built_under.get(sid, 0)
            if children:
                built += children
                distinct += length
        return {"functions": stats, "counters": dict(self.counters),
                "family_children": built, "family_distinct": distinct,
                "spans": len(self.sid), "skipped": list(self.skipped)}

    def dump(self, path: str) -> None:
        """Write the spans: a name table line, then the five columns."""
        with open(path, "wb") as fh:
            fh.write(("\t".join(self.names) + "\n").encode())
            for column in (self.sid, self.parent, self.name, self.start, self.end):
                column.tofile(fh)


def read_caches() -> dict:
    """hits and misses of each known lru_cache, read after the work."""
    out = {}
    for short in MODULES:
        module = sys.modules.get(f"{PACKAGE}.{short}")
        for cache in CACHES:
            fn = getattr(module, cache, None) if module else None
            if fn is not None and hasattr(fn, "cache_info"):
                info = fn.cache_info()
                out[f"cache.{cache}.hits"] = info.hits
                out[f"cache.{cache}.misses"] = info.misses
    return out


def family_cache_size():
    """Graphs held by the plabic family cache, or None when it is gone."""
    module = sys.modules.get(f"{PACKAGE}.plabic")
    cache = getattr(module, "_FAMILY_CACHE", None)
    if not isinstance(cache, dict):
        return None
    return sum(len(v) for v in cache.values())
