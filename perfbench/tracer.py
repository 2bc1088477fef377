"""Per-layer tracing of assoclab from outside the package.

`install()` wraps the public functions of each module at every place
they are bound: the defining module, every module that imported the
name directly (`lab.check_pentagon`, `dmr._solve_affine`, ...) and every
class attribute.  It leaves no reference to an unwrapped target behind
and fails loudly if it would.

Coarse calls (the check_*, solve_* and verify_* functions, the lemma
suites, `Presentation.dimension`) are recorded as spans: name, start,
end, parent span and job id.  Hot inner calls are aggregated per
(name, parent) as count, inclusive time and self time, where self time
is the duration minus the time spent in wrapped callees.  A few targets
also count sizes (terms in and out, rows, pivots).  `QuadElt.__mul__`
is only counted.  Cache sizes and hit counts, garbage-collector pauses
and the bytes of series text are read at the boundaries too.
Everything stays in memory until `Session.dump` writes it out.
"""

import gc
import importlib
import json
import os
import time

MODULES = (
    "rationals", "rings", "words", "series", "lie", "yside",
    "presented", "models", "barcx", "lab", "dmr", "cli",
)

# (module, attribute path, metric prefix, mode); mode is "span", "agg" or "count"
TARGETS = (
    ("models", "PBWModel.normalize", "models.normalize", "agg"),
    ("models", "PBWModel.mul", "models.mul", "agg"),
    ("models", "PBWModel.evaluate", "models.evaluate", "agg"),
    ("models", "PBWModel.exp", "models.exp", "agg"),
    ("models", "PBWModel.inverse", "models.inverse", "agg"),
    ("models", "check_pentagon", "models.check_pentagon", "span"),
    ("models", "check_5cycle", "models.check_5cycle", "span"),
    ("models", "check_hexagons", "models.check_hexagons", "span"),
    ("series", "Series.mul", "series.Series.mul", "agg"),
    ("series", "Series.exp", "series.Series.exp", "agg"),
    ("series", "Series.log", "series.Series.log", "agg"),
    ("series", "substitute", "series.substitute", "agg"),
    ("series", "coproduct", "series.coproduct", "agg"),
    ("series", "is_group_like", "series.is_group_like", "agg"),
    ("series", "from_text", "series.from_text", "agg"),
    ("series", "to_text", "series.to_text", "agg"),
    ("lab", "solve_pentagon", "lab.solve_pentagon", "span"),
    ("lab", "pentagon_linear_map", "lab.pentagon_linear_map", "agg"),
    ("lab", "_solve_affine", "lab.solve_affine", "span"),
    ("lab", "verify_theorem_main", "lab.verify_theorem_main", "span"),
    ("lab", "verify_theorem_gamma", "lab.verify_theorem_gamma", "span"),
    ("lab", "group_law", "lab.group_law", "agg"),
    ("lie", "lie_basis", "lie.lie_basis", "agg"),
    ("yside", "check_double_shuffle", "yside.check_double_shuffle", "span"),
    ("yside", "phi_star", "yside.phi_star", "agg"),
    ("yside", "delta_star", "yside.delta_star", "agg"),
    ("rings", "QuadElt.__mul__", "rings.QuadElt.mul", "count"),
    ("presented", "Presentation.dimension", "presented.dimension", "span"),
    ("presented", "echelon", "presented.echelon", "agg"),
    ("presented", "solve_pivots", "presented.solve_pivots", "span"),
    ("barcx", "build_l2", "barcx.build_l2", "agg"),
    ("barcx", "check_integrability", "barcx.check_integrability", "span"),
    ("barcx", "check_series_shuffle_bar", "barcx.check_series_shuffle_bar", "span"),
    ("barcx", "BarElement.shuffle", "barcx.BarElement.shuffle", "agg"),
    ("dmr", "solve_dmr0", "dmr.solve_dmr0", "span"),
    ("dmr", "lemma_derivation_check", "dmr.lemma_derivation_check", "span"),
    ("dmr", "lemma_coproduct_check", "dmr.lemma_coproduct_check", "span"),
    ("dmr", "lemma_telescoping_check", "dmr.lemma_telescoping_check", "span"),
    ("dmr", "qualifying_basis", "dmr.qualifying_basis", "agg"),
    ("dmr", "ihara_bracket", "dmr.ihara_bracket", "agg"),
    ("dmr", "is_dmr0", "dmr.is_dmr0", "span"),
    ("cli", "emit", "cli.emit", "agg"),
)

# lru caches read at the end of the job: (module, function, metric prefix)
LRU_CACHES = (
    ("words", "shuffle_words", "words.shuffle_words"),
    ("lie", "bracketing", "lie.bracketing"),
)


def _size_stats(prefix, args, result):
    """Extra counts for a few targets, from their arguments and result."""
    if prefix == "models.normalize":
        return {"terms_in": len(args[1].terms), "terms_out": len(result.terms)}
    if prefix == "lab.solve_affine":
        columns, rhs, n = args
        rows = set(rhs)
        for col in columns:
            rows.update(col)
        rank = n - len(result[1]) if result is not None else 0
        return {"rows": len(rows), "unknowns": n, "rank": rank}
    if prefix == "lie.lie_basis":
        return {"elements": len(result)}
    if prefix == "yside.delta_star":
        return {"terms_out": len(result.terms)}
    if prefix == "presented.echelon":
        return {"rows_in": len(args[0]), "pivots_out": len(result)}
    if prefix in ("series.from_text", "series.to_text"):
        text = args[0] if prefix == "series.from_text" else result
        return {"bytes": len(text)}
    return None


class Session:
    """Aggregates, spans and counters of one traced job."""

    def __init__(self, modules):
        self.modules = modules
        self.job = os.getpid()
        self.t0 = time.perf_counter()
        self.stack = []  # frames: [prefix, start, child time, span id]
        self.agg = {}  # (prefix, parent prefix) -> [calls, inclusive s, self s]
        self.counts = {}  # prefix.stat -> summed count
        self.spans = []
        self.depth = {}  # prefix -> active calls, so recursion is timed once
        self.gc_start = None
        self.gc_collections = 0
        self.gc_s = 0.0

    def wrap(self, prefix, mode, fn):
        if mode == "count":
            counts = self.counts
            key = prefix + ".calls"
            counts[key] = 0

            def counted(*args, **kw):
                counts[key] += 1
                return fn(*args, **kw)

            return counted
        stack, agg, spans, depth = self.stack, self.agg, self.spans, self.depth
        per_name = prefix == "presented.dimension"
        clock = time.perf_counter

        def traced(*args, **kw):
            name = "presented.%s.dimension" % args[0].name if per_name else prefix
            parent = stack[-1] if stack else None
            span_id = None
            if mode == "span":
                span_id = len(spans)
                spans.append([name, None, None, parent[3] if parent else None, self.job])
            frame = [name, clock(), 0.0, span_id if span_id is not None else (parent[3] if parent else None)]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            try:
                result = fn(*args, **kw)
            finally:
                end = clock()
                stack.pop()
                depth[name] -= 1
                dur = end - frame[1]
                if parent is not None:
                    parent[2] += dur
                entry = agg.setdefault((name, parent[0] if parent else None), [0, 0.0, 0.0])
                entry[0] += 1
                if not depth[name]:
                    entry[1] += dur
                entry[2] += dur - frame[2]
                if span_id is not None:
                    spans[span_id][1] = frame[1] - self.t0
                    spans[span_id][2] = end - self.t0
            stats = _size_stats(prefix, args, result)
            if stats:
                for k, v in stats.items():
                    key = "series.file_bytes" if k == "bytes" else "%s.%s" % (prefix, k)
                    self.counts[key] = self.counts.get(key, 0) + v
            return result

        traced.__wrapped__ = fn
        return traced

    def _gc_callback(self, phase, info):
        if phase == "start":
            self.gc_start = time.perf_counter()
        elif self.gc_start is not None:
            self.gc_s += time.perf_counter() - self.gc_start
            self.gc_collections += 1
            self.gc_start = None

    def snapshot(self):
        """Flat metrics of this job: sums in "counters", maxima in "peaks"."""
        counters = dict(self.counts)
        for (name, _), (calls, incl, self_s) in self.agg.items():
            for stat, v in (("calls", calls), ("s", incl), ("self_s", self_s)):
                key = "%s.%s" % (name, stat)
                counters[key] = counters.get(key, 0) + v
        peaks = {}
        for mod, fn, prefix in LRU_CACHES:
            info = getattr(self.modules[mod], fn).cache_info()
            peaks[prefix + ".cache_entries"] = info.currsize
            counters[prefix + ".hits"] = info.hits
            counters[prefix + ".misses"] = info.misses
        caches = self.modules["models"]._STRAIGHTEN_CACHES
        for name in ("a4", "p5"):
            peaks["models.straighten_cache.%s.entries" % name] = len(caches.get(name, ()))
        peaks["barcx.l2_cache.entries"] = len(self.modules["barcx"]._L2_CACHE)
        counters["runtime.gc.collections"] = self.gc_collections
        counters["runtime.gc.s"] = self.gc_s
        return {"counters": counters, "peaks": peaks}

    def dump(self, path):
        gc.callbacks.remove(self._gc_callback)
        out = self.snapshot()
        out["job"] = self.job
        out["aggregates"] = [
            [name, parent, calls, incl, self_s]
            for (name, parent), (calls, incl, self_s) in sorted(
                self.agg.items(), key=lambda kv: (kv[0][0], kv[0][1] or "")
            )
        ]
        out["spans"] = self.spans
        with open(path, "w") as fh:
            json.dump(out, fh)


def _resolve(module, path):
    owner = module
    parts = path.split(".")
    for p in parts[:-1]:
        owner = getattr(owner, p)
    return owner, parts[-1]


def _binding_sites(modules, obj):
    """Every (namespace object, name) in the package that holds obj."""
    sites = []
    for mod in modules.values():
        for name, value in vars(mod).items():
            if value is obj:
                sites.append((mod, name))
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, v in vars(value).items():
                    if v is obj:
                        sites.append((value, attr))
    return sites


def _held_in_containers(modules, originals):
    """Module-level dicts, lists and tuples that hold a target function."""
    held = []
    for mod in modules.values():
        for name, value in vars(mod).items():
            if isinstance(value, dict):
                items = list(value.values())
            elif isinstance(value, (list, tuple)):
                items = list(value)
            else:
                continue
            if any(any(v is o for o in originals) for v in items):
                held.append("%s.%s" % (mod.__name__, name))
    return held


def install():
    """Import every module, wrap every target at every binding site."""
    modules = {m: importlib.import_module("assoclab." + m) for m in MODULES}
    session = Session(modules)
    originals = []
    for mod, path, prefix, mode in TARGETS:
        owner, attr = _resolve(modules[mod], path)
        fn = vars(owner)[attr]
        originals.append(fn)
        wrapped = session.wrap(prefix, mode, fn)
        sites = _binding_sites(modules, fn)
        if (owner, attr) not in sites:
            raise RuntimeError("%s.%s not found at its definition" % (mod, path))
        for where, name in sites:
            setattr(where, name, wrapped)
    left = [
        "%s.%s" % (getattr(w, "__name__", w), n)
        for fn in originals
        for w, n in _binding_sites(modules, fn)
    ]
    left += _held_in_containers(modules, originals)
    if left:
        raise RuntimeError("unwrapped references remain: %s" % ", ".join(left))
    gc.callbacks.append(session._gc_callback)
    return session
