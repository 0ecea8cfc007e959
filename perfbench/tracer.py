"""Outside-in tracer for the ccc layers.

The tracer never edits ``src/``.  It rebinds each traced function in every
``ccc.*`` module namespace (and class) that holds the very same object, so
calls made through ``from .fm import gamma_char`` in ``cohoracle`` are
traced as well as calls inside ``fm``.  Spans (name, start, end, parent)
are kept in memory and written out after the run; ``restore`` puts every
original object back.
"""

from __future__ import annotations

import gzip
import sys
import time

# marker set on every wrapper, so a check can find one left behind
MARK = "__perfbench_wrapper__"

# (module, attribute path, span name)
SPANNED = (
    ("ccc.exactlin", "linear_feasible", "exactlin.linear_feasible"),
    ("ccc.exactlin", "solve_square", "exactlin.solve_square"),
    ("ccc.stackyfan", "parse_stacky_fan", "stackyfan.parse"),
    ("ccc.stackyfan", "parse_same_base", "stackyfan.parse"),
    ("ccc.stackyfan", "parse_contraction", "stackyfan.parse"),
    ("ccc.stackyfan", "make_fan", "stackyfan.parse"),
    ("ccc.thetapos", "leq", "thetapos.leq"),
    ("ccc.thetapos", "apex", "thetapos.apex"),
    ("ccc.thetapos", "Polyhedron.contains", "thetapos.Polyhedron.contains"),
    ("ccc.fm", "gamma_char", "fm.gamma_char"),
    ("ccc.fm", "fm3_region", "fm.fm3_region"),
    ("ccc.fm", "StaircaseRegion.contains", "fm.StaircaseRegion.contains"),
    ("ccc.fm", "ext_case2", "fm.ext_case2"),
    ("ccc.fm", "ext_case3", "fm.ext_case3"),
    ("ccc.fm", "raster_bitmap", "fm.raster_bitmap"),
    ("ccc.fm", "pixels_contractible", "fm.pixels_contractible"),
    ("ccc.cohoracle", "hom_module_oracle", "cohoracle.hom_module_oracle"),
    ("ccc.cohoracle", "stalk_euler", "cohoracle.stalk_euler"),
    ("ccc.svgfig", "render_svg", "svgfig.render_svg"),
    ("ccc.cli", "run", "cli.run"),
)

# too hot for a span each: these only count calls
COUNTED = (
    ("ccc.stackyfan", "StackyFan.__hash__", "stackyfan.hash"),
    ("ccc.stackyfan", "ContractionSetup.__hash__", "stackyfan.hash"),
)

# pixel counts: raster_bitmap's result, pixels_contractible's argument
PIXELS = {
    "fm.raster_bitmap": lambda args, result: len(result),
    "fm.pixels_contractible": lambda args, result: len(args[0]),
}

# (module, function, metric name) of the module-level lru caches
CACHES = (
    ("ccc.fm", "_gamma_char_cached", "fm.gamma_char"),
    ("ccc.cohoracle", "_refined_scaled", "cohoracle.refined_scaled"),
)

SPAN_NAMES = sorted({name for _, _, name in SPANNED})
COUNT_NAMES = sorted({name for _, _, name in COUNTED})


def _ccc_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "ccc" or n.startswith("ccc.")]


def _resolve(module: str, path: str):
    """(owner, attribute) for 'f' or 'Class.method' in a ccc module, or None."""
    owner = sys.modules.get(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


def wrapped_objects() -> list[str]:
    """Names under which a tracer wrapper is still bound in a ccc module."""
    found = []
    for mod in _ccc_modules():
        for name, obj in vars(mod).items():
            if getattr(obj, MARK, False):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, member in vars(obj).items():
                    if getattr(member, MARK, False):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


class Tracer:
    """Spans and counters for one traced ``ccc`` invocation."""

    def __init__(self):
        self.names = list(SPAN_NAMES)
        self.spans: list = []
        self.counts = {name: 0 for name in COUNT_NAMES}
        self.pixels = {name: 0 for name in PIXELS}
        self.missing: list[str] = []
        self.problems: list[str] = []
        self._stack = [-1]
        self._bound: list = []  # (owner, attribute, original)

    def _span_wrapper(self, fn, name):
        name_id = self.names.index(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        measure = PIXELS.get(name)
        pixels = self.pixels

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent)
            if measure is not None:
                pixels[name] += measure(args, result)
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(obj):
            counts[name] += 1
            return fn(obj)

        return wrapper

    def install(self) -> None:
        for targets, make in ((SPANNED, self._span_wrapper), (COUNTED, self._count_wrapper)):
            for module, path, name in targets:
                found = _resolve(module, path)
                if found is None:
                    self.missing.append(f"{module}.{path}")
                    continue
                owner, attr = found
                original = vars(owner)[attr]
                if getattr(original, MARK, False):
                    self.problems.append(f"{module}.{path} was already wrapped")
                    continue
                wrapper = make(original, name)
                setattr(wrapper, MARK, True)
                holders = [owner] if isinstance(owner, type) else _ccc_modules()
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            self._bound.append((holder, key, original))
                            setattr(holder, key, wrapper)

    def restore(self) -> None:
        while self._bound:
            holder, key, original = self._bound.pop()
            setattr(holder, key, original)

    def check(self, start_ns: int, end_ns: int) -> list[str]:
        """Faults of the span tree, given the timed call's bounds.

        Every span must lie within its parent's interval, and the only root
        span must be the one ``cli.run`` call, within [start_ns, end_ns].
        """
        problems = list(self.problems)
        spans = self.spans
        roots = []
        for name_id, start, end, parent in spans:
            if parent < 0:
                roots.append(self.names[name_id])
                low, high = start_ns, end_ns
            else:
                _, low, high, _ = spans[parent]
            if not low <= start <= end <= high:
                problems.append(f"a {self.names[name_id]} span lies outside its parent or the call")
        if roots != ["cli.run"]:
            problems.append(f"root spans are {roots[:5]}, not one cli.run")
        return problems[:20]

    def summary(self) -> dict:
        """Per-name calls, self seconds and the cache figures of the run."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name_id, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = {name: 0 for name in self.names}
        self_ns = {name: 0 for name in self.names}
        for index, (name_id, start, end, _) in enumerate(spans):
            name = self.names[name_id]
            calls[name] += 1
            self_ns[name] += end - start - child_ns[index]
        out = {"spans": len(spans), "missing": self.missing}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
        for name, count in self.counts.items():
            out[f"{name}.calls"] = count
        for name, count in self.pixels.items():
            out[f"{name}.pixels"] = count
        out.update(cache_figures())
        return out

    def write_spans(self, path) -> None:
        """Write the spans as gzip text: a header of names, then one span a line."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("# names " + " ".join(self.names) + "\n")
            fh.write("# name_id start_ns end_ns parent_index\n")
            fh.writelines(f"{n} {s} {e} {p}\n" for n, s, e, p in self.spans)


def cache_figures() -> dict:
    """Hits, lookups and entries of the module-level lru caches."""
    out = {}
    for module, attr, name in CACHES:
        cached = getattr(sys.modules.get(module), attr, None)
        info = cached.cache_info() if hasattr(cached, "cache_info") else None
        out[f"{name}.hits"] = info.hits if info else 0
        out[f"{name}.lookups"] = info.hits + info.misses if info else 0
        out[f"{name}.entries"] = info.currsize if info else 0
    return out
