"""Per-module tracing installed from outside the library.

Tracer.install wraps the public functions of each counternet module and
rebinds every module attribute that still points at the original, so
names another module imported (analysis.accepts, analysis.step_frontier,
vas.accepts, cli.enumerate_accepting_runs, ...) are traced as well.

Each wrapped call is a span (name, start, end, parent).  Self time is the
span's duration minus the time of its direct child spans.  Calls, total
and self time are aggregated per name; calls that happen millions of
times per pass (the frontier step, antichain insertion, membership,
cycle search, oracles) are aggregated only, the others are also kept as
individual spans and written out when the run ends.
"""

from __future__ import annotations

import json
from collections import Counter
from time import perf_counter

# (module, function, span name, keep individual spans)
TRACED = (
    ("core", "step_frontier", "core.step_frontier", False),
    ("core", "antichain_insert", "core.antichain_insert", False),
    ("core", "accepts", "core.accepts", False),
    ("core", "accepts_naive", "core.accepts_naive", False),
    ("core", "enumerate_runs", "core.enumerate_runs", False),
    ("analysis", "bounded_compare", "analysis.bounded_compare", True),
    ("analysis", "check_decomposition", "analysis.check_decomposition", True),
    ("analysis", "compare_nets_walk", "analysis.compare_nets_walk", True),
    ("analysis", "find_cycles", "analysis.find_cycles", False),
    ("analysis", "extract_pumpable_cycle", "analysis.extract_pumpable_cycle", False),
    ("analysis", "pump_run", "analysis.pump_run", False),
    ("analysis", "classify_run_form", "analysis.classify_run_form", False),
    ("analysis", "find_bad_segment_witness", "analysis.find_bad_segment_witness", True),
    ("analysis", "refute_partition_decomposition", "analysis.refute", True),
    ("constructions", "product", "constructions.product", True),
    ("vas", "verify_pipeline", "vas.verify_pipeline", True),
    ("vas", "vasify", "vas.vasify", True),
    ("vas", "check_gating", "vas.check_gating", True),
    ("fileformat", "parse_machine_file", "fileformat.parse", True),
    ("fileformat", "parse_word", "fileformat.parse", True),
    ("fileformat", "emit_machine_file", "fileformat.emit", True),
    ("cli", "main", "cli.main", True),
)
ZOO_BUILDERS = ("build_partition_net", "build_shared_budget", "build_coarse_factors",
                "build_selector_dcn", "build_selector_ncn", "build_paired_dcn",
                "build_partition_k")
MODULES = ("core", "analysis", "constructions", "zoo", "vas", "fileformat", "cli")


class Tracer:
    def __init__(self):
        self.stack: list[list] = []   # [child seconds, kept span id or None]
        self.spans: list[tuple] = []  # (name, start, end, parent span id)
        self.agg: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts: Counter = Counter()
        self.walk_depth = 0
        self.job_kind = ""

    # -- spans -------------------------------------------------------------

    def _parent(self):
        for frame in reversed(self.stack):
            if frame[1] is not None:
                return frame[1]
        return None

    def enter(self, name: str, keep: bool) -> float:
        span_id = None
        if keep:
            span_id = len(self.spans)
            self.spans.append((name, 0.0, 0.0, self._parent()))
        self.stack.append([0.0, span_id])
        return perf_counter()

    def leave(self, name: str, start: float) -> None:
        end = perf_counter()
        child, span_id = self.stack.pop()
        duration = end - start
        rec = self.agg.setdefault(name, [0, 0.0, 0.0])
        rec[0] += 1
        rec[1] += duration
        rec[2] += duration - child
        if self.stack:
            self.stack[-1][0] += duration
        if span_id is not None:
            _, _, _, parent = self.spans[span_id]
            self.spans[span_id] = (name, start, end, parent)

    def add_child_time(self, name: str, seconds: float, calls: int = 1) -> None:
        """Account time measured elsewhere (a generator's next()) as a
        child of the innermost open span."""
        rec = self.agg.setdefault(name, [0, 0.0, 0.0])
        rec[0] += calls
        rec[1] += seconds
        rec[2] += seconds
        if self.stack:
            self.stack[-1][0] += seconds

    def wrap(self, name: str, fn, keep: bool, after=None):
        def traced(*args, **kwargs):
            start = self.enter(name, keep)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave(name, start)
            if after is not None:
                after(result, args, kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- hooks the workloads use ---------------------------------------------

    def oracle(self, fn):
        return self.wrap("zoo.oracle", fn, keep=False)

    def generator(self, gen):
        return TimedGenerator(gen, self)

    # -- installation --------------------------------------------------------

    def install(self, m) -> None:
        wrappers = {}
        for mod_name, fn_name, span, keep in TRACED:
            fn = getattr(getattr(m, mod_name), fn_name, None)
            if fn is None or fn in wrappers:
                continue
            wrappers[fn] = self._special(fn_name, span, fn, keep)
        for fn_name in ZOO_BUILDERS:
            fn = getattr(m.zoo, fn_name, None)
            if fn is not None:
                wrappers[fn] = self.wrap("zoo.build", fn, keep=True)
        for mod in [getattr(m, name) for name in MODULES] + [m.package]:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def _special(self, fn_name: str, span: str, fn, keep: bool):
        c = self.counts
        if fn_name == "antichain_insert":
            def insert(vectors, v):
                before = len(vectors)
                present = v in vectors
                start = self.enter(span, False)
                try:
                    fn(vectors, v)
                finally:
                    self.leave(span, start)
                kept = int(not present and v in vectors)
                c["antichain.kept"] += kept
                c["antichain.evictions"] += before + kept - len(vectors)
            insert.__wrapped__ = fn
            return insert
        if fn_name == "step_frontier":
            def after(result, args, kwargs):
                width = sum(len(vs) for vs in result.values())
                c["frontier.width_sum"] += width
                if width > c["frontier.peak_width"]:
                    c["frontier.peak_width"] = width
                c[f"steps.{self.job_kind}"] += 1
                if self.walk_depth:
                    c["walk.steps"] += 1
            return self.wrap(span, fn, keep, after)
        if fn_name == "compare_nets_walk":
            inner = self.wrap(span, fn, keep, lambda r, a, k: c.update({"walk.nodes": r.checked}))

            def walk(*args, **kwargs):
                self.walk_depth += 1
                try:
                    return inner(*args, **kwargs)
                finally:
                    self.walk_depth -= 1
            walk.__wrapped__ = fn
            return walk
        if fn_name == "enumerate_runs":
            def after(result, args, kwargs):
                c["runs.enumerated"] += len(result.runs)
                c["runs.truncated"] += int(result.truncated)
            return self.wrap(span, fn, keep, after)
        if fn_name == "find_cycles":
            def after(result, args, kwargs):
                run = args[0]
                scope = args[1] if len(args) > 1 else kwargs.get("scope")
                lo, hi = scope if scope is not None else (0, len(run.configs) - 1)
                c["find_cycles.letters"] += hi - lo
                c["find_cycles.witnesses"] += len(result)
            return self.wrap(span, fn, keep, after)
        if fn_name == "refute_partition_decomposition":
            def refute(*args, **kwargs):
                strategy = kwargs.get("strategy", args[1] if len(args) > 1 else "enumerate")
                result = self.wrap(f"{span}.{strategy}", fn, keep)(*args, **kwargs)
                if result.word is not None:
                    c["refute.counterexample_letters"] += len(result.word)
                return result
            refute.__wrapped__ = fn
            return refute
        if fn_name == "product":
            return self.wrap(span, fn, keep,
                             lambda r, a, k: c.update({"product.states": len(r.states)}))
        if fn_name == "verify_pipeline":
            def after(result, args, kwargs):
                c["pipeline.flat_words"] += result.stats.get("flat_words", 0)
                c["pipeline.gating_nodes"] += result.stats.get("gating_nodes", 0)
            return self.wrap(span, fn, keep, after)
        if fn_name in ("parse_machine_file", "parse_word"):
            return self.wrap(span, fn, keep,
                             lambda r, a, k: c.update({"fileformat.bytes": len(a[0])}))
        if fn_name == "emit_machine_file":
            return self.wrap(span, fn, keep,
                             lambda r, a, k: c.update({"fileformat.bytes": len(r)}))
        return self.wrap(span, fn, keep)

    # -- results -------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.agg.get(name, [0, 0.0, 0.0])[0]

    def total(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[1]

    def self_time(self, name: str) -> float:
        return self.agg.get(name, [0, 0.0, 0.0])[2]

    def layer_metrics(self) -> dict[str, float]:
        c = self.counts
        steps = self.calls("core.step_frontier")
        inserts = self.calls("core.antichain_insert")
        return {
            "core.step_frontier.calls": steps,
            "core.step_frontier.self_s": self.self_time("core.step_frontier"),
            "core.antichain_insert.calls": inserts,
            "core.antichain_insert.self_s": self.self_time("core.antichain_insert"),
            "core.antichain.evictions": c["antichain.evictions"],
            "core.antichain.kept_ratio": c["antichain.kept"] / inserts if inserts else 0.0,
            "core.frontier.peak_width": c["frontier.peak_width"],
            "core.frontier.mean_width": c["frontier.width_sum"] / steps if steps else 0.0,
            "core.accepts.calls": self.calls("core.accepts"),
            "core.accepts.s": self.total("core.accepts"),
            "core.accepts_naive.calls": self.calls("core.accepts_naive"),
            "core.accepts_naive.s": self.total("core.accepts_naive"),
            "core.enumerate_runs.calls": self.calls("core.enumerate_runs"),
            "core.enumerate_runs.s": self.total("core.enumerate_runs"),
            "core.runs.enumerated": c["runs.enumerated"],
            "core.runs.truncated": c["runs.truncated"],
            "analysis.bounded_compare.s": self.total("analysis.bounded_compare"),
            "analysis.check_decomposition.s": self.total("analysis.check_decomposition"),
            "analysis.generator.s": self.total("analysis.generator"),
            "analysis.compare_nets_walk.s": self.total("analysis.compare_nets_walk"),
            "analysis.walk.nodes": c["walk.nodes"],
            "analysis.walk.steps": c["walk.steps"],
            "analysis.find_cycles.calls": self.calls("analysis.find_cycles"),
            "analysis.find_cycles.self_s": self.self_time("analysis.find_cycles"),
            "analysis.find_cycles.letters": c["find_cycles.letters"],
            "analysis.find_cycles.witnesses": c["find_cycles.witnesses"],
            "analysis.extract_pumpable_cycle.s": self.total("analysis.extract_pumpable_cycle"),
            "analysis.pump_run.s": self.total("analysis.pump_run"),
            "analysis.refute.guided.s": self.total("analysis.refute.guided"),
            "analysis.refute.enumerate.s": self.total("analysis.refute.enumerate"),
            "analysis.find_bad_segment_witness.s": self.total("analysis.find_bad_segment_witness"),
            "analysis.classify_run_form.s": self.total("analysis.classify_run_form"),
            "analysis.refute.counterexample_letters": c["refute.counterexample_letters"],
            "zoo.oracle.calls": self.calls("zoo.oracle"),
            "zoo.oracle.s": self.total("zoo.oracle"),
            "zoo.build.s": self.total("zoo.build"),
            "constructions.product.calls": self.calls("constructions.product"),
            "constructions.product.s": self.total("constructions.product"),
            "constructions.product.states": c["product.states"],
            "vas.verify_pipeline.s": self.total("vas.verify_pipeline"),
            "vas.vasify.s": self.total("vas.vasify"),
            "vas.check_gating.s": self.total("vas.check_gating"),
            "vas.pipeline.flat_words": c["pipeline.flat_words"],
            "vas.pipeline.gating_nodes": c["pipeline.gating_nodes"],
            "fileformat.parse.s": self.total("fileformat.parse"),
            "fileformat.emit.s": self.total("fileformat.emit"),
            "fileformat.bytes": c["fileformat.bytes"],
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"aggregate": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                                     for k, v in sorted(self.agg.items())},
                       "counts": dict(self.counts),
                       "spans": [{"name": n, "start": s, "end": e, "parent": p}
                                 for n, s, e, p in self.spans]}, fh)


class TimedGenerator:
    """Box wrapper that times each item the box yields and books it as
    analysis.generator, so a sweep's self time excludes its generator."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer
        if hasattr(gen, "size"):
            self.size = gen.size

    def __iter__(self):
        it = iter(self._gen)
        tracer = self._tracer
        while True:
            start = perf_counter()
            try:
                item = next(it)
            except StopIteration:
                tracer.add_child_time("analysis.generator", perf_counter() - start)
                return
            tracer.add_child_time("analysis.generator", perf_counter() - start)
            yield item
