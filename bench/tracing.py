"""Spans and counters recorded from outside the program.

The tracer rebinds module-level names that prsampling's callers look up at
call time (for example ``prsampling.sampler.select_resampling_set``) to
wrappers, and restores the originals afterwards. Spans are kept in memory
with name, start, end, parent and op id; hot functions get counters only.
Nothing here changes arguments or results, and the benchmark checks that
by comparing the output digests of a traced and an untraced run of the
same ops.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter

# (module, attribute, recorded as). Every binding of the same function
# object in any prsampling module is rebound too, so calls made through
# ``from .model import ...`` names are seen as well.
SPANS = (
    ("graphs", "parse_edge_list", "graphs.parse_edge_list"),
    ("cnf", "parse_dimacs", "cnf.parse_dimacs"),
    ("cnf", "cnf_to_instance", "cnf.cnf_to_instance"),
    ("graph_apps", "encode_hardcore", "graph_apps.encode"),
    ("graph_apps", "encode_sink_free", "graph_apps.encode"),
    ("graph_apps", "encode_spanning_tree", "graph_apps.encode"),
    ("model", "build_dependency_graph", "model.build_dependency_graph"),
    ("model", "cumulative_tables", "model.cumulative_tables"),
    ("model", "is_extremal", "model.is_extremal"),
    ("model", "sample_product", "model.sample_product"),
    ("sampler", "general_prs", "sampler.general_prs"),
    ("sampler", "extremal_prs", "sampler.extremal_prs"),
    ("sampler", "moser_tardos", "sampler.moser_tardos"),
    ("sampler", "select_resampling_set", "sampler.select_resampling_set"),
    ("graph_apps", "hardcore_sample", "graph_apps.hardcore_sample"),
    ("graph_apps", "sink_popping", "graph_apps.sink_popping"),
    ("graph_apps", "cycle_popping", "graph_apps.cycle_popping"),
    ("shearer", "analyze_instance", "shearer.analyze_instance"),
    ("shearer", "q_empty", "shearer.q_empty"),
    ("shearer", "q_singletons", "shearer.q_singletons"),
    ("shearer", "shearer_holds", "shearer.shearer_holds"),
    ("shearer", "check_gprs_conditions", "shearer.check_gprs_conditions"),
)

# Hot names: (module whose binding is rebound, attribute, counter). Only the
# named module's binding changes, so each counter sees exactly the callers
# it is documented for.
COUNTERS = (
    ("sampler", "occurs", "model.occurs.calls"),
    ("model", "draw_index", "rng.draws"),
    ("sampler", "draw_index", "rng.draws"),
    ("graph_apps", "draw_index", "rng.draws"),
)

# The three generic samplers; |Bad| and |Res| are summed over the first two
# only, the partial-resampling ones: there |Res| over |Bad| is the price of
# non-extremality, while a moser_tardos step resamples one event whatever
# |Bad| is.
SAMPLERS = ("sampler.general_prs", "sampler.extremal_prs", "sampler.moser_tardos")
PARTIAL = SAMPLERS[:2]

# Sizes read from results: the occurring events a round loop found (|Bad|
# per round) and the sets the Shearer enumeration yields.
BAD_EVENTS = ("sampler", "_occurring", "sampler.bad_events")
YIELDS = ("shearer", "independent_sets", "shearer.independent_sets.yielded")

# Every count the tracer reports.
COUNTS = (
    "model.occurs.calls",
    "rng.draws",
    "sampler.rounds",
    "sampler.bad_events",
    "sampler.res_events",
    "sampler.vars_redrawn",
    "graph_apps.rounds",
    "graph_apps.vars_redrawn",
    "shearer.independent_sets.yielded",
)

# Spans whose own time (minus their child spans) is a layer's self time.
SELF_TIME = {
    "sampler.self_s": SAMPLERS,
    "shearer.self_s": ("shearer.analyze_instance",),
}

# Run statistics (rounds, variables redrawn) summed from these spans' results.
STATS = {
    "sampler": SAMPLERS,
    "graph_apps": ("graph_apps.hardcore_sample", "graph_apps.sink_popping", "graph_apps.cycle_popping"),
}


class Tracer:
    """In-memory spans and counters for one traced phase."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: Counter[str] = Counter()
        self.op = -1  # -1 marks set-up work
        self._stack: list[int] = []
        self._saved: list[tuple[dict, str, object]] = []

    # --- wrappers ---------------------------------------------------------

    def _span(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        layer = next((k for k, names in STATS.items() if name in names), None)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None, self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = time.perf_counter()
            if layer is not None:
                run = result[1]
                counts[layer + ".rounds"] += run.rounds
                counts[layer + ".vars_redrawn"] += run.variable_resamples
                if name in PARTIAL:
                    counts["sampler.res_events"] += run.total_resamples
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _bad_sizer(self, name, fn):
        """Sum |Bad| over the rounds of the two partial-resampling samplers."""
        counts, spans, stack = self.counts, self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack and spans[stack[-1]][0] in PARTIAL:
                counts[name] += len(result)
            return result

        return wrapper

    def _yield_counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    # --- install / restore ------------------------------------------------

    def _rebind(self, namespace: dict, key, new) -> None:
        self._saved.append((namespace, key, namespace[key]))
        namespace[key] = new

    def install(self, package) -> None:
        modules = [
            m for name, m in sys.modules.items()
            if m is not None and (name == package.__name__ or name.startswith(package.__name__ + "."))
        ]
        sub = {m.__name__.rsplit(".", 1)[-1]: m for m in modules}
        # ``run_sampler`` indexes the ``SAMPLERS`` table at call time, so the
        # table's entries are bindings too.
        namespaces = [vars(m) for m in modules] + [sub["sampler"].SAMPLERS]
        for mod, attr, name in SPANS:
            original = getattr(sub[mod], attr)
            wrapped = self._span(name, original)
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._rebind(ns, key, wrapped)
        for mod, attr, name in COUNTERS:
            self._rebind(vars(sub[mod]), attr, self._counter(name, getattr(sub[mod], attr)))
        mod, attr, name = BAD_EVENTS
        self._rebind(vars(sub[mod]), attr, self._bad_sizer(name, getattr(sub[mod], attr)))
        mod, attr, name = YIELDS
        self._rebind(vars(sub[mod]), attr, self._yield_counter(name, getattr(sub[mod], attr)))

    def restore(self) -> None:
        while self._saved:
            namespace, key, original = self._saved.pop()
            namespace[key] = original

    # --- results ----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer (value, unit): span totals and calls, self times, counts."""
        total: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            total[name] += end - start
            calls[name] += 1
            if parent is not None:
                child[parent] += end - start
        out: dict[str, tuple[float, str]] = {}
        for _mod, _attr, name in SPANS:
            out[name + "_s"] = (total[name], "s")
            out[name + ".calls"] = (calls[name], "count")
        for metric, names in SELF_TIME.items():
            self_s = sum(
                (span[2] - span[1]) - child[k]
                for k, span in enumerate(self.spans)
                if span[0] in names
            )
            out[metric] = (self_s, "s")
        out.update((k, (self.counts[k], "count")) for k in COUNTS)
        bad = self.counts["sampler.bad_events"]
        out["sampler.res_per_bad"] = (self.counts["sampler.res_events"] / bad if bad else 0.0, "ratio")
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op}) + "\n")
