"""Spans around the simulator's layer functions, and the per-layer metrics
taken from them.

The child wraps each function in ``TARGETS`` wherever a module of the package
binds it (``runner`` calls ``realize_channels`` by its own name, ``battery``
calls ``build_chain`` through its module globals), so every call path is
traced without touching the program. Spans stay in memory and are written
once, when the child ends.
"""

import itertools
import json
import math
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _codebook_key(args, kwargs):
    geom, radio = args[0], args[1]
    return (tuple(geom.center), geom.nx, geom.nz, geom.spacing,
            radio.wavelength, *args[2:], *sorted(kwargs.items()))


# span name -> (module of definition, function, counter hook or None).
# A hook gets (counts, distinct, args, kwargs, result) after the call.
TARGETS = {
    "geometry.array_response": ("geometry", "array_response", None),
    "channel.realize_channels": ("channel", "realize_channels", None),
    "hris.build_codebook": (
        "hris", "build_codebook",
        lambda c, d, a, k, r: (c.update({"hris.build_codebook.codewords": len(r)}),
                               d["hris.codebook"].add(_codebook_key(a, k)))),
    "hris.probe": (
        "hris", "probe",
        lambda c, d, a, k, r: c.update({
            "hris.probe.codewords_swept": len(_arg(a, k, 0, "codebook")),
            "hris.probe.no_peak": int(not r[0].detected)})),
    "hris.quantize": ("hris", "quantize", None),
    "hris.compose_reflection": ("hris", "compose_reflection", None),
    "hris.oracle_config": ("hris", "oracle_config", None),
    "comm.effective_channels": ("comm", "effective_channels", None),
    "comm.rzf_precoder": ("comm", "rzf_precoder", None),
    "comm.evaluate": ("comm", "evaluate", None),
    "energy.harvest": ("energy", "harvest", None),
    "energy.config_consumption": ("energy", "config_consumption", None),
    "energy.atom_consumption": ("energy", "atom_consumption", None),
    "battery.simulate_trace": (
        "battery", "simulate_trace",
        lambda c, d, a, k, r: c.update({
            "battery.simulate_trace.periods": _arg(a, k, 4, "n_periods")})),
    "battery.build_chain": (
        "battery", "build_chain",
        lambda c, d, a, k, r: c.update({
            "battery.build_chain.states_sq": _arg(a, k, 1, "n_states") ** 2})),
    "battery.stationary": ("battery", "stationary", None),
    "battery.loss_of_charge": ("battery", "loss_of_charge", None),
    "battery.ploc_standard_error": ("battery", "ploc_standard_error", None),
    "battery.size_battery": ("battery", "size_battery", None),
    "scenario.load_scenario": ("scenario", "load_scenario", None),
    "runner.emit_csv": (
        "runner", "emit_csv",
        lambda c, d, a, k, r: c.update({
            "runner.emit_csv.rows": sum(
                len(v) for v in vars(_arg(a, k, 0, "report")).values()),
            "runner.emit_csv.bytes": sum(p.stat().st_size for p in r)})),
    "runner.run_sumrate_experiment": ("runner", "run_sumrate_experiment", None),
    "runner.run_energy_experiment": ("runner", "run_energy_experiment", None),
    "runner.run_battery_experiment": ("runner", "run_battery_experiment", None),
}

# functions whose latency percentiles are metrics of BENCHMARK.json, with a
# fixed tail level: the highest with at least ten calls beyond it at this
# commit's call counts (realize_channels 400 and 700 calls, rzf_precoder
# 2000), so a change in the call count does not change what is compared.
# Other functions get percentiles, printed only, from PERCENTILE_MIN_CALLS on.
PERCENTILE_SPANS = {"channel.realize_channels": 90.0, "comm.rzf_precoder": 99.0}
PERCENTILE_MIN_CALLS = 1000
_HIGH_PERCENTILES = (99.99, 99.9, 99.0, 90.0)


class Tracer:
    """In-memory span recorder: (id, parent id, name, start, end) per call."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans = []
        self.stack = [0]  # 0 is the root: spans with parent 0 are top level
        self.ids = itertools.count(1)
        self.counts = Counter()
        self.distinct = defaultdict(set)

    def wrap(self, name, fn, hook=None):
        spans, stack, ids, clock = self.spans, self.stack, self.ids, time.perf_counter
        counts, distinct = self.counts, self.distinct

        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
            if hook is not None:
                hook(counts, distinct, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, package) -> None:
        """Rebind every target, in every loaded module of ``package``."""
        modules = [m for n, m in sys.modules.items()
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        for name, (module, attr, hook) in TARGETS.items():
            original = getattr(sys.modules[f"{package.__name__}.{module}"], attr)
            wrapper = self.wrap(name, original, hook)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path) -> None:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id,
                       "columns": ["id", "parent", "name", "start", "end"],
                       "names": names,
                       "spans": [(i, p, index[n], t0, t1)
                                 for i, p, n, t0, t1 in self.spans],
                       "counts": dict(self.counts),
                       "distinct": {k: len(v) for k, v in self.distinct.items()}},
                      fh)


def _percentile(sorted_values, q):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def latency_percentiles(durations, tail=None):
    """(p50, tail percentile, its level).

    The tail level is ``tail`` if given, else the highest percentile with at
    least ten calls beyond it; with fewer than 100 calls none qualifies and
    the median is repeated at level 50.
    """
    values = sorted(durations)
    p50 = _percentile(values, 50.0)
    if tail is None:
        tail = next((q for q in _HIGH_PERCENTILES
                     if len(values) * (100.0 - q) / 100.0 >= 10), 50.0)
    return p50, _percentile(values, tail), tail


def summarize(trace: dict, run_window: tuple) -> dict:
    """Per-layer metrics of one traced child.

    ``run_window`` is the (start, end) of the timed experiment call. Self time
    is a span's duration minus the durations of its direct children, which
    never overlap because the program is single-threaded.
    """
    names = trace["names"]
    counts = Counter(trace["counts"])
    name_of, parent_of = {}, {}
    durations = defaultdict(list)
    child_time = Counter()
    top_level = 0.0
    for span_id, parent, name_idx, t0, t1 in trace["spans"]:
        name = names[name_idx]
        name_of[span_id], parent_of[span_id] = name, parent
        durations[name].append(t1 - t0)
        child_time[parent] += t1 - t0
        if parent == 0 and t0 >= run_window[0]:
            top_level += t1 - t0
    self_time = Counter()
    for span_id, parent, name_idx, t0, t1 in trace["spans"]:
        self_time[names[name_idx]] += (t1 - t0) - child_time[span_id]

    def under(span_id, ancestor):
        span_id = parent_of[span_id]
        while span_id:
            if name_of[span_id] == ancestor:
                return True
            span_id = parent_of[span_id]
        return False

    metrics = {}
    for name in TARGETS:
        calls = len(durations[name])
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_time[name]
        if calls and (name in PERCENTILE_SPANS or calls >= PERCENTILE_MIN_CALLS):
            p50, p_hi, q = latency_percentiles(durations[name],
                                               PERCENTILE_SPANS.get(name))
            metrics[f"{name}.p50_ms"] = p50 * 1e3
            metrics[f"{name}.p_hi_ms"] = p_hi * 1e3
            metrics[f"{name}.p_hi_pct"] = q
        elif name in PERCENTILE_SPANS:
            metrics.update({f"{name}.p50_ms": 0.0, f"{name}.p_hi_ms": 0.0,
                            f"{name}.p_hi_pct": 0.0})
    for key in ("hris.build_codebook.codewords", "hris.probe.codewords_swept",
                "hris.probe.no_peak", "battery.simulate_trace.periods",
                "battery.build_chain.states_sq", "runner.emit_csv.rows",
                "runner.emit_csv.bytes"):
        metrics[key] = counts[key]
    builds = metrics["hris.build_codebook.calls"]
    metrics["hris.codebook.distinct_ratio"] = (
        trace["distinct"].get("hris.codebook", 0) / builds if builds else 0.0)
    periods = metrics["battery.simulate_trace.periods"]
    metrics["battery.simulate_trace.ns_per_period"] = (
        metrics["battery.simulate_trace.self_s"] / periods * 1e9 if periods else 0.0)
    metrics["battery.reducible"] = counts["battery.stationary.raised.ReducibleChainError"]
    sizings = metrics["battery.size_battery.calls"]
    chains_in_sizing = sum(1 for span_id, name in name_of.items()
                           if name == "battery.build_chain"
                           and under(span_id, "battery.size_battery"))
    metrics["battery.size_battery.chains_per_call"] = (
        chains_in_sizing / sizings if sizings else 0.0)
    run_s = run_window[1] - run_window[0]
    metrics["trace.top_level_coverage"] = top_level / run_s
    return metrics
