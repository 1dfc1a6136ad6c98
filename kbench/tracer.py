"""Layer tracing of kleincode from outside the package.

Tracer.install() replaces each public function named in SPANS by a wrapper
that records a span (name, start, end, parent span) and each function named
in COUNTS by a wrapper that only counts calls, because a span per field
operation would swamp the trace.  A function that another module bound with
``from .x import y`` is replaced there too; uninstall() puts every original
back.  Spans stay in memory until dump() writes them out.

A layer's self time is its spans' duration minus the part of it that child
spans cover.  The benchmark opens one job span per call it makes, so every
layer span descends from exactly one job span: its request.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

SPANS = (
    "codes.coset_min_weight",
    "codes.min_distance",
    "codes.weight_via_footprint",
    "codes.evaluation_vector",
    "codes.enumerate_variety",
    "verify.suite_bound_soundness",
    "verify.suite_x7_claim",
    "rng.SplitMix64.fill_below",
    "groebner.buchberger",
    "groebner.footprint",
    "klein.klein_basis",
    "poly.divide",
    "params.ConstraintStore.reduce",
    "params.ConstraintStore.proves_zero",
    "params.ConstraintStore.certified_nonzero",
    "params.ConstraintStore.witness",
    "params.ConstraintStore.sample_witnesses",
    "casebound.verify_trace",
    "casebound.param_reduce_step",
    "casebound.instantiate_and_check",
    "autosearch.auto_search",
    "cli.main",
)
COUNTS = (
    "gf.FieldSpec.mul",
    "gf.FieldSpec.pow",
    "params.ParamPoly.evaluate",
)
# Counted only inside sample_witnesses, as its rejection-sampling attempts.
# It is private: install() fails when it is gone, so that the yield ratio
# cannot silently change its definition.
ATTEMPT = "params.ConstraintStore._satisfied"

# (layer metric, unit, better); the names are those of BENCHMARK.json.
# The end-to-end metric each layer should move, and on which workload:
#   codes.coset_min_weight                 job1_s on oracle
#   codes.min_distance                     job1_s and job2_s on oracle
#   verify suites, rng fill_below          job2_s on oracle
#   codes.weight_via_footprint,
#   codes.evaluation_vector                job1_s on algebra
#   groebner.buchberger, groebner.footprint job1_s and job2_s on algebra
#   casebound.instantiate_and_check,
#   ConstraintStore.sample_witnesses       job2_s on algebra
#   cli.main, poly.divide,
#   casebound.verify_trace, param_reduce_step  job1_s on symbolic
#   ConstraintStore.reduce                 job1_s and job2_s on symbolic
#   autosearch.auto_search, the other ConstraintStore queries,
#   ParamPoly.evaluate                     job2_s on symbolic
#   gf.FieldSpec mul and pow               job2_s on symbolic and algebra
#   codes.enumerate_variety, klein.klein_basis  setup_s on every workload
METRICS = (
    ("codes.coset_min_weight.calls", "count", "lower"),
    ("codes.coset_min_weight.self_s", "s", "lower"),
    ("codes.coset_min_weight.words", "count", "lower"),
    ("codes.min_distance.calls", "count", "lower"),
    ("codes.min_distance.self_s", "s", "lower"),
    ("codes.min_distance.words", "count", "lower"),
    ("codes.weight_via_footprint.calls", "count", "lower"),
    ("codes.weight_via_footprint.self_s", "s", "lower"),
    ("codes.evaluation_vector.self_s", "s", "lower"),
    ("codes.enumerate_variety.self_s", "s", "lower"),
    ("verify.suite_bound_soundness.self_s", "s", "lower"),
    ("verify.suite_x7_claim.self_s", "s", "lower"),
    ("rng.SplitMix64.fill_below.calls", "count", "lower"),
    ("rng.SplitMix64.fill_below.self_s", "s", "lower"),
    ("rng.SplitMix64.fill_below.values", "count", "lower"),
    ("groebner.buchberger.calls", "count", "lower"),
    ("groebner.buchberger.self_s", "s", "lower"),
    ("groebner.buchberger.basis_len", "count", "lower"),
    ("groebner.footprint.calls", "count", "lower"),
    ("groebner.footprint.self_s", "s", "lower"),
    ("klein.klein_basis.self_s", "s", "lower"),
    ("poly.divide.calls", "count", "lower"),
    ("poly.divide.self_s", "s", "lower"),
    ("params.ConstraintStore.reduce.calls", "count", "lower"),
    ("params.ConstraintStore.reduce.self_s", "s", "lower"),
    ("params.ConstraintStore.proves_zero.calls", "count", "lower"),
    ("params.ConstraintStore.proves_zero.self_s", "s", "lower"),
    ("params.ConstraintStore.proves_zero.hit_ratio", "1", "higher"),
    ("params.ConstraintStore.certified_nonzero.calls", "count", "lower"),
    ("params.ConstraintStore.certified_nonzero.self_s", "s", "lower"),
    ("params.ConstraintStore.witness.calls", "count", "lower"),
    ("params.ConstraintStore.witness.self_s", "s", "lower"),
    ("params.ConstraintStore.witness.vacuous_ratio", "1", "lower"),
    ("params.ConstraintStore.sample_witnesses.calls", "count", "lower"),
    ("params.ConstraintStore.sample_witnesses.self_s", "s", "lower"),
    ("params.ConstraintStore.sample_witnesses.yield_ratio", "1", "higher"),
    ("params.ParamPoly.evaluate.calls", "count", "lower"),
    ("casebound.verify_trace.calls", "count", "lower"),
    ("casebound.verify_trace.self_s", "s", "lower"),
    ("casebound.param_reduce_step.calls", "count", "lower"),
    ("casebound.param_reduce_step.self_s", "s", "lower"),
    ("casebound.instantiate_and_check.calls", "count", "lower"),
    ("casebound.instantiate_and_check.self_s", "s", "lower"),
    ("casebound.instantiate_and_check.samples", "count", "lower"),
    ("autosearch.auto_search.calls", "count", "lower"),
    ("autosearch.auto_search.self_s", "s", "lower"),
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("gf.FieldSpec.mul.calls", "count", "lower"),
    ("gf.FieldSpec.pow.calls", "count", "lower"),
    ("trace_overhead_ratio", "1", "lower"),
)


def _bound_args(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _words_coset(fn, args, kwargs, result):
    a = _bound_args(fn, args, kwargs)
    if a["mode"] == "sample":
        return a["count"]
    return a["v"].spec.q ** len(a["support"])


def _words_distance(fn, args, kwargs, result):
    a = _bound_args(fn, args, kwargs)
    if a["strategy"] == "sample":
        return a["count"]
    return a["code"].variety.spec.q ** a["code"].k - 1


# span name -> (tally name, value added per call).  basis_len and the ratios
# are divided by the span's call count, so hit_ratio is the share of
# proves_zero calls that proved zero and vacuous_ratio the share of witness
# calls that found none; yield_ratio is divided by the sampling attempts.
TALLIES = {
    "codes.coset_min_weight": ("words", _words_coset),
    "codes.min_distance": ("words", _words_distance),
    "rng.SplitMix64.fill_below": ("values", lambda fn, a, k, r: r.size),
    "groebner.buchberger": ("basis_len", lambda fn, a, k, r: len(r)),
    "params.ConstraintStore.proves_zero": ("hit_ratio", lambda fn, a, k, r: bool(r)),
    "params.ConstraintStore.witness": ("vacuous_ratio", lambda fn, a, k, r: r is None),
    "params.ConstraintStore.sample_witnesses": ("yield_ratio", lambda fn, a, k, r: len(r)),
    "casebound.instantiate_and_check": ("samples", lambda fn, a, k, r: r["samples"]),
}
SAMPLER = "params.ConstraintStore.sample_witnesses"


def _resolve(name: str):
    """(owner, attribute) pairs that hold the function `name` names.

    For a method the class is the only owner.  For a module function every
    kleincode module that binds the same object is an owner.
    """
    module_name, *rest = name.split(".")
    module = importlib.import_module(f"kleincode.{module_name}")
    if len(rest) == 2:
        owner = getattr(module, rest[0])
        return owner.__dict__[rest[1]], [(owner, rest[1])]
    original = getattr(module, rest[0])
    owners = [(mod, attr)
              for mod_name, mod in sorted(sys.modules.items())
              if mod is not None and (mod_name == "kleincode" or mod_name.startswith("kleincode."))
              for attr, value in list(vars(mod).items()) if value is original]
    return original, owners


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self.tallies: dict[str, float] = {}
        self.attempts = 0
        self._patches: list = []

    # -- spans ---------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, kind: str):
        """A root span around one call the benchmark makes."""
        idx = self._open(self._id(f"job.{kind}"))
        try:
            yield
        finally:
            self._close(idx)

    # -- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        name_id = self._id(name)
        tally = TALLIES.get(name)
        if tally is not None:
            key, value = f"{name}.{tally[0]}", tally[1]
        open_, close = self._open, self._close
        tallies = self.tallies

        def traced(*args, **kwargs):
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if tally is not None:
                tallies[key] = tallies.get(key, 0) + value(fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_wrapper(self, name: str, fn):
        counts = self.counts
        counts.setdefault(name, 0)  # counts accumulate over installs, as spans do

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _attempt_wrapper(self, fn):
        sampler_id = self._id(SAMPLER)
        stack, name_of = self._stack, self.name_of

        def attempt(*args, **kwargs):
            if stack[-1] >= 0 and name_of[stack[-1]] == sampler_id:
                self.attempts += 1
            return fn(*args, **kwargs)

        attempt.__wrapped__ = fn
        return attempt

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        plan = [(name, self._span_wrapper) for name in SPANS]
        plan += [(name, self._count_wrapper) for name in COUNTS]
        for name, make in plan:
            original, owners = _resolve(name)
            self._patch(owners, original, make(name, original))
        original, owners = _resolve(ATTEMPT)
        self._patch(owners, original, self._attempt_wrapper(original))

    def _patch(self, owners, original, wrapper) -> None:
        for owner, attr in owners:
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def span_arrays(self):
        name_of = np.frombuffer(self.name_of, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        return name_of, parent, start, end

    def layer_totals(self):
        """{span name: (calls, self seconds)}."""
        name_of, parent, start, end = self.span_arrays()
        calls, self_s = self_times(name_of, parent, end - start, len(self.names))
        return {name: (int(calls[i]), float(self_s[i])) for i, name in enumerate(self.names)}

    def metrics(self, overhead_ratio: float) -> dict:
        totals = self.layer_totals()
        tallies = self.tallies
        out = {}
        for metric, unit, _ in METRICS:
            if metric == "trace_overhead_ratio":
                value = overhead_ratio
            else:
                span, stat = metric.rsplit(".", 1)
                calls, self_s = totals.get(span, (0, 0.0))
                if span in self.counts:
                    value = self.counts[span]
                elif stat == "calls":
                    value = calls
                elif stat == "self_s":
                    value = self_s
                elif stat == "yield_ratio":
                    value = tallies.get(metric, 0) / self.attempts if self.attempts else 0.0
                elif stat.endswith("_ratio") or stat == "basis_len":
                    value = tallies.get(metric, 0) / calls if calls else 0.0
                else:
                    value = tallies.get(metric, 0)
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path) -> None:
        """Write every span, with the job span it descends from."""
        name_of, parent, start, end = self.span_arrays()
        request = np.arange(len(parent))
        for i in range(len(parent)):
            if parent[i] >= 0:
                request[i] = request[parent[i]]
        np.savez(path, names=np.array(self.names), name=name_of, parent=parent,
                 start=start, end=end, request=request)


def self_times(name_of, parent, duration, n_names):
    """(calls, self seconds) per name id.  Spans nest without overlap on one
    thread, so the cover of a span's children is the sum of their durations."""
    cover = np.zeros(len(duration))
    child = parent >= 0
    np.add.at(cover, parent[child], duration[child])
    calls = np.bincount(name_of, minlength=n_names)
    self_s = np.bincount(name_of, weights=duration - cover, minlength=n_names)
    return calls, self_s
