"""Outside-in tracing of the ``posid`` layers.

Nothing in the package is edited.  :func:`instrument` rebinds the module
attributes that callers actually look up (a name imported with
``from .assembly import assemble_core`` is patched in every importing
module) with wrappers that record one span per call, and
:class:`Patches` puts every original back when the traced unit ends.

A span's self time is its duration minus the time covered by its child
spans, so ``assemble_core`` does not double-count the ``gram`` and
``input_weight_matrix`` calls it makes.  Work the tracer itself does
after a call (recomputing KKT residuals, reading diagnostics) runs in a
``trace.hook`` span so that it is not charged to the caller.
"""
from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

# Counters and maxima read from call results; present even when zero.
COUNTERS = (
    "qp.path.ipm", "qp.path.polish", "qp.path.admm", "qp.status.optimal",
    "qp.status.max_iterations", "qp.status.infeasible",
    "qp.solve.ipm_iterations", "estimator.loop.iterations",
    "estimator.loop.forced_accept", "estimator.reconstruct_h.lags",
    "kernels.gram.entries", "tuning.candidates.failed")
MAXIMA = ("qp.kkt.stationarity.max", "qp.kkt.primal.max",
          "qp.kkt.complementarity.max", "estimator.build_qp.dim.max",
          "estimator.m0.max")


class Patches:
    """Rebinds attributes and restores every one of them on exit."""

    def __init__(self):
        self._saved: list = []

    def replace(self, owner, attr: str, make_wrapper) -> bool:
        """Wrap ``owner.attr``; a missing attribute is skipped."""
        original = getattr(owner, attr, None)
        if original is None:
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


class Tracer:
    """In-memory spans and counters for one traced unit."""

    def __init__(self):
        self.spans: list = []        # [name, start, end, parent index]
        self._open: list = []
        self.names: set = set()      # every span name instrumented
        self.counts: Counter = Counter(dict.fromkeys(COUNTERS, 0))
        self.maxes: dict = dict.fromkeys(MAXIMA, 0.0)
        # Polish/ADMM outputs of the solve in progress, by identity; the
        # objects are held so that their ids cannot be reused.
        self.tagged: dict = {}

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, index: int) -> None:
        self._open.pop()
        self.spans[index][2] = time.perf_counter()

    def span(self, name, on_result=None):
        """Wrapper factory: ``name`` is a string or ``f(args) -> str``;
        callers register the names a function can return."""
        if isinstance(name, str):
            self.names.add(name)

        def make(fn):
            def traced(*args, **kwargs):
                index = self._begin(name(args) if callable(name) else name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._end(index)
                if on_result is not None:
                    hook = self._begin("trace.hook")
                    try:
                        on_result(self, args, result)
                    finally:
                        self._end(hook)
                return result
            return traced
        return make

    def totals(self) -> dict:
        """``<span>.calls``, ``.busy_s`` and ``.self_s`` for every name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        calls = Counter(dict.fromkeys(self.names, 0))
        busy = defaultdict(float)
        own = defaultdict(float)
        for (name, start, end, _), covered in zip(self.spans, child):
            calls[name] += 1
            busy[name] += end - start
            own[name] += end - start - covered
        out = {}
        for name, count in calls.items():
            out[f"{name}.calls"] = count
            out[f"{name}.busy_s"] = busy[name]
            out[f"{name}.self_s"] = own[name]
        return out


def _tag(tag: str):
    def hook(tracer, args, result):
        if result is not None:
            tracer.tagged[id(result)] = (tag, result)
    return hook


def _after_solve(qp):
    def hook(tracer, args, result):
        tag = tracer.tagged.get(id(result), ("ipm",))[0]
        tracer.tagged.clear()
        tracer.counts[f"qp.path.{tag}"] += 1
        tracer.counts[f"qp.status.{result.status}"] += 1
        tracer.counts["qp.solve.ipm_iterations"] += result.iterations
        if result.status == qp.OPTIMAL:
            kkt = qp.kkt_certificate(args[0], result)
            for field in ("stationarity", "primal", "complementarity"):
                key = f"qp.kkt.{field}.max"
                tracer.maxes[key] = max(tracer.maxes[key],
                                        getattr(kkt, field))
    return hook


def _after_build_qp(tracer, args, result):
    key = "estimator.build_qp.dim.max"
    tracer.maxes[key] = max(tracer.maxes[key], result.dim)


def _after_fit(tracer, args, model):
    diag = model.diagnostics
    tracer.counts["estimator.loop.iterations"] += diag.iterations
    tracer.counts["estimator.loop.forced_accept"] += int(diag.forced_accept)
    tracer.maxes["estimator.m0.max"] = max(tracer.maxes["estimator.m0.max"],
                                           diag.m0)


def _after_reconstruct(tracer, args, result):
    tracer.counts["estimator.reconstruct_h.lags"] += result.horizon


def _after_gram(tracer, args, result):
    tracer.counts["kernels.gram.entries"] += result.size


def _after_score(tracer, args, score):
    if not math.isfinite(score):
        tracer.counts["tuning.candidates.failed"] += 1


def instrument(patches: Patches, tracer: Tracer) -> None:
    """Wrap the public functions of every layer where callers see them."""
    from posid import (assembly, baselines, estimator, experiments,
                       extensions, kernels, qp, signals, tuning)

    def wrap(owners, attr, name, on_result=None):
        for owner in owners:
            patches.replace(owner, attr, tracer.span(name, on_result))

    wrap([signals.TimeSeriesData], "input_window", "signals.input_window")
    wrap([signals.TimeSeriesData], "restrict", "signals.restrict")
    wrap([estimator], "convolve", "signals.convolve")
    wrap([kernels, assembly, estimator, baselines], "gram", "kernels.gram",
         _after_gram)
    wrap([assembly, estimator, baselines], "input_weight_matrix",
         "assembly.input_weight_matrix")
    wrap([estimator, extensions], "assemble_core", "assembly.assemble_core")
    wrap([extensions], "assemble_polynomial_blocks", "assembly.mode_blocks")
    wrap([extensions], "assemble_oscillation_blocks", "assembly.mode_blocks")
    wrap([qp.ConvexQP], "__post_init__", "qp.ConvexQP.init")
    wrap([qp], "solve", "qp.solve", _after_solve(qp))
    wrap([qp], "_polish", "qp.polish", _tag("polish"))
    wrap([qp], "_admm_rescue", "qp.admm", _tag("admm"))
    wrap([estimator], "build_qp", "estimator.build_qp", _after_build_qp)
    wrap([estimator], "compute_m0", "estimator.compute_m0")
    wrap([estimator, extensions], "reconstruct_h", "estimator.reconstruct_h",
         _after_reconstruct)
    wrap([estimator, tuning, experiments], "identify", "estimator.identify",
         _after_fit)
    wrap([extensions], "identify_repeated_pole",
         "extensions.identify_repeated_pole", _after_fit)
    wrap([extensions], "identify_oscillating_poles",
         "extensions.identify_oscillating_poles", _after_fit)
    wrap([extensions, baselines], "identify_finite_response",
         "extensions.identify_finite_response")
    tracer.names.update(f"baselines.{kind}" for kind in "bcde")
    wrap([experiments], "run_baseline",
         lambda args: f"baselines.{args[0].kind}")
    wrap([tuning], "validation_score", "tuning.validation_score",
         _after_score)
    wrap([tuning], "tune", "tuning.tune")
    wrap([experiments], "_mc_single_run", "experiments.mc_run")


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers of one traced unit, keyed by metric name."""
    out = dict(tracer.totals())
    out.update(tracer.counts)
    out.update(tracer.maxes)
    polish_calls = out["qp.polish.calls"]
    out["qp.polish.accept_ratio"] = (
        out["qp.path.polish"] / polish_calls if polish_calls else 0.0)
    out["qp.ConvexQP.init_s"] = out["qp.ConvexQP.init.busy_s"]
    out["trace.spans"] = len(tracer.spans)
    out["trace.hook_s"] = out.get("trace.hook.busy_s", 0.0)
    return out
