"""Per-layer tracing for the traced run, from the benchmark's own files.

The tracer wraps public functions of each `ginibre` module at the call
boundary. Every module-level binding of a wrapped function is replaced,
so calls through `from .specfun import log_regularized_lower_gamma` in
`kernels`, `validation` and `pipelines` are seen too. Calls are
aggregated per layer key into a call count and a self time (a span's
time minus the time of wrapped calls nested inside it); a call that
re-enters the same key from inside it, such as `regularized_upper_gamma`
calling `log_regularized_upper_gamma`, is part of the outer span. Calls
of the layers that are not hot leaves are also kept as spans, which the
traced run writes to `.perfbench/` in the checkout.

The `eigen` stages are private functions that `eigenvalues_batch` looks up
at call time. If one is renamed or removed, its metric is reported as
absent rather than as 0.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute, layer key). An attribute "Class.method" is patched on
# the class, which covers every name the class is bound to.
BINDINGS = [
    ("eigen", "eigenvalues_batch", "eigen"),
    ("eigen", "_balance_batch", "eigen.balance"),
    ("eigen", "_hessenberg_batch", "eigen.hessenberg"),
    ("eigen", "_qr_eigvals_batch", "eigen.qr"),
    ("matrix_sampler", "sample_ginibre_matrix", "matrix_sampler.draw"),
    ("matrix_sampler", "sample_ginibre_matrix_batch", "matrix_sampler.draw"),
    ("streams", "stream_rng", "streams"),
    ("streams", "child_seed", "streams"),
    ("pipelines", "conditioned_by_rejection", "pipelines.rejection_oracle"),
    ("hkpv", "sample_projection_dpp", "hkpv.sample_projection_dpp"),
    ("hkpv", "rejection_step", "hkpv.rejection_step"),
    ("hkpv", "conditional_density", "hkpv.conditional_density"),
    ("hkpv", "feature_vector", "hkpv.feature_vector"),
    ("hkpv", "OrthoState.add_point", "hkpv.add_point"),
    ("hkpv", "sup_feature_norm_sq", "hkpv.sup"),
    ("point_count", "sample_top_index", "point_count.sample_top_index"),
    ("point_count", "sample_indicators", "point_count.sample_indicators"),
    ("kernels", "BasisSubset.__post_init__", "kernels.basis_subset"),
    ("kernels", "spectrum_profile", "kernels.spectrum_profile"),
    ("kernels", "radial_intensity", "kernels.radial_intensity"),
    ("specfun", "log_regularized_lower_gamma", "specfun.lower_gamma"),
    ("specfun", "regularized_lower_gamma", "specfun.lower_gamma"),
    ("specfun", "log_regularized_upper_gamma", "specfun.upper_gamma"),
    ("specfun", "regularized_upper_gamma", "specfun.upper_gamma"),
    ("validation", "kostlan_check", "validation.kostlan_check"),
    ("validation", "intensity_check", "validation.intensity_check"),
    ("validation", "hole_and_count_check", "validation.hole_and_count_check"),
    ("validation", "method_equivalence_check", "validation.method_equivalence_check"),
    ("validation", "negative_control_kostlan", "validation.negative_control"),
    ("validation", "trace_identity_checks", "validation.closed_form"),
    ("validation", "circular_law_bound_checks", "validation.closed_form"),
    ("validation", "delta_asymptotic_checks", "validation.closed_form"),
]

# Per-layer metric -> (layer key, statistic). Statistic "self" is self time
# in seconds and "calls" the span count; the rest are derived in metrics().
SPAN_METRICS = {
    "eigen.balance_s": ("eigen.balance", "self"),
    "eigen.hessenberg_s": ("eigen.hessenberg", "self"),
    "eigen.qr_s": ("eigen.qr", "self"),
    "eigen.calls": ("eigen", "calls"),
    "matrix_sampler.draw_s": ("matrix_sampler.draw", "self"),
    "streams.calls": ("streams", "calls"),
    "streams.stream_rng_s": ("streams", "self"),
    "pipelines.rejection_oracle_s": ("pipelines.rejection_oracle", "self"),
    "hkpv.rejection_step_s": ("hkpv.rejection_step", "self"),
    "hkpv.conditional_density_s": ("hkpv.conditional_density", "self"),
    "hkpv.feature_vector_calls": ("hkpv.feature_vector", "calls"),
    "hkpv.feature_vector_s": ("hkpv.feature_vector", "self"),
    "hkpv.add_point_s": ("hkpv.add_point", "self"),
    "hkpv.sup_feature_norm_sq_s": ("hkpv.sup", "self"),
    "hkpv.sup_calls": ("hkpv.sup", "calls"),
    "point_count.sample_top_index_s": ("point_count.sample_top_index", "self"),
    "point_count.sample_indicators_s": ("point_count.sample_indicators", "self"),
    "kernels.basis_subset_s": ("kernels.basis_subset", "self"),
    "kernels.spectrum_profile_s": ("kernels.spectrum_profile", "self"),
    "kernels.radial_intensity_s": ("kernels.radial_intensity", "self"),
    "specfun.lower_gamma_calls": ("specfun.lower_gamma", "calls"),
    "specfun.lower_gamma_s": ("specfun.lower_gamma", "self"),
    "specfun.upper_gamma_calls": ("specfun.upper_gamma", "calls"),
    "specfun.upper_gamma_s": ("specfun.upper_gamma", "self"),
    "validation.kostlan_check_s": ("validation.kostlan_check", "self"),
    "validation.intensity_check_s": ("validation.intensity_check", "self"),
    "validation.hole_and_count_check_s": ("validation.hole_and_count_check", "self"),
    "validation.method_equivalence_check_s": ("validation.method_equivalence_check", "self"),
    "validation.negative_control_s": ("validation.negative_control", "self"),
    "validation.closed_form_s": ("validation.closed_form", "self"),
}

# Counts that must repeat exactly for a fixed seed and fixed code.
EXACT_COUNTS = ("hkpv.proposals", "hkpv.acceptances", "hkpv.sup_calls", "eigen.matrices",
                "pipelines.rejection_retries", "specfun.lower_gamma_calls",
                "specfun.upper_gamma_calls")

# Predictions: per-layer metric -> the end-to-end metrics it should move,
# by workload, and the workloads where no change is expected. A metric is
# also checked to be non-zero on every workload where it should move,
# except the outcome-like ones in MAY_BE_ZERO. "failed_share" is the
# result line's failed / attempted.
_HKPV_MOVES = {"conditioned_n100": ["ops_per_s", "call_p50_ms"],
               "projected_r5": ["ops_per_s", "call_p50_ms"],
               "validate_smoke": ["wall_s"]}
_VALIDATION_MOVES = {"validate_smoke": ["wall_s", "failed_share"]}
_SAMPLING = ["matrix_n50", "conditioned_n100", "projected_r5"]
PREDICTIONS = {
    **{m: ({"matrix_n50": ["ops_per_s"], "validate_smoke": ["wall_s"]},
           ["conditioned_n100", "projected_r5"])
       for m in ("eigen.balance_s", "eigen.hessenberg_s", "eigen.qr_s")},
    **{m: ({"validate_smoke": ["wall_s"]}, ["matrix_n50"])
       for m in ("eigen.calls", "eigen.matrices", "eigen.matrices_per_call")},
    "matrix_sampler.draw_s": ({"matrix_n50": ["ops_per_s"]},
                              ["conditioned_n100", "projected_r5"]),
    **{m: ({"validate_smoke": ["wall_s"]}, ["matrix_n50"])
       for m in ("streams.calls", "streams.stream_rng_s")},
    **{m: ({"validate_smoke": ["wall_s"]}, _SAMPLING)
       for m in ("pipelines.rejection_oracle_s", "pipelines.rejection_retries",
                 "pipelines.retries_per_draw")},
    **{m: (_HKPV_MOVES, ["matrix_n50"])
       for m in ("hkpv.proposals", "hkpv.acceptances", "hkpv.acceptance_ratio",
                 "hkpv.rejection_step_s", "hkpv.conditional_density_s",
                 "hkpv.feature_vector_calls", "hkpv.feature_vector_s", "hkpv.add_point_s")},
    **{m: ({"conditioned_n100": ["setup_s"], "projected_r5": ["ops_per_s"]}, ["matrix_n50"])
       for m in ("hkpv.sup_feature_norm_sq_s", "hkpv.sup_calls", "hkpv.sup_cache_hit_ratio")},
    **{m: ({"projected_r5": ["ops_per_s"]}, ["matrix_n50", "conditioned_n100"])
       for m in ("point_count.sample_top_index_s", "point_count.sample_indicators_s",
                 "kernels.basis_subset_s")},
    # GinibreDiskSampler builds a spectrum profile; nothing on the
    # sampling workloads evaluates the radial intensity.
    "kernels.spectrum_profile_s": ({"projected_r5": ["setup_s"], "validate_smoke": ["wall_s"]},
                                   ["matrix_n50", "conditioned_n100"]),
    "kernels.radial_intensity_s": ({"validate_smoke": ["wall_s"]}, _SAMPLING),
    # The conditioned sampler's basis needs lower gammas only; the upper
    # gamma enters through the disk spectrum and the closed forms.
    **{m: ({"validate_smoke": ["wall_s"], "conditioned_n100": ["setup_s"],
            "projected_r5": ["setup_s"]}, ["matrix_n50"])
       for m in ("specfun.lower_gamma_calls", "specfun.lower_gamma_s")},
    **{m: ({"validate_smoke": ["wall_s"], "projected_r5": ["setup_s"]},
           ["matrix_n50", "conditioned_n100"])
       for m in ("specfun.upper_gamma_calls", "specfun.upper_gamma_s")},
    **{m: (_VALIDATION_MOVES, _SAMPLING)
       for m in ("validation.kostlan_check_s", "validation.intensity_check_s",
                 "validation.hole_and_count_check_s", "validation.method_equivalence_check_s",
                 "validation.negative_control_s", "validation.closed_form_s",
                 "validation.checks_failed")},
}
MAY_BE_ZERO = {"validation.checks_failed", "hkpv.sup_cache_hit_ratio"}


# Hot leaf layers are aggregated into a count and a time; every other
# wrapped call is also kept as a span.
HOT_KEYS = {"streams", "hkpv.rejection_step", "hkpv.conditional_density",
            "hkpv.feature_vector", "hkpv.add_point", "specfun.lower_gamma",
            "specfun.upper_gamma"}


class Tracer:
    """Spans, per-layer aggregates and counters at the wrapped boundaries.

    spans holds [key, start, end, parent span index or -1], with times in
    seconds since install().
    """

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_time = defaultdict(float)
        self.counts = defaultdict(int)
        self.bound = set()
        self.spans: list[list] = []
        self._origin = 0.0
        self._stack: list[list] = []  # [key, time of nested spans, span index]
        self._patches: list[tuple] = []

    def _wrap(self, key, fn, after=None):
        stack, spans, hot = self._stack, self.spans, key in HOT_KEYS

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == key:
                return fn(*args, **kwargs)
            frame = [key, 0.0, None]
            if not hot:
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), -1)
                frame[2] = len(spans)
                spans.append([key, 0.0, 0.0, parent])
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                elapsed = end - start
                stack.pop()
                self.calls[key] += 1
                self.self_time[key] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if frame[2] is not None:
                    spans[frame[2]][1:3] = start - self._origin, end - self._origin
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Wrap every binding of the BINDINGS functions in loaded ginibre modules."""
        from ginibre import records

        self._origin = perf_counter()
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "ginibre" or name.startswith("ginibre."))]
        after = {"eigen": lambda args, out: self._add("eigen.matrices", len(args[0])),
                 "pipelines.rejection_oracle": lambda args, out: self._add(
                     "pipelines.rejection_retries", out.notes["retries"] - 1),
                 "hkpv.sample_projection_dpp": lambda args, out: self._add(
                     "hkpv.nonempty_draws", int(args[0].size > 0))}
        for module_name, attr, key in BINDINGS:
            module = sys.modules[f"ginibre.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                if method in cls.__dict__:
                    self._patch(cls, method, self._wrap(key, cls.__dict__[method]))
                    self.bound.add(key)
                continue
            original = module.__dict__.get(attr)
            if original is None:
                continue
            wrapped = self._wrap(key, original, after.get(key))
            for mod in modules:
                for name, value in list(mod.__dict__.items()):
                    if value is original:
                        self._patch(mod, name, wrapped)
            self.bound.add(key)

        record_step = records.RejectionDiagnostics.__dict__["record_step"]

        def counted_record_step(diagnostics, proposals):
            self._add("hkpv.proposals", proposals)
            self._add("hkpv.acceptances", 1)
            return record_step(diagnostics, proposals)

        self._patch(records.RejectionDiagnostics, "record_step", counted_record_step)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _add(self, name, amount):
        self.counts[name] += amount

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics; a metric whose layer was not bound is absent."""
        out = {}
        for name, (key, stat) in SPAN_METRICS.items():
            if key in self.bound:
                out[name] = self.self_time[key] if stat == "self" else self.calls[key]
        counts = self.counts
        out["hkpv.proposals"] = counts["hkpv.proposals"]
        out["hkpv.acceptances"] = counts["hkpv.acceptances"]
        out["hkpv.acceptance_ratio"] = _ratio(counts["hkpv.acceptances"],
                                              counts["hkpv.proposals"])
        if "hkpv.sup" in self.bound and "hkpv.sample_projection_dpp" in self.bound:
            draws = counts["hkpv.nonempty_draws"]
            out["hkpv.sup_cache_hit_ratio"] = (1.0 - self.calls["hkpv.sup"] / draws
                                               if draws else 0.0)
        if "eigen" in self.bound:
            out["eigen.matrices"] = counts["eigen.matrices"]
            out["eigen.matrices_per_call"] = _ratio(counts["eigen.matrices"],
                                                    self.calls["eigen"])
        if "pipelines.rejection_oracle" in self.bound:
            out["pipelines.rejection_retries"] = counts["pipelines.rejection_retries"]
            out["pipelines.retries_per_draw"] = _ratio(
                counts["pipelines.rejection_retries"], self.calls["pipelines.rejection_oracle"])
        return out


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def expectation_problems(workload: str, metrics: dict) -> tuple[list[str], list[str]]:
    """(metrics that read zero where they should move, metrics that are absent)."""
    zero, absent = [], []
    for name, (moves, _) in PREDICTIONS.items():
        if workload not in moves:
            continue
        if name not in metrics:
            absent.append(name)
        elif metrics[name] == 0 and name not in MAY_BE_ZERO:
            zero.append(name)
    return zero, absent
