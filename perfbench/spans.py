"""Span tracing of the package's modules from outside the package.

`Tracer.install` replaces every public function of the package's modules, in
every module namespace that binds it (``from .x import f`` makes a second
binding), with a wrapper that records a span: name, start, end, parent span
and report id. A call from a function of the same module is folded into the
caller's span unless the callee is one of the stage functions a per-layer
metric names, so spans mark layer boundaries and stages, and recursion
(``render_json``) records one span. Spans stay in flat in-memory arrays until
the run ends. `uninstall` restores the original bindings.

A span's self time is its duration minus the durations of its child spans,
so the self times of all spans add up to the time covered by root spans.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

PACKAGE = "ginvspaces"
LAYERS = (
    "perm_action",
    "linalg",
    "decomposition",
    "kernels",
    "schur",
    "invariant_subspaces",
    "torus",
    "cli",
)

# self-time metric -> the stage functions ("module.function") it sums
STAGE_METRICS = {
    "perm_action.enumerate_s": (
        "perm_action.group_from_spec",
        "perm_action.enumerate_group",
        "perm_action.regular_action",
    ),
    "perm_action.orbitals_s": ("perm_action.orbitals",),
    "linalg.orthonormalize_s": ("linalg.orthonormalize",),
    "linalg.hermitian_eig_s": ("linalg.hermitian_eig",),
    "linalg.intersect_s": ("linalg.intersect",),
    "decomposition.minimal_decomposition_s": ("decomposition.minimal_decomposition",),
    "decomposition.check_star_s": ("decomposition.check_star",),
    "decomposition.multiplicity_free_s": ("decomposition.multiplicity_free",),
    "decomposition.build_report_s": ("decomposition.build_report",),
    "kernels.verify_s": ("kernels.verify_kernel_properties", "kernels.kernel_family"),
    "schur.dichotomy_s": ("schur.dichotomy_trials",),
    "schur.group_average_s": ("schur.group_average", "schur._group_average_batch"),
    "invariant_subspaces.verify_structure_s": ("invariant_subspaces.verify_structure",),
    "invariant_subspaces.orbit_span_s": ("invariant_subspaces.orbit_span",),
    "invariant_subspaces.roundtrip_s": ("invariant_subspaces.signature_roundtrip_exhaustive",),
    "invariant_subspaces.witness_s": ("invariant_subspaces.twisted_diagonal_witness",),
    "torus.separation_scan_s": ("torus.separation_scan_1d",),
    "torus.completeness_s": ("torus.completeness_residual_model",),
    "torus.orthonormality_s": ("torus.monomial_orthonormality_residual",),
    "torus.unitarity_s": ("torus.unitarity_residual",),
    "torus.fejer_s": ("torus.fejer_monotonicity",),
    "torus.polydisc_s": ("torus.polydisc_rotation_trials",),
    "torus.smoothing_s": ("torus.smoothing_commutes_residual",),
    "cli.main_s": ("cli.main",),
    "cli.render_json_s": ("cli.render_json",),
}
STAGES = frozenset(name for names in STAGE_METRICS.values() for name in names)
# private helpers a metric needs, wrapped alongside the public functions
PRIVATE_STAGES = ("schur._group_average_batch",)


def _bound(fn, args, kwargs) -> dict:
    call = inspect.signature(fn).bind(*args, **kwargs)
    call.apply_defaults()
    return call.arguments


def _count_orthonormalize(tracer, fn, args, kwargs, result):
    vectors = np.asarray(_bound(fn, args, kwargs)["vectors"])
    tracer.counts["linalg.orthonormalize_cols_in"] += vectors.shape[1]
    tracer.counts["linalg.orthonormalize_rank_out"] += result.rank


def _count_dichotomy(tracer, fn, args, kwargs, result):
    call = _bound(fn, args, kwargs)
    action, spaces = call["action"], call["spaces"]
    tracer.counts["schur.gather_entries"] += (
        len(spaces) ** 2 * call["trials"] * action.n_points**2 * action.order
    )


# counters read from a call's arguments or result, by "module.function"
RESULT_COUNTERS = {
    "perm_action.enumerate_group": lambda t, fn, a, k, r: t.counts.update(
        {"perm_action.group_order_sum": r.order}
    ),
    "linalg.orthonormalize": _count_orthonormalize,
    "decomposition.minimal_decomposition": lambda t, fn, a, k, r: t.counts.update(
        {"decomposition.n_spaces": len(r)}
    ),
    "schur.dichotomy_trials": _count_dichotomy,
    "invariant_subspaces.signature_roundtrip_exhaustive": lambda t, fn, a, k, r: t.counts.update(
        {"invariant_subspaces.roundtrip_subsets": r[1]}
    ),
    "torus.separation_scan_1d": lambda t, fn, a, k, r: t.counts.update(
        {"torus.separation_pairs": r[0]}
    ),
}


class Tracer:
    """Spans and call counts of one traced pass over the package."""

    def __init__(self) -> None:
        self.names = []
        self._name_ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.report = array("i")
        self.start = array("d")
        self.end = array("d")
        self.calls = Counter()
        self.counts = Counter()
        self.report_id = -1
        self._stack = []  # (span index, name id, module) of the open spans
        self._saved = []  # (namespace, attribute, original) to restore

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, layer: str):
        tracer = self
        name = f"{layer}.{fn.__name__}"
        nid = self._name_id(name)
        stage = name in STAGES
        counter = RESULT_COUNTERS.get(name)
        calls = self.calls
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            calls[name] += 1
            if stack and (stack[-1][1] == nid or (stack[-1][2] == layer and not stage)):
                result = fn(*args, **kwargs)
            else:
                idx = len(tracer.start)
                tracer.name.append(nid)
                tracer.parent.append(stack[-1][0] if stack else -1)
                tracer.report.append(tracer.report_id)
                tracer.end.append(0.0)
                stack.append((idx, nid, layer))
                tracer.start.append(clock())
                try:
                    result = fn(*args, **kwargs)
                finally:
                    tracer.end[idx] = clock()
                    stack.pop()
            if counter is not None:
                counter(tracer, fn, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
        owners = {m.__name__: layer for layer, m in modules.items()}
        wrappers = {}
        namespaces = list(modules.values()) + [sys.modules[PACKAGE]]
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if not inspect.isfunction(value) or value.__module__ not in owners:
                    continue
                layer = owners[value.__module__]
                if attr.startswith("_") and f"{layer}.{attr}" not in PRIVATE_STAGES:
                    continue
                if value not in wrappers:
                    wrappers[value] = self._wrap(value, layer)
                self._saved.append((ns, attr, value))
                setattr(ns, attr, wrappers[value])
        torus = modules["torus"]
        init = torus.FourierFunction.__init__
        calls = self.calls

        def counted_init(obj, *args, **kwargs):
            calls["torus.FourierFunction"] += 1
            init(obj, *args, **kwargs)

        self._saved.append((torus.FourierFunction, "__init__", init))
        torus.FourierFunction.__init__ = counted_init

    def uninstall(self) -> None:
        while self._saved:
            ns, attr, value = self._saved.pop()
            setattr(ns, attr, value)

    def arrays(self) -> dict:
        """The recorded spans as numpy columns, with per-span self time."""
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        start = np.frombuffer(self.start, dtype=np.float64)
        end = np.frombuffer(self.end, dtype=np.float64)
        duration = end - start
        child = np.zeros_like(duration)
        nested = parent >= 0
        np.add.at(child, parent[nested], duration[nested])
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": parent,
            "report": np.frombuffer(self.report, dtype=np.int32),
            "start": start,
            "end": end,
            "self": duration - child,
        }

    def save(self, path) -> None:
        cols = self.arrays()
        np.savez_compressed(path, names=np.array(self.names), **cols)

    def metrics(self, pass_s: float, untraced_pass_s: float) -> tuple:
        """(metrics, problems): per-layer metrics of the traced pass, and the
        accounting problems found, such as self times that do not add up."""
        cols = self.arrays()
        span_names = np.array(self.names, dtype=str)[cols["name"]]
        layers = np.array([n.partition(".")[0] for n in span_names], dtype=str)

        def self_of(selected) -> float:
            return float(cols["self"][selected].sum())

        out = {}
        for metric, stages in STAGE_METRICS.items():
            out[metric] = (self_of(np.isin(span_names, stages)), "s")
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (self_of(layers == layer), "s")

        calls, counts = self.calls, self.counts
        cols_in = counts["linalg.orthonormalize_cols_in"]
        decompositions = calls["decomposition.minimal_decomposition"]
        out.update(
            {
                "perm_action.orbitals_calls": (calls["perm_action.orbitals"], "count"),
                "perm_action.stabilizer_calls": (calls["perm_action.stabilizer"], "count"),
                "perm_action.group_order_sum": (counts["perm_action.group_order_sum"], "count"),
                "linalg.orthonormalize_cols_in": (cols_in, "count"),
                "linalg.orthonormalize_keep_ratio": (
                    counts["linalg.orthonormalize_rank_out"] / cols_in if cols_in else 0.0,
                    "ratio",
                ),
                "linalg.hermitian_eig_calls": (calls["linalg.hermitian_eig"], "count"),
                "decomposition.attempts": (
                    calls["decomposition.random_commutant_element"] / decompositions
                    if decompositions
                    else 0.0,
                    "count",
                ),
                "decomposition.n_spaces": (counts["decomposition.n_spaces"], "count"),
                "kernels.spaces_verified": (calls["kernels.verify_kernel_properties"], "count"),
                "schur.classified": (calls["schur.classify_intertwiner"], "count"),
                "schur.gather_entries": (counts["schur.gather_entries"], "count"),
                "invariant_subspaces.orbit_span_calls": (
                    calls["invariant_subspaces.orbit_span"],
                    "count",
                ),
                "invariant_subspaces.roundtrip_subsets": (
                    counts["invariant_subspaces.roundtrip_subsets"],
                    "count",
                ),
                "torus.separation_pairs": (counts["torus.separation_pairs"], "count"),
                "torus.functions_built": (calls["torus.FourierFunction"], "count"),
                "trace.overhead_frac": (pass_s / untraced_pass_s - 1.0, "ratio"),
            }
        )

        problems = []
        if len(cols["end"]) and not (cols["end"] >= cols["start"]).all():
            problems.append("a span ended before it started")
        roots = cols["parent"] < 0
        remainder = pass_s - float((cols["end"][roots] - cols["start"][roots]).sum())
        layer_total = sum(out[f"{layer}.self_s"][0] for layer in LAYERS)
        if remainder < 0 or abs(layer_total + remainder - pass_s) > 1e-6 * max(1.0, pass_s):
            problems.append(
                f"layer self times {layer_total!r} plus untraced remainder {remainder!r} "
                f"do not add up to the traced pass {pass_s!r}"
            )
        if self._stack:
            problems.append("spans were left open")
        return out, problems
