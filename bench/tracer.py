"""Spans around the public functions of each hookzeta module, taken from outside.

The tracer wraps each listed function and rebinds the wrapper in every
hookzeta module namespace that binds the original, so calls through
``from .exactmat import hnf`` in another module are seen too.  A span is
(name, start, end, parent span, argument key); spans stay in memory and are
written out when the workload ends.  Per-layer metrics are computed from the
span tree: ``s`` is inclusive time (outermost span of a name only), and
``self_s`` is a span's time minus the time of its wrapped children.
"""

from __future__ import annotations

import json
from time import perf_counter

VERIFY_CHECKS = (
    "check_coxeter_standard",
    "check_coxeter_specht",
    "check_specht_oracle",
    "check_character_traces",
    "check_stability_classification",
    "check_scaled_closed_forms",
    "check_maximal_sublattices",
    "check_radical",
    "check_radical_interval",
    "check_radical_interval_classes",
    "check_p_power_classification",
    "check_inversion",
    "check_row_sums",
    "check_tridiagonal_from_moebius",
    "check_local_series_vs_enumeration",
    "check_trivial_primes",
    "check_euler_product_vs_census",
    "check_sum_decomposition",
    "check_specht_identification",
    "check_specht_maximal",
    "check_specht_factor_arbitration",
    "check_hnf_unimodular",
    "check_index_chains",
    "check_absorption",
    "check_coefficient_multiplicativity",
)

# (module, function, reported fields).  A function missing from the module
# reports zero calls and zero time.
TARGETS = (
    ("exactmat", "hnf", ("calls", "s")),
    ("exactmat", "lattice_intersect", ("calls", "s")),
    ("exactmat", "solve_in_lattice", ("calls", "s")),
    ("craig", "maximal_sublattices_p", ("calls", "s", "self_s", "distinct_args")),
    ("craig", "phi_p", ("calls", "s")),
    ("craig", "mu_p", ("calls", "s")),
    ("craig", "enumerate_p_sublattices", ("calls", "s", "self_s")),
    ("craig", "enumerate_index_sublattices", ("calls", "s", "self_s")),
    ("craig", "is_g_stable", ("calls", "s")),
    ("specht", "intertwiner", ("calls", "s")),
    ("specht", "identify_specht_lattice", ("calls", "s", "self_s")),
    ("specht", "specht_generators_oracle", ("calls", "s")),
    ("zeta", "dirichlet_coeff", ("calls", "s")),
    ("zeta", "global_zeta", ("calls", "s")),
    ("zeta", "verify_inverse", ("calls", "s")),
    *(("verify", name, ("s",)) for name in VERIFY_CHECKS),
    ("cli", "main", ("s", "self_s")),
)

UNITS = {"calls": "count", "distinct_args": "count", "s": "s", "self_s": "s"}


def _maximal_sublattices_key(lattice, gens, p, *rest, **kwargs):
    """Distinct (lattice normal form, p) pairs measure residue-module reuse."""
    return (lattice.key(), p)


ARG_KEYS = {"craig.maximal_sublattices_p": _maximal_sublattices_key}


def layer_metric_names() -> list[tuple[str, str]]:
    """(metric name, unit) for every span-derived metric, in report order."""
    return [
        (f"{module}.{func}.{field}", UNITS[field])
        for module, func, fields in TARGETS
        for field in fields
    ]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._arg_ids: dict = {}

    def wrap(self, name: str, fn, key_of=None):
        name_id = len(self.names)
        self.names.append(name)
        spans, stack, arg_ids = self.spans, self._stack, self._arg_ids

        def traced(*args, **kwargs):
            arg = arg_ids.setdefault(key_of(*args, **kwargs), len(arg_ids)) if key_of else -1
            span = [name_id, 0.0, 0.0, stack[-1] if stack else -1, arg]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, modules: dict) -> None:
        """Wrap every target and rebind the wrapper in every module that binds it.

        ``modules`` maps a short module name ("craig") to the module.
        """
        for module, func, _fields in TARGETS:
            fn = getattr(modules.get(module), func, None)
            if fn is None:
                continue
            name = f"{module}.{func}"
            traced = self.wrap(name, fn, ARG_KEYS.get(name))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, traced)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def layer_metrics(names: list[str], spans: list[list]) -> dict[str, float | int]:
    """Per-layer metrics from a span list, zero for functions never called."""
    child_time = [0.0] * len(spans)
    for _name, start, end, parent, _arg in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats: dict[str, dict] = {}
    for sid, (name_id, start, end, parent, arg) in enumerate(spans):
        st = stats.setdefault(
            names[name_id], {"calls": 0, "s": 0.0, "self_s": 0.0, "distinct_args": set()}
        )
        st["calls"] += 1
        st["self_s"] += end - start - child_time[sid]
        anc = parent
        while anc >= 0 and spans[anc][0] != name_id:
            anc = spans[anc][3]
        if anc < 0:
            st["s"] += end - start
        if arg >= 0:
            st["distinct_args"].add(arg)
    out: dict[str, float | int] = {}
    for module, func, fields in TARGETS:
        st = stats.get(f"{module}.{func}", {})
        for field in fields:
            value = st.get(field, 0 if UNITS[field] == "count" else 0.0)
            out[f"{module}.{func}.{field}"] = len(value) if isinstance(value, set) else value
    return out
