"""Per-layer tracing of the essdim modules, from outside the package.

``Tracer.install`` wraps the public functions listed in TRACED.  Each wrapper
is installed by rebinding the name in every loaded ``essdim`` module that
holds the function: ``act`` sits in permgroup, bounds, constructions, genfree
and cli, and ``orbit`` also sits in cli as ``orbit_of``.  ``restore`` puts
every original object back.

A span's ``.s`` is inclusive time (none of the traced functions recurses, so
no time is counted twice), ``.self_s`` subtracts the time spent in nested
wrapped calls, and ``.calls`` counts calls.  Hooks add counts measured where
the work happens.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from time import perf_counter

# (module, function, span)
TRACED = (
    ("permgroup", "act", "permgroup.act"),
    ("permgroup", "orbit", "permgroup.orbit"),
    ("permgroup", "sylow_subgroup", "permgroup.sylow_subgroup"),
    ("permgroup", "center_order_p_elements", "permgroup.center_order_p_elements"),
    ("lattice", "rank_mod_p", "lattice.rank_mod_p"),
    ("lattice", "smith_normal_form", "lattice.smith_normal_form"),
    ("lattice", "spans", "lattice.spans"),
    ("lattice", "kernel_generators_mod", "lattice.kernel_generators_mod"),
    ("bounds", "orbit_decomposition", "bounds.orbit_decomposition"),
    ("bounds", "min_invariant_generating_size", "bounds.search"),
    ("bounds", "naive_min_invariant_generating_size", "bounds.naive"),
    ("bounds", "naive_min_by_subsets", "bounds.naive"),
    ("constructions", "build_plan", "constructions.build_plan"),
    ("constructions", "permute_coefficients", "constructions.permute_coefficients"),
    ("constructions", "kernel_witness", "constructions.kernel_witness"),
    ("genfree", "check_lemma34", "genfree.check_lemma34"),
    ("genfree", "kernel_action_faithful", "genfree.kernel_action_faithful"),
    ("genfree", "check_lemma32", "genfree.check_lemma32"),
    ("edcalc", "ed_value", "edcalc.ed_value"),
    ("cli", "main", "cli.main"),
)

# (name, unit, better) of the per-layer metrics read from a traced pass, each
# group with the end-to-end metric it should move and where.
LAYER_METRICS = (
    # wall_s on certify, through the ed calls; on search only (3,3,81) uses it
    ("permgroup.act.calls", "count", "lower"),
    ("permgroup.act.s", "s", "lower"),
    ("permgroup.orbit.s", "s", "lower"),
    ("permgroup.orbit.elements", "count", "lower"),
    ("permgroup.sylow_subgroup.s", "s", "lower"),
    ("permgroup.center_order_p_elements.s", "s", "lower"),
    # wall_s on search; certify never calls it
    ("lattice.rank_mod_p.calls", "count", "lower"),
    ("lattice.rank_mod_p.s", "s", "lower"),
    ("lattice.rank_mod_p.vectors", "count", "lower"),
    # wall_s and peak_rss_mb on certify; small on search
    ("lattice.smith_normal_form.calls", "count", "lower"),
    ("lattice.smith_normal_form.s", "s", "lower"),
    ("lattice.smith_normal_form.cells", "count", "lower"),
    ("lattice.spans.s", "s", "lower"),
    ("lattice.spans.true_frac", "frac", "higher"),
    ("lattice.kernel_generators_mod.s", "s", "lower"),
    # wall_s on search, except bounds.naive.s: wall_s on reproduce
    ("bounds.orbit_decomposition.s", "s", "lower"),
    ("bounds.search.s", "s", "lower"),
    ("bounds.search.self_s", "s", "lower"),
    ("bounds.search.nodes", "count", "lower"),
    ("bounds.search.orbits", "count", "lower"),
    ("bounds.search.rank_calls_per_node", "calls/node", "lower"),
    ("bounds.naive.s", "s", "lower"),
    # wall_s on certify
    ("constructions.build_plan.s", "s", "lower"),
    ("constructions.permute_coefficients.calls", "count", "lower"),
    ("constructions.permute_coefficients.s", "s", "lower"),
    ("constructions.kernel_witness.s", "s", "lower"),
    ("genfree.check_lemma34.s", "s", "lower"),
    ("genfree.kernel_action_faithful.s", "s", "lower"),
    ("genfree.check_lemma32.s", "s", "lower"),
    # a few large calls on certify, about 200 small ones on reproduce
    ("edcalc.ed_value.calls", "count", "lower"),
    ("edcalc.ed_value.s", "s", "lower"),
    # wall_s on reproduce, and setup_s
    ("cli.main.self_s", "s", "lower"),
)

# Counts that must repeat exactly between two traced passes of one workload.
REPEATABLE = ("bounds.search.nodes", "permgroup.act.calls", "lattice.rank_mod_p.calls",
              "lattice.smith_normal_form.cells")


def _orbit_elements(values, args, result, token):
    values["permgroup.orbit.elements"] += len(result)


def _rank_vectors(values, args, result, token):
    values["lattice.rank_mod_p.vectors"] += len(args[0])


def _snf_cells(values, args, result, token):
    values["lattice.smith_normal_form.cells"] += args[0].rows * args[0].cols


def _spans_true(values, args, result, token):
    values["lattice.spans.true"] += bool(result)


def _search_start(values):
    return values["lattice.rank_mod_p.calls"]


def _search_counts(values, args, result, token):
    # only searches that return count: a refused search reports no nodes
    values["bounds.search.nodes"] += result.nodes_explored
    values["bounds.search.orbits"] += result.orbit_count
    values["bounds.search.rank_calls"] += values["lattice.rank_mod_p.calls"] - token


# span -> (before, after)
HOOKS = {
    "permgroup.orbit": (None, _orbit_elements),
    "lattice.rank_mod_p": (None, _rank_vectors),
    "lattice.smith_normal_form": (None, _snf_cells),
    "lattice.spans": (None, _spans_true),
    "bounds.search": (_search_start, _search_counts),
}


class Tracer:
    """Collects span times and counts while installed."""

    def __init__(self) -> None:
        self.values: Counter = Counter()
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "essdim" or name.startswith("essdim.")]
        for module, function, span in TRACED:
            original = getattr(sys.modules[f"essdim.{module}"], function)
            wrapper = self._wrap(span, original, *HOOKS.get(span, (None, None)))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, original))

    def restore(self) -> None:
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def _wrap(self, span, fn, before, after):
        values, stack = self.values, self._stack
        calls_key, s_key, self_key = f"{span}.calls", f"{span}.s", f"{span}.self_s"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = before(values) if before else None
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                nested = stack.pop()
                values[calls_key] += 1
                values[s_key] += dt
                values[self_key] += dt - nested
                if stack:
                    stack[-1] += dt
            if after:
                after(values, args, result, token)
            return result
        return wrapper

    def metrics(self) -> dict:
        """Every LAYER_METRICS value; spans never entered read 0."""
        v = self.values
        out = {name: v[name] for name, _, _ in LAYER_METRICS}
        out["lattice.spans.true_frac"] = (
            v["lattice.spans.true"] / v["lattice.spans.calls"] if v["lattice.spans.calls"] else 0.0)
        out["bounds.search.rank_calls_per_node"] = (
            v["bounds.search.rank_calls"] / v["bounds.search.nodes"]
            if v["bounds.search.nodes"] else 0.0)
        return out
