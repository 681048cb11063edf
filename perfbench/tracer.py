"""Span tracing and work counters for the nbhd layers, from outside the package.

`Tracer.install()` replaces every public function of the layer modules
with a wrapper, both where the function is defined and wherever another
layer module bound it by `from ... import`.  A wrapper records one span
(name, start, end, parent) per call while tracing is on, folds recursive
calls of the same function into the outer span, and adds the call's
duration minus its child spans to its layer's self time.  Functions that
run once per row, element or relabeling inside a layer's loop are left
unwrapped (PER_ROW), so spans mark layer boundaries only.

Work counters are computed by hooks from the arguments and results of the
wrapped calls; the module docstring of run.py lists what each one counts.
"""

from __future__ import annotations

import importlib
import inspect
import math
import types
from collections import Counter
from time import perf_counter_ns

LAYER_MODULES = {
    "cli": "nbhd.cli",
    "formulas": "nbhd.formulas",
    "evaluate": "nbhd.evaluate",
    "kernels": None,  # the module nbhd._backend routes to
    "bax": "nbhd.bax",
    "search": "nbhd.search",
    "classes": "nbhd.classes",
    "duality": "nbhd.duality",
    "genframe": "nbhd.genframe",
    "core": "nbhd.core",
}
LAYERS = tuple(LAYER_MODULES)

# Called once per row, element or relabeling inside a layer's own loop.
PER_ROW = {
    "kernels": {"eval_membership"},
    "evaluate": {"eval_box_free", "eval_formula", "theta_t_member", "assignment_at"},
    "core": {"full_mask", "check_subset", "check_family", "box_n", "check_width", "effective_cap"},
    "formulas": {"bot", "disj", "implies", "iff", "famask_is_principal"},
    "classes": {
        "family_is_up_closed",
        "family_is_convex",
        "family_complement",
        "family_is_pair_intersection_closed",
        "family_is_filter",
        "family_is_contingency",
        "family_is_kappa_complete",
    },
    "search": {"apply_perm_mask", "relabel_frame"},
    "genframe": {"box_in"},
}

COUNTERS = (
    "kernels.filter_famasks",
    "kernels.filter_hits",
    "kernels.filter_hit_ratio",
    "kernels.upset_results",
    "evaluate.membership_rows",
    "kernels.refute_calls",
    "kernels.refute_assignments",
    "kernels.refute_full_sweeps",
    "search.target_checks",
    "search.canonical_calls",
    "search.relabelings",
    "search.canonical_ratio",
    "core.families_built",
    "cli.stdout_bytes",
)


def _family_filter(c, args, kwargs, result):
    start, stop = args[0], args[1]
    c["kernels.filter_famasks"] += stop - start
    c["kernels.filter_hits"] += len(result)


def _upset_enumerate(c, args, kwargs, result):
    c["kernels.upset_results"] += len(result)


def _algebra_refute(c, args, kwargs, result):
    n, n_vars = args[1], args[4]
    start = args[5] if len(args) > 5 else kwargs.get("start", 0)
    stop = args[6] if len(args) > 6 else kwargs.get("stop")
    total = (1 << n) ** n_vars
    stop = total if stop is None else min(stop, total)
    c["kernels.refute_calls"] += 1
    if result < 0:
        c["kernels.refute_full_sweeps"] += 1
        c["kernels.refute_assignments"] += max(0, stop - start)
    else:
        c["kernels.refute_assignments"] += result - start + 1


def _compile_membership(c, args, kwargs, result):
    c["evaluate.membership_rows"] += result.n_rows


def _canonical_form(c, args, kwargs, result):
    frame = args[0]
    c["search.canonical_calls"] += 1
    c["search.relabelings"] += math.factorial(frame.n)
    c["search.canonical_inputs"] += result.key() == frame.key()


def _target_check(c, args, kwargs, result):
    c["search.target_checks"] += 1


def _family_built(c, args, kwargs, result):
    c["core.families_built"] += 1


# (layer, function) -> hook, for every call site.
HOOKS = {
    ("kernels", "family_filter"): _family_filter,
    ("kernels", "upset_enumerate"): _upset_enumerate,
    ("kernels", "algebra_refute"): _algebra_refute,
    ("evaluate", "compile_membership"): _compile_membership,
    ("search", "canonical_form"): _canonical_form,
    ("core", "family_from_famask"): _family_built,
}
# (call-site layer, layer, function) -> hook, for calls made from one layer.
SITE_HOOKS = {
    ("search", "evaluate", "find_refuting_assignment"): _target_check,
}


def layer_modules() -> dict[str, types.ModuleType]:
    """Layer name -> module object, kernels as chosen by nbhd._backend."""
    out = {}
    for layer, name in LAYER_MODULES.items():
        if name is None:
            out[layer] = importlib.import_module("nbhd._backend").kernels
        else:
            out[layer] = importlib.import_module(name)
    return out


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.keep_spans = False
        self.spans: list[tuple[int, str, int, int, int]] = []
        self._stack: list[list[int]] = []  # [span id, child ns] per open span
        self._next_id = 0
        self.reset()

    def reset(self) -> None:
        """Start a fresh pass: zero the per-layer tallies and counters."""
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()

    def install(self) -> int:
        """Wrap the layer functions in place; returns the number wrapped."""
        modules = layer_modules()
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        wrapped = 0
        for site, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                if not isinstance(inspect.unwrap(obj), types.FunctionType):
                    continue
                layer = layer_of.get(getattr(obj, "__module__", None))
                name = getattr(obj, "__name__", "")
                if layer is None or name.startswith("_") or name in PER_ROW.get(layer, ()):
                    continue
                hook = SITE_HOOKS.get((site, layer, name)) or HOOKS.get((layer, name))
                setattr(mod, attr, self._wrap(obj, layer, f"{layer}.{name}", hook))
                wrapped += 1
        return wrapped

    def _wrap(self, fn, layer: str, name: str, hook):
        tracer = self
        depth = [0]

        def traced(*args, **kwargs):
            if not tracer.active or depth[0]:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            depth[0] += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                depth[0] -= 1
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.calls[layer] += 1
                tracer.self_ns[layer] += end - start - frame[1]
                if tracer.keep_spans:
                    tracer.spans.append((span_id, name, start, end, parent))
            if hook is not None:
                hook(tracer.counters, args, kwargs, result)
            return result

        return traced

    def pass_counts(self) -> dict[str, float]:
        """Calls per layer and work counters of the current pass; these
        must repeat exactly for the same inputs."""
        out: dict[str, float] = {f"{layer}.calls": self.calls[layer] for layer in LAYERS}
        c = self.counters
        for key in COUNTERS:
            out[key] = c[key]
        famasks = c["kernels.filter_famasks"]
        out["kernels.filter_hit_ratio"] = c["kernels.filter_hits"] / famasks if famasks else 0.0
        calls = c["search.canonical_calls"]
        out["search.canonical_ratio"] = c["search.canonical_inputs"] / calls if calls else 0.0
        return out

    def pass_self_s(self) -> dict[str, float]:
        return {f"{layer}.self_s": self.self_ns[layer] / 1e9 for layer in LAYERS}
