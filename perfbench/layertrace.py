"""Outside-in layer trace for sdcontrol.

The tracer wraps public functions of the package at every site where they
are bound (the defining module and each module that imported them by
name), so a call made through any import path is recorded. Nothing under
``src/`` is edited. Each wrapped call appends one span
``[name, start, end, parent]`` to an in-memory list; a layer's self time is
its span's duration minus the time covered by its direct child spans.

A target that no longer exists (renamed, deleted, moved) is reported as
absent and simply records nothing, so a later refactor still gets a
benchmark run.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter


def _arg_getter(fn, name):
    """Accessor for argument ``name`` of ``fn`` given (args, kwargs), or None."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if name not in params:
        return None
    pos = params.index(name)

    def get(args, kwargs):
        if name in kwargs:
            return kwargs[name]
        return args[pos] if pos < len(args) else None
    return get


def _tridiagonal_hook(fn):
    getters = [_arg_getter(fn, n) for n in ("sub", "diag", "sup", "rhs")]
    if None in getters:
        return None

    def hook(counters, args, kwargs, result):
        arrays = [g(args, kwargs) for g in getters]
        rhs = arrays[-1]
        shape = getattr(rhs, "shape", ())
        if shape:
            counters["discrete_calc.solve_tridiagonal.rows"] += rhs.size // shape[-1]
        # Distinct data in plus result out, from array sizes (not measured).
        counters["discrete_calc.solve_tridiagonal.computed_bytes"] += (
            sum(getattr(a, "nbytes", 0) for a in arrays) + getattr(result, "nbytes", 0))
    return hook


def _cg_hook(fn):
    def hook(counters, args, kwargs, result):
        if isinstance(result, tuple) and len(result) == 2:
            residuals = result[1]
            counters["hum.conjugate_gradient.iterations"] += len(residuals)
            if len(residuals):
                key = "hum.conjugate_gradient.final_rel_residual"
                counters[key] = max(counters[key], float(residuals[-1]))
    return hook


def _observability_hook(fn):
    def hook(counters, args, kwargs, result):
        counters["inequalities.observability_sample.samples"] += getattr(result, "samples", 0)
    return hook


def _solve_hum_hook(fn):
    def hook(counters, args, kwargs, result):
        bound = getattr(result, "closure_bound", 0.0)
        if bound > 0:
            key = "hum.solve_hum.closure_over_bound"
            counters[key] = max(counters[key], result.closure_error / bound)
    return hook


# (module, attribute path inside it, hook factory counting work at the call).
TARGETS = [
    ("discrete_calc", "solve_tridiagonal", _tridiagonal_hook),
    ("discrete_calc", "solve_drift_implicit", None),
    ("forward_solver", "solve_forward", None),
    ("forward_solver", "Coefficients.validate_dominance", None),
    ("backward_solver", "solve_backward", None),
    ("hum", "gramian_apply", None),
    ("hum", "conjugate_gradient", _cg_hook),
    ("hum", "solve_hum", _solve_hum_hook),
    ("inequalities", "observability_sample", _observability_hook),
    ("inequalities", "solve_w_equation", None),
    ("inequalities", "carleman_terms", None),
    ("inequalities", "h_sweep", None),
    ("mesh", "build_mesh", None),
    ("noise_tree", "build_tree", None),
    ("weights", "build_weights", None),
    ("harness", "build_coefficients", None),
    ("harness", "emit_csv", None),
]


class Tracer:
    """Spans and counters of one traced unit at a time.

    ``install`` patches the targets of a freshly imported package and
    ``uninstall`` restores them; ``take`` hands over the unit's spans and
    counters and starts a new unit.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for module_name, path, hook_factory in TARGETS:
            name = f"{module_name}.{path}"
            owner = getattr(package, module_name, None)
            *owner_path, attr = path.split(".")
            for part in owner_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            hook = hook_factory(original) if hook_factory else None
            wrapper = self._wrap(name, original, hook)
            if isinstance(owner, type):
                sites = [(owner, attr)]
            else:
                sites = [(m, key) for m in modules
                         for key, value in list(vars(m).items()) if value is original]
            for site, key in sites:
                self._patches.append((site, key, original))
                setattr(site, key, wrapper)

    def uninstall(self) -> None:
        for site, key, original in reversed(self._patches):
            setattr(site, key, original)
        self._patches.clear()

    def _wrap(self, name, fn, hook):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end
            if hook is not None:
                hook(counters, args, kwargs, result)
            return result
        return traced

    def begin(self, name: str) -> None:
        """Open a span for benchmark code (the unit or its setup)."""
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, perf_counter(), 0.0, parent])

    def end(self) -> None:
        self.spans[self._stack.pop()][2] = perf_counter()

    def take(self) -> tuple[list[list], dict[str, float]]:
        spans, counters = list(self.spans), dict(self.counters)
        self.spans.clear()
        self.counters.clear()
        return spans, counters


def layer_times(spans: list[list]) -> dict[str, dict[str, float]]:
    """Calls, total time and self time per span name."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        st = stats.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        st["calls"] += 1
        st["total_s"] += end - start
        st["self_s"] += end - start - covered[i]
    return stats
