"""
Layer tracing from outside the program.

The public functions of each layer are wrapped by replacing attributes on
the loaded ``kerrzeno`` module objects, including every module that
re-binds the same function object with ``from .x import f``.  Each call
records a span (id, parent id, name, start, end) in memory; a span's self
time is its duration minus the durations of its child spans.  Nothing in
the program is edited, and ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

# (module, function) pairs timed in the traced run.
TARGETS = (
    ("observed", "run_ensemble"),
    ("observed", "run_trajectory"),
    ("observed", "analytic_final_distribution"),
    ("observed", "survival_density_continuous"),
    ("fock", "displacement_matrix"),
    ("fock", "squeeze_matrix"),
    ("fock", "displaced_seed"),
    ("fock", "identity_resolution_defect"),
    ("fock", "kerr_propagate"),
    ("fock", "mean_a"),
    ("fock", "dichotomic_survival_exact"),
    ("phase_space", "accumulate_covariance"),
    ("phase_space", "step_covariance"),
    ("two_level", "survival_exact"),
    ("two_level", "survival_closed_form"),
    ("two_level", "scaling_sweep"),
    ("experiments", "validate_config"),
    ("experiments", "run_experiment"),
    ("experiments", "envelope_json_dict"),
    ("experiments", "write_csv"),
    ("cli", "main"),
)


def _count_ensemble(counters, bound, result) -> None:
    cfg = bound.arguments["cfg"]
    counters["observed.run_ensemble.trajectories"] += cfg.n_trajectories
    counters["observed.run_ensemble.trajectory_steps"] += (
        cfg.n_trajectories * cfg.params.n_steps
    )


def _count_dim(counters, bound, result) -> None:
    key = "fock.displacement_matrix.dim_max"
    counters[key] = max(counters[key], bound.arguments["dim"])


def _count_rows(counters, bound, result) -> None:
    counters["experiments.rows"] += len(result.rows)


# Counters read from a call's arguments or result.
_HOOKS = {
    "observed.run_ensemble": _count_ensemble,
    "fock.displacement_matrix": _count_dim,
    "experiments.run_experiment": _count_rows,
}


def replace_everywhere(original, replacement) -> list[tuple[object, str, object]]:
    """Bind ``replacement`` wherever a loaded kerrzeno module binds ``original``.

    Returns the (module, attribute, original) triples for ``restore``.
    """
    patched = []
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "kerrzeno" or key.startswith("kerrzeno.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                patched.append((module, attr, original))
    return patched


def restore(patched: list[tuple[object, str, object]]) -> None:
    for module, attr, original in reversed(patched):
        setattr(module, attr, original)


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = _HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[sid] = (sid, parent, name, start, end)
            if hook is not None:
                hook(self.counters, signature.bind(*args, **kwargs), result)
            return result

        return traced

    def install(self) -> None:
        for module_name, func_name in TARGETS:
            original = getattr(sys.modules[f"kerrzeno.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            self._patched += replace_everywhere(original, wrapper)

    def uninstall(self) -> None:
        restore(self._patched)
        self._patched.clear()

    def layer_times(self) -> dict[str, dict[str, float]]:
        """Per function: calls, total (inclusive) and self seconds."""
        child = defaultdict(float)
        for _, parent, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, dict[str, float]] = {
            f"{m}.{f}": {"calls": 0, "total_s": 0.0, "self_s": 0.0} for m, f in TARGETS
        }
        for sid, _, name, start, end in self.spans:
            row = out[name]
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[sid]
        return out

