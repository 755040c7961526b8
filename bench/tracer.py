"""Outside-in tracing of the averager modules, installed at run time.

Nothing under src/ is edited. install() replaces module attributes of
averager.cli, averager.shooting and averager.averaging (and shooting's
solve_ivp handle) with timing wrappers, and jerk_standard_form with a
version whose StandardFormSystem callables count the theta-nodes they
evaluate. Calls between the modules go through those attributes, so every
call into a public function of a layer is seen.

Calls that happen once per right-hand-side evaluation or per quadrature
node set (jerk, closed_form, normal_form callables) are leaf calls: they
are counted and timed, and their time is charged to the enclosing span,
but they are not stored as spans. All other calls are spans
(name, start, end, parent, operation id), kept in memory and written out
when the run ends. A span's self time is its duration minus the time its
child spans and leaf calls cover.
"""

from __future__ import annotations

import dataclasses
import inspect
import logging
import re
import statistics
import sys
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# private functions that are still layer boundaries worth a span
_PRIVATE_SPANS = {"_write_summary", "_write_trace", "_newton_return"}

# layers whose functions are cheap and called per RHS evaluation or per
# grid point: counted, timed, not stored as spans
_LEAF_LAYERS = {"jerk", "closed_form", "normal_form"}

_SEED_TAG = re.compile(r"converged from (\S+) start")
SEED_CANDIDATES = ("warm-start", "section-image", "alternate")


def _points(z) -> int:
    """Number of (r, w) points in an argument that may carry a batch axis."""
    return max(1, np.size(z) // 2)


class _CandidateHandler(logging.Handler):
    """Counts which seed candidate each converged orbit started from."""

    def __init__(self, counts: Counter):
        super().__init__(logging.INFO)
        self.counts = counts

    def emit(self, record):
        match = _SEED_TAG.search(record.getMessage())
        if match:
            self.counts[f"shooting.seed_candidate.{match.group(1)}"] += 1


class Tracer:
    """Spans and counters of one traced pass over a workload."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.stack: list[int] = []
        self.leaf_cover: dict[int, float] = defaultdict(float)
        self.leaf_time: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.op = -1

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, on_result=None):
        spans, stack = self.spans, self.stack

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            self.counts[name + ".calls"] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def leaf(self, name, fn, count=None):
        stack = self.stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - start
                self.leaf_time[name] += dt
                if stack:
                    self.leaf_cover[stack[-1]] += dt
                self.counts[name + ".calls"] += 1
                if count is not None:
                    self.counts[count[0]] += count[1](args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks ------------------------------------------------------------

    def _in_stack(self, name) -> bool:
        return any(self.spans[i][0] == name for i in self.stack)

    def _on_solve(self, sol, args, kwargs):
        nfev = int(getattr(sol, "nfev", 0))
        self.counts["shooting.integrator_steps"] += max(len(sol.t) - 1, 0)
        self.counts["shooting.rhs_evals"] += nfev
        if self._in_stack("shooting.monodromy"):
            self.counts["shooting.monodromy_rhs_evals"] += nfev

    def _on_average(self, name):
        def hook(result, args, kwargs):
            z = args[1] if len(args) > 1 else kwargs.get("z")
            self.counts[name + ".points"] += _points(z)
        return hook

    def _on_located(self, result, args, kwargs):
        self.counts["shooting.located"] += 1

    def _on_find_roots(self, result, args, kwargs):
        self.counts["averaging.find_roots.roots"] += len(result)

    def instrument_system(self, system):
        """Copy of a StandardFormSystem whose f1, f2, df1 count theta-nodes."""
        def nodes(args):
            return np.size(args[1]) * _points(args[0])

        fields = {}
        for key in ("f1", "f2", "df1"):
            fn = getattr(system, key)
            if fn is not None:
                fields[key] = self.leaf(f"normal_form.{key}", fn,
                                        (f"normal_form.{key}_nodes", nodes))
        return dataclasses.replace(system, **fields)

    # -- installation -----------------------------------------------------

    def _wrapper_for(self, fn):
        layer = fn.__module__.rpartition(".")[2]
        name = f"{layer}.{fn.__name__}"
        if fn.__name__ == "jerk_standard_form":
            return self.span(name, lambda *a, **k: self.instrument_system(
                fn(*a, **k)))
        if layer in _LEAF_LAYERS:
            return self.leaf(name, fn)
        hooks = {
            "averaging.average_first": self._on_average(name),
            "averaging.average_second": self._on_average(name),
            "averaging.find_roots": self._on_find_roots,
            "shooting.shoot_orbit": self._on_located,
        }
        return self.span(name, fn, hooks.get(name))

    def install(self, modules) -> None:
        """Wrap the averager functions reachable from each module."""
        patched = self._patched = []

        def patch(owner, key, value, setter):
            patched.append((owner, key, value, setter))
            setter(owner, key, self._wrapper_for(value))

        for module in modules:
            for key, value in list(vars(module).items()):
                if (inspect.isfunction(value)
                        and value.__module__.startswith("averager.")
                        and (not key.startswith("_") or key in _PRIVATE_SPANS)):
                    patch(module, key, value, setattr)
            commands = getattr(module, "_COMMANDS", None)
            if isinstance(commands, dict):
                for key, value in list(commands.items()):
                    patch(commands, key, value, dict.__setitem__)
        # the integrator boundary: shooting's handle and, for a lazy import
        # inside shooting, the scipy.integrate attribute it would read
        owners = [m for m in modules if hasattr(m, "solve_ivp")]
        if "scipy.integrate" in sys.modules:
            owners.append(sys.modules["scipy.integrate"])
        for owner in owners:
            original = owner.solve_ivp
            patched.append((owner, "solve_ivp", original, setattr))
            setattr(owner, "solve_ivp",
                    self.span("shooting.solve_ivp", original, self._on_solve))
        logger = logging.getLogger("averager.shooting")
        handler = _CandidateHandler(self.counts)
        saved = (logger.level, logger.propagate)
        logger.addHandler(handler)
        logger.setLevel(logging.INFO)
        logger.propagate = False
        self._logger_state = (logger, handler, saved)

    def restore(self) -> None:
        """Undo install()."""
        for owner, key, original, setter in reversed(self._patched):
            setter(owner, key, original)
        logger, handler, (level, propagate) = self._logger_state
        logger.removeHandler(handler)
        logger.setLevel(level)
        logger.propagate = propagate

    # -- results ----------------------------------------------------------

    def layer_metrics(self, wall_s: float, fun_evals: int) -> dict:
        """Per-layer numbers of this pass; wall_s is the pass's op time."""
        spans = self.spans
        dur = [end - start for _, start, end, _, _ in spans]
        cover = [self.leaf_cover.get(i, 0.0) for i in range(len(spans))]
        for i, span in enumerate(spans):
            if span[3] >= 0:
                cover[span[3]] += dur[i]
        total = defaultdict(float)
        self_time = defaultdict(float)
        outermost = defaultdict(float)
        durations = defaultdict(list)
        for i, (name, _, _, parent, _) in enumerate(spans):
            layer = name.partition(".")[0]
            total[name] += dur[i]
            durations[name].append(dur[i])
            self_time[layer] += dur[i] - cover[i]
            while parent >= 0 and spans[parent][0].partition(".")[0] != layer:
                parent = spans[parent][3]
            if parent < 0:
                outermost[layer] += dur[i]
        for name, t in self.leaf_time.items():
            self_time[name.partition(".")[0]] += t

        c = self.counts
        located = c["shooting.located"]
        attempts = c["shooting._newton_return.calls"] or c["shooting.shoot_orbit.calls"]
        roots = c["averaging.find_roots.roots"]
        first_pts = c["averaging.average_first.points"]
        second_pts = c["averaging.average_second.points"]
        shoot_times = durations["shooting.shoot_orbit"]
        metrics = {
            "shooting.return_map_calls": c["shooting.poincare_return.calls"],
            "shooting.return_map_calls_per_orbit":
                c["shooting.poincare_return.calls"] / located if located else 0.0,
            "shooting.return_map_s": total["shooting.poincare_return"],
            "shooting.solve_ivp_calls": c["shooting.solve_ivp.calls"],
            "shooting.integrator_steps": c["shooting.integrator_steps"],
            "shooting.rhs_evals": c["shooting.rhs_evals"],
            "shooting.shoot_orbit_s.p50":
                statistics.median(shoot_times) if shoot_times else 0.0,
            "shooting.monodromy_s": total["shooting.monodromy"],
            "shooting.monodromy_rhs_evals": c["shooting.monodromy_rhs_evals"],
            "shooting.period_trace_calls": c["shooting.period_trace.calls"],
            "shooting.period_trace_s": total["shooting.period_trace"],
            "shooting.located_per_attempt":
                located / attempts if attempts else 0.0,
        }
        for tag in SEED_CANDIDATES:
            key = f"shooting.seed_candidate.{tag}"
            metrics[key] = c[key]
        metrics.update({
            "shooting.wall_share": outermost["shooting"] / wall_s,
            "averaging.average_first_us_per_point":
                1e6 * total["averaging.average_first"] / first_pts
                if first_pts else 0.0,
            "averaging.average_second_us_per_point":
                1e6 * total["averaging.average_second"] / second_pts
                if second_pts else 0.0,
            "averaging.self_s": self_time["averaging"],
            "averaging.find_roots_s": total["averaging.find_roots"],
            "averaging.fun_evals_per_root": fun_evals / roots if roots else 0.0,
            "averaging.wall_share": outermost["averaging"] / wall_s,
            "normal_form.f1_nodes": c["normal_form.f1_nodes"],
            "normal_form.f2_nodes": c["normal_form.f2_nodes"],
            "normal_form.df1_nodes": c["normal_form.df1_nodes"],
            "normal_form.self_s": self_time["normal_form"],
            "jerk.vector_field_calls": c["jerk.vector_field.calls"],
            "jerk.jacobian_at_calls": c["jerk.jacobian_at.calls"],
            "jerk.self_s": self_time["jerk"],
            "closed_form.calls": sum(v for k, v in c.items()
                                     if k.startswith("closed_form.")),
            "closed_form.self_s": self_time["closed_form"],
            "config.self_s": self_time["config"],
            "cli.commands": c["cli.main.calls"],
            "cli.write_s": total["cli._write_summary"] + total["cli._write_trace"],
            "cli.self_s": self_time["cli"],
        })
        return metrics

    def dump_spans(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"names": names,
                "spans": [[index[n], round(s, 9), round(e, 9), p, op]
                          for n, s, e, p, op in self.spans]}
