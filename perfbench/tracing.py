"""Spans around hypchoreo's public calls, recorded from outside the program.

`Tracer.install` replaces module attributes with timing wrappers: every
attribute of a loaded `hypchoreo.*` module that is one of the traced
functions (so `hypchoreo.optimizer.evaluate` as well as
`hypchoreo.action.evaluate`), plus `numpy.linalg.eigh` and
`numpy.fft.ifft`, which the package looks up at call time.  `remove`
puts the originals back.  Nothing under src/ is edited.

A span records name, start, end, parent span, op id and, for `action.*`
spans, the bandwidth K.  `numpy.fft.ifft` is counted, not spanned: each
call adds one to the innermost open span, so `ifft` per evaluation is
measured where the work happens.  Spans stay in memory until `write`.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

import hypchoreo as hc
import hypchoreo.cli  # noqa: F401


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "K", "ifft", "info")

    def __init__(self, name, parent, op, K):
        self.name = name
        self.parent = parent
        self.op = op
        self.K = K
        self.ifft = 0
        self.info = None
        self.start = self.end = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _evaluate_name(args, kwargs):
    config = args[1] if len(args) > 1 else kwargs["config"]
    order = args[2] if len(args) > 2 else kwargs.get("order", 2)
    precise = args[3] if len(args) > 3 else kwargs.get("precise", False)
    suffix = "1p" if order == 1 and precise else str(order)
    return f"action.eval{suffix}", config.K


def _phase_info(result):
    return {"iterations": result.iterations, "converged": bool(result.converged)}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, describe=None, info=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name, K = describe(args, kwargs) if describe else (name, None)
            span = Span(span_name, stack[-1] if stack else None, self.op, K)
            stack.append(len(spans))
            spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(result)
            return result

        return traced

    def _count_ifft(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                spans[stack[-1]].ifft += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, wrapper):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Swap the traced functions for wrappers wherever hypchoreo refers to them."""
        targets = [
            (hc.action.evaluate, self._wrap(hc.action.evaluate, None, describe=_evaluate_name)),
            (hc.optimizer.phase1_bfgs, self._wrap(hc.optimizer.phase1_bfgs, "optimizer.phase1", info=_phase_info)),
            (hc.optimizer.phase2_newton, self._wrap(hc.optimizer.phase2_newton, "optimizer.phase2", info=_phase_info)),
            (hc.optimizer.solve, self._wrap(hc.optimizer.solve, "optimizer.solve")),
            (hc.optimizer.random_seed, self._wrap(hc.optimizer.random_seed, "optimizer.random_seed")),
            (hc.continuation.solve_planar, self._wrap(hc.continuation.solve_planar, "continuation.solve_planar")),
            (hc.continuation.continue_in_R, self._wrap(hc.continuation.continue_in_R, "continuation.continue_in_R")),
            (hc.continuation.planar_limit_diff,
             self._wrap(hc.continuation.planar_limit_diff, "continuation.planar_limit_diff")),
            (hc.verify.verify_all, self._wrap(hc.verify.verify_all, "verify.verify_all")),
            (hc.verify.path_residual, self._wrap(hc.verify.path_residual, "verify.path_residual")),
            (hc.verify.gradient_rel_norm, self._wrap(hc.verify.gradient_rel_norm, "verify.gradient")),
            (hc.solutions.load_bundled, self._wrap(hc.solutions.load_bundled, "solutions.load")),
            (hc.solutions.load_solution, self._wrap(hc.solutions.load_solution, "solutions.load")),
            (hc.solutions.save_solution, self._wrap(hc.solutions.save_solution, "solutions.save")),
            (hc.cli.main, self._wrap(hc.cli.main, "cli.main")),
        ]
        wrapper_of = {id(original): wrapper for original, wrapper in targets}
        modules = [m for key, m in list(sys.modules.items()) if key == "hypchoreo" or key.startswith("hypchoreo.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrapper_of:
                    self._replace(module, attr, wrapper_of[id(value)])
        self._replace(np.linalg, "eigh", self._wrap(np.linalg.eigh, "optimizer.eigh"))
        self._replace(np.fft, "ifft", self._count_ifft(np.fft.ifft))

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON object per span, times in seconds from the first span."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as handle:
            for index, s in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": index, "name": s.name, "start": s.start - origin, "end": s.end - origin,
                    "parent": s.parent, "op": s.op, "K": s.K, "ifft": s.ifft, "info": s.info,
                }) + "\n")

    def layer_metrics(self, first: int) -> dict[str, float]:
        """Per-layer metrics of the spans from index `first` on, which cover one traced cycle.

        Self time is a span's duration minus the durations of its child spans.
        """
        cycle = self.spans[first:]
        child_seconds = [0.0] * len(self.spans)
        children: dict[int, list[Span]] = {}
        for s in cycle:
            if s.parent is not None:
                child_seconds[s.parent] += s.seconds
                children.setdefault(s.parent, []).append(s)

        def select(name):
            return [s for s in cycle if s.name == name]

        out: dict[str, float] = {}
        for order in ("0", "1", "1p", "2"):
            evals = select(f"action.eval{order}")
            out[f"action.eval{order}.calls"] = len(evals)
            out[f"action.eval{order}.s"] = sum(s.seconds for s in evals)
            if order != "1p":
                out[f"action.ifft_per_eval{order}"] = sum(s.ifft for s in evals) / len(evals) if evals else 0.0

        phase1 = [(first + i, s) for i, s in enumerate(cycle) if s.name == "optimizer.phase1"]
        iterations = sum(s.info["iterations"] for _, s in phase1 if s.info)
        values = sum(1 for i, _ in phase1 for c in children.get(i, ()) if c.name == "action.eval0")
        out["optimizer.phase1.s"] = sum(s.seconds for _, s in phase1)
        out["optimizer.phase1.self_s"] = sum(s.seconds - child_seconds[i] for i, s in phase1)
        out["optimizer.phase1.iterations"] = iterations
        out["optimizer.phase1.evals_per_step"] = values / iterations if iterations else 0.0
        out["optimizer.phase1.converged_frac"] = (
            sum(1 for _, s in phase1 if s.info and s.info["converged"]) / len(phase1) if phase1 else 0.0
        )

        # Newton evaluates the value once at the start and once per step; any
        # further value evaluation is a halving of the step.
        phase2 = [(first + i, s) for i, s in enumerate(cycle) if s.name == "optimizer.phase2"]
        steps = sum(s.info["iterations"] for _, s in phase2 if s.info)
        values = sum(1 for i, _ in phase2 for c in children.get(i, ()) if c.name == "action.eval0")
        out["optimizer.phase2.s"] = sum(s.seconds for _, s in phase2)
        out["optimizer.phase2.steps"] = steps
        out["optimizer.phase2.backtracks"] = values - len(phase2) - steps

        for name in ("optimizer.eigh", "continuation.planar_limit_diff"):
            found = select(name)
            out[f"{name}.calls"] = len(found)
            out[f"{name}.s"] = sum(s.seconds for s in found)
        for name in ("verify.verify_all", "verify.path_residual", "verify.gradient",
                     "solutions.load", "solutions.save", "optimizer.random_seed"):
            out[f"{name}.s"] = sum(s.seconds for s in select(name))
        return out
