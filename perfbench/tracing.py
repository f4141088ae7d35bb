"""Call counting and span timing around propfit's public functions.

The tracer replaces, for the duration of a traced run, every module-level
reference to a public function of the nine layer modules with a wrapper
that records a span (function, start, end, parent span). Model callables
(``eval_fn``, ``grad_fn``, ``hess_fn``, ``dx_fn``) are counted, not timed:
``partial_bleach_model`` is wrapped so that the models the CLI builds carry
counting copies of them. Nothing in the package is edited; ``uninstall``
puts every original back.

Spans stay in memory and are written out when the run ends. A span's self
time is its duration minus the time its direct child spans cover. The
tracer assumes a single thread, which ``--threads 1`` guarantees.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import time
from collections import Counter

LAYERS = ("models", "estimators", "equivalent_dose", "asymptotics", "jacobian",
          "simulation", "io", "config", "cli")
MODEL_CALLABLES = ("eval", "grad", "hess", "dx")
# The cli functions that turn results into report text or JSON.
RENDER_FUNCTIONS = ("cli.round_floats", "cli.dump_json", "cli.sim_report_dict",
                    "cli.render_fit_text", "cli.render_sim_text")


class Tracer:
    """Spans and counts for one traced run."""

    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.function"
        self.spans: list[list[int]] = []  # [function id, start ns, end ns, parent index]
        self._stack: list[int] = []
        self.raised: Counter = Counter()  # (qualified name, exception type name)
        self.model_calls: Counter = Counter()  # "eval" / "grad" / "hess" / "dx"
        self.fit_iterations = 0
        self.fit_unconverged = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"propfit.{layer}")
            for name, obj in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{name}", obj)
        for modname, module in list(sys.modules.items()):
            if modname != "propfit" and not modname.startswith("propfit."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patched.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        while self._patched:
            module, name, obj = self._patched.pop()
            setattr(module, name, obj)

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        after = {"estimators.fit": self._observe_fit,
                 "equivalent_dose.partial_bleach_model": self._counted_pair}.get(qualname)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and spans[stack[-1]][0] == fid:
                return fn(*args, **kwargs)  # direct recursion stays inside one span
            index = len(spans)
            spans.append([fid, clock(), 0, stack[-1] if stack else -1])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.raised[(qualname, type(exc).__name__)] += 1
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()
            return after(result) if after is not None else result

        return wrapper

    # -- observers ---------------------------------------------------------

    def _observe_fit(self, result):
        self.fit_iterations += result.iterations
        self.fit_unconverged += not result.converged
        return result

    def _counting(self, kind: str, fn):
        if fn is None:
            return None
        calls = self.model_calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)

        return counted

    def _counted_curve(self, curve):
        return dataclasses.replace(curve, **{
            f"{kind}_fn": self._counting(kind, getattr(curve, f"{kind}_fn"))
            for kind in MODEL_CALLABLES})

    def _counted_pair(self, model):
        return dataclasses.replace(model, curve1=self._counted_curve(model.curve1),
                                   curve2=self._counted_curve(model.curve2))

    # -- results -----------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter]:
        """Calls and self time (ns) per qualified function name."""
        child_ns = [0] * len(self.spans)
        for fid, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        for (fid, start, end, _), children in zip(self.spans, child_ns):
            name = self.names[fid]
            calls[name] += 1
            self_ns[name] += end - start - children
        return calls, self_ns

    def write_spans(self, path) -> None:
        """One line per span: index, function, start ns, end ns, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tfunction\tstart_ns\tend_ns\tparent\n")
            for i, (fid, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[fid]}\t{start}\t{end}\t{parent}\n")

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer metrics, normalised per operation (and per fit where named)."""
        calls, self_ns = self.totals()
        fits = calls["estimators.fit"]

        def per_op(value):
            return value / ops

        def per_fit(value):
            return value / fits if fits else 0.0

        def ms(names):
            return per_op(sum(self_ns[n] for n in names) / 1e6)

        def layer_ms(layer):
            return ms([n for n in self_ns if n.startswith(layer + ".")])

        metrics = {
            "models.eval.calls_per_fit": per_fit(self.model_calls["eval"]),
            "models.grad.calls_per_fit": per_fit(self.model_calls["grad"]),
            "models.hess.calls_per_op": per_op(self.model_calls["hess"]),
            "models.dx.calls_per_op": per_op(self.model_calls["dx"]),
            "estimators.fit.calls_per_op": per_op(fits),
            "estimators.fit.self_ms_per_op": ms(["estimators.fit"]),
            "estimators.fit.iterations_per_fit": per_fit(self.fit_iterations),
            "estimators.fit.unconverged_share": per_fit(
                self.fit_unconverged + sum(v for (n, _), v in self.raised.items()
                                           if n == "estimators.fit")),
            "estimators.equation_residual.calls_per_fit": per_fit(
                calls["estimators.equation_residual"]),
            "equivalent_dose.fit_two_curves.calls_per_op": per_op(
                calls["equivalent_dose.fit_two_curves"]),
            "equivalent_dose.fit_two_curves.self_ms_per_op": ms(
                ["equivalent_dose.fit_two_curves"]),
            "equivalent_dose.solve_gamma.calls_per_op": per_op(
                calls["equivalent_dose.solve_gamma"]),
            "equivalent_dose.solve_gamma.self_ms_per_op": ms(["equivalent_dose.solve_gamma"]),
            "equivalent_dose.solve_gamma.no_bracket_per_op": per_op(
                self.raised[("equivalent_dose.solve_gamma", "NoBracketError")]),
            "equivalent_dose.gamma_bias_se.self_ms_per_op": ms(
                ["equivalent_dose.gamma_bias_se"]),
            "equivalent_dose.joint_bias_cov.self_ms_per_op": ms(
                ["equivalent_dose.joint_bias_cov"]),
            "asymptotics.bias_order2.calls_per_op": per_op(calls["asymptotics.bias_order2"]),
            "asymptotics.cov.calls_per_op": per_op(
                calls["asymptotics.cov_order2"] + calls["asymptotics.cov_ml_exact"]),
            "jacobian.build_jacobian_bundle.calls_per_op": per_op(
                calls["jacobian.build_jacobian_bundle"]),
            "jacobian.build_jacobian_bundle.self_ms_per_op": ms(
                ["jacobian.build_jacobian_bundle"]),
            "simulation.replicate_stream.self_ms_per_op": ms(["simulation.replicate_stream"]),
            "simulation.generate_dataset.self_ms_per_op": ms(["simulation.generate_dataset"]),
            "simulation.redraws_per_op": per_op(
                self.raised[("simulation.generate_dataset", "Rejected")]),
            "simulation.run_study.self_ms_per_op": ms(["simulation.run_study"]),
            "io.read_input_table.self_ms_per_op": ms(["io.read_input_table"]),
            "config.load_config.self_ms_per_op": ms(["config.load_config"]),
            "cli.render.self_ms_per_op": ms(RENDER_FUNCTIONS),
        }
        for layer in LAYERS:
            metrics[f"{layer}.self_ms_per_op"] = layer_ms(layer)
        return metrics
