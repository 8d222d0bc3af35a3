"""Span tracer that measures modecast's layers from outside the package.

It replaces public functions with wrappers through their module attributes
(``vmd.vmd_decompose``, ``garch.fit``, ``neural.train``, ...), so nothing
under ``src/`` changes.  The pipeline reaches every wrapped function through
a module attribute or a module-global name, so the wrappers see every call.

A span records name, start, end, parent span and the id of the set-up or op
it belongs to.  Hot inner functions (``garch.log_likelihood``) record counts
only.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
from collections import defaultdict
from pathlib import Path

from modecast import data, garch, neural, persist, pipeline, vmd


class Span:
    __slots__ = ("name", "start", "end", "parent", "op_id", "attrs", "child_s")

    def __init__(self, name, parent, op_id):
        self.name = name
        self.parent = parent
        self.op_id = op_id
        self.attrs = {}
        self.child_s = 0.0  # time covered by direct child spans
        self.start = self.end = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def to_dict(self, index: int) -> dict:
        return {"id": index, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "op": self.op_id, **self.attrs}


class Tracer:
    """Collects spans and counts while installed; `op_id` names the unit of work."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.op_id = "setup-0"
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def span(self, module, attr: str, name: str, on_result=None) -> None:
        original = getattr(module, attr, None)
        if original is None:  # gone from the program: the layer records nothing
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            rec = Span(name, parent, self.op_id)
            self.spans.append(rec)
            self._stack.append(len(self.spans) - 1)
            rec.start = self.clock()
            try:
                result = original(*args, **kwargs)
            finally:
                rec.end = self.clock()
                self._stack.pop()
                if parent is not None:
                    self.spans[parent].child_s += rec.duration
            if on_result is not None:
                on_result(rec, result, *args, **kwargs)
            return result

        self._patch(module, attr, wrapper)

    def count(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.counts[(self.op_id, name)] += 1
            return original(*args, **kwargs)

        self._patch(module, attr, wrapper)

    def _patch(self, module, attr, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def install_modecast(self) -> None:
        """Wrap the layer boundaries of every module on the measured paths."""
        self.span(vmd, "vmd_decompose", "vmd.decompose", _vmd_facts)
        self.span(vmd, "dft", "vmd.dft")
        self.span(garch, "fit", "garch.fit", _garch_facts)
        self.count(garch, "log_likelihood", "garch.loglik_evals")
        self.span(garch, "step_sigma2", "garch.step")
        self.span(neural, "train", "neural.train", _train_facts)
        self.span(neural, "backward", "neural.backward")
        self.span(neural, "adam_step", "neural.adam")
        self.span(neural, "clip_gradients", "neural.clip")
        self.span(neural, "forward", "neural.forward")
        self.span(pipeline, "compare_models", "pipeline.compare_models")
        self.span(pipeline, "fit_forecaster", "pipeline.fit_forecaster")
        self.span(pipeline, "rolling_forecast", "pipeline.rolling_forecast")
        self.span(pipeline, "build_windows", "pipeline.build_windows")
        self.span(persist, "save_forecaster", "persist.save", _save_facts)
        self.span(persist, "load_forecaster", "persist.load")
        self.span(data, "load_csv", "data.load_csv")

    # -- reduction --------------------------------------------------------

    def op_counts(self, op_id: str) -> dict[str, int]:
        """Deterministic counts of one op; two runs of one op must agree exactly."""
        spans = [s for s in self.spans if s.op_id == op_id]
        return {
            "garch.loglik_evals": self.counts.get((op_id, "garch.loglik_evals"), 0),
            "garch.fit_calls": sum(s.name == "garch.fit" for s in spans),
            "neural.backward_calls": sum(s.name == "neural.backward" for s in spans),
            "neural.forward_calls": sum(s.name == "neural.forward" for s in spans),
            "vmd.iterations": sum(s.attrs["iterations"] for s in spans
                                  if s.name == "vmd.decompose"),
        }

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer totals for one set-up plus one op.

        Spans of the set-up phase are divided by the number of set-ups traced
        and spans of ops by the number of ops traced, so values do not depend
        on how many ops fitted in the run.  ``*_ms`` values are per call.
        """
        units = {s.op_id for s in self.spans} | {op for op, _ in self.counts}
        n_setup = sum(u.startswith("setup") for u in units) or 1
        n_op = sum(u.startswith("op") for u in units) or 1

        def per_unit(pairs) -> float:
            """Sum (op_id, value) pairs per phase, then divide by that phase's units."""
            setup = math.fsum(v for op, v in pairs if op.startswith("setup"))
            ops = math.fsum(v for op, v in pairs if not op.startswith("setup"))
            return setup / n_setup + ops / n_op

        by_name: dict[str, list[Span]] = defaultdict(list)
        for s in self.spans:
            by_name[s.name].append(s)

        def calls(name):
            return per_unit([(s.op_id, 1) for s in by_name[name]])

        def busy(name, pick=None):
            return per_unit([(s.op_id, s.duration) for s in by_name[name]
                             if pick is None or pick(s)])

        def per_call_ms(name):
            spans = by_name[name]
            return 1e3 * sum(s.duration for s in spans) / len(spans) if spans else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        train, fits, decs = by_name["neural.train"], by_name["garch.fit"], by_name["vmd.decompose"]
        m = {
            "neural.train_calls": calls("neural.train"),
            "neural.train_s": busy("neural.train"),
        }
        for cell in ("rnn", "gru", "lstm"):
            m[f"neural.train_s.{cell}"] = busy("neural.train", lambda s, c=cell: s.attrs["cell"] == c)
        m.update({
            "neural.train_windows_per_s": ratio(sum(s.attrs["windows"] for s in train),
                                                sum(s.duration for s in train)),
            "neural.backward_calls": calls("neural.backward"),
            "neural.backward_ms": per_call_ms("neural.backward"),
            "neural.adam_s": busy("neural.adam"),
            "neural.clip_s": busy("neural.clip"),
            "neural.train_self_s": per_unit([(s.op_id, s.self_s) for s in train]),
            "neural.forward_calls": calls("neural.forward"),
            "neural.forward_ms": per_call_ms("neural.forward"),
            "neural.final_loss": ratio(sum(s.attrs["final_loss"] for s in train), len(train)),
            "garch.fit_calls": calls("garch.fit"),
            "garch.fit_s": busy("garch.fit"),
            "garch.loglik_evals": per_unit([(op, n) for (op, name), n in self.counts.items()
                                            if name == "garch.loglik_evals"]),
            "garch.unique_fit_ratio": _unique_ratio(fits),
            "garch.converged_ratio": ratio(sum(s.attrs["converged"] for s in fits), len(fits)),
            "garch.fallback_count": per_unit([(s.op_id, s.attrs["fallback"]) for s in fits]),
            "garch.differenced_count": per_unit([(s.op_id, s.attrs["differenced"]) for s in fits]),
            "garch.step_calls": calls("garch.step"),
            "garch.step_s": busy("garch.step"),
            "vmd.decompose_s": busy("vmd.decompose"),
            "vmd.iterations": per_unit([(s.op_id, s.attrs["iterations"]) for s in decs]),
            "vmd.converged": ratio(sum(s.attrs["converged"] for s in decs), len(decs)),
            "vmd.dft_s": busy("vmd.dft"),
            "pipeline.fit_forecaster_s": busy("pipeline.fit_forecaster"),
            "pipeline.rolling_forecast_s": busy("pipeline.rolling_forecast"),
            "pipeline.build_windows_s": busy("pipeline.build_windows"),
            "pipeline.self_s": per_unit([(s.op_id, s.self_s) for s in self.spans
                                         if s.name.startswith("pipeline.")]),
            "persist.save_s": busy("persist.save"),
            "persist.load_s": busy("persist.load"),
            "persist.model_bytes": ratio(sum(s.attrs["bytes"] for s in by_name["persist.save"]),
                                         len(by_name["persist.save"])),
            "data.load_csv_s": busy("data.load_csv"),
        })
        return m


def _unique_ratio(fits: list[Span]) -> float:
    """Distinct (training segment, order) inputs over fits, averaged over units."""
    per_unit: dict[str, list[str]] = defaultdict(list)
    for s in fits:
        per_unit[s.op_id].append(s.attrs["key"])
    ratios = [len(set(keys)) / len(keys) for keys in per_unit.values()]
    return sum(ratios) / len(ratios) if ratios else 0.0


def _vmd_facts(span, result, signal, config):
    span.attrs["iterations"] = result.iterations
    span.attrs["converged"] = bool(result.final_delta < config.tol)


def _garch_facts(span, result, residual_source, spec, *_args, **_kwargs):
    x = getattr(residual_source, "values", residual_source)
    digest = hashlib.sha256(x.tobytes()).hexdigest()
    span.attrs.update(key=f"{digest}:{spec.k},{spec.l}", converged=result.converged,
                      fallback=result.used_rolling_fallback,
                      differenced=result.used_differencing)


def _train_facts(span, result, inputs, targets, config, train_cfg=neural.TrainConfig()):
    _, history = result
    span.attrs.update(cell=config.cell.value, windows=len(inputs) * train_cfg.epochs,
                      final_loss=history[-1] if history else 0.0)


def _save_facts(span, result, forecaster, out_dir):
    span.attrs["bytes"] = sum(p.stat().st_size for p in Path(out_dir).iterdir())
