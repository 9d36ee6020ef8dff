"""Call counting and span recording around the library's public entry points.

Every wrapper is installed where the caller looks the name up: ``evaluation``
binds ``solve_compiled`` and ``compile_problem`` itself, ``objectives`` binds
``unroll_graph`` and ``build_sdf``, ``human_model`` binds ``graph.backward``,
and the solver reaches replay and backward through ``CompiledProblem``
methods.  Counting is always on (it costs one dictionary update per call);
spans are recorded only when tracing is on.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import Counter

from comotion import data, evaluation, human_model, objectives, scenarios

# (owner, attribute, span name); the span name is "<module>.<function>" of
# the function that actually runs, so one layer keeps one name whichever
# module binds it.
ENTRY_POINTS = (
    (evaluation, "evaluate_problem", "evaluation.evaluate_problem"),
    (evaluation, "run_method", "evaluation.run_method"),
    (evaluation, "check_success", "evaluation.check_success"),
    (evaluation, "compute_metrics", "evaluation.compute_metrics"),
    (evaluation, "sample_predictions", "evaluation.sample_predictions"),
    (evaluation, "rank_predictions", "evaluation.rank_predictions"),
    (evaluation, "solve_compiled", "solver.solve_compiled"),
    (evaluation, "compile_problem", "objectives.compile_problem"),
    (evaluation, "forward_kinematics", "kinematics.forward_kinematics"),
    (evaluation, "robot_fk", "robot_model.robot_fk"),
    (evaluation, "scene_sdf", "environment.scene_sdf"),
    (objectives.CompiledProblem, "evaluate", "graph.replay"),
    (objectives.CompiledProblem, "gradient", "graph.backward"),
    (objectives, "unroll_graph", "human_model.unroll_graph"),
    (objectives, "robot_unroll_graph", "robot_model.robot_unroll_graph"),
    (objectives, "build_sdf", "environment.build_sdf"),
    (human_model, "predict", "human_model.predict"),
    (human_model, "encode", "human_model.encode"),
    (human_model, "unroll_decoder", "human_model.unroll_decoder"),
    (human_model, "train", "human_model.train"),
    (human_model, "_evaluate", "human_model.evaluate"),
    (human_model, "backward", "graph.train_backward"),
    (scenarios, "make_crossing_problems", "scenarios.make_crossing_problems"),
    (scenarios, "make_handover_problems", "scenarios.make_handover_problems"),
    (scenarios, "synth_generate", "data.synth_generate"),
    (data, "synth_generate", "data.synth_generate"),
    (data, "split_dataset", "data.split_dataset"),
)

# Results the checks and the solver layer need, kept in untraced runs too.
CAPTURED = {"objectives.compile_problem", "evaluation.run_method", "solver.solve_compiled"}
# Entry points wrapped in untraced runs: the captured ones and the tape passes
# behind the per-instance counts.
COUNTED = CAPTURED | {"graph.replay", "graph.backward", "graph.train_backward"}


class Instrument:
    """Wraps entry points; counts calls, keeps captured results, records spans.

    A span is ``[name, start, end, parent_index, op_id]``; ``op_id`` names the
    benchmark operation (one plan, forecast or training call) it belongs to,
    or ``None`` during set-up.
    """

    def __init__(self, trace: bool):
        self.trace = trace
        self.calls: Counter = Counter()
        self.replay_nodes = 0  # tape nodes replayed inside operations
        self.tape_ops: Counter = Counter()  # op histogram over counted tapes
        self.tapes = 0
        self.captured: dict[str, list] = {}
        self.spans: list[list] = []
        self.op_id = None
        self._stack: list[int] = []
        self._paused = False
        self._restore: list[tuple] = []

    def __enter__(self):
        for owner, attr, name in ENTRY_POINTS:
            if self.trace or name in COUNTED:
                self._wrap(owner, attr, name)
        return self

    def __exit__(self, *exc):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own checks) are neither counted
        nor traced."""
        self._paused = True
        try:
            yield
        finally:
            self._paused = False

    def count_tape(self, tape) -> None:
        """Adds one differentiated tape to the node-type histogram."""
        self.tape_ops.update(tape.ops)
        self.tapes += 1

    def take(self, name: str) -> list:
        """Results captured from ``name`` since the last take."""
        return self.captured.pop(name, [])

    def _wrap(self, owner, attr, name):
        fn = getattr(owner, attr)
        inst = self
        keep = name in CAPTURED

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if inst._paused:
                return fn(*args, **kwargs)
            inst.calls[name] += 1
            if inst.op_id is not None:
                if name == "graph.replay":
                    inst.replay_nodes += len(args[0].tape)
                elif name == "graph.train_backward" and inst.trace:
                    inst.count_tape(args[0])
            if not inst.trace:
                out = fn(*args, **kwargs)
            else:
                spans, stack = inst.spans, inst._stack
                idx = len(spans)
                parent = stack[-1] if stack else -1
                spans.append([name, time.perf_counter(), 0.0, parent, inst.op_id])
                stack.append(idx)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[idx][2] = time.perf_counter()
            if keep:
                inst.captured.setdefault(name, []).append(out)
            return out

        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, fn))

    def span_totals(self, in_ops: bool) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (the span minus
        the time its child spans cover), over the spans of timed operations
        (``in_ops``) or of set-up."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            if (op is not None) != in_ops:
                continue
            row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")
