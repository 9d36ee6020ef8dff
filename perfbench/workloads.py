"""Seeded inputs, the closed-loop operation schedule and the output checks.

Every workload is one caller in a closed loop: the next operation starts when
the previous one ends.  Inputs come only from the workload seed: crossing and
handover problems at the generators' default sizes (20 observed frames, 40
planned frames), the untrained seed-0 default 2x100 GRU and the default
``SolverConfig``.
"""

from __future__ import annotations

import gc
import itertools
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from comotion import data, evaluation, human_model, objectives, robot_model, scenarios
from comotion.human_model import ModelConfig
from comotion.solver import SolverConfig

STATUSES = ("converged", "max-iter", "infeasible", "numeric-failure")

PLAN_INSTANCES = 3  # per family; the schedule cycles when a run outlasts them
FROZEN_METHODS = ("initial", "zerovel")
FORECAST_SAMPLES = 100
# 6 synthetic subjects of 5 records; with the CLI's held-out subject and
# split_dataset's 20% test share this leaves 20 train and 5 test records,
# the train/test mix of the CLI's default 200-record training run
TRAIN_RECORDS = 30
TRAIN_HELD_OUT = "synth5"
TRAIN_EPOCHS = 1
TRAIN_BATCH = 32
SETUP_REPEATS = 5


@dataclass
class Inputs:
    model: human_model.ModelParams | None = None
    instances: list = field(default_factory=list)  # crossing/handover interleaved
    train_records: list = field(default_factory=list)
    test_records: list = field(default_factory=list)
    shortfall: int = 0  # problems the generators did not return


@dataclass
class OpRecord:
    """One timed operation and its exact counts."""

    op: int
    kind: str  # plan | forecast | train
    instance: str
    method: str
    seconds: float
    ok: bool  # returned and passed every check
    raised: bool = False
    error: str = ""
    counts: dict = field(default_factory=dict)


def make_inputs(workload: str, seed: int) -> Inputs:
    """Generate the workload's inputs, initialise the model and warm up."""
    inputs = Inputs()
    if workload == "train":
        records = data.synth_generate(data.SynthConfig(num_trajectories=TRAIN_RECORDS), seed)
        split = data.split_dataset(records, TRAIN_HELD_OUT, seed=seed)
        inputs.train_records = [r.frames for r in split.train]
        inputs.test_records = [r.frames for r in split.test]
        inputs.shortfall = TRAIN_RECORDS - len(records)
        # one batch of real work: fills numpy's and the allocator's caches
        human_model.train(inputs.train_records[:1], ModelConfig(), seed, epochs=1,
                          batch_size=TRAIN_BATCH)
        gc.collect()  # each set-up frees its own tapes, as operations do
        return inputs
    crossing = scenarios.make_crossing_problems(PLAN_INSTANCES, seed)
    handover = scenarios.make_handover_problems(PLAN_INSTANCES, seed)
    inputs.shortfall = 2 * PLAN_INSTANCES - len(crossing) - len(handover)
    inputs.instances = [inst for pair in itertools.zip_longest(crossing, handover)
                        for inst in pair if inst is not None]
    inputs.model = human_model.init_params(ModelConfig(), 0)
    if inputs.instances:
        compiled = objectives.compile_problem(inputs.instances[0].problem, model=inputs.model)
        _, g, h, ev = compiled.evaluate(np.zeros(compiled.n))
        compiled.gradient(np.ones(1 + g.size + h.size), ev)
    gc.collect()
    return inputs


def schedule(workload: str, inputs: Inputs):
    """Endless operation sequence: (kind, instance, method)."""
    if workload == "train":
        return itertools.repeat(("train", None, "train"))
    if workload == "plan-joint":
        return itertools.cycle([step for inst in inputs.instances
                                for step in (("forecast", inst, "sample"),
                                             ("plan", inst, "ours"))])
    # plan-frozen: a first pass gives each instance its forecast and one
    # method, alternating the method per crossing/handover pair; a second pass
    # runs the other method.  So one run's first plans already cover several
    # instances and every family-method pair, which keeps the per-instance
    # spread in line-search work from dominating a run.
    steps = []
    for second in (0, 1):
        for i, inst in enumerate(inputs.instances):
            if not second:
                steps.append(("forecast", inst, "sample"))
            steps.append(("plan", inst, FROZEN_METHODS[(i // 2 + second) % 2]))
    return itertools.cycle(steps)


def _ranking(inst) -> str:
    return "distance_to_goal" if inst.kind == "collision" else "handover_loss"


class Runner:
    """Runs operations, times them and checks their outputs outside the timing."""

    def __init__(self, workload: str, seed: int, inputs: Inputs, instrument):
        self.workload = workload
        self.seed = seed
        self.inputs = inputs
        self.inst = instrument
        self.records: list[OpRecord] = []
        self.solves: list = []  # every SolveResult, for the solver layer
        self.experiments: list = []  # every ExperimentRecord
        self.train_results: list = []
        self._zero_checked: set[str] = set()
        self._steps = schedule(workload, inputs)
        self.measured = 0.0  # seconds of timed operations so far

    def run_for(self, seconds: float) -> None:
        """Closed loop until the timed operations add up to ``seconds`` in
        all; a later call goes on where the last one stopped."""
        if not self.inputs.instances and self.workload != "train":
            return
        while self.measured < seconds:
            kind, inst, method = next(self._steps)
            rec = self._run_one(len(self.records), kind, inst, method)
            self.records.append(rec)
            self.measured += rec.seconds

    def _run_one(self, op: int, kind: str, inst, method: str) -> OpRecord:
        name = inst.problem_id if inst is not None else "train"
        rec = OpRecord(op, kind, name, method, 0.0, False)
        before = Counter(self.inst.calls)
        self.inst.op_id = op
        t0 = time.perf_counter()
        try:
            if kind == "plan":
                out = evaluation.evaluate_problem(
                    inst.problem, method, self.inputs.model, problem_id=name,
                    kind=inst.kind, ground_truth=inst.ground_truth)
            elif kind == "forecast":
                cfg = evaluation.SampleConfig(num_samples=FORECAST_SAMPLES,
                                              ranking=_ranking(inst))
                nominal = human_model.predict(self.inputs.model, inst.problem.observed_human,
                                              inst.problem.steps)
                samples = evaluation.sample_predictions(
                    self.inputs.model, inst.problem.observed_human, inst.problem.steps,
                    cfg, self.seed)
                out = (nominal, samples, evaluation.rank_predictions(samples, cfg, inst.problem))
            else:
                out = human_model.train(
                    self.inputs.train_records, ModelConfig(), self.seed,
                    epochs=TRAIN_EPOCHS, batch_size=TRAIN_BATCH,
                    test_records=self.inputs.test_records)
        except Exception:  # a failed operation is counted, the run goes on
            rec.raised = True
            rec.error = traceback.format_exc(limit=3)
            self._drain()
        rec.seconds = time.perf_counter() - t0
        self.inst.op_id = None
        if not rec.raised:
            calls = Counter(self.inst.calls)
            calls.subtract(before)
            with self.inst.paused():
                try:
                    problems = getattr(self, f"_check_{kind}")(rec, inst, out, calls)
                except Exception:  # a check that raises is a failed check
                    problems = [traceback.format_exc(limit=3)]
            rec.ok = not problems
            rec.error = "; ".join(problems)
            del out
        # Tapes are reference cycles (a Ref points back at its Tape), so only
        # a full collection frees them; left alone they pile up to gigabytes
        # over a run.  Freeing what the operation left behind, the tape its
        # checks held included, is timed work: it is what the program costs.
        # Every operation and set-up then starts from a collected heap.
        t0 = time.perf_counter()
        gc.collect()
        rec.seconds += time.perf_counter() - t0
        return rec

    def _drain(self):
        for name in ("evaluation.run_method", "solver.solve_compiled",
                     "objectives.compile_problem"):
            self.inst.take(name)

    # -- checks -------------------------------------------------------------

    def _check_plan(self, rec, inst, out, calls) -> list[str]:
        problem, model = inst.problem, self.inputs.model
        result = self.inst.take("evaluation.run_method")[-1]
        solves = self.inst.take("solver.solve_compiled")
        compiled = self.inst.take("objectives.compile_problem")
        self.solves += solves
        self.experiments.append(out)
        for c in compiled:
            self.inst.count_tape(c.tape)
        rec.counts = {
            "nodes": [len(c.tape) for c in compiled],
            "variables": [c.n for c in compiled],
            "iterations": sum(s.iterations for s in solves),
            "replays": calls["graph.replay"],
            "backwards": calls["graph.backward"],
            "status": out.solver_status,
            "success": bool(out.success),
        }
        problems = []
        if out.solver_status not in STATUSES:
            problems.append(f"undocumented status {out.solver_status!r}")
        steps = problem.steps
        obs = problem.observed_human
        for label, traj in (("human", result.human_traj), ("robot", result.robot_traj)):
            if traj is None or traj.shape[0] != steps or not np.all(np.isfinite(traj)):
                problems.append(f"{label} trajectory missing, short or not finite")
                return problems
        replay = robot_model.robot_unroll(problem.robot_initial, result.controls)
        if not np.allclose(replay, result.robot_traj, rtol=1e-12, atol=1e-12):
            problems.append("robot_unroll(controls) does not reproduce robot_traj")
        if result.modifiers is not None:
            human = human_model.unroll_decoder(
                model, obs[-1], obs[-1] - obs[-2], human_model.encode(model, obs),
                result.modifiers, steps)
        elif rec.method == "initial":
            human = human_model.predict(model, obs, steps)
        else:
            human = evaluation.zerovel_predict(obs, steps)
        if not np.allclose(human, result.human_traj, rtol=1e-12, atol=1e-12):
            problems.append("the human trajectory does not match its numpy reproduction")
        if inst.problem_id not in self._zero_checked:
            self._zero_checked.add(inst.problem_id)
            joint = objectives.compile_problem(problem, model=model)
            _, _, _, ev = joint.evaluate(np.zeros(joint.n))
            if not np.array_equal(joint.trajectories(ev)[0],
                                  human_model.predict(model, obs, steps)):
                problems.append("zero-modifier replay differs from predict")
        return problems

    def _check_forecast(self, rec, inst, out, calls) -> list[str]:
        nominal, samples, order = out
        steps = inst.problem.steps
        rec.counts = {"samples": len(samples), "best": int(order[0])}
        problems = []
        if nominal.shape != (steps, human_model.STATE_DIM) or not np.all(np.isfinite(nominal)):
            problems.append("the nominal forecast is malformed or not finite")
        if len(samples) != FORECAST_SAMPLES:
            problems.append(f"{len(samples)} samples, expected {FORECAST_SAMPLES}")
        if any(s.shape != (steps, human_model.STATE_DIM) or not np.all(np.isfinite(s))
               for s in samples):
            problems.append("a forecast sample is malformed or not finite")
        if sorted(int(i) for i in order) != list(range(len(samples))):
            problems.append("ranking is not a permutation of the samples")
        return problems

    def _check_train(self, rec, inst, out, calls) -> list[str]:
        losses = [(m.train_loss, m.test_loss) for m in out.history]
        rec.counts = {"epochs": len(out.history), "backwards": calls["graph.train_backward"],
                      "test_loss": losses[-1][1] if losses else None}
        problems = []
        if len(out.history) != TRAIN_EPOCHS or not np.all(np.isfinite(losses)):
            problems.append("training history is short or not finite")
        if not all(np.all(np.isfinite(a)) for a in out.params.arrays.values()):
            problems.append("trained weights are not finite")
        if self.train_results and losses != self.train_results[0]:
            problems.append("seeded training did not repeat bit-exactly")
        self.train_results.append(losses)
        return problems


def train_windows(inputs: Inputs) -> int:
    span = ModelConfig().input_frames + ModelConfig().output_frames
    return sum(len(r) - span + 1 for r in inputs.train_records)


def inner_cap_rounds(solve) -> int:
    per_round = Counter(r.round for r in solve.log)
    return sum(1 for n in per_round.values() if n >= SolverConfig().max_inner)
