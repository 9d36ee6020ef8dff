"""End-to-end and per-layer metrics from one run's operations and spans."""

from __future__ import annotations

import math
import resource
import statistics

from comotion import graph

import workloads as wl

# name -> unit; the run prints exactly these (untraced: END_TO_END, traced:
# PER_LAYER), BENCHMARK.json lists the same names.
END_TO_END = {
    "setup_s": "s",
    "ops_per_min": "1/min",
    "peak_rss_mb": "MB",
}

NODE_TYPES = {
    "add": graph.OP_ADD, "slice": graph.OP_SLICE, "matmul": graph.OP_MATMUL,
    "mul": graph.OP_MUL, "sigmoid": graph.OP_SIGMOID, "tanh": graph.OP_TANH,
    "concat": graph.OP_CONCAT, "grid_interp": graph.OP_INTERP2,
}

PER_LAYER = {
    "graph.nodes": "count",
    **{f"graph.nodes.{k}": "count" for k in NODE_TYPES},
    "graph.replay_ms": "ms",
    "graph.backward_ms": "ms",
    "graph.replay_us_per_node": "us",
    "graph.replays_per_plan": "count",
    "graph.backwards_per_plan": "count",
    "graph.plan_share": "frac",
    "graph.train_backward_s": "s",
    "graph.train_record_s": "s",
    "solver.iterations_per_solve": "count",
    "solver.solves_per_plan": "count",
    "solver.replays_per_iter": "count",
    "solver.self_ms_per_iter": "ms",
    "solver.rounds_at_inner_cap": "count",
    **{f"solver.status.{s}": "count" for s in wl.STATUSES},
    "human_model.predict_ms": "ms",
    "human_model.unroll_decoder_ms": "ms",
    "human_model.encode_ms": "ms",
    "human_model.unroll_graph_ms": "ms",
    "human_model.epoch_s": "s",
    "robot_model.unroll_graph_ms": "ms",
    "robot_model.robot_fk_us": "us",
    "objectives.compile_ms": "ms",
    "environment.build_sdf_ms": "ms",
    "environment.build_sdf_calls_per_plan": "count",
    "kinematics.fk_us": "us",
    "kinematics.fk_calls_per_plan": "count",
    "evaluation.check_success_ms": "ms",
    "evaluation.compute_metrics_ms": "ms",
    "evaluation.sample_predictions_ms": "ms",
    "evaluation.rank_predictions_ms": "ms",
    "evaluation.self_ms": "ms",
    "scenarios.generate_s": "s",
    "data.synth_s": "s",
    "trace.ops_per_min": "1/min",
    "trace.spans_per_op": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def percentile_key(n: int) -> str | None:
    """Highest of p90/p99/p99.9 with at least ten samples beyond it."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10:
            best = f"p{p:g}"
    return best


def primary(records) -> list:
    """Completed operations that set the throughput: plans, training calls."""
    return [r for r in records if r.kind in ("plan", "train") and not r.raised]


def end_to_end(setup_times, records, measured: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_min": _ratio(60.0 * len(primary(records)), measured),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def detail(workload: str, runner, measured: float, attempted: int, failed: int) -> dict:
    """The workload's own figures, printed with the result and kept in --out."""
    done = primary(runner.records)
    secs = [r.seconds for r in done]
    out = {"samples": (len(done), "count"), "failed_frac": (_ratio(failed, attempted), "frac"),
           "op_s.p50": (statistics.median(secs) if secs else 0.0, "s")}
    key = percentile_key(len(done))
    if key:
        q = statistics.quantiles(secs, n=1000, method="inclusive")
        out[f"op_s.{key}"] = (q[round(float(key[1:]) * 10) - 1], "s")
    if workload == "train":
        windows = wl.train_windows(runner.inputs) * wl.TRAIN_EPOCHS * len(done)
        out["train_windows_per_s"] = (_ratio(windows, measured), "1/s")
        losses = runner.train_results[0] if runner.train_results else [(math.nan, math.nan)]
        out["train_test_loss"] = (losses[-1][1], "loss")
        return out
    exps = runner.experiments
    out["success_frac"] = (_ratio(sum(e.success for e in exps), len(exps)), "frac")
    out["converged_frac"] = (_ratio(sum(e.solver_status == "converged" for e in exps),
                                    len(exps)), "frac")
    forecasts = [r for r in runner.records if r.kind == "forecast" and not r.raised]
    out["forecast_samples_per_s"] = (
        _ratio(wl.FORECAST_SAMPLES * len(forecasts), sum(r.seconds for r in forecasts)), "1/s")
    return out


def per_layer(inst, runner, measured: float) -> dict[str, float]:
    ops = inst.span_totals(in_ops=True)
    setup = inst.span_totals(in_ops=False)
    done = primary(runner.records)
    plans = sum(1 for r in done if r.kind == "plan")
    epochs = wl.TRAIN_EPOCHS * sum(1 for r in done if r.kind == "train")
    solves = runner.solves
    iterations = sum(s.iterations for s in solves)

    def calls(name):
        return ops.get(name, {}).get("calls", 0)

    def total(name, table=ops):
        return table.get(name, {}).get("total_s", 0.0)

    def per_call(name, scale):
        return scale * _ratio(total(name), calls(name))

    m = {
        "graph.nodes": _ratio(sum(inst.tape_ops.values()), inst.tapes),
        **{f"graph.nodes.{k}": _ratio(inst.tape_ops[code], inst.tapes)
           for k, code in NODE_TYPES.items()},
        "graph.replay_ms": per_call("graph.replay", 1e3),
        "graph.backward_ms": per_call("graph.backward", 1e3),
        "graph.replay_us_per_node": 1e6 * _ratio(total("graph.replay"), inst.replay_nodes),
        "graph.replays_per_plan": _ratio(calls("graph.replay"), plans),
        "graph.backwards_per_plan": _ratio(calls("graph.backward"), plans),
        "graph.plan_share": _ratio(total("graph.replay") + total("graph.backward"),
                                   total("evaluation.evaluate_problem")),
        "graph.train_backward_s": _ratio(total("graph.train_backward"), epochs),
        "graph.train_record_s": _ratio(total("human_model.train")
                                       - total("graph.train_backward")
                                       - total("human_model.evaluate"), epochs),
        "solver.iterations_per_solve": _ratio(iterations, len(solves)),
        "solver.solves_per_plan": _ratio(len(solves), plans),
        "solver.replays_per_iter": _ratio(calls("graph.replay"), iterations),
        "solver.self_ms_per_iter": 1e3 * _ratio(
            ops.get("solver.solve_compiled", {}).get("self_s", 0.0), iterations),
        "solver.rounds_at_inner_cap": _ratio(sum(wl.inner_cap_rounds(s) for s in solves),
                                             len(solves)),
        **{f"solver.status.{st}": sum(1 for s in solves if s.status == st)
           for st in wl.STATUSES},
        "human_model.predict_ms": per_call("human_model.predict", 1e3),
        "human_model.unroll_decoder_ms": per_call("human_model.unroll_decoder", 1e3),
        "human_model.encode_ms": per_call("human_model.encode", 1e3),
        "human_model.unroll_graph_ms": per_call("human_model.unroll_graph", 1e3),
        "human_model.epoch_s": _ratio(total("human_model.train"), epochs),
        "robot_model.unroll_graph_ms": per_call("robot_model.robot_unroll_graph", 1e3),
        "robot_model.robot_fk_us": per_call("robot_model.robot_fk", 1e6),
        "objectives.compile_ms": per_call("objectives.compile_problem", 1e3),
        "environment.build_sdf_ms": per_call("environment.build_sdf", 1e3),
        "environment.build_sdf_calls_per_plan": _ratio(calls("environment.build_sdf"), plans),
        "kinematics.fk_us": per_call("kinematics.forward_kinematics", 1e6),
        "kinematics.fk_calls_per_plan": _ratio(calls("kinematics.forward_kinematics"), plans),
        "evaluation.check_success_ms": per_call("evaluation.check_success", 1e3),
        "evaluation.compute_metrics_ms": per_call("evaluation.compute_metrics", 1e3),
        "evaluation.sample_predictions_ms": per_call("evaluation.sample_predictions", 1e3),
        "evaluation.rank_predictions_ms": per_call("evaluation.rank_predictions", 1e3),
        "evaluation.self_ms": 1e3 * _ratio(
            sum(row["self_s"] for name, row in ops.items() if name.startswith("evaluation.")),
            plans),
        "scenarios.generate_s": (total("scenarios.make_crossing_problems", setup)
                                 + total("scenarios.make_handover_problems", setup))
                                / wl.SETUP_REPEATS,
        "data.synth_s": total("data.synth_generate", setup) / wl.SETUP_REPEATS,
        "trace.ops_per_min": _ratio(60.0 * len(done), measured),
        "trace.spans_per_op": _ratio(sum(row["calls"] for row in ops.values()),
                                     len(runner.records)),
    }
    return {k: float(v) for k, v in m.items()}
