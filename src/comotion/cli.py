"""Command-line frontend: reproducible batch runs over the library.

Subcommands: synth, train, predict, plan, evaluate, sweep, export.  Every run
writes a manifest (command line, configs, seed, version, timestamps) into its
output directory before any computation, and all file writes go through a
temp-file-plus-rename so partial outputs never clobber good ones.

``plan`` and ``evaluate`` solve through the same ``evaluation.evaluate_problem``
call: ``plan``'s ``result.json`` is the row ``evaluate`` writes to
``records.jsonl``, plus ``kind``, ``partial`` and ``controls``.

Exit codes: 0 success, 2 usage/config error, 3 numeric failure, 4 internal
bug.  The only environment override is COMOTION_OUT for the default output
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import json
import os
import sys
import time
import traceback
from dataclasses import asdict, replace

import numpy as np

from . import __version__
from . import data as dat
from . import evaluation as ev
from . import human_model as hm
from . import objectives as obj
from .environment import SceneError, build_sdf, save_sdf
from .kinematics import KinematicsError
from .robot_model import (DEFAULT_ROBOT, RobotError, load_robot, load_robot_trajectory,
                          save_robot_trajectory)
from .solver import SolverConfig


class UsageError(Exception):
    pass


class NumericFailure(Exception):
    pass


@contextlib.contextmanager
def _atomic(path):
    """Yields a temporary path beside ``path`` and renames it onto ``path``
    when the block completes, so a failed write never clobbers a good file.
    When the block raises, the temporary file is removed."""
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        yield tmp
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
    os.replace(tmp, path)


def _atomic_write(path, text: str) -> None:
    with _atomic(path) as tmp, open(tmp, "w") as fh:
        fh.write(text)


def _write_json(path, doc) -> None:
    _atomic_write(path, json.dumps(doc, indent=1) + "\n")


def _save_weights(params, path) -> None:
    with _atomic(path) as tmp:
        hm.save_params(params, tmp)


def _write_manifest(outdir, args, extra=None) -> None:
    os.makedirs(outdir, exist_ok=True)
    doc = {
        "tool": "comotion",
        "version": __version__,
        "command": args.command,
        "argv": sys.argv[1:],
        "seed": getattr(args, "seed", None),
        "output_dir": os.path.abspath(outdir),
        "configs": {
            k: os.path.abspath(v)
            for k, v in vars(args).items()
            if isinstance(v, str) and os.path.exists(v)
        },
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    if extra:
        doc.update(extra)
    _write_json(os.path.join(outdir, "manifest.json"), doc)


def _require(path, what) -> str:
    if path is None:
        raise UsageError(f"missing {what}")
    if not os.path.exists(path):
        raise UsageError(f"{what} not found: {path}")
    return path


def _numbers(text: str, flag: str, kind) -> tuple:
    """A comma-separated list of ``kind`` values given to ``flag``."""
    try:
        return tuple(kind(v) for v in text.split(","))
    except ValueError:
        raise UsageError(f"{flag}: expected comma-separated {kind.__name__} values, "
                         f"got {text!r}") from None


def _out_dir(args) -> str:
    out = args.out or os.environ.get("COMOTION_OUT")
    if out is None:
        raise UsageError("missing output path (--out or COMOTION_OUT)")
    return out


def _load_model(args):
    path = _require(args.weights, "weight file")
    return hm.load_params(path)


_MODEL_CACHE: dict = {}


def _model_for(problem: obj.ProblemSpec, method: str, weights):
    """The predictor ``method`` needs on ``problem``, or None when it needs
    none: ``initial`` and ``sample`` forecast with it, and every method but
    ``zerovel`` unrolls it when the problem optimizes the human.  ``weights``
    falls back to the problem file's ``model_path``."""
    if method == "zerovel" or not (problem.optimize_human or method in ("initial", "sample")):
        return None
    path = weights or problem.model_path
    if path is None:
        raise UsageError(f"method {method!r} needs model weights (--weights or the "
                         "problem's model_path)")
    if path not in _MODEL_CACHE:
        _MODEL_CACHE[path] = hm.load_params(_require(path, "weight file"))
    return _MODEL_CACHE[path]


def _robot_config(path):
    return load_robot(_require(path, "robot config")) if path else DEFAULT_ROBOT


def _solver_config(args) -> SolverConfig:
    config = SolverConfig()
    for name in ("max_rounds", "max_inner"):
        value = getattr(args, name)
        if value is not None:
            try:
                config = replace(config, **{name: value})
            except ValueError as exc:
                raise UsageError(f"--{name.replace('_', '-')}: {exc}") from None
    return config


# ---------------------------------------------------------------------------
# synth
# ---------------------------------------------------------------------------


def cmd_synth(args) -> int:
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    _write_manifest(out, args)
    cfg = dat.SynthConfig(num_trajectories=args.count, duration_frames=args.frames)
    records = dat.synth_generate(cfg, seed=args.seed)
    path = os.path.join(out, "synthetic.traj")
    with _atomic(path) as tmp:
        dat.save_trajectories(records, tmp)
    print(f"wrote {len(records)} trajectories to {path}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    data_path = _require(args.data, "dataset")
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    _write_manifest(out, args)
    records = dat.load_trajectories(data_path)
    if not records:
        raise UsageError(f"dataset is empty: {data_path}")
    split = dat.split_dataset(records, held_out_subject=args.held_out,
                              test_fraction=args.test_fraction, seed=args.seed)
    config = hm.ModelConfig(
        num_layers=args.layers,
        hidden_size=args.hidden,
        input_frames=args.input_frames,
        output_frames=args.output_frames,
    )
    lines = []

    def progress(m):
        lines.append(json.dumps(asdict(m)))
        print(f"epoch {m.epoch}: train {m.train_loss:.4f} test {m.test_loss:.4f}", flush=True)

    result = hm.train(
        [r.frames for r in split.train],
        config,
        args.seed,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        learning_rate_decay=args.learning_rate_decay,
        test_records=[r.frames for r in split.test],
        progress=progress,
    )
    _save_weights(result.best, os.path.join(out, "model.weights"))
    _save_weights(result.params, os.path.join(out, "model-final.weights"))
    _atomic_write(os.path.join(out, "epochs.jsonl"), "\n".join(lines) + "\n")
    print(f"wrote {os.path.join(out, 'model.weights')}")
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def cmd_predict(args) -> int:
    model = _load_model(args)
    data_path = _require(args.data, "trajectory file")
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    _write_manifest(out, args)
    records = dat.load_trajectories(data_path)
    if not (0 <= args.record < len(records)):
        raise UsageError(f"record index {args.record} out of range (file has {len(records)})")
    rec = records[args.record]
    k = model.config.input_frames
    if args.start + k > len(rec.frames):
        raise UsageError("observation window runs past the record end")
    observed = rec.frames[args.start : args.start + k]
    horizon = args.frames or model.config.output_frames
    pred = hm.predict(model, observed, horizon=horizon)
    out_rec = dat.TrajectoryRecord(subject=rec.subject, fps=rec.fps, frames=pred,
                                   annotations={"predicted_from": args.start})
    path = os.path.join(out, "prediction.traj")
    with _atomic(path) as tmp:
        dat.save_trajectories([out_rec], tmp)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def _infer_kind(problem: obj.ProblemSpec) -> str:
    kinds = {c.kind for c in problem.constraints}
    if "joint_goal" in kinds and "handover" in kinds:
        return "pickup_handover"
    if "handover" in kinds:
        return "handover"
    if "joint_clearance" in kinds or "collision" in kinds:
        return "collision"
    return "goal"


def _evaluate(problem, problem_id, method, weights, robot_path, kind, seed,
              solver_config, samples) -> ev.ExperimentRecord:
    """The one solve path of ``plan``, ``evaluate`` and the alpha sweep."""
    return ev.evaluate_problem(
        problem,
        method,
        _model_for(problem, method, weights),
        problem_id=problem_id,
        kind=kind or _infer_kind(problem),
        robot=_robot_config(robot_path),
        solver_config=solver_config,
        sample_config=ev.SampleConfig(num_samples=samples),
        seed=seed,
    )


def cmd_plan(args) -> int:
    problem_path = _require(args.problem, "problem file")
    problem = obj.load_problem(problem_path)
    solver_config = _solver_config(args)
    if args.method not in ev.METHODS:
        raise UsageError(f"unknown method {args.method!r} (choose from {', '.join(ev.METHODS)})")
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    _write_manifest(out, args)
    with _atomic(os.path.join(out, "problem.json")) as tmp:
        obj.save_problem(problem, tmp)

    kind = args.kind or _infer_kind(problem)
    record = _evaluate(problem, os.path.basename(problem_path), args.method, args.weights,
                       args.robot, kind, args.seed, solver_config, args.samples)
    result = record.result
    doc = record.row()
    doc["kind"] = kind
    doc["partial"] = result.solver_status == "numeric-failure"
    if result.controls is not None:
        doc["controls"] = [[float(v) for v in row] for row in result.controls]
    if result.log is not None:
        _atomic_write(os.path.join(out, "iterations.jsonl"),
                      "\n".join(r.to_line() for r in result.log) + "\n")
    if result.human_traj is not None:
        fps = 1.0 / problem.weights.frame_time
        with _atomic(os.path.join(out, "human_traj.traj")) as tmp:
            dat.save_trajectories([dat.TrajectoryRecord("plan", fps, result.human_traj)], tmp)
    if result.robot_traj is not None:
        with _atomic(os.path.join(out, "robot_traj.txt")) as tmp:
            save_robot_trajectory(result.robot_traj, tmp)
    _write_json(os.path.join(out, "result.json"), doc)
    print(f"{doc['problem']}: method={args.method} success={record.success} "
          f"status={result.solver_status} objective={result.objective:.4g}")
    if result.solver_status == "numeric-failure":
        raise NumericFailure("solver reported a numeric failure (partial outputs kept)")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


def _evaluate_one(task):
    problem_path, *rest = task
    return _evaluate(obj.load_problem(problem_path), os.path.basename(problem_path),
                     *rest).row()


def _format_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)\n"
    keys = ["method", "count", "success_rate"]
    extra = sorted({k for r in rows for k in r} - set(keys))
    keys += extra
    widths = {k: max(len(k), *(len(_fmt(r.get(k))) for r in rows)) for k in keys}
    lines = ["  ".join(k.ljust(widths[k]) for k in keys)]
    for r in rows:
        lines.append("  ".join(_fmt(r.get(k)).ljust(widths[k]) for k in keys))
    return "\n".join(lines) + "\n"


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float):
        return f"{v:.3g}"
    return str(v)


def cmd_evaluate(args) -> int:
    paths = sorted(p for pattern in args.problems for p in glob.glob(pattern))
    if not paths:
        raise UsageError("empty problem batch")
    solver_config = _solver_config(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ev.METHODS:
            raise UsageError(f"unknown method {m!r}")
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    _write_manifest(out, args, extra={"problems": paths})

    if args.alpha_sweep:
        return _alpha_sweep(args, paths, out, solver_config)

    tasks = [
        (p, m, args.weights, args.robot, args.kind, args.seed, solver_config, args.samples)
        for p in paths
        for m in methods
    ]
    rows = []
    failures = []
    if args.jobs > 1:
        import concurrent.futures as cf

        with cf.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            futs = {pool.submit(_evaluate_one, t): t for t in tasks}
            for fut in cf.as_completed(futs):
                try:
                    rows.append(fut.result())
                except Exception as exc:
                    failures.append({"task": str(futs[fut][:2]), "error": str(exc)})
    else:
        for t in tasks:
            try:
                rows.append(_evaluate_one(t))
            except Exception as exc:
                failures.append({"task": str(t[:2]), "error": str(exc)})
    rows.sort(key=lambda r: (r["problem"], r["method"]))
    _atomic_write(os.path.join(out, "records.jsonl"),
                  "\n".join(json.dumps(r) for r in rows) + "\n")
    if failures:
        _write_json(os.path.join(out, "failures.json"), failures)

    summary = ev.summarize(rows, aggregate=args.aggregate)
    _write_json(os.path.join(out, "summary.json"), summary)
    table = _format_table(summary)
    _atomic_write(os.path.join(out, "summary.txt"), table)
    print(table, end="")
    if not rows:
        raise UsageError("no problem completed")
    return 0


def _alpha_sweep(args, paths, out, solver_config) -> int:
    alphas = _numbers(args.alpha_sweep, "--alpha-sweep", float)
    lines = []
    for alpha in alphas:
        rows = []
        for p in paths:
            problem = obj.load_problem(p)
            problem = replace(problem, weights=replace(problem.weights, weight_robot=alpha))
            rows.append(_evaluate(problem, os.path.basename(p), "ours", args.weights,
                                  args.robot, args.kind, args.seed, solver_config,
                                  args.samples).row())
        doc = {
            "weight_robot": alpha,
            "median_travel_human": float(np.median([r["travel_human"] for r in rows])),
            "median_travel_robot": float(np.median([r["travel_robot"] for r in rows])),
            "success_rate": 100.0 * float(np.mean([r["success"] for r in rows])),
        }
        lines.append(json.dumps(doc))
        print(lines[-1])
    _atomic_write(os.path.join(out, "alpha_sweep.jsonl"), "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def cmd_sweep(args) -> int:
    data_path = _require(args.data, "dataset")
    grid = dat.SweepGrid(
        batch_sizes=_numbers(args.batch_sizes, "--batch-sizes", int),
        layer_counts=_numbers(args.layer_counts, "--layer-counts", int),
        hidden_sizes=_numbers(args.hidden_sizes, "--hidden-sizes", int),
        seeds=_numbers(args.seeds, "--seeds", int),
    )
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    _write_manifest(out, args)
    records = dat.load_trajectories(data_path)
    if not records:
        raise UsageError(f"dataset is empty: {data_path}")
    split = dat.split_dataset(records, held_out_subject=args.held_out,
                              test_fraction=args.test_fraction, seed=args.seed)
    base = hm.ModelConfig(input_frames=args.input_frames, output_frames=args.output_frames)
    board, best = dat.run_sweep(grid, split, budget_seconds=args.budget, epochs=args.epochs,
                                base_config=base)
    _atomic_write(os.path.join(out, "leaderboard.jsonl"),
                  "\n".join(json.dumps(e) for e in board) + "\n")
    _atomic_write(os.path.join(out, "leaderboard.txt"), _format_table(board))
    if best is not None:
        _save_weights(best, os.path.join(out, "model.weights"))
    print(_format_table(board), end="")
    return 0


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------


def _polyline(points: np.ndarray) -> str:
    lines = []
    last = None
    for p in points:
        if last is not None and np.array_equal(p, last):
            continue
        lines.append(" ".join(repr(float(v)) for v in p))
        last = p
    return "\n".join(lines) + "\n"


def cmd_export(args) -> int:
    plan_dir = _require(args.plan_dir, "plan output directory")
    out = _out_dir(args)
    os.makedirs(out, exist_ok=True)
    _write_manifest(out, args)
    problem_path = os.path.join(plan_dir, "problem.json")
    if not os.path.exists(problem_path):
        raise UsageError(f"no problem.json in {plan_dir}")
    problem = obj.load_problem(problem_path)

    if problem.scene is not None:
        grid = build_sdf(problem.scene, resolution=args.resolution)
        with _atomic(os.path.join(out, "scene.sdf")) as tmp:
            save_sdf(grid, tmp)

    human_path = os.path.join(plan_dir, "human_traj.traj")
    if os.path.exists(human_path):
        rec = dat.load_trajectories(human_path)[0]
        pts = rec.frames[:, :2]
        if problem.observed_human is not None:
            pts = np.vstack([problem.observed_human[-1, :2], pts])
        _atomic_write(os.path.join(out, "human_path.txt"), _polyline(pts))
    robot_path = os.path.join(plan_dir, "robot_traj.txt")
    if os.path.exists(robot_path):
        pts = load_robot_trajectory(robot_path)[:, :2]
        if problem.robot_initial is not None:
            pts = np.vstack([problem.robot_initial[:2], pts])
        _atomic_write(os.path.join(out, "robot_path.txt"), _polyline(pts))

    iters = os.path.join(plan_dir, "iterations.jsonl")
    if os.path.exists(iters):
        fields = ("iteration", "mu", "rho", "objective", "max_violation", "step_size")
        rows = []
        with open(iters) as fh:
            for n, line in enumerate(fh, 1):
                try:
                    if line.strip():
                        r = json.loads(line)
                        rows.append(",".join(str(r[k]) for k in fields))
                except (ValueError, KeyError, TypeError) as exc:
                    raise UsageError(f"{iters}: line {n} is not an iteration record "
                                     f"({exc!r})") from None
        _atomic_write(os.path.join(out, "iterations.csv"),
                      ",".join(fields) + "\n" + "\n".join(rows) + "\n")
    print(f"exported plot data to {out}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="comotion",
        description="Joint human-robot trajectory optimization with a learned "
                    "full-body motion predictor.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate synthetic walk-and-reach data")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--frames", type=int, default=80)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("train", help="train the motion predictor")
    p.add_argument("--data", required=False)
    p.add_argument("--out", default=None)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--hidden", type=int, default=100)
    p.add_argument("--input-frames", type=int, default=20)
    p.add_argument("--output-frames", type=int, default=20)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--learning-rate", type=float, default=1e-4)
    p.add_argument("--learning-rate-decay", type=float, default=1.0)
    p.add_argument("--held-out", default="synth5")
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("predict", help="forecast a trajectory file")
    p.add_argument("--weights", required=False)
    p.add_argument("--data", required=False)
    p.add_argument("--record", type=int, default=0)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--frames", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("plan", help="solve one planning problem")
    p.add_argument("--problem", required=False)
    p.add_argument("--weights", default=None)
    p.add_argument("--robot", default=None)
    p.add_argument("--method", default="ours")
    p.add_argument("--kind", default=None, choices=[None, *ev.KINDS])
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--max-inner", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("evaluate", help="run methods over a batch of problems")
    p.add_argument("--problems", nargs="+", required=False, default=[])
    p.add_argument("--methods", default="ours")
    p.add_argument("--weights", default=None)
    p.add_argument("--robot", default=None)
    p.add_argument("--kind", default=None, choices=[None, *ev.KINDS])
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--aggregate", default="median", choices=["median", "mean"])
    p.add_argument("--alpha-sweep", default=None,
                   help="comma-separated robot weights; runs ours per value")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--max-inner", type=int, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("sweep", help="hyperparameter sweep over the training grid")
    p.add_argument("--data", required=False)
    p.add_argument("--batch-sizes", default="8,32")
    p.add_argument("--layer-counts", default="1,2")
    p.add_argument("--hidden-sizes", default="100")
    p.add_argument("--seeds", default="0")
    p.add_argument("--input-frames", type=int, default=20)
    p.add_argument("--output-frames", type=int, default=20)
    p.add_argument("--epochs", type=int, default=30)
    p.add_argument("--budget", type=float, default=None)
    p.add_argument("--held-out", default="synth5")
    p.add_argument("--test-fraction", type=float, default=0.2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("export", help="emit plot-ready grids and polylines")
    p.add_argument("--plan-dir", required=False)
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "predict": cmd_predict,
    "plan": cmd_plan,
    "evaluate": cmd_evaluate,
    "sweep": cmd_sweep,
    "export": cmd_export,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except (obj.ProblemError, dat.DataError, hm.ModelError, ev.EvaluationError, SceneError,
            RobotError, KinematicsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        traceback.print_exc()
        return 4


if __name__ == "__main__":
    sys.exit(main())
