"""Command-line frontend: reproducible batch runs over the library.

Subcommands: synth, train, predict, plan, evaluate, export.  Every run
writes a manifest (command line, configs, seed, version, timestamps) into its
output directory before its main work, and all file writes go through a
temp-file-plus-rename so partial outputs never clobber good ones.

``plan`` and ``evaluate`` solve through the same ``evaluation.evaluate_problem``
call: ``plan``'s ``result.json`` is the row ``evaluate`` writes to
``records.jsonl``, plus ``kind``, ``partial`` and ``controls``.  Both plan for
the one robot, ``robot_model.DEFAULT_ROBOT``, and score each problem as the
experiment kind its constraints describe (``evaluation.default_kind``).

Exit codes: 0 success, 2 usage/config error, 3 numeric failure, 4 internal
bug.  The only environment override is COMOTION_OUT for the default output
directory.
"""

from __future__ import annotations

import argparse
import concurrent.futures as cf
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
from .robot_model import RobotError, load_robot_trajectory, save_robot_trajectory
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


_MODEL_CACHE: dict = {}


def _model_for(problem: obj.ProblemSpec, method: str, weights):
    """The predictor ``method`` needs on ``problem``, read from the file
    ``weights`` (``--weights``), or None when it needs none: ``initial`` and
    ``sample`` forecast with it, and every method but ``zerovel`` unrolls it
    when the problem plans the human."""
    if method == "zerovel" or not (problem.plans_human or method in ("initial", "sample")):
        return None
    if weights is None:
        raise UsageError(f"method {method!r} needs model weights (--weights)")
    if weights not in _MODEL_CACHE:
        _MODEL_CACHE[weights] = hm.load_params(_require(weights, "weight file"))
    return _MODEL_CACHE[weights]


def _sample_config(args) -> ev.SampleConfig:
    try:
        return ev.SampleConfig(num_samples=args.samples)
    except ev.EvaluationError as exc:
        raise UsageError(f"--samples: {exc}") from None


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
    if args.start < 0:
        raise UsageError(f"--start must be at least 0, got {args.start}")
    if args.frames is not None and args.frames < 1:
        raise UsageError(f"--frames must be at least 1, got {args.frames}")
    model = hm.load_params(_require(args.weights, "weight file"))
    records = dat.load_trajectories(_require(args.data, "trajectory file"))
    if not (0 <= args.record < len(records)):
        raise UsageError(f"record index {args.record} out of range (file has {len(records)})")
    rec = records[args.record]
    k = model.config.input_frames
    if args.start + k > len(rec.frames):
        raise UsageError("observation window runs past the record end")
    out = _out_dir(args)
    _write_manifest(out, args)
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


def _evaluate(problem, problem_id, method, weights, seed, solver_config,
              sample_config) -> ev.ExperimentRecord:
    """The one solve path of ``plan``, ``evaluate`` and the alpha sweep,
    scored as the problem's ``default_kind``."""
    return ev.evaluate_problem(
        problem,
        method,
        _model_for(problem, method, weights),
        problem_id=problem_id,
        solver_config=solver_config,
        sample_config=sample_config,
        seed=seed,
    )


def cmd_plan(args) -> int:
    problem_path = _require(args.problem, "problem file")
    problem = obj.load_problem(problem_path)
    solver_config = _solver_config(args)
    sample_config = _sample_config(args)
    if args.method not in ev.METHODS:
        raise UsageError(f"unknown method {args.method!r} (choose from {', '.join(ev.METHODS)})")
    _model_for(problem, args.method, args.weights)  # read every input before the first write
    out = _out_dir(args)
    _write_manifest(out, args)
    with _atomic(os.path.join(out, "problem.json")) as tmp:
        obj.save_problem(problem, tmp)

    record = _evaluate(problem, os.path.basename(problem_path), args.method, args.weights,
                       args.seed, solver_config, sample_config)
    result = record.result
    doc = record.row()
    doc["kind"] = ev.default_kind(problem)
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
    """One ``evaluate`` task: (its row, None), or (None, its failure)."""
    problem_path, method, *rest = task
    try:
        return _evaluate(obj.load_problem(problem_path), os.path.basename(problem_path),
                         method, *rest).row(), None
    except Exception as exc:
        return None, {"task": str((problem_path, method)), "error": str(exc)}


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
    sample_config = _sample_config(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    for m in methods:
        if m not in ev.METHODS:
            raise UsageError(f"unknown method {m!r}")
    alphas = _alphas(args.alpha_sweep) if args.alpha_sweep else None
    out = _out_dir(args)
    _write_manifest(out, args, extra={"problems": paths})

    if alphas:
        return _alpha_sweep(args, paths, out, alphas, solver_config, sample_config)

    tasks = [
        (p, m, args.weights, args.seed, solver_config, sample_config)
        for p in paths
        for m in methods
    ]
    pool = cf.ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else None
    with pool or contextlib.nullcontext():
        results = list((pool.map if pool else map)(_evaluate_one, tasks))
    rows = [row for row, _ in results if row is not None]
    failures = [failure for _, failure in results if failure is not None]
    rows.sort(key=lambda r: (r["problem"], r["method"]))
    _atomic_write(os.path.join(out, "records.jsonl"),
                  "\n".join(json.dumps(r) for r in rows) + "\n")
    if failures:
        _write_json(os.path.join(out, "failures.json"), failures)

    summary = ev.summarize(rows)
    _write_json(os.path.join(out, "summary.json"), summary)
    table = _format_table(summary)
    _atomic_write(os.path.join(out, "summary.txt"), table)
    print(table, end="")
    if not rows:
        raise UsageError("no problem completed")
    return 0


def _alphas(text: str) -> tuple:
    """The robot weights given to ``--alpha-sweep``, each one checked as an
    ``ObjectiveWeights`` field."""
    alphas = _numbers(text, "--alpha-sweep", float)
    for alpha in alphas:
        try:
            obj.ObjectiveWeights(weight_robot=alpha)
        except obj.ProblemError as exc:
            raise UsageError(f"--alpha-sweep: {exc}") from None
    return alphas


def _alpha_sweep(args, paths, out, alphas, solver_config, sample_config) -> int:
    lines = []
    for alpha in alphas:
        rows = []
        for p in paths:
            problem = obj.load_problem(p)
            problem = replace(problem, weights=replace(problem.weights, weight_robot=alpha))
            rows.append(_evaluate(problem, os.path.basename(p), "ours", args.weights,
                                  args.seed, solver_config, sample_config).row())
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
    problem_path = os.path.join(plan_dir, "problem.json")
    if not os.path.exists(problem_path):
        raise UsageError(f"no problem.json in {plan_dir}")
    problem = obj.load_problem(problem_path)

    # every input is read and checked before the first write, so a corrupt
    # plan file leaves no partial export behind
    texts = {}
    human_path = os.path.join(plan_dir, "human_traj.traj")
    if os.path.exists(human_path):
        records = dat.load_trajectories(human_path)
        if not records:
            raise UsageError(f"trajectory file is empty: {human_path}")
        pts = records[0].frames[:, :2]
        if problem.observed_human is not None:
            pts = np.vstack([problem.observed_human[-1, :2], pts])
        texts["human_path.txt"] = _polyline(pts)
    robot_path = os.path.join(plan_dir, "robot_traj.txt")
    if os.path.exists(robot_path):
        pts = load_robot_trajectory(robot_path)[:, :2]
        if problem.robot_initial is not None:
            pts = np.vstack([problem.robot_initial[:2], pts])
        texts["robot_path.txt"] = _polyline(pts)

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
        texts["iterations.csv"] = ",".join(fields) + "\n" + "\n".join(rows) + "\n"
    grid = (None if problem.scene is None
            else build_sdf(problem.scene, resolution=args.resolution))

    _write_manifest(out, args)
    if grid is not None:
        with _atomic(os.path.join(out, "scene.sdf")) as tmp:
            save_sdf(grid, tmp)
    for name, text in texts.items():
        _atomic_write(os.path.join(out, name), text)
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
    p.add_argument("--out", default=None)

    p = sub.add_parser("plan", help="solve one planning problem")
    p.add_argument("--problem", required=False)
    p.add_argument("--weights", default=None)
    p.add_argument("--method", default="ours")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--max-inner", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("evaluate", help="run methods over a batch of problems")
    p.add_argument("--problems", nargs="+", required=False, default=[])
    p.add_argument("--methods", default="ours")
    p.add_argument("--weights", default=None)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--alpha-sweep", default=None,
                   help="comma-separated robot weights; runs ours per value")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--max-inner", type=int, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("export", help="emit plot-ready grids and polylines")
    p.add_argument("--plan-dir", required=False)
    p.add_argument("--resolution", type=float, default=0.05)
    p.add_argument("--out", default=None)

    return parser


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "predict": cmd_predict,
    "plan": cmd_plan,
    "evaluate": cmd_evaluate,
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
