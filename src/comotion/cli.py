"""Command-line frontend: reproducible batch runs over the library.

Subcommands: synth, train, predict, plan, evaluate, export.  Every run
writes a manifest (command line, configs, seed, version, timestamps) into its
output directory before its main work.  All file writes, the library savers'
as well, go through ``schema.atomic_open``'s temp-file-plus-rename, so
partial outputs never clobber good ones.

``plan`` and ``evaluate`` solve through the same ``evaluation.evaluate_problem``
call: ``plan``'s ``result.json`` is the row ``evaluate`` writes to
``records.jsonl``, plus ``partial`` and ``controls``.  Both plan for the one
human skeleton of ``kinematics`` and the one robot arm of ``robot_model``,
and score each plan by its problem's constraints, each by its own success
clause (``evaluation.check_success``).

``train`` checks every split before its first write: the test split is
not empty, and the train, test and ``--held-out`` splits each hold a window;
an error names the split and its record count.  It scores its best weights
on the ``--held-out`` subject's windows, as each epoch's test loss scores
the test split, in ``held_out.json``.

``evaluate`` reads each problem file once, however many patterns match it,
and refuses two files of one name, the name its rows carry.  Before its first
write it reads every file and sets each problem at each ``--alpha-sweep``
robot weight; then it runs one task per problem, method and robot weight,
through one pool of at most ``--jobs`` workers.  It writes each completed
task's row to ``records.jsonl``, each task that raised to ``failures.json``,
and one ``evaluation.summarize`` entry per method and robot weight to
``summary.json`` and ``summary.txt``.  A sweep's rows and entries carry their
``weight_robot``.

``plan`` and ``evaluate`` read a given ``--weights`` file once, before their
first write, whatever the method; ``evaluation.needs_model`` says which
methods need the model.

A model runs at one frame rate, ``ModelConfig.frame_rate``: ``train`` takes
it from its records, which must share it, and ``predict``, ``plan`` and
``evaluate`` refuse a record or problem (``1 / frame_time``) at another rate
before their first write.

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
from .schema import atomic_open, is_number
from .solver import SolverConfig


class UsageError(Exception):
    pass


class NumericFailure(Exception):
    pass


def _atomic_write(path, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)


def _write_json(path, doc) -> None:
    _atomic_write(path, json.dumps(doc, indent=1) + "\n")


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


def _same_rate(path, what, rate, ref_rate, ref="the model") -> None:
    """Raises a UsageError naming ``path`` and both rates when ``what`` runs
    at a frame rate other than ``ref``'s, to 1e-9 relative."""
    if abs(rate - ref_rate) > 1e-9 * ref_rate:
        raise UsageError(f"{path}: {what} runs at {rate:g} fps, {ref} at {ref_rate:g} fps; "
                         f"resample it to {ref_rate:g} fps")


def _out_dir(args) -> str:
    out = args.out or os.environ.get("COMOTION_OUT")
    if out is None:
        raise UsageError("missing output path (--out or COMOTION_OUT)")
    return out


def _at_least(args, **lows) -> None:
    """Raises a UsageError naming the first flag below its bound; a flag left
    at None is not checked."""
    for name, low in lows.items():
        value = getattr(args, name)
        if value is not None and value < low:
            raise UsageError(f"--{name.replace('_', '-')} must be at least {low}, got {value}")


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
    _at_least(args, count=1, frames=2)
    out = _out_dir(args)
    _write_manifest(out, args)
    cfg = dat.SynthConfig(num_trajectories=args.count, duration_frames=args.frames)
    records = dat.synth_generate(cfg, seed=args.seed)
    path = os.path.join(out, "synthetic.traj")
    dat.save_trajectories(records, path)
    print(f"wrote {len(records)} trajectories to {path}")
    return 0


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def cmd_train(args) -> int:
    data_path = _require(args.data, "dataset")
    _at_least(args, epochs=1, batch_size=1)
    for name in ("learning_rate", "learning_rate_decay"):
        value = getattr(args, name)
        if not (is_number(value) and value > 0):
            raise UsageError(f"--{name.replace('_', '-')} must be a positive finite number, "
                             f"got {value}")
    try:
        config = hm.ModelConfig(
            num_layers=args.layers,
            hidden_size=args.hidden,
            input_frames=args.input_frames,
            output_frames=args.output_frames,
        )
    except hm.ModelError as exc:
        raise UsageError(f"--layers, --hidden, --input-frames, --output-frames: {exc}") from None
    out = _out_dir(args)
    # the dataset is read, split and checked for windows before the first write
    records = dat.load_trajectories(data_path)
    if not records:
        raise UsageError(f"dataset is empty: {data_path}")
    for i, rec in enumerate(records):
        _same_rate(data_path, f"record {i}", rec.fps, records[0].fps, "record 0")
    config = replace(config, frame_rate=records[0].fps)
    split = dat.split_dataset(records, held_out_subject=args.held_out,
                              test_fraction=args.test_fraction, seed=args.seed)
    checked = []
    for what, part in (("train", split.train), ("test", split.test),
                       (f"--held-out {args.held_out}", split.held_out)):
        frames = [r.frames for r in part]
        checked.append((frames, hm.training_windows(frames, config,
                                                    f"{what} split of {len(frames)} records")))
    (train_frames, _), (test_frames, _), (held_frames, held_index) = checked
    _write_manifest(out, args)
    lines = []

    def progress(m):
        lines.append(json.dumps(asdict(m)))
        print(f"epoch {m.epoch}: train {m.train_loss:.4f} test {m.test_loss:.4f} "
              f"({m.seconds:.2f} s)", flush=True)

    result = hm.train(
        train_frames,
        config,
        args.seed,
        epochs=args.epochs,
        batch_size=args.batch_size,
        learning_rate=args.learning_rate,
        learning_rate_decay=args.learning_rate_decay,
        test_records=test_frames,
        progress=progress,
    )
    hm.save_params(result.best, os.path.join(out, "model.weights"))
    hm.save_params(result.params, os.path.join(out, "model-final.weights"))
    _atomic_write(os.path.join(out, "epochs.jsonl"), "\n".join(lines) + "\n")
    # the best weights on the held-out subject's windows, scored as the test split
    loss, base_err = hm._evaluate(result.best, config, held_frames, held_index)
    _write_json(os.path.join(out, "held_out.json"),
                {"subject": args.held_out, "windows": len(held_index), "loss": loss,
                 "base_pos_error": base_err})
    print(f"held-out {args.held_out}: loss {loss:.4f} over {len(held_index)} windows")
    print(f"wrote {os.path.join(out, 'model.weights')}")
    return 0


# ---------------------------------------------------------------------------
# predict
# ---------------------------------------------------------------------------


def cmd_predict(args) -> int:
    _at_least(args, start=0, frames=1)
    model = hm.load_params(_require(args.weights, "weight file"))
    records = dat.load_trajectories(_require(args.data, "trajectory file"))
    if not (0 <= args.record < len(records)):
        raise UsageError(f"record index {args.record} out of range (file has {len(records)})")
    rec = records[args.record]
    _same_rate(args.data, f"record {args.record}", rec.fps, model.config.frame_rate)
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
    dat.save_trajectories([out_rec], path)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------


def cmd_plan(args) -> int:
    problem_path = _require(args.problem, "problem file")
    problem = obj.load_problem(problem_path)
    solver_config = _solver_config(args)
    sample_config = _sample_config(args)
    if args.method not in ev.METHODS:
        raise UsageError(f"unknown method {args.method!r} (choose from {', '.join(ev.METHODS)})")
    # every input is read before the first write
    model = None if args.weights is None else hm.load_params(_require(args.weights, "weight file"))
    if model is None and ev.needs_model(problem, args.method):
        raise UsageError(f"method {args.method!r} needs model weights (--weights)")
    if model is not None:
        _same_rate(problem_path, "the problem", 1.0 / problem.weights.frame_time,
                   model.config.frame_rate)
    out = _out_dir(args)
    _write_manifest(out, args)
    obj.save_problem(problem, os.path.join(out, "problem.json"))

    record = ev.evaluate_problem(problem, args.method, model,
                                 problem_id=os.path.basename(problem_path),
                                 solver_config=solver_config, sample_config=sample_config,
                                 seed=args.seed)
    result = record.result
    doc = record.row()
    doc["partial"] = result.solver_status == "numeric-failure"
    if result.controls is not None:
        doc["controls"] = [[float(v) for v in row] for row in result.controls]
    if result.log is not None:
        _atomic_write(os.path.join(out, "iterations.jsonl"),
                      "\n".join(r.to_line() for r in result.log) + "\n")
    if result.human_traj is not None:
        fps = 1.0 / problem.weights.frame_time
        dat.save_trajectories([dat.TrajectoryRecord("plan", fps, result.human_traj)],
                              os.path.join(out, "human_traj.traj"))
    if result.robot_traj is not None:
        save_robot_trajectory(result.robot_traj, os.path.join(out, "robot_traj.txt"))
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
    """One ``evaluate`` task: (its row, None), or (None, its failure).  The
    row and failure of an alpha sweep's task carry its ``weight_robot``, the
    robot weight its problem already holds."""
    path, problem, method, weight_robot, model, seed, solver_config, sample_config = task
    tag = {} if weight_robot is None else {"weight_robot": weight_robot}
    try:
        row = ev.evaluate_problem(problem, method, model, problem_id=os.path.basename(path),
                                  solver_config=solver_config, sample_config=sample_config,
                                  seed=seed).row()
        return {**row, **tag}, None
    except Exception as exc:
        return None, {"task": str((path, method)), **tag, "error": str(exc)}


def _format_table(rows: list[dict]) -> str:
    if not rows:
        return "(no rows)\n"
    keys = [k for k in ("method", "weight_robot", "count", "success_rate") if k in rows[0]]
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
    if not args.problems:
        raise UsageError("missing --problems (an empty problem batch)")
    matches = [glob.glob(pattern) for pattern in args.problems]
    for pattern, found in zip(args.problems, matches):
        if not found:
            raise UsageError(f"--problems {pattern!r} matches no file (an empty problem batch)")
    # each file once, however many patterns match it
    paths = sorted({os.path.normpath(p) for found in matches for p in found})
    named: dict[str, str] = {}
    for path in paths:
        other = named.setdefault(os.path.basename(path), path)
        if other != path:
            raise UsageError(f"{other} and {path} share the file name that names their rows")
    _at_least(args, jobs=1)
    solver_config = _solver_config(args)
    sample_config = _sample_config(args)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    if not methods:
        raise UsageError(f"--methods names no method: {args.methods!r}")
    for m in methods:
        if m not in ev.METHODS:
            raise UsageError(f"unknown method {m!r}")
    alphas = _numbers(args.alpha_sweep, "--alpha-sweep", float) if args.alpha_sweep else (None,)
    # every input is read, and every problem re-weighted, before the first write
    sweeps = [[(alpha, _at_robot_weight(path, obj.load_problem(path), alpha)) for alpha in alphas]
              for path in paths]
    model = None if args.weights is None else hm.load_params(_require(args.weights, "weight file"))
    if model is not None:
        for path, sweep in zip(paths, sweeps):
            _same_rate(path, "the problem", 1.0 / sweep[0][1].weights.frame_time,
                       model.config.frame_rate)
    out = _out_dir(args)
    _write_manifest(out, args, extra={"problems": paths})

    tasks = [
        (path, problem, m, alpha, model, args.seed, solver_config, sample_config)
        for path, sweep in zip(paths, sweeps)
        for m in methods
        for alpha, problem in sweep
    ]
    jobs = min(args.jobs, len(tasks))
    pool = cf.ProcessPoolExecutor(max_workers=jobs) if jobs > 1 else None
    with pool or contextlib.nullcontext():
        results = list((pool.map if pool else map)(_evaluate_one, tasks))
    rows = [row for row, _ in results if row is not None]
    failures = [failure for _, failure in results if failure is not None]
    rows.sort(key=lambda r: (r["problem"], r["method"]))  # stable: weights stay in sweep order
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


def _at_robot_weight(path, problem, alpha):
    """``problem`` with robot weight ``alpha``, or as it is for None; a weight
    the problem's other weights do not admit is a UsageError naming the file
    and the weight."""
    if alpha is None:
        return problem
    try:
        return replace(problem, weights=replace(problem.weights, weight_robot=alpha))
    except obj.ProblemError as exc:
        raise UsageError(f"{path} at --alpha-sweep {alpha:g}: {exc}") from None


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
    """Plot data of a plan: ``scene.sdf`` samples the exact scene distance
    its collision rows read at ``environment.DEFAULT_RESOLUTION``."""
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
    grid = None if problem.scene is None else build_sdf(problem.scene)

    _write_manifest(out, args)
    if grid is not None:
        save_sdf(grid, os.path.join(out, "scene.sdf"))
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
                   help="comma-separated robot weights; runs every method at each "
                        "one, rows and summary entries carry their weight_robot")
    p.add_argument("--max-rounds", type=int, default=None)
    p.add_argument("--max-inner", type=int, default=None)
    p.add_argument("--jobs", type=int, default=os.cpu_count() or 1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("export", help="emit plot-ready grids and polylines")
    p.add_argument("--plan-dir", required=False)
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
