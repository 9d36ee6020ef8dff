"""End-to-end CLI tests on tiny configurations."""

import json
import os

import numpy as np
import pytest

from comotion import data as cd
from comotion import human_model as hm
from comotion import objectives as obj
from comotion import scenarios
from comotion.cli import main


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "tiny.traj"
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=6, duration_frames=16,
                                            reach_frames=4), seed=0)
    cd.save_trajectories(recs, path)
    return str(path)


@pytest.fixture(scope="module")
def tiny_weights(tmp_path_factory):
    out = tmp_path_factory.mktemp("model")
    cfg = hm.ModelConfig(num_layers=1, hidden_size=8, input_frames=4, output_frames=4,
                         dropout=0.0, recurrent_dropout=0.0)
    params = hm.init_params(cfg, seed=0)
    path = out / "tiny.weights"
    hm.save_params(params, path)
    return str(path)


def train_args(tiny_dataset, out, epochs=1):
    return [
        "train", "--data", tiny_dataset, "--out", out,
        "--layers", "1", "--hidden", "8", "--input-frames", "4", "--output-frames", "4",
        "--epochs", str(epochs), "--batch-size", "8", "--held-out", "synth5", "--seed", "3",
    ]


def test_missing_dataset_exits_2(tmp_path, capsys):
    rc = main(["train", "--data", str(tmp_path / "nope.traj"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "nope.traj" in capsys.readouterr().err


def test_missing_out_exits_2(tiny_dataset, monkeypatch):
    monkeypatch.delenv("COMOTION_OUT", raising=False)
    rc = main(["train", "--data", tiny_dataset])
    assert rc == 2


def test_train_writes_manifest_weights_and_epochs(tiny_dataset, tmp_path):
    out = str(tmp_path / "run")
    rc = main(train_args(tiny_dataset, out))
    assert rc == 0
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["seed"] == 3
    assert (tmp_path / "run" / "model.weights").exists()
    lines = (tmp_path / "run" / "epochs.jsonl").read_text().strip().splitlines()
    assert len(lines) == 1  # exactly one epoch trained, per the log


def test_train_seeded_runs_produce_identical_weights(tiny_dataset, tmp_path):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(train_args(tiny_dataset, out_a)) == 0
    assert main(train_args(tiny_dataset, out_b)) == 0
    wa = (tmp_path / "a" / "model.weights").read_bytes()
    wb = (tmp_path / "b" / "model.weights").read_bytes()
    assert wa == wb


def test_synth_round_trips(tmp_path):
    out = str(tmp_path / "synth")
    rc = main(["synth", "--count", "3", "--frames", "12", "--seed", "1", "--out", out])
    assert rc == 0
    recs = cd.load_trajectories(os.path.join(out, "synthetic.traj"))
    assert len(recs) == 3


def test_predict_roundtrip(tiny_dataset, tiny_weights, tmp_path):
    out = str(tmp_path / "pred")
    rc = main(["predict", "--weights", tiny_weights, "--data", tiny_dataset,
               "--record", "0", "--start", "0", "--frames", "5", "--out", out])
    assert rc == 0
    recs = cd.load_trajectories(os.path.join(out, "prediction.traj"))
    assert recs[0].frames.shape[0] == 5


@pytest.mark.parametrize("broken, named", [
    ("no fps", "lacks 'fps'"), ("no subject", "lacks 'subject'"), ("fps fast", "'fast'"),
])
def test_bad_trajectory_header_exits_2_naming_line_and_key(tiny_dataset, tmp_path, capsys,
                                                           broken, named):
    with open(tiny_dataset) as fh:
        lines = fh.read().splitlines()
    header = json.loads(lines[0])
    if broken == "fps fast":
        header["fps"] = "fast"
    else:
        del header[broken.split()[1]]
    lines[0] = json.dumps(header)
    path = tmp_path / "bad.traj"
    path.write_text("\n".join(lines) + "\n")
    assert main(train_args(str(path), str(tmp_path / "run"))) == 2
    err = capsys.readouterr().err
    assert "line 1" in err and named in err and "Traceback" not in err


def test_train_logs_epoch_wall_time(tiny_dataset, tmp_path):
    assert main(train_args(tiny_dataset, str(tmp_path / "run"))) == 0
    epoch = json.loads((tmp_path / "run" / "epochs.jsonl").read_text().splitlines()[0])
    assert epoch["seconds"] > 0.0 and np.isfinite(epoch["train_loss"])


def _rewrite_weight_header(src, dst, edit):
    with open(src, "rb") as fh:
        raw = fh.read()
    magic = len(b"COMOTION-WEIGHTS v1\n")
    hlen = int.from_bytes(raw[magic : magic + 4], "little")
    header = json.loads(raw[magic + 4 : magic + 4 + hlen])
    edit(header)
    blob = json.dumps(header).encode()
    dst.write_bytes(raw[:magic] + len(blob).to_bytes(4, "little") + blob
                    + raw[magic + 4 + hlen :])


@pytest.mark.parametrize("broken, named", [
    ("length prefix", "truncated header length"),
    ("no config", "'config'"),
    ("no arrays", "'arrays'"),
    ("unknown config key", "'depth'"),
    ("array without shape", "bad array entry"),
])
def test_predict_bad_weight_file_exits_2(tiny_dataset, tiny_weights, tmp_path, capsys,
                                         broken, named):
    path = tmp_path / "bad.weights"
    if broken == "length prefix":
        with open(tiny_weights, "rb") as fh:
            path.write_bytes(fh.read()[: len(b"COMOTION-WEIGHTS v1\n") + 2])
    elif broken == "unknown config key":
        _rewrite_weight_header(tiny_weights, path, lambda h: h["config"].update(depth=3))
    elif broken == "array without shape":
        _rewrite_weight_header(tiny_weights, path, lambda h: h["arrays"][0].pop("shape"))
    else:
        _rewrite_weight_header(tiny_weights, path, lambda h: h.pop(broken.split()[1]))
    rc = main(["predict", "--weights", str(path), "--data", tiny_dataset,
               "--record", "0", "--start", "0", "--frames", "5", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def toy_robot_problem(tmp_path, steps=2, target=(0.4, 0.0, 0.0)):
    """Robot-only line drive: difference objective makes u0 = d/steps unique."""
    problem = obj.ProblemSpec(
        horizon=steps,
        observed_human=None,
        robot_initial=np.zeros(7),
        constraints=[obj.ConstraintSpec(kind="goal", agent="robot", link="base",
                                        target=target)],
    )
    path = tmp_path / "toy.json"
    obj.save_problem(problem, path)
    return str(path)


def test_plan_toy_problem_matches_analytic_solution(tmp_path):
    # drive 0.2 m in 2 steps: by symmetry of the rate penalty both forward
    # controls equal 0.1 at the optimum
    path = toy_robot_problem(tmp_path, steps=2, target=(0.2, 0.0, 0.0))
    out = str(tmp_path / "plan")
    rc = main(["plan", "--problem", path, "--method", "ours", "--out", out])
    assert rc == 0
    doc = json.loads((tmp_path / "plan" / "result.json").read_text())
    controls = np.array(doc["controls"])
    assert controls.shape == (2, 6)
    assert np.allclose(controls[:, 0], 0.1, atol=1e-4)
    assert doc["status"] == "converged"
    assert doc["success"] is True
    assert (tmp_path / "plan" / "iterations.jsonl").exists()
    assert (tmp_path / "plan" / "robot_traj.txt").exists()


def test_plan_unknown_method_exits_2(tmp_path, capsys):
    path = toy_robot_problem(tmp_path)
    rc = main(["plan", "--problem", path, "--method", "sorcery", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "sorcery" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()  # rejected before any output is written


@pytest.mark.parametrize("flag, value", [("--methods", "sorcery")])
def test_evaluate_unknown_method_or_kind_exits_2_before_any_output(tmp_path, capsys, flag,
                                                                   value):
    path = toy_robot_problem(tmp_path)
    rc = main(["evaluate", "--problems", path, "--methods", "zerovel", flag, value,
               "--jobs", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert value in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("obstacle, named", [
    ({"kind": "triangle", "center": [0.5, 0.5], "half_extents": [0.1, 0.1]}, "'triangle'"),
    ({"kind": "rect", "center": [0.5, 0.5], "half_extents": [-0.1, 0.1]},
     "rectangle half-extents"),
    ({"kind": "disc", "center": [0.5, 0.5], "radius": 0.1, "radious": 0.2}, "'radious'"),
])
def test_plan_bad_scene_exits_2(tmp_path, capsys, obstacle, named):
    path = toy_robot_problem(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["scene"] = {"bounds": {"center": [0.0, 0.0], "half_extents": [2.0, 2.0]},
                    "obstacles": [obstacle]}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    rc = main(["plan", "--problem", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("broken", ["problem weights", "weights frame_time", "constraint kind",
                                    "rect half_extents"])
def test_plan_missing_key_exits_2_naming_it(tmp_path, capsys, broken):
    path = toy_robot_problem(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    if broken == "problem weights":
        del doc["weights"]
    elif broken == "weights frame_time":
        del doc["weights"]["frame_time"]
    elif broken == "constraint kind":
        del doc["constraints"][0]["kind"]
    else:
        doc["scene"] = {"bounds": {"center": [0.0, 0.0], "half_extents": [2.0, 2.0]},
                        "obstacles": [{"kind": "rect", "center": [0.5, 0.5]}]}
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert main(["plan", "--problem", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert f"'{broken.split()[1]}'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("timestep", ["all", 3.7, "7", True, 999, "final"])
def test_plan_bad_timestep_exits_2_before_any_output(tmp_path, capsys, timestep):
    """A constraint has no timestep: goal and handover rows read the final
    step, so a timestep key, "final" included, is an unknown key."""
    path = toy_robot_problem(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["constraints"][0]["timestep"] = timestep
    with open(path, "w") as fh:
        json.dump(doc, fh)
    assert main(["plan", "--problem", path, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert "'timestep'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


# a problem file edit and the key or field the error must name
_PROBLEM_EDITS = {
    "horizon not a number": (lambda doc: doc.update(horizon="sixty"), "horizon"),
    "horizon not an integer": (lambda doc: doc.update(horizon=doc["horizon"] + 0.7), "horizon"),
    "horizon 0": (lambda doc: doc.update(horizon=0), "horizon"),
    "unknown constraint key": (lambda doc: doc["constraints"][0].update(temprature=0.1),
                               "'temprature'"),
    "unknown weights key": (lambda doc: doc["weights"].update(weight_humna=1.0), "'weight_humna'"),
    # margin and temperature are no constraint keys: any value is an error
    "margin not a number": (lambda doc: doc["constraints"][0].update(margin="x"), "margin"),
    "negative temperature": (lambda doc: doc["constraints"][0].update(temperature=-1.0),
                             "temperature"),
    "2-number target": (lambda doc: doc["constraints"][0].update(target=[0.4, 0.0]), "target"),
    # a constraint has no aggregation key: each is one soft-max row
    "aggregation key": (lambda doc: doc["constraints"][0].update(aggregation="soft_max"),
                        "'aggregation'"),
    # an agent's role is which of its arrays are present; --weights names the
    # model
    "optimize_robot key": (lambda doc: doc.update(optimize_robot=False), "'optimize_robot'"),
    "model_path key": (lambda doc: doc.update(model_path="model.weights"), "'model_path'"),
    "3-number obstacle center": (lambda doc: doc.update(scene={
        "bounds": {"center": [0.0, 0.0], "half_extents": [2.0, 2.0]},
        "obstacles": [{"kind": "rect", "center": [0.5, 0.5, 0.0], "half_extents": [0.2, 0.2]}],
    }), "center"),
    "5-number robot_initial": (lambda doc: doc.update(robot_initial=[0.0] * 5), "robot_initial"),
    # the toy problem plans 2 steps of the 7-column robot
    "fixed_robot rows of 5": (lambda doc: doc.update(fixed_robot=[[0.0] * 5] * 2), "fixed_robot"),
    "fixed_human rows of 100": (lambda doc: doc.update(fixed_human=[[0.0] * 100] * 2),
                                "fixed_human"),
    "fixed_robot a row short": (lambda doc: doc.update(fixed_robot=[[0.0] * 7]), "fixed_robot"),
    # json reads NaN, Infinity and 1e400; none of them is a number
    "NaN weight_robot": (lambda doc: doc["weights"].update(weight_robot=float("nan")),
                         "weight_robot"),
    "Infinity frame_time": (lambda doc: doc["weights"].update(frame_time=float("inf")),
                            "frame_time"),
    "NaN obstacle radius": (lambda doc: doc.update(scene={
        "bounds": {"center": [0.0, 0.0], "half_extents": [2.0, 2.0]},
        "obstacles": [{"kind": "disc", "center": [0.5, 0.5], "radius": float("nan")}],
    }), "radius"),
    "Infinity bounds half-extent": (lambda doc: doc.update(scene={
        "bounds": {"center": [0.0, 0.0], "half_extents": [float("inf"), 2.0]}, "obstacles": [],
    }), "half_extents"),
    "NaN observed_human entry": (lambda doc: doc.update(
        horizon=4, observed_human=[[float("nan")] * 129, [0.0] * 129]), "observed_human"),
    "NaN robot_initial entry": (lambda doc: doc.update(robot_initial=[float("nan")] + [0.0] * 6),
                                "robot_initial"),
}


@pytest.mark.parametrize("broken", ["problem not JSON", "missing weights", *_PROBLEM_EDITS])
def test_plan_unreadable_input_exits_2_before_any_output(tmp_path, capsys, broken):
    path = toy_robot_problem(tmp_path)
    args = ["plan", "--problem", path, "--out", str(tmp_path / "o")]
    named = [path]
    if broken == "problem not JSON":
        with open(path, "w") as fh:
            fh.write("{not json")
    elif broken in _PROBLEM_EDITS:
        edit, field = _PROBLEM_EDITS[broken]
        named.append(field)
        with open(path) as fh:
            doc = json.load(fh)
        edit(doc)
        with open(path, "w") as fh:
            json.dump(doc, fh)
    else:
        named = [str(tmp_path / "missing.weights")]
        args += ["--method", "initial", "--weights", named[0]]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in named) and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def human_robot_problem(tmp_path):
    """Both agents optimized: the human needs the predictor for every method
    but zerovel."""
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=1, duration_frames=16,
                                            reach_frames=4), seed=0)
    observed = recs[0].frames[:4]
    rinit = np.zeros(7)
    rinit[:2] = observed[-1, :2] + np.array([1.0, 0.3])
    rinit[2] = np.pi
    problem = obj.ProblemSpec(
        horizon=4 + 4,
        observed_human=observed,
        robot_initial=rinit,
        constraints=[
            obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                               target=tuple(observed[-1, :2]) + (0.9,)),
            obj.ConstraintSpec(kind="goal", agent="robot", link="base",
                               target=(rinit[0] - 0.3, rinit[1], 0.0)),
            obj.ConstraintSpec(kind="joint_clearance", clearance=0.3),
        ],
    )
    path = tmp_path / "human_robot.json"
    obj.save_problem(problem, path)
    return str(path)


CAPPED = ["--samples", "3", "--max-rounds", "2", "--max-inner", "6", "--seed", "1"]


def test_plan_unknown_human_link_exits_2_naming_it(tmp_path, capsys):
    path = human_robot_problem(tmp_path)
    with open(path) as fh:
        doc = json.load(fh)
    doc["constraints"][0]["link"] = "rwrist"
    with open(path, "w") as fh:
        json.dump(doc, fh)
    rc = main(["plan", "--problem", path, "--method", "zerovel", *CAPPED,
               "--out", str(tmp_path / "plan")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "'rwrist'" in err
    assert "Traceback" not in err


def test_plan_zerovel_needs_no_weights(tmp_path):
    path = human_robot_problem(tmp_path)
    rc = main(["plan", "--problem", path, "--method", "zerovel", *CAPPED,
               "--out", str(tmp_path / "plan")])
    assert rc == 0
    rc = main(["plan", "--problem", path, "--method", "initial", *CAPPED,
               "--out", str(tmp_path / "plan_initial")])
    assert rc == 2


@pytest.mark.parametrize("method", ["ours", "sample", "robot_avoids"])
def test_plan_result_matches_evaluate_row(tiny_weights, tmp_path, method):
    path = human_robot_problem(tmp_path)
    weights = ["--weights", tiny_weights]
    assert main(["plan", "--problem", path, "--method", method, *weights, *CAPPED,
                 "--out", str(tmp_path / "plan")]) == 0
    assert main(["evaluate", "--problems", path, "--methods", method, "--jobs", "1",
                 *weights, *CAPPED, "--out", str(tmp_path / "eval")]) == 0
    doc = json.loads((tmp_path / "plan" / "result.json").read_text())
    (line,) = (tmp_path / "eval" / "records.jsonl").read_text().splitlines()
    row = json.loads(line)
    del doc["wall_time"], row["wall_time"]
    assert set(row) <= set(doc)
    assert {k: doc[k] for k in row} == row
    assert isinstance(doc["success"], bool)


def test_evaluate_empty_batch_exits_2(tmp_path, capsys):
    rc = main(["evaluate", "--problems", str(tmp_path / "*.json"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "empty" in capsys.readouterr().err


def test_evaluate_batch_summary(tmp_path):
    for i, d in enumerate((0.2, 0.3)):
        toy = toy_robot_problem(tmp_path, steps=3, target=(d, 0.0, 0.0))
        os.rename(toy, tmp_path / f"p{i}.json")
    out = str(tmp_path / "eval")
    rc = main(["evaluate", "--problems", str(tmp_path / "p*.json"),
               "--methods", "ours", "--jobs", "1", "--out", out])
    assert rc == 0
    rows = [json.loads(l) for l in (tmp_path / "eval" / "records.jsonl").read_text().splitlines()]
    assert len(rows) == 2
    summary = json.loads((tmp_path / "eval" / "summary.json").read_text())
    assert summary[0]["method"] == "ours"
    assert summary[0]["count"] == 2
    # medians recompute from the per-problem records
    med = np.median([r["travel_robot"] for r in rows])
    assert summary[0]["travel_robot"] == pytest.approx(med, rel=1e-12)
    assert (tmp_path / "eval" / "summary.txt").exists()


def test_evaluate_parallel_jobs_match_serial(tmp_path):
    for i, d in enumerate((0.2, 0.25, 0.3)):
        toy = toy_robot_problem(tmp_path, steps=3, target=(d, 0.0, 0.0))
        os.rename(toy, tmp_path / f"p{i}.json")
    out1 = str(tmp_path / "serial")
    out2 = str(tmp_path / "parallel")
    assert main(["evaluate", "--problems", str(tmp_path / "p*.json"), "--methods", "ours",
                 "--jobs", "1", "--out", out1]) == 0
    assert main(["evaluate", "--problems", str(tmp_path / "p*.json"), "--methods", "ours",
                 "--jobs", "2", "--out", out2]) == 0
    rows1 = (tmp_path / "serial" / "records.jsonl").read_text()
    rows2 = (tmp_path / "parallel" / "records.jsonl").read_text()
    strip = lambda text: [
        {k: v for k, v in json.loads(l).items() if k != "wall_time"}
        for l in text.splitlines()
    ]
    assert strip(rows1) == strip(rows2)


def test_evaluate_failures_are_in_task_order_for_every_jobs_value(tmp_path):
    """Without weights every ``initial`` task fails and every ``zerovel`` task
    completes; the pool writes the rows and failures the serial loop does."""
    for i, inst in enumerate(scenarios.make_handover_problems(2, 1)):
        obj.save_problem(inst.problem, tmp_path / f"h{i}.json")
    docs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["evaluate", "--problems", str(tmp_path / "h*.json"),
                     "--methods", "initial,zerovel", "--jobs", jobs, "--max-rounds", "2",
                     "--max-inner", "8", "--out", str(out)]) == 0
        rows = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        for row in rows:
            del row["wall_time"]
        docs.append((rows, (out / "failures.json").read_text()))
    assert docs[0] == docs[1]
    rows, failures = docs[0]
    assert [(r["problem"], r["method"]) for r in rows] == [("h0.json", "zerovel"),
                                                           ("h1.json", "zerovel")]
    assert [f["task"] for f in json.loads(failures)] == [
        str((str(tmp_path / f"h{i}.json"), "initial")) for i in range(2)]


@pytest.mark.parametrize("removed", ["sweep", "evaluate --aggregate", "predict --seed",
                                     "export --seed", "plan --robot", "evaluate --robot",
                                     "plan --kind", "evaluate --kind"])
def test_removed_command_or_flag_exits_2_before_any_output(tiny_dataset, tiny_weights,
                                                           tmp_path, capsys, removed):
    """Each call is complete but for its removed command or flag, which alone
    makes it a usage error."""
    plan_dir = tmp_path / "plan"
    plan_dir.mkdir()
    os.replace(toy_robot_problem(plan_dir), plan_dir / "problem.json")
    args = {
        "sweep": ["sweep", "--data", tiny_dataset, "--epochs", "1", "--batch-sizes", "8",
                  "--layer-counts", "1", "--hidden-sizes", "8", "--input-frames", "4",
                  "--output-frames", "4"],
        "evaluate --aggregate": ["evaluate", "--problems", str(plan_dir / "problem.json"),
                                 "--aggregate", "mean", "--max-rounds", "1", "--max-inner", "2"],
        "predict --seed": ["predict", "--weights", tiny_weights, "--data", tiny_dataset,
                           "--seed", "1"],
        "export --seed": ["export", "--plan-dir", str(plan_dir), "--seed", "1"],
        "plan --robot": ["plan", "--problem", str(plan_dir / "problem.json"),
                         "--robot", str(plan_dir / "problem.json")],
        "evaluate --robot": ["evaluate", "--problems", str(plan_dir / "problem.json"),
                             "--robot", str(plan_dir / "problem.json")],
        "plan --kind": ["plan", "--problem", str(plan_dir / "problem.json"), "--kind", "goal"],
        "evaluate --kind": ["evaluate", "--problems", str(plan_dir / "problem.json"),
                            "--kind", "goal"],
    }[removed]
    assert main(args + ["--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert removed.split()[-1] in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag, value, named", [
    ("--start", "-1", "--start must be at least 0"),
    ("--frames", "0", "--frames must be at least 1"),
    ("--record", "99", "record index 99"),
    ("--start", "13", "past the record end"),
])
def test_predict_bad_window_exits_2_before_any_output(tiny_dataset, tiny_weights, tmp_path,
                                                      capsys, flag, value, named):
    rc = main(["predict", "--weights", tiny_weights, "--data", tiny_dataset, flag, value,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_evaluate_bad_alpha_sweep_exits_2_naming_the_flag(tmp_path, capsys):
    """Each robot weight is checked as a weights field before any output."""
    path = toy_robot_problem(tmp_path)
    for alphas in ("1,x", "-1", "nan"):
        rc = main(["evaluate", "--problems", path, "--alpha-sweep", alphas,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--alpha-sweep" in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["plan", "evaluate"])
# --samples bounds the sample method's robot solves, one per sample
@pytest.mark.parametrize("flag, value", [("--max-rounds", "0"), ("--max-inner", "0"),
                                         ("--max-rounds", "-3"), ("--samples", "0")])
def test_solver_budget_below_1_exits_2_naming_the_flag(tmp_path, capsys, command, flag, value):
    path = toy_robot_problem(tmp_path)
    where = ["--problem", path] if command == "plan" else ["--problems", path, "--jobs", "1"]
    rc = main([command, *where, flag, value, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert flag in err and "at least 1" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()  # rejected before any output is written


def test_failed_atomic_write_keeps_the_old_file_and_leaves_no_temp_file(tmp_path):
    from comotion.cli import _atomic

    path = tmp_path / "model.weights"
    path.write_bytes(b"old weights")
    with pytest.raises(RuntimeError, match="disk full"):
        with _atomic(path) as tmp:
            with open(tmp, "wb") as fh:
                fh.write(b"half of the new")
            raise RuntimeError("disk full")
    assert path.read_bytes() == b"old weights"
    assert os.listdir(tmp_path) == ["model.weights"]


def test_export_round_trips_and_arclength(tmp_path):
    path = toy_robot_problem(tmp_path, steps=4, target=(0.3, 0.1, 0.0))
    plan_out = str(tmp_path / "plan")
    assert main(["plan", "--problem", path, "--method", "ours", "--out", plan_out]) == 0
    doc = json.loads((tmp_path / "plan" / "result.json").read_text())
    out = str(tmp_path / "export")
    rc = main(["export", "--plan-dir", plan_out, "--out", out])
    assert rc == 0
    pts = np.array([[float(v) for v in l.split()]
                    for l in (tmp_path / "export" / "robot_path.txt").read_text().splitlines()])
    arclength = float(np.sum(np.linalg.norm(np.diff(pts, axis=0), axis=1)))
    assert arclength == pytest.approx(doc["travel_robot"], abs=1e-9)
    assert (tmp_path / "export" / "iterations.csv").exists()


def test_export_standing_trajectory_single_point(tmp_path):
    # a goal already at the start keeps the robot still: one-point polyline
    path = toy_robot_problem(tmp_path, steps=3, target=(0.0, 0.0, 0.0))
    plan_out = str(tmp_path / "plan0")
    assert main(["plan", "--problem", path, "--method", "ours", "--out", plan_out]) == 0
    out = str(tmp_path / "export0")
    assert main(["export", "--plan-dir", plan_out, "--out", out]) == 0
    lines = (tmp_path / "export0" / "robot_path.txt").read_text().strip().splitlines()
    assert len(lines) == 1


@pytest.mark.parametrize("name, old, new", [
    pytest.param("robot_traj.txt", " 0.0 ", " 0.0x ", id="non-numeric-entry"),
    pytest.param("robot_traj.txt", "[3, 7]", "[4, 7]", id="rows-not-dims"),
    pytest.param("robot_traj.txt", "-robot-trajectory", "-sdf", id="foreign-format"),
    pytest.param("iterations.jsonl", "}\n", "\n", id="broken-iteration-line"),
])
def test_export_corrupt_plan_file_exits_2_naming_it(tmp_path, capsys, name, old, new):
    path = toy_robot_problem(tmp_path, steps=3, target=(0.2, 0.0, 0.0))
    plan_out = tmp_path / "plan"
    assert main(["plan", "--problem", path, "--method", "ours", "--out", str(plan_out)]) == 0
    text = (plan_out / name).read_text()
    assert old in text
    (plan_out / name).write_text(text.replace(old, new, 1))
    rc = main(["export", "--plan-dir", str(plan_out), "--out", str(tmp_path / "export")])
    assert rc == 2
    err = capsys.readouterr().err
    assert name in err and "Traceback" not in err
    assert not (tmp_path / "export").exists()  # nothing written before the inputs check out


def test_export_empty_human_trajectory_exits_2_writing_nothing(tmp_path, capsys):
    from comotion import scenarios

    path = tmp_path / "handover.json"
    obj.save_problem(scenarios.make_handover_problems(1, 1)[0].problem, path)
    plan_out = tmp_path / "plan"
    assert main(["plan", "--problem", str(path), "--method", "zerovel", "--max-rounds", "1",
                 "--max-inner", "2", "--out", str(plan_out)]) == 0
    (plan_out / "human_traj.traj").write_text("")
    rc = main(["export", "--plan-dir", str(plan_out), "--out", str(tmp_path / "export")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "human_traj.traj" in err and "Traceback" not in err
    assert not (tmp_path / "export").exists()


def test_export_sdf_header_round_trip(tmp_path):
    from comotion.environment import Rect, Scene, load_sdf

    problem = obj.ProblemSpec(
        horizon=3,
        robot_initial=np.zeros(7),
        scene=Scene((), Rect((0.0, 0.0), (1.0, 1.0))),
        constraints=[obj.ConstraintSpec(kind="goal", agent="robot", link="base",
                                        target=(0.2, 0.0, 0.0))],
    )
    ppath = tmp_path / "scene_problem.json"
    obj.save_problem(problem, ppath)
    plan_out = str(tmp_path / "plan")
    assert main(["plan", "--problem", str(ppath), "--method", "ours", "--out", plan_out]) == 0
    out = str(tmp_path / "export")
    assert main(["export", "--plan-dir", plan_out, "--resolution", "0.25", "--out", out]) == 0
    grid = load_sdf(os.path.join(out, "scene.sdf"))
    assert grid.resolution == 0.25
    assert grid.values.shape[0] >= 2


def test_version_flag():
    with pytest.raises(SystemExit):
        import comotion.cli as c

        c.build_parser().parse_args(["--version"])
