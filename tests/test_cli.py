"""End-to-end CLI tests on tiny configurations."""

import concurrent.futures as cf
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from comotion import data as cd
from comotion import evaluation as ev
from comotion import human_model as hm
from comotion import objectives as obj
from comotion import scenarios
from comotion.cli import main


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    """Two 16-frame records per subject, so every subject but the held-out
    one puts a record into the test split."""
    path = tmp_path_factory.mktemp("data") / "tiny.traj"
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=12, duration_frames=16,
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


@pytest.mark.parametrize("flag, value, named", [
    ("--held-out", "nobody", ("'nobody'", "synth0, synth1")),
    ("--test-fraction", "1.5", ("test fraction", "1.5")),
    ("--test-fraction", "-1", ("test fraction", "-1")),
    # the tiny dataset's records are 16 frames long
    ("--input-frames", "13", ("17-frame windows",)),
])
def test_train_bad_split_or_window_exits_2_before_any_output(tiny_dataset, tmp_path, capsys,
                                                             flag, value, named):
    rc = main([*train_args(tiny_dataset, str(tmp_path / "o")), flag, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(name in err for name in named) and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_train_scores_the_held_out_subject(tiny_dataset, tmp_path):
    """held_out.json scores the saved best weights on every window of the
    held-out subject's records, as each epoch's test loss scores the test split."""
    assert main(train_args(tiny_dataset, str(tmp_path / "run"))) == 0
    doc = json.loads((tmp_path / "run" / "held_out.json").read_text())
    held = [r.frames for r in cd.load_trajectories(tiny_dataset) if r.subject == "synth5"]
    windows = [(ri, s) for ri, f in enumerate(held) for s in range(len(f) - 7)]
    best = hm.load_params(tmp_path / "run" / "model.weights")
    loss, base_pos_error = hm._evaluate(best, best.config, held, windows)
    assert doc == {"subject": "synth5", "windows": 18, "loss": loss,
                   "base_pos_error": base_pos_error}


def test_train_test_split_without_a_window_exits_2_before_any_output(tiny_dataset, tmp_path,
                                                                     capsys):
    """The test split's records are cut below one window."""
    records = cd.load_trajectories(tiny_dataset)
    test = {id(r) for r in cd.split_dataset(records, "synth5", seed=3).test}
    assert len(test) == 5
    short = [replace(r, frames=r.frames[:6]) if id(r) in test else r for r in records]
    path = tmp_path / "short.traj"
    cd.save_trajectories(short, path)
    assert main(train_args(str(path), str(tmp_path / "o"))) == 2
    err = capsys.readouterr().err
    assert "test split of 5 records" in err and "8-frame windows" in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_train_one_record_per_subject_exits_2_before_any_output(tmp_path, capsys):
    """No subject but the held-out one has the two records that put one into
    the test split, which would leave every epoch's test loss NaN."""
    records = cd.synth_generate(cd.SynthConfig(num_trajectories=6, duration_frames=16,
                                               reach_frames=4), seed=0)
    path = tmp_path / "six.traj"
    cd.save_trajectories(records, path)
    assert main(train_args(str(path), str(tmp_path / "o"))) == 2
    err = capsys.readouterr().err
    assert "empty test split" in err and "'synth5'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_train_held_out_subject_without_a_window_exits_2_before_any_output(tiny_dataset,
                                                                            tmp_path, capsys):
    records = cd.load_trajectories(tiny_dataset)
    short = [replace(r, frames=r.frames[:6]) if r.subject == "synth5" else r for r in records]
    path = tmp_path / "short.traj"
    cd.save_trajectories(short, path)
    assert main(train_args(str(path), str(tmp_path / "o"))) == 2
    err = capsys.readouterr().err
    assert "--held-out synth5" in err and "8-frame windows" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


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


def test_train_logs_epoch_wall_time(tiny_dataset, tmp_path, capsys):
    """epochs.jsonl keeps each epoch's wall time, and the epoch's printed
    line shows it next to the two losses."""
    assert main(train_args(tiny_dataset, str(tmp_path / "run"))) == 0
    epoch = json.loads((tmp_path / "run" / "epochs.jsonl").read_text().splitlines()[0])
    assert epoch["seconds"] > 0.0
    assert np.isfinite(epoch["train_loss"]) and np.isfinite(epoch["test_loss"])
    line = (f"epoch 0: train {epoch['train_loss']:.4f} test {epoch['test_loss']:.4f} "
            f"({epoch['seconds']:.2f} s)")
    assert line in capsys.readouterr().out.splitlines()


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


@pytest.mark.parametrize("key, value", [("num_layers", "1"), ("hidden_size", 4.0),
                                        ("frame_rate", float("nan")), ("dropout", 1.5)])
def test_plan_bad_weight_config_exits_2_before_any_output(tiny_weights, tmp_path, capsys,
                                                          key, value):
    path = tmp_path / "bad.weights"
    _rewrite_weight_header(tiny_weights, path, lambda h: h["config"].update({key: value}))
    rc = main(["plan", "--problem", human_robot_problem(tmp_path), "--method", "ours",
               "--weights", str(path), *CAPPED, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(path) in err and key in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def toy_robot_problem(tmp_path, steps=2, target=(0.4, 0.0, 0.0)):
    """Robot-only line drive: difference objective makes u0 = d/steps unique."""
    problem = obj.ProblemSpec(
        steps=steps,
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


@pytest.mark.parametrize("flag, value", [("--methods", "sorcery"), ("--methods", ",")])
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
    "steps not a number": (lambda doc: doc.update(steps="sixty"), "steps"),
    "steps not an integer": (lambda doc: doc.update(steps=doc["steps"] + 0.7), "steps"),
    "steps 0": (lambda doc: doc.update(steps=0), "steps"),
    # a problem states its planned steps, not the frames of a horizon
    "horizon key": (lambda doc: doc.update(horizon=doc.pop("steps") + 4), "'horizon'"),
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
        observed_human=[[float("nan")] * 129, [0.0] * 129]), "observed_human"),
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


def human_robot_problem(tmp_path, name="human_robot.json", robot_shift=0.3):
    """Both agents optimized: the human needs the predictor for every method
    but zerovel.  The robot's goal lies ``robot_shift`` behind its start."""
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=1, duration_frames=16,
                                            reach_frames=4), seed=0)
    observed = recs[0].frames[:4]
    rinit = np.zeros(7)
    rinit[:2] = observed[-1, :2] + np.array([1.0, 0.3])
    rinit[2] = np.pi
    problem = obj.ProblemSpec(
        steps=4,
        observed_human=observed,
        robot_initial=rinit,
        constraints=[
            obj.ConstraintSpec(kind="goal", agent="human", link="rWrist",
                               target=tuple(observed[-1, :2]) + (0.9,)),
            obj.ConstraintSpec(kind="goal", agent="robot", link="base",
                               target=(rinit[0] - robot_shift, rinit[1], 0.0)),
            obj.ConstraintSpec(kind="joint_clearance", clearance=0.3),
        ],
    )
    path = tmp_path / name
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


@pytest.mark.parametrize("command", ["plan", "evaluate"])
@pytest.mark.parametrize("method", ev.METHODS)
def test_bad_weight_file_exits_2_before_any_output_for_every_method(tmp_path, capsys, command,
                                                                     method):
    """A given ``--weights`` is read before the first write, whether or not
    the method uses the model."""
    junk = tmp_path / "junk.weights"
    junk.write_bytes(b"garbage")
    path = human_robot_problem(tmp_path)
    where = (["--problem", path, "--method", method] if command == "plan"
             else ["--problems", path, "--methods", method])
    rc = main([command, *where, "--weights", str(junk), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(junk) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


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


def test_evaluate_without_problems_exits_2_before_any_output(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["evaluate", "--out", str(out)]) == 2
    assert "--problems" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_unmatched_pattern_exits_2_before_any_output(tmp_path, capsys):
    """One pattern that matches no file fails the batch, even when another
    pattern matches."""
    path = toy_robot_problem(tmp_path)
    typo = str(tmp_path / "typo.json")
    rc = main(["evaluate", "--problems", path, typo, "--methods", "zerovel",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert repr(typo) in err and "empty problem batch" in err
    assert not (tmp_path / "o").exists()


def test_plan_without_robot_writes_a_null_status(tmp_path):
    """A forecast method on a problem that plans no robot runs no solve."""
    path = str(tmp_path / "reach.json")
    obj.save_problem(scenarios.make_reach_problems(1, 1)[0].problem, path)
    assert main(["plan", "--problem", path, "--method", "zerovel",
                 "--out", str(tmp_path / "plan")]) == 0
    doc = json.loads((tmp_path / "plan" / "result.json").read_text())
    assert doc["status"] is None and doc["objective"] == 0.0


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


def _summary(out):
    """``summary.json`` without its wall-time medians, which differ run to run."""
    return [{k: v for k, v in entry.items() if k != "wall_time"}
            for entry in json.loads((out / "summary.json").read_text())]


def test_evaluate_alpha_sweep_summarizes_each_weight_for_every_jobs_value(tiny_weights,
                                                                          tmp_path):
    """Every sweep row carries its robot weight, and each summary entry holds
    the medians and success rate of its weight's rows; the pool writes what
    the serial loop does."""
    for i, shift in enumerate((0.3, 0.5)):
        human_robot_problem(tmp_path, name=f"p{i}.json", robot_shift=shift)
    docs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert main(["evaluate", "--problems", str(tmp_path / "p*.json"), "--alpha-sweep",
                     "1,100", "--weights", tiny_weights, "--jobs", jobs, *CAPPED,
                     "--out", str(out)]) == 0
        rows = [json.loads(l) for l in (out / "records.jsonl").read_text().splitlines()]
        docs.append((_summary(out), rows))
    assert docs[0][0] == docs[1][0]
    summary, rows = docs[0]
    assert [(r["problem"], r["weight_robot"]) for r in rows] == [
        ("p0.json", 1.0), ("p0.json", 100.0), ("p1.json", 1.0), ("p1.json", 100.0)]
    assert [(e["method"], e["weight_robot"], e["count"]) for e in summary] == [
        ("ours", 1.0, 2), ("ours", 100.0, 2)]
    for entry in summary:
        own = [r for r in rows if r["weight_robot"] == entry["weight_robot"]]
        for key in ("travel_human", "travel_robot", "objective"):
            assert entry[key] == float(np.median([r[key] for r in own]))
        assert entry["success_rate"] == 100.0 * float(np.mean([r["success"] for r in own]))


def test_evaluate_alpha_sweep_of_a_robot_only_problem(tmp_path):
    """A robot-only problem has no human travel, which its entries skip."""
    path = toy_robot_problem(tmp_path)
    out = tmp_path / "sweep"
    assert main(["evaluate", "--problems", path, "--alpha-sweep", "1,10", "--jobs", "1",
                 "--out", str(out)]) == 0
    summary = _summary(out)
    assert [(e["weight_robot"], e["count"]) for e in summary] == [(1.0, 1), (10.0, 1)]
    assert all("travel_human" not in e and "travel_robot" in e for e in summary)


@pytest.mark.parametrize("sweep", [[], ["--alpha-sweep", "1"]])
def test_evaluate_unreadable_problem_exits_2_before_any_output(tmp_path, capsys, sweep):
    good = toy_robot_problem(tmp_path)
    bad = tmp_path / "bad.json"
    with open(good) as fh:
        doc = json.load(fh)
    del doc["steps"]
    with open(bad, "w") as fh:
        json.dump(doc, fh)
    rc = main(["evaluate", "--problems", good, str(bad), *sweep, "--jobs", "1",
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bad) in err and "'steps'" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_evaluate_jobs_below_1_exits_2_naming_the_flag(tmp_path, capsys, jobs):
    rc = main(["evaluate", "--problems", toy_robot_problem(tmp_path), "--jobs", jobs,
               "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "--jobs" in err and "at least 1" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_evaluate_pool_has_no_more_workers_than_tasks(tmp_path, monkeypatch):
    """A pool forks all its workers at the first task, so it gets at most one
    per task; a one-task batch, like ``--jobs 1``, runs without a pool."""
    seen = []

    class RecordingPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(cf, "ProcessPoolExecutor", RecordingPool)
    for i in range(2):
        os.rename(toy_robot_problem(tmp_path), tmp_path / f"p{i}.json")
    for i, (pattern, jobs) in enumerate([("p0.json", "3"), ("p*.json", "3"), ("p*.json", "1")]):
        assert main(["evaluate", "--problems", str(tmp_path / pattern), "--jobs", jobs,
                     "--out", str(tmp_path / f"o{i}")]) == 0
    assert seen == [2]


@pytest.mark.parametrize("removed", ["sweep", "evaluate --aggregate", "predict --seed",
                                     "export --seed", "export --resolution",
                                     "plan --robot", "evaluate --robot",
                                     "plan --kind", "evaluate --kind",
                                     "synth --count", "synth --frames", "train --epochs",
                                     "train --batch-size", "train --layers",
                                     "train --learning-rate", "train --learning-rate-decay"])
def test_removed_command_or_flag_exits_2_before_any_output(tiny_dataset, tiny_weights,
                                                           tmp_path, capsys, removed):
    """Each call is complete but for its removed command or flag, or for the
    out-of-range value its last flag is given, which alone makes it a usage
    error."""
    plan_dir = tmp_path / "plan"
    plan_dir.mkdir()
    os.replace(toy_robot_problem(plan_dir), plan_dir / "problem.json")
    train = train_args(tiny_dataset, str(tmp_path / "o"))
    args = {
        "sweep": ["sweep", "--data", tiny_dataset, "--epochs", "1", "--batch-sizes", "8",
                  "--layer-counts", "1", "--hidden-sizes", "8", "--input-frames", "4",
                  "--output-frames", "4"],
        "evaluate --aggregate": ["evaluate", "--problems", str(plan_dir / "problem.json"),
                                 "--aggregate", "mean", "--max-rounds", "1", "--max-inner", "2"],
        "predict --seed": ["predict", "--weights", tiny_weights, "--data", tiny_dataset,
                           "--seed", "1"],
        "export --seed": ["export", "--plan-dir", str(plan_dir), "--seed", "1"],
        "export --resolution": ["export", "--plan-dir", str(plan_dir), "--resolution", "0.05"],
        "plan --robot": ["plan", "--problem", str(plan_dir / "problem.json"),
                         "--robot", str(plan_dir / "problem.json")],
        "evaluate --robot": ["evaluate", "--problems", str(plan_dir / "problem.json"),
                             "--robot", str(plan_dir / "problem.json")],
        "plan --kind": ["plan", "--problem", str(plan_dir / "problem.json"), "--kind", "goal"],
        "evaluate --kind": ["evaluate", "--problems", str(plan_dir / "problem.json"),
                            "--kind", "goal"],
        "synth --count": ["synth", "--count", "0"],
        "synth --frames": ["synth", "--count", "1", "--frames", "1"],
        "train --epochs": [*train, "--epochs", "-1"],
        "train --batch-size": [*train, "--batch-size", "0"],
        "train --layers": [*train, "--layers", "0"],
        "train --learning-rate": [*train, "--learning-rate", "nan"],
        "train --learning-rate-decay": [*train, "--learning-rate-decay", "0"],
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


def test_evaluate_alpha_sweep_weights_no_problem_admits_exit_2_before_any_output(tmp_path,
                                                                                  capsys):
    """A robot weight of 0 on a problem whose human weight is 0 leaves no
    positive weight: the sweep names the file and the weight, and writes nothing."""
    path = tmp_path / "handover.json"
    problem = scenarios.make_handover_problems(1, 1)[0].problem
    obj.save_problem(replace(problem, weights=replace(problem.weights, weight_human=0.0)), path)
    rc = main(["evaluate", "--problems", str(path), "--methods", "zerovel", "--alpha-sweep",
               "1,0", "--jobs", "1", *CAPPED, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{path} at --alpha-sweep 0" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_evaluate_reads_each_problem_file_once(tmp_path):
    """Patterns that match one file twice give one row per method, not two."""
    path = toy_robot_problem(tmp_path)
    out = tmp_path / "eval"
    assert main(["evaluate", "--problems", path, str(tmp_path / "*.json"), path,
                 "--jobs", "1", "--out", str(out)]) == 0
    rows = (out / "records.jsonl").read_text().splitlines()
    assert [json.loads(r)["problem"] for r in rows] == ["toy.json"]
    assert [e["count"] for e in json.loads((out / "summary.json").read_text())] == [1]
    assert json.loads((out / "manifest.json").read_text())["problems"] == [path]


def test_evaluate_two_files_of_one_name_exit_2_before_any_output(tmp_path, capsys):
    """Rows are named by file name, so two files of one name are refused."""
    paths = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        paths.append(toy_robot_problem(tmp_path / name))
    rc = main(["evaluate", "--problems", *paths, "--jobs", "1", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert all(p in err for p in paths) and "Traceback" not in err
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
    from comotion.schema import atomic_open

    path = tmp_path / "model.weights"
    path.write_bytes(b"old weights")
    with pytest.raises(RuntimeError, match="disk full"):
        with atomic_open(path, "wb") as fh:
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


@pytest.mark.parametrize("scene", [
    None, {"bounds": {"center": [0.0, 0.0], "half_extents": [1.0, 1.0]}, "obstacles": []},
], ids=["no scene", "no obstacle"])
def test_collision_constraint_without_an_obstacle_exits_2_writing_nothing(tmp_path, capsys,
                                                                          scene):
    path = toy_robot_problem(tmp_path)
    doc = json.loads((tmp_path / "toy.json").read_text())
    doc["constraints"].append({"kind": "collision", "agent": "robot"})
    doc["scene"] = scene
    (tmp_path / "toy.json").write_text(json.dumps(doc))
    message = "a collision constraint needs a scene with an obstacle"
    with pytest.raises(obj.ProblemError, match=message):
        obj.load_problem(path)
    rc = main(["plan", "--problem", path, "--method", "ours", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def test_export_sdf_header_round_trip(tmp_path):
    from comotion.environment import Rect, Scene, build_sdf, load_sdf

    problem = obj.ProblemSpec(
        steps=3,
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
    assert main(["export", "--plan-dir", plan_out, "--out", out]) == 0
    grid = load_sdf(os.path.join(out, "scene.sdf"))
    # the exact distance the collision rows read, sampled on the default grid
    expected = build_sdf(problem.scene)
    assert grid.resolution == expected.resolution
    assert np.array_equal(grid.origin, expected.origin)
    assert np.array_equal(grid.values, expected.values)


def test_version_flag():
    with pytest.raises(SystemExit):
        import comotion.cli as c

        c.build_parser().parse_args(["--version"])


def relabel(src, dst, fps, only=None):
    """The trajectory file ``src`` with every record, or record ``only``,
    relabelled to ``fps``, written to ``dst``."""
    recs = cd.load_trajectories(src)
    cd.save_trajectories([replace(r, fps=fps) if only in (None, i) else r
                          for i, r in enumerate(recs)], dst)
    return str(dst)


def test_train_takes_the_frame_rate_from_its_records(tiny_dataset, tmp_path):
    data = relabel(tiny_dataset, tmp_path / "fast.traj", 30.0)
    assert main(train_args(data, str(tmp_path / "run"))) == 0
    assert hm.load_params(tmp_path / "run" / "model.weights").config.frame_rate == 30.0


def test_train_mixed_frame_rates_exit_2_before_any_output(tiny_dataset, tmp_path, capsys):
    data = relabel(tiny_dataset, tmp_path / "mixed.traj", 30.0, only=2)
    assert main(train_args(data, str(tmp_path / "run"))) == 2
    err = capsys.readouterr().err
    assert data in err and "30 fps" in err and "20 fps" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


def test_predict_record_at_another_frame_rate_exits_2_before_any_output(tiny_dataset,
                                                                        tiny_weights, tmp_path,
                                                                        capsys):
    data = relabel(tiny_dataset, tmp_path / "fast.traj", 30.0)
    rc = main(["predict", "--weights", tiny_weights, "--data", data, "--out",
               str(tmp_path / "pred")])
    assert rc == 2
    err = capsys.readouterr().err
    assert data in err and "30 fps" in err and "20 fps" in err and "Traceback" not in err
    assert not (tmp_path / "pred").exists()


@pytest.mark.parametrize("command", ["plan", "evaluate"])
@pytest.mark.parametrize("method", ["ours", "zerovel"])
def test_problem_at_another_frame_rate_exits_2_before_any_output(tiny_weights, tmp_path, capsys,
                                                                 command, method):
    """A problem whose 1 / frame_time is not the model's rate is refused when
    ``--weights`` is given, whether or not the method uses the model; a rate
    within 1e-9 relative of it passes."""
    problem = obj.load_problem(human_robot_problem(tmp_path))
    for frame_time, rc in ((1.0 / 30.0, 2), (0.05 * (1.0 + 1e-12), 0)):
        path = tmp_path / "rate.json"
        obj.save_problem(replace(problem, weights=replace(problem.weights,
                                                          frame_time=frame_time)), path)
        where = (["--problem", str(path), "--method", method] if command == "plan"
                 else ["--problems", str(path), "--methods", method, "--jobs", "1"])
        out = tmp_path / f"o{rc}"
        assert main([command, *where, "--weights", tiny_weights, *CAPPED,
                     "--out", str(out)]) == rc
        assert out.exists() == (rc == 0)
    err = capsys.readouterr().err
    assert str(path) in err and "30 fps" in err and "20 fps" in err and "Traceback" not in err
