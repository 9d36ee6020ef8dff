"""Trajectory IO, preprocessing, dataset split and synthetic generation tests."""

import os
import re
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comotion import data as cd
from comotion import human_model as hm
from comotion.human_model import ModelConfig
from comotion.kinematics import (
    HUMAN_JOINT_NAMES,
    NUM_JOINTS,
    STATE_DIM,
    forward_kinematics,
    rot6d_from_quat,
)
from helpers import identity_state
from test_kinematics import NONPOSITIVE_TRACE, quaternion_lists


def make_record(n=10, subject="s0", fps=20.0, seed=0):
    rng = np.random.default_rng(seed)
    frames = np.tile(identity_state((0.1, 0.2, 0.9)), (n, 1))
    frames[:, 0] += 0.02 * np.arange(n)
    frames[:, 1] += 0.005 * rng.normal(size=n)
    return cd.TrajectoryRecord(subject=subject, fps=fps, frames=frames)


def test_record_validation():
    with pytest.raises(cd.DataError):
        cd.TrajectoryRecord("s", 20.0, np.zeros((1, STATE_DIM)))
    for fps in (0.0, float("nan"), float("inf")):
        with pytest.raises(cd.DataError, match="frame rate"):
            cd.TrajectoryRecord("s", fps, np.zeros((5, STATE_DIM)))
    with pytest.raises(cd.DataError):
        cd.TrajectoryRecord("s", 20.0, np.zeros((5, 7)))


def test_empty_file_loads_empty_list(tmp_path):
    path = tmp_path / "empty.traj"
    path.write_text("")
    assert cd.load_trajectories(path) == []


def test_round_trip_preserves_structure(tmp_path):
    recs = [make_record(12, "a"), make_record(8, "b", seed=1)]
    recs[0].annotations = {"goal": [1.0, 2.0, 0.8], "goal_frame": 11}
    path = tmp_path / "two.traj"
    cd.save_trajectories(recs, path)
    loaded = cd.load_trajectories(path)
    assert len(loaded) == 2
    assert loaded[0].subject == "a" and loaded[1].subject == "b"
    assert loaded[0].annotations["goal_frame"] == 11
    for orig, back in zip(recs, loaded):
        assert back.frames.shape == orig.frames.shape
        # base positions survive exactly (written with shortest round-trip repr)
        assert np.array_equal(back.frames[:, :3], orig.frames[:, :3])
        # rotations pass through a quaternion, which orthonormalizes
        assert np.allclose(back.frames[:, 3:], orig.frames[:, 3:], atol=1e-12)


finite = st.floats(-50.0, 50.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=20, deadline=None, derandomize=True, database=None)
@given(drawn=quaternion_lists,
       bases=st.lists(st.tuples(finite, finite, finite), min_size=2, max_size=4))
def test_file_round_trip_keeps_bases_exact_and_rotations_close(drawn, bases):
    """Saving then loading keeps base positions bit-exact and rotations
    within 1e-12, with rotations from both Shepperd branches in every record."""
    n = len(bases)
    quats = np.resize(np.vstack([np.array(drawn), NONPOSITIVE_TRACE]), (n, NUM_JOINTS, 4))
    frames = np.concatenate([np.array(bases), rot6d_from_quat(quats).reshape(n, -1)], axis=1)
    record = cd.TrajectoryRecord("s1", 12.5, frames, {"note": "x"})
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "r.traj")
        cd.save_trajectories([record], path)
        (back,) = cd.load_trajectories(path)
    assert (back.subject, back.fps, back.annotations) == ("s1", 12.5, {"note": "x"})
    assert np.array_equal(back.frames[:, :3], frames[:, :3])
    np.testing.assert_allclose(back.frames[:, 3:], frames[:, 3:], rtol=0, atol=1e-12)


def test_truncated_frame_reports_line_number(tmp_path):
    recs = [make_record(5)]
    path = tmp_path / "trunc.traj"
    cd.save_trajectories(recs, path)
    lines = path.read_text().splitlines()
    lines[3] = " ".join(lines[3].split()[:-2])  # drop two numbers from frame 3
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(cd.DataError, match=re.escape(f"{path}: line 4:")):
        cd.load_trajectories(path)


def test_non_numeric_frame_rejected(tmp_path):
    recs = [make_record(5)]
    path = tmp_path / "bad.traj"
    cd.save_trajectories(recs, path)
    lines = path.read_text().splitlines()
    parts = lines[2].split()
    parts[5] = "banana"
    lines[2] = " ".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(cd.DataError, match=re.escape(f"{path}: line 3:")):
        cd.load_trajectories(path)


def test_fuzzed_truncation_never_partially_loads(tmp_path):
    rng = np.random.default_rng(2)
    recs = [make_record(6), make_record(6, "b", seed=3)]
    path = tmp_path / "full.traj"
    cd.save_trajectories(recs, path)
    text = path.read_text()
    for _ in range(30):
        cut = int(rng.integers(1, len(text) - 1))
        mutated = tmp_path / "cut.traj"
        mutated.write_text(text[:cut])
        try:
            loaded = cd.load_trajectories(mutated)
        except cd.DataError:
            continue  # rejected loudly: good
        # if it parsed, every surviving record must be complete and valid
        for rec in loaded:
            assert rec.frames.shape[0] >= 2
            assert np.all(np.isfinite(rec.frames))


def test_windows_counts():
    """Training draws every contiguous window of input + output frames."""
    config = hm.ModelConfig()  # 20 + 20 frames
    for n, count in ((41, 2), (40, 1)):
        assert len(hm.training_windows([make_record(n).frames], config)) == count
    with pytest.raises(hm.ModelError, match="40-frame windows"):
        hm.training_windows([make_record(39).frames], config)


def test_windows_match_direct_slicing():
    """Window (r, s) is frames s..s + span - 1 of record r, for every start."""
    records = [make_record(30, seed=4).frames, make_record(10, seed=5).frames]
    config = hm.ModelConfig(input_frames=3, output_frames=5)
    assert hm.training_windows(records, config) == ([(0, s) for s in range(23)]
                                                    + [(1, s) for s in range(3)])


def test_rotate_frames_zero_yaw_is_identity():
    rec = make_record(6, seed=5)
    assert np.array_equal(cd.rotate_frames(rec.frames, 0.0), rec.frames)


def test_rotate_frames_half_turn_negates_planar_velocities():
    rec = make_record(8, seed=6)
    rot = cd.rotate_frames(rec.frames, np.pi)
    v_orig = np.diff(rec.frames[:, :2], axis=0)
    v_rot = np.diff(rot[:, :2], axis=0)
    assert np.allclose(v_rot, -v_orig, atol=1e-12)


def test_augment_preserves_pairwise_distances_and_local_joints():
    """Training's augmentation: one uniform yaw rotates a whole window."""
    rec = make_record(12, seed=7)
    out = cd.rotate_frames(rec.frames, np.random.default_rng(123).uniform(0.0, 2.0 * np.pi))
    allo, alln = rec.frames[:, :3], out[:, :3]
    for i in range(len(allo)):
        for j in range(i + 1, len(allo)):
            assert np.linalg.norm(allo[i] - allo[j]) == pytest.approx(
                np.linalg.norm(alln[i] - alln[j]), abs=1e-12
            )
    # joint-local rotations (beyond the base) are untouched
    assert np.array_equal(out[:, 9:], rec.frames[:, 9:])


def test_augment_deterministic_per_seed():
    """Training draws its yaws from its seed: equal seeds give equal weights,
    and the yaws do change them."""
    records = [make_record(10, seed=8).frames, make_record(10, seed=9).frames]
    config = ModelConfig(num_layers=1, hidden_size=4, input_frames=3, output_frames=3,
                         dropout=0.0, recurrent_dropout=0.0)
    a, b = (hm.train(records, config, 9, epochs=1, batch_size=4).params for _ in range(2))
    plain = hm.train(records, config, 9, epochs=1, batch_size=4, augment=False).params
    assert all(np.array_equal(a.arrays[n], b.arrays[n]) for n in a.arrays)
    assert not all(np.array_equal(a.arrays[n], plain.arrays[n]) for n in a.arrays)


@pytest.mark.parametrize("field, value", [
    ("num_trajectories", 0), ("num_trajectories", 2.5), ("num_trajectories", True),
    ("duration_frames", 1), ("reach_frames", -5), ("reach_frames", 3.0),
    ("max_speed", -1.0), ("max_speed", 0.1), ("max_speed", float("nan")),
    ("max_speed", float("inf")), ("max_speed", "fast"),
    ("max_turn_rate", -0.4), ("max_turn_rate", float("nan")),
])
def test_synth_config_names_a_bad_field(field, value):
    with pytest.raises(cd.DataError, match=f"^{field} must be"):
        cd.SynthConfig(**{field: value})


def test_synth_reach_longer_than_the_record_starts_before_it():
    """A reach may outlast the record: the arm is already mid-blend at frame
    0, where a record without a reach still swings it."""
    rec, = cd.synth_generate(cd.SynthConfig(num_trajectories=1, duration_frames=12), seed=0)
    walk, = cd.synth_generate(cd.SynthConfig(num_trajectories=1, duration_frames=12,
                                             reach_frames=0), seed=0)
    shoulder = slice(3 + 6 * HUMAN_JOINT_NAMES.index("rShoulder"),
                     9 + 6 * HUMAN_JOINT_NAMES.index("rShoulder"))
    assert rec.frames.shape == (12, 129)
    assert not np.allclose(rec.frames[0, shoulder], walk.frames[0, shoulder])


def test_synth_standing_when_speed_zero():
    cfg = cd.SynthConfig(num_trajectories=2, duration_frames=30, max_speed=0.0)
    recs = cd.synth_generate(cfg, seed=0)
    for rec in recs:
        assert np.allclose(np.diff(rec.frames[:, :2], axis=0), 0.0, atol=1e-12)


def test_synth_speed_clamped():
    cfg = cd.SynthConfig(num_trajectories=5, duration_frames=50, max_speed=0.5)
    recs = cd.synth_generate(cfg, seed=1)
    for rec in recs:
        speeds = np.linalg.norm(np.diff(rec.frames[:, :2], axis=0), axis=1) * rec.fps
        assert np.all(speeds <= 0.5 + 1e-9)


def test_synth_reach_annotation_is_exact_final_wrist():
    cfg = cd.SynthConfig(num_trajectories=3, duration_frames=50)
    recs = cd.synth_generate(cfg, seed=2)
    for rec in recs:
        wrist, _ = forward_kinematics(rec.frames[-1], "rWrist")
        assert np.allclose(wrist, rec.annotations["goal"], atol=1e-6)


def test_synth_rotations_are_valid():
    from comotion.kinematics import rot6d_to_matrix

    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=1, duration_frames=40), seed=3)
    for frame in recs[0].frames[::7]:
        for j in range(21):
            R = rot6d_to_matrix(frame[3 + 6 * j : 9 + 6 * j])
            assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)


def test_split_held_out_subject_disjoint():
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=24, duration_frames=20,
                                            reach_frames=5), seed=4)
    split = cd.split_dataset(recs, held_out_subject="synth2", test_fraction=0.25, seed=0)
    assert all(r.subject == "synth2" for r in split.held_out)
    assert not any(r.subject == "synth2" for r in split.train + split.test)
    assert len(split.held_out) == sum(1 for r in recs if r.subject == "synth2")
    assert len(split.train) + len(split.test) + len(split.held_out) == len(recs)


def test_split_rejects_a_test_fraction_outside_0_1():
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=12, duration_frames=20,
                                            reach_frames=5), seed=4)
    for fraction in (0.0, 1.0, 1.5, -1.0, float("nan")):
        with pytest.raises(cd.DataError, match="test fraction"):
            cd.split_dataset(recs, held_out_subject="synth2", test_fraction=fraction)


def test_split_rejects_subjects_of_one_record_each():
    """One record per subject puts none into the test split: refused, not
    returned empty."""
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=6, duration_frames=20,
                                            reach_frames=5), seed=4)
    with pytest.raises(cd.DataError, match="empty test split.*'synth2'"):
        cd.split_dataset(recs, held_out_subject="synth2")


def test_split_rejects_a_held_out_subject_no_record_has():
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=12, duration_frames=20,
                                            reach_frames=5), seed=4)
    with pytest.raises(cd.DataError, match="'nobody'.*synth0, synth1, synth2"):
        cd.split_dataset(recs, held_out_subject="nobody")
