"""Trajectory IO, preprocessing, synthetic generation and sweep tests."""

import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from comotion import data as cd
from comotion import human_model as hm
from comotion.human_model import ModelConfig
from comotion.kinematics import (
    DEFAULT_HUMAN_SKELETON,
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
    with pytest.raises(cd.DataError, match="line 4"):
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
    with pytest.raises(cd.DataError, match="line 3"):
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


def test_downsample_keeps_every_sixth_frame():
    rec = make_record(100, fps=120.0)
    down = cd.downsample(rec, 20.0)
    assert down.fps == 20.0
    assert down.frames.shape[0] == int(np.ceil(100 / 6))
    assert np.array_equal(down.frames[0], rec.frames[0])
    assert np.array_equal(down.frames[1], rec.frames[6])


def test_downsample_identity_and_errors():
    rec = make_record(10, fps=20.0)
    same = cd.downsample(rec, 20.0)
    assert np.array_equal(same.frames, rec.frames)
    with pytest.raises(cd.DataError):
        cd.downsample(rec, 15.0)


def test_windows_counts():
    """Training draws every contiguous window of input + output frames."""
    for n, count in ((41, 2), (40, 1), (39, 0)):
        assert len(hm._window_index([make_record(n).frames], 40)) == count


def test_windows_match_direct_slicing():
    """Window (r, s) is frames s..s + span - 1 of record r, for every start."""
    records = [make_record(30, seed=4).frames, make_record(10, seed=5).frames]
    assert hm._window_index(records, 8) == [(0, s) for s in range(23)] + [(1, s) for s in range(3)]


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


def test_synth_standing_when_speed_zero():
    cfg = cd.SynthConfig(num_trajectories=2, duration_frames=30, max_speed=0.0)
    recs = cd.synth_generate(cfg, seed=0)
    for rec in recs:
        assert np.allclose(np.diff(rec.frames[:, :2], axis=0), 0.0, atol=1e-12)


def test_synth_speed_clamped():
    cfg = cd.SynthConfig(num_trajectories=5, duration_frames=50, max_speed=0.5)
    recs = cd.synth_generate(cfg, seed=1)
    for rec in recs:
        speeds = np.linalg.norm(np.diff(rec.frames[:, :2], axis=0), axis=1) * cfg.fps
        assert np.all(speeds <= 0.5 + 1e-9)


def test_synth_reach_annotation_is_exact_final_wrist():
    cfg = cd.SynthConfig(num_trajectories=3, duration_frames=50)
    recs = cd.synth_generate(cfg, seed=2)
    for rec in recs:
        wrist, _ = forward_kinematics(DEFAULT_HUMAN_SKELETON, rec.frames[-1], "rWrist")
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
    cd.verify_split(split)
    assert all(r.subject == "synth2" for r in split.held_out)
    assert len(split.held_out) == sum(1 for r in recs if r.subject == "synth2")
    assert len(split.train) + len(split.test) + len(split.held_out) == len(recs)
    bad = cd.DatasetSplit(train=split.train + split.held_out[:1], test=split.test,
                          held_out=split.held_out)
    with pytest.raises(cd.DataError, match="leak"):
        cd.verify_split(bad)


def test_sweep_single_cell_equals_plain_training():
    from comotion import human_model as hm

    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=8, duration_frames=24,
                                            reach_frames=5), seed=5)
    split = cd.split_dataset(recs, held_out_subject="synth0", test_fraction=0.3, seed=0)
    base = ModelConfig(num_layers=1, hidden_size=8, input_frames=4, output_frames=4,
                       dropout=0.0, recurrent_dropout=0.0)
    grid = cd.SweepGrid(batch_sizes=(8,), layer_counts=(1,), hidden_sizes=(8,), seeds=(7,))
    board, best = cd.run_sweep(grid, split, epochs=2, base_config=base)
    assert len(board) == 1 and board[0]["status"] == "ok"

    direct = hm.train([r.frames for r in split.train], base, 7, epochs=2, batch_size=8,
                      test_records=[r.frames for r in split.test])
    assert board[0]["final_test_loss"] == pytest.approx(direct.history[-1].test_loss, rel=1e-12)
    for name, arr in direct.best.arrays.items():
        assert np.array_equal(best.arrays[name], arr)


def test_sweep_leaderboard_sorted_and_failures_logged():
    recs = cd.synth_generate(cd.SynthConfig(num_trajectories=6, duration_frames=24,
                                            reach_frames=5), seed=6)
    split = cd.split_dataset(recs, held_out_subject="synth0", test_fraction=0.3, seed=0)
    base = ModelConfig(num_layers=1, hidden_size=8, input_frames=4, output_frames=4,
                       dropout=0.0, recurrent_dropout=0.0)
    grid = cd.SweepGrid(batch_sizes=(4,), layer_counts=(1, 2), hidden_sizes=(8,), seeds=(0,))
    board, best = cd.run_sweep(grid, split, epochs=1, base_config=base)
    losses = [e["best_test_loss"] for e in board]
    assert losses == sorted(losses)
    assert best is not None
