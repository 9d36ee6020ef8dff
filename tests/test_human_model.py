"""Predictor tests: cell equations, controlled unroll, training, weight IO."""

import numpy as np
import pytest

from comotion import human_model as hm
from comotion.graph import OP_SCAN, OP_SLICE, Tape, backward, gradient_check, gru_unroll
from comotion.kinematics import STATE_DIM, rot6d_to_matrix
from helpers import identity_state


def tiny_config(**kw):
    base = dict(num_layers=1, hidden_size=8, input_frames=4, output_frames=4,
                dropout=0.0, recurrent_dropout=0.0)
    base.update(kw)
    return hm.ModelConfig(**base)


def random_params(config, seed=0):
    return hm.init_params(config, seed)


def decoder_step(params, state, velocity, hidden, u_t=None, u_next=None):
    """One decoder step, the shared unroll at horizon 1: (state, velocity,
    hidden) -> the next triple, with modifiers ``u_t`` and ``u_next`` if given."""
    mods = None if u_t is None else np.stack([u_t, u_next])
    states, velocity, hidden, _ = gru_unroll(hm._weights(params), hidden, state, velocity, 1,
                                             modifiers=mods)
    return states[0], velocity, hidden


def random_observed(rng, k=6, step=0.01):
    frames = np.empty((k, STATE_DIM))
    frames[0] = identity_state((0.0, 0.0, 0.9))
    for i in range(1, k):
        frames[i] = frames[i - 1] + step * rng.normal(size=STATE_DIM)
    return frames


def test_config_validation():
    with pytest.raises(hm.ModelError):
        hm.ModelConfig(input_frames=1)
    with pytest.raises(hm.ModelError):
        hm.ModelConfig(frame_rate=0.0)
    with pytest.raises(hm.ModelError):
        hm.ModelConfig(num_layers=0)


def test_encode_needs_two_frames():
    params = random_params(tiny_config())
    with pytest.raises(hm.ModelError, match="at least 2"):
        hm.encode(params, identity_state()[None, :])


def test_encode_k2_is_single_cell_application():
    rng = np.random.default_rng(0)
    params = random_params(tiny_config())
    obs = random_observed(rng, k=2)
    hiddens = hm.encode(params, obs)

    # one decoder step from the same frame and velocity
    _, _, manual = decoder_step(params, obs[1], obs[1] - obs[0], [np.zeros(8)])
    assert np.array_equal(hiddens[0], manual[0])


def test_encode_constant_pose_equals_zero_velocity_inputs():
    params = random_params(tiny_config())
    pose = identity_state((1.0, -0.5, 0.9))
    obs = np.tile(pose, (5, 1))
    hiddens = hm.encode(params, obs)
    h = [np.zeros(8)]
    for _ in range(4):
        _, _, h = decoder_step(params, pose, np.zeros(STATE_DIM), h)
    assert np.array_equal(hiddens[0], h[0])


def test_encode_matches_manual_per_step_oracle():
    """Independent numpy GRU evaluation, written from the gate equations."""
    rng = np.random.default_rng(1)
    config = tiny_config(num_layers=2)
    params = random_params(config, seed=3)
    obs = random_observed(rng, k=5)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    a = params.arrays
    h = [np.zeros(8), np.zeros(8)]
    for i in range(1, 5):
        x = np.concatenate([obs[i][3:], obs[i] - obs[i - 1]])
        for li in range(2):
            z = sig(a[f"gru{li}.Wz"] @ x + a[f"gru{li}.Uz"] @ h[li] + a[f"gru{li}.bz"])
            r = sig(a[f"gru{li}.Wr"] @ x + a[f"gru{li}.Ur"] @ h[li] + a[f"gru{li}.br"])
            n = np.tanh(a[f"gru{li}.Wn"] @ x + a[f"gru{li}.Un"] @ (r * h[li]) + a[f"gru{li}.bn"])
            h[li] = (1 - z) * h[li] + z * n
            x = h[li]
    hiddens = hm.encode(params, obs)
    assert np.allclose(hiddens[0], h[0], atol=1e-12)
    assert np.allclose(hiddens[1], h[1], atol=1e-12)


def test_cell_step_zero_output_layer_is_identity():
    config = tiny_config()
    params = random_params(config)
    params.arrays["out.W"][:] = 0.0
    params.arrays["out.b"][:] = 0.0
    rng = np.random.default_rng(2)
    state = random_observed(rng, k=2)[1]
    vel = 0.01 * rng.normal(size=STATE_DIM)
    ns, nv, _ = decoder_step(params, state, vel, [np.zeros(8)])
    assert np.array_equal(ns, state)
    assert np.array_equal(nv, np.zeros(STATE_DIM))

    params.arrays["out.b"][:] = 0.25
    ns, nv, _ = decoder_step(params, state, vel, [np.zeros(8)])
    assert np.allclose(nv, 0.25)
    assert np.allclose(ns, state + 0.25)


def test_cell_step_residual_structure():
    rng = np.random.default_rng(3)
    params = random_params(tiny_config())
    state = random_observed(rng, k=2)[1]
    vel = 0.01 * rng.normal(size=STATE_DIM)
    ns, nv, _ = decoder_step(params, state, vel, [rng.normal(size=8)])
    assert np.array_equal(ns, state + nv)


def test_cell_step_outputs_valid_rotations():
    rng = np.random.default_rng(4)
    params = random_params(tiny_config(), seed=5)
    state = identity_state((0.2, 0.1, 0.9))
    ns, _, _ = decoder_step(params, state, 0.01 * rng.normal(size=STATE_DIM), [np.zeros(8)])
    for j in range(21):
        R = rot6d_to_matrix(ns[3 + 6 * j : 9 + 6 * j])
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-9)


def test_controlled_zero_modifiers_bit_identical():
    rng = np.random.default_rng(5)
    params = random_params(tiny_config())
    state = random_observed(rng, k=2)[1]
    vel = 0.01 * rng.normal(size=STATE_DIM)
    h = [rng.normal(size=8)]
    plain = decoder_step(params, state, vel, h)
    zeros = np.zeros(hm.MODIFIER_DIM)
    ctrl = decoder_step(params, state, vel, h, zeros, zeros)
    assert np.array_equal(plain[0], ctrl[0])
    assert np.array_equal(plain[1], ctrl[1])
    assert np.array_equal(plain[2][0], ctrl[2][0])


def test_controlled_constant_modifier_shifts_state_only():
    """u_next == u_t leaves the velocity input unchanged."""
    rng = np.random.default_rng(6)
    params = random_params(tiny_config())
    state = random_observed(rng, k=2)[1]
    vel = 0.01 * rng.normal(size=STATE_DIM)
    h = [rng.normal(size=8)]
    u = 0.05 * rng.normal(size=hm.MODIFIER_DIM)

    shifted = state.copy()
    shifted[3:] += u[3:]
    ref = decoder_step(params, shifted, vel, h)
    out = decoder_step(params, state, vel, h, u, u)
    # same network inputs, so identical emitted velocity and hidden
    assert np.array_equal(ref[1], out[1])
    assert np.array_equal(ref[2][0], out[2][0])
    # residual integrates the unshifted base position
    assert np.allclose(out[0][:3], state[:3] + out[1][:3], atol=0)
    assert np.array_equal(out[0][3:], shifted[3:] + out[1][3:])


def test_controlled_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    config = tiny_config()
    params = random_params(config, seed=8)
    obs = random_observed(rng, k=4)
    H = 3

    def f(t, r):
        states = hm.unroll_graph(t, params, obs, r["u"], H)
        return t.sum_squares(t.row(states, -1))

    u0 = 0.02 * rng.normal(size=H * hm.MODIFIER_DIM)
    err = gradient_check(f, {"u": u0}, step=1e-6)
    assert err < 1e-5


def test_unroll_zero_modifiers_equals_prediction_bit_exact():
    rng = np.random.default_rng(8)
    config = tiny_config(num_layers=2)
    params = random_params(config, seed=9)
    obs = random_observed(rng, k=6)
    H = 7
    pred = hm.predict(params, obs, horizon=H)

    tape = Tape()
    u = tape.leaf("u", np.zeros(H * hm.MODIFIER_DIM))
    states = hm.unroll_graph(tape, params, obs, u, H)
    assert states.value.tobytes() == pred.tobytes()
    assert [tape.ops.count(op) for op in (OP_SCAN, OP_SLICE)] == [1, 0]


def test_unroll_graph_replay_equals_unroll_decoder_bit_exact():
    rng = np.random.default_rng(18)
    params = random_params(tiny_config(num_layers=2), seed=19)
    obs = random_observed(rng, k=5)
    H = 6
    tape = Tape()
    states = hm.unroll_graph(tape, params, obs, tape.leaf("u", np.zeros(H * hm.MODIFIER_DIM)), H)
    mods = 0.05 * rng.normal(size=(H, hm.MODIFIER_DIM))
    replay = tape.forward({"u": mods.reshape(-1)}).value_of(states)
    expected = hm.unroll_decoder(params, obs[-1], obs[-1] - obs[-2], hm.encode(params, obs),
                                 mods, H)
    assert replay.tobytes() == expected.tobytes()


def test_unroll_horizon_one_is_single_controlled_step():
    rng = np.random.default_rng(9)
    params = random_params(tiny_config())
    obs = random_observed(rng, k=3)
    u = 0.03 * rng.normal(size=(1, hm.MODIFIER_DIM))
    hiddens = hm.encode(params, obs)
    states = hm.unroll_decoder(params, obs[-1], obs[-1] - obs[-2], hiddens, u, 1)
    ref, _, _ = decoder_step(params, obs[-1], obs[-1] - obs[-2], hm.encode(params, obs),
                             u[0], u[0])
    assert np.array_equal(states[0], ref)


def test_unroll_matches_sequential_manual_application():
    rng = np.random.default_rng(10)
    params = random_params(tiny_config(num_layers=2), seed=11)
    obs = random_observed(rng, k=4)
    H = 5
    mods = 0.02 * rng.normal(size=(H, hm.MODIFIER_DIM))
    states = hm.unroll_decoder(params, obs[-1], obs[-1] - obs[-2],
                               hm.encode(params, obs), mods, H)

    state, vel = obs[-1], obs[-1] - obs[-2]
    hid = hm.encode(params, obs)
    for t in range(H):
        u_next = mods[t + 1] if t + 1 < H else mods[t]
        state, vel, hid = decoder_step(params, state, vel, hid, mods[t], u_next)
        assert np.array_equal(states[t], state)


def test_base_position_translation_invariance():
    """Translating the history leaves all predicted velocities identical."""
    rng = np.random.default_rng(11)
    params = random_params(tiny_config(), seed=12)
    obs = random_observed(rng, k=5)
    shifted = obs.copy()
    shifted[:, :3] += np.array([5.0, -3.0, 0.7])
    pred_a = hm.predict(params, obs, horizon=6)
    pred_b = hm.predict(params, shifted, horizon=6)
    vel_a = np.diff(np.vstack([obs[-1:], pred_a]), axis=0)
    vel_b = np.diff(np.vstack([shifted[-1:], pred_b]), axis=0)
    assert np.allclose(vel_a, vel_b, atol=1e-12)
    assert np.allclose(pred_b[:, 3:], pred_a[:, 3:], atol=1e-12)


def test_training_loss_examples():
    gt = np.tile(identity_state(), (4, 1))
    assert hm.training_loss(gt, gt) == 0.0
    pred = gt.copy()
    pred[:, 0] += 1.0  # base off by (1,0,0) everywhere
    assert hm.training_loss(pred, gt) == pytest.approx(1.0, abs=1e-15)


def test_training_loss_matches_independent_evaluation():
    rng = np.random.default_rng(12)
    pred = rng.normal(size=(6, STATE_DIM))
    gt = rng.normal(size=(6, STATE_DIM))
    expected = np.mean(np.sum((pred[:, :3] - gt[:, :3]) ** 2, axis=1)) + np.mean(
        np.sum(np.abs(pred[:, 3:] - gt[:, 3:]), axis=1)
    )
    assert hm.training_loss(pred, gt) == pytest.approx(expected, rel=1e-15)


def test_train_on_constant_poses_converges():
    config = tiny_config(input_frames=3, output_frames=3)
    rec = np.tile(identity_state((0.4, 0.2, 0.9)), (20, 1))
    result = hm.train([rec], config, seed=0, epochs=250, batch_size=4,
                      learning_rate=5e-3, learning_rate_decay=0.96, augment=False)
    pred = hm.predict(result.params, rec[:3], horizon=3)
    assert hm.training_loss(pred, rec[3:6]) < 1e-3


def test_train_fixed_seed_bit_reproducible():
    config = tiny_config(input_frames=3, output_frames=3, dropout=0.2, recurrent_dropout=0.2)
    rng = np.random.default_rng(13)
    rec = random_observed(rng, k=16)
    a = hm.train([rec], config, seed=42, epochs=2, batch_size=4)
    b = hm.train([rec], config, seed=42, epochs=2, batch_size=4)
    for name in a.params.arrays:
        assert np.array_equal(a.params.arrays[name], b.params.arrays[name])
    assert [m.train_loss for m in a.history] == [m.train_loss for m in b.history]


def test_training_gradients_match_finite_differences_of_the_numpy_loss():
    """Stacked weight gradients of the batched training tape, one entry per
    gate block, against central differences of the plain-numpy test loss,
    which shares the GRU kernel."""
    config = tiny_config(num_layers=2, input_frames=3, output_frames=3)
    params = random_params(config, seed=15)
    rng = np.random.default_rng(16)
    windows = np.stack([random_observed(rng, k=6, step=0.05) for _ in range(3)])
    cols = np.ascontiguousarray(windows.transpose(1, 2, 0))
    loss, grads = hm._batch_gradients(params, cols)
    assert loss == pytest.approx(hm._evaluate(params, config, windows)[0], rel=1e-14)
    assert set(grads) == set(params.stacked)
    eps = 1e-6
    for name, arr in params.stacked.items():
        assert grads[name].shape == arr.shape
        blocks = 3 if name.startswith("gru") else 1  # [z; r; n] rows
        rows = arr.shape[0] // blocks
        for k in range(blocks):
            idx = (k * rows + rng.integers(rows), *(rng.integers(n) for n in arr.shape[1:]))
            saved = arr[idx]
            arr[idx] = saved + eps
            hi = hm._evaluate(params, config, windows)[0]
            arr[idx] = saved - eps
            lo = hm._evaluate(params, config, windows)[0]
            arr[idx] = saved
            assert grads[name][idx] == pytest.approx((hi - lo) / (2 * eps), rel=1e-5, abs=1e-8)


def test_per_gate_arrays_are_views_of_the_stacked_weights():
    config = tiny_config(num_layers=2)
    params = random_params(config, seed=17)
    d = config.hidden_size
    params.arrays["gru1.Un"][:] = 0.3
    assert np.all(params.stacked["gru1.U"][2 * d :] == 0.3)
    params.stacked["gru0.b"][d : 2 * d] = 0.7
    assert np.all(params.arrays["gru0.br"] == 0.7)
    assert params.stacked["out.W"] is params.arrays["out.W"]
    copy = params.copy()
    copy.arrays["gru0.Wz"][:] = 5.0
    assert np.all(copy.stacked["gru0.W"][:d] == 5.0)
    assert not np.any(params.stacked["gru0.W"][:d] == 5.0)


def test_train_empty_dataset_rejected():
    with pytest.raises(hm.ModelError, match="empty"):
        hm.train([], tiny_config(), seed=0)


def test_weight_file_round_trip_bit_exact(tmp_path):
    config = tiny_config(num_layers=2)
    params = random_params(config, seed=14)
    path = tmp_path / "model.weights"
    hm.save_params(params, path)
    loaded = hm.load_params(path)
    assert loaded.config == config
    for name, arr in params.arrays.items():
        assert np.array_equal(loaded.arrays[name], arr)


def test_weight_file_rejects_garbage(tmp_path):
    path = tmp_path / "junk.weights"
    path.write_bytes(b"not a weight file")
    with pytest.raises(hm.ModelError, match="not a weight file"):
        hm.load_params(path)
