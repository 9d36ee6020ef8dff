"""Predictor tests: cell equations, controlled unroll, training, weight IO."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from comotion import human_model as hm
from comotion.graph import OP_SCAN, Tape, Workspace, backward, gradient_check, gru_unroll
from comotion.kinematics import STATE_DIM, rot6d_to_matrix
from helpers import identity_state, traced_peak


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

    def a(name):  # one gate's row block of a stacked [z; r; n] weight
        kind, gate = name[0], "zrn".index(name[1])
        return params.arrays[f"gru{li}.{kind}"][8 * gate : 8 * (gate + 1)]

    h = [np.zeros(8), np.zeros(8)]
    for i in range(1, 5):
        x = np.concatenate([obs[i][3:], obs[i] - obs[i - 1]])
        for li in range(2):
            z = sig(a("Wz") @ x + a("Uz") @ h[li] + a("bz"))
            r = sig(a("Wr") @ x + a("Ur") @ h[li] + a("br"))
            n = np.tanh(a("Wn") @ x + a("Un") @ (r * h[li]) + a("bn"))
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
        return t.sum_squares(t.take(states, -1))

    u0 = 0.02 * rng.normal(size=(H, hm.MODIFIER_DIM))
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
    u = tape.leaf("u", np.zeros((H, hm.MODIFIER_DIM)))
    states = hm.unroll_graph(tape, params, obs, u, H)
    assert states.value.tobytes() == pred.tobytes()
    # the leaf and the weight constants feed the one gru_scan node directly
    assert tape.ops.count(OP_SCAN) == 1 and tape.args[-1][-1] == u.idx
    assert len(tape) == len(tape.args[-1]) + 1


def test_unroll_graph_replay_equals_unroll_decoder_bit_exact():
    rng = np.random.default_rng(18)
    params = random_params(tiny_config(num_layers=2), seed=19)
    obs = random_observed(rng, k=5)
    H = 6
    tape = Tape()
    states = hm.unroll_graph(tape, params, obs, tape.leaf("u", np.zeros((H, hm.MODIFIER_DIM))), H)
    mods = 0.05 * rng.normal(size=(H, hm.MODIFIER_DIM))
    replay = tape.forward({"u": mods}).value_of(states)
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
    records = [random_observed(rng, k=6, step=0.05) for _ in range(3)]
    windows = [(ri, 0) for ri in range(3)]
    cols = np.stack(records, axis=2)
    loss, grads = hm._batch_gradients(params, cols)
    assert loss == pytest.approx(hm._evaluate(params, config, records, windows)[0], rel=1e-14)
    assert set(grads) == set(params.arrays)
    eps = 1e-6
    for name, arr in params.arrays.items():
        assert grads[name].shape == arr.shape
        blocks = 3 if name.startswith("gru") else 1  # [z; r; n] rows
        rows = arr.shape[0] // blocks
        for k in range(blocks):
            idx = (k * rows + rng.integers(rows), *(rng.integers(n) for n in arr.shape[1:]))
            saved = arr[idx]
            arr[idx] = saved + eps
            hi = hm._evaluate(params, config, records, windows)[0]
            arr[idx] = saved - eps
            lo = hm._evaluate(params, config, records, windows)[0]
            arr[idx] = saved
            assert grads[name][idx] == pytest.approx((hi - lo) / (2 * eps), rel=1e-5, abs=1e-8)


def test_a_training_tape_holds_a_view_of_its_batch(monkeypatch):
    """The gru_scan node's encoder frames are the batch's first k frames
    themselves, not a copy or an input array built from them."""
    config = tiny_config(num_layers=2, input_frames=3, output_frames=3)
    rng = np.random.default_rng(17)
    cols = np.stack([random_observed(rng, k=6) for _ in range(4)], axis=2)
    tapes = []

    def spy(tape, seed, **kw):
        tapes.append(tape)
        return backward(tape, seed, **kw)

    monkeypatch.setattr(hm, "backward", spy)
    hm._batch_gradients(random_params(config), cols)
    (tape,) = tapes
    frames = tape.params[tape.ops.index(OP_SCAN)][4]
    assert frames.shape == (3, STATE_DIM, 4) and np.shares_memory(frames, cols)


def test_evaluate_is_the_whole_set_unroll_in_less_memory():
    """205 windows of the default model: the score equals one whole-set
    gru_unroll over the stacked windows bit for bit, and scoring peaks below
    the stacked (k + T, 129, N) columns and states that a whole-set score
    holds: 9.2 MiB traced against a 12.1 MiB bound (17.1 MiB when those
    two and their difference were all held)."""
    config = hm.ModelConfig()
    params = random_params(config)
    rng = np.random.default_rng(18)
    records = [random_observed(rng, k=80) for _ in range(5)]
    index = hm.training_windows(records, config)
    assert len(index) == 205
    k = config.input_frames
    cols = hm._stack_windows(records, index, k + config.output_frames)
    states = gru_unroll(hm._weights(params), *hm._window_start(config, cols))[0]
    diff = states - cols[k:]
    whole = hm._batch_loss(diff), float(np.mean(np.linalg.norm(diff[-1, :3], axis=0)))
    assert hm._evaluate(params, config, records, index) == whole
    bound = cols.nbytes + states.nbytes
    del cols, states, diff
    assert traced_peak(lambda: hm._evaluate(params, config, records, index)) < bound


def _default_batch(rng, width):
    """A default-model batch of ``width`` windows of one record, with
    dropout masks."""
    config = hm.ModelConfig()
    record = random_observed(rng, k=config.input_frames + config.output_frames + width - 1)
    cols = hm._stack_windows([record], hm.training_windows([record], config), 40)
    assert cols.shape[2] == width
    d = config.hidden_size
    masks = [(rng.binomial(1, 0.8, size=(n, width)) / 0.8,
              rng.binomial(1, 0.8, size=(d, width)) / 0.8) for n in (hm.INPUT_DIM, d)]
    return cols, masks


def test_a_training_batch_sums_its_weight_gradients_in_chunk_buffers():
    """One default 32-window batch with dropout masks peaks at 15.6 MiB
    traced, 8.3 MiB of it the forward cache (hidden states, gates and
    velocity slots; the layer-0 inputs are rebuilt, not cached); caching
    those inputs took it to 17.5 MiB, and whole-unroll adjoint buffers on
    top to 25.0 MiB.  The 18.1 MiB bound leaves 2.5 MiB."""
    params = random_params(hm.ModelConfig())
    cols, masks = _default_batch(np.random.default_rng(19), 32)
    assert traced_peak(lambda: hm._batch_gradients(params, cols, masks)) < 18.1 * 2**20


def test_a_batch_in_the_training_workspace_equals_one_on_fresh_buffers(monkeypatch):
    """Two 32-wide batches and then a 10-wide tail in one workspace, packed
    after each as ``train`` does: each loss and weight gradient equals the
    same batch's on fresh buffers bit for bit.  The tail's scan cache and
    gradients are contiguous and in the packed memory the second batch's
    were; a fresh batch's are not."""
    params = random_params(hm.ModelConfig())
    rng = np.random.default_rng(34)
    tapes = []

    def spy(tape, seed, **kw):
        tapes.append(tape)
        return backward(tape, seed, **kw)

    monkeypatch.setattr(hm, "backward", spy)
    workspace = Workspace()
    kept = []
    for width in (32, 32, 10):
        cols, masks = _default_batch(rng, width)
        loss, grads = hm._batch_gradients(params, cols, masks, workspace)
        fresh_loss, fresh = hm._batch_gradients(params, cols, masks)
        assert loss == fresh_loss
        for name, g in fresh.items():
            assert grads[name].tobytes() == g.tobytes(), (width, name)
        kept.append(grads)
        workspace.pack()

    def cache(tape):  # the scan's hidden states and gates per layer
        _, hs, gates = tape.caches[tape.ops.index(OP_SCAN)]
        return [*hs, *gates]

    _, _, second, second_fresh, tail, _ = map(cache, tapes)
    for a, b, c in zip(second, second_fresh, tail):
        assert np.shares_memory(a, c) and c.flags.c_contiguous
        assert not np.shares_memory(a, b)
    for name in params.arrays:
        assert np.shares_memory(kept[1][name], kept[2][name])


def test_adam_updates_in_place_as_the_textbook_expression():
    """Three steps on random arrays: the weights, m and v equal the
    textbook expression's bit for bit, and stay the arrays they were."""
    rng = np.random.default_rng(35)
    shapes = {"W": (6, 5), "b": (6,)}
    arrays = {k: rng.normal(size=shape) for k, shape in shapes.items()}
    want = {k: a.copy() for k, a in arrays.items()}
    m = {k: np.zeros(shape) for k, shape in shapes.items()}
    v = {k: np.zeros(shape) for k, shape in shapes.items()}
    adam = hm._Adam(arrays, 1e-3)
    held = [arrays["W"], adam.m["W"], adam.v["W"]]
    for step in range(1, 4):
        grads = {k: rng.normal(size=shape) for k, shape in shapes.items()}
        for k, g in grads.items():
            m[k] = 0.9 * m[k] + (1 - 0.9) * g
            v[k] = 0.999 * v[k] + (1 - 0.999) * g * g
            want[k] -= 1e-3 * (m[k] / (1.0 - 0.9 ** step)) / (
                np.sqrt(v[k] / (1.0 - 0.999 ** step)) + 1e-8)
        adam.update(arrays, grads)
        for k in shapes:
            assert arrays[k].tobytes() == want[k].tobytes(), (step, k)
            assert adam.m[k].tobytes() == m[k].tobytes() and adam.v[k].tobytes() == v[k].tobytes()
    assert all(a is b for a, b in zip([arrays["W"], adam.m["W"], adam.v["W"]], held))


def test_training_holds_one_batch_beside_the_weights_and_adam_moments():
    """Three default 32-window batches: ``train``'s traced peak exceeds that
    of its first batch made by hand (the windows indexed and shuffled, then
    stacked, masked and differentiated on fresh buffers) by less than the
    weights plus Adam's m and v, and 64 KiB for what ``train`` holds besides
    arrays (about 22 KB).  It holds no second batch's buffers or gradients:
    the previous ones are the workspace's memory.  Holding the previous
    batch's gradients as well took it 1.46 MB over."""
    config = hm.ModelConfig()
    record = random_observed(np.random.default_rng(36),
                             k=config.input_frames + config.output_frames + 95)
    params = random_params(config)
    held = 3 * sum(a.nbytes for a in params.arrays.values())

    def one_batch():
        index = hm.training_windows([record], config)
        assert len(index) == 96
        rng = np.random.default_rng([0, 0])
        chosen = [index[i] for i in rng.permutation(len(index))[:32]]
        cols = hm._stack_windows([record], chosen, 40, rng.uniform(0.0, 2.0 * np.pi, size=32))
        d = config.hidden_size
        masks = [(rng.binomial(1, 0.8, size=(n, 32)) / 0.8,
                  rng.binomial(1, 0.8, size=(d, 32)) / 0.8) for n in (hm.INPUT_DIM, d)]
        hm._batch_gradients(params, cols, masks)

    peak = traced_peak(lambda: hm.train([record], config, seed=0, epochs=1))
    assert peak - traced_peak(one_batch) < held + 2**16


def test_train_empty_dataset_rejected():
    with pytest.raises(hm.ModelError, match="empty"):
        hm.train([], tiny_config(), seed=0)


def test_train_rejects_test_records_without_a_window():
    """A ModelError that names the window span, not numpy's stacking error."""
    rec = random_observed(np.random.default_rng(20), k=16)
    with pytest.raises(hm.ModelError, match="8-frame windows"):
        hm.train([rec], tiny_config(), seed=0, epochs=1, test_records=[rec[:7]])


def test_train_names_the_set_that_lacks_windows():
    rec = random_observed(np.random.default_rng(20), k=16)
    errors = []
    for records, test_records in (([rec[:7]], [rec]), ([rec], [rec[:7]])):
        with pytest.raises(hm.ModelError) as caught:
            hm.train(records, tiny_config(), seed=0, epochs=1, test_records=test_records)
        errors.append(str(caught.value))
    assert errors == ["training records: no record is long enough for 8-frame windows",
                      "test records: no record is long enough for 8-frame windows"]


@pytest.mark.parametrize("test_records", [None, []], ids=["none", "empty"])
def test_train_without_test_records_scores_nan(test_records):
    rec = random_observed(np.random.default_rng(21), k=16)
    result = hm.train([rec], tiny_config(), seed=0, epochs=2, batch_size=4,
                      test_records=test_records)
    assert all(np.isnan(m.test_loss) and np.isnan(m.base_pos_error) for m in result.history)


@pytest.mark.parametrize("name, value", [("batch_size", -3), ("batch_size", 0),
                                         ("batch_size", 2.5), ("batch_size", True),
                                         ("epochs", 0), ("epochs", -1), ("epochs", 2.0)])
def test_train_rejects_a_batch_size_or_epoch_count_that_is_not_a_positive_integer(name, value):
    rec = random_observed(np.random.default_rng(22), k=16)
    with pytest.raises(hm.ModelError, match=f"{name} must be a positive integer"):
        hm.train([rec], tiny_config(), seed=0, **{name: value})


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


def test_weight_file_refuses_bytes_after_its_last_array(tmp_path):
    path = tmp_path / "model.weights"
    hm.save_params(random_params(tiny_config()), path)
    hm.load_params(path)
    path.write_bytes(path.read_bytes() + b"trailing garbage")
    with pytest.raises(hm.ModelError, match=f"{path}: bytes after the last weight array"):
        hm.load_params(path)


def _v1_file(path, config, gate_arrays):
    """A v1 weight file written by hand: magic, JSON header, then one
    little-endian float64 array per entry of ``gate_arrays``, in its order."""
    header = {"config": asdict(config),
              "arrays": [{"name": n, "shape": list(a.shape)} for n, a in gate_arrays.items()]}
    blob = json.dumps(header).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"COMOTION-WEIGHTS v1\n" + struct.pack("<I", len(blob)) + blob)
        for a in gate_arrays.values():
            fh.write(a.astype("<f8").tobytes())


def _v1_gate_arrays(config, rng):
    """Random per-gate weights under their v1 names, in v1 order."""
    d = config.hidden_size
    arrays = {}
    for li in range(config.num_layers):
        for gate in "zrn":
            arrays[f"gru{li}.W{gate}"] = rng.normal(size=(d, hm.INPUT_DIM if li == 0 else d))
            arrays[f"gru{li}.U{gate}"] = rng.normal(size=(d, d))
            arrays[f"gru{li}.b{gate}"] = rng.normal(size=d)
    arrays["out.W"] = rng.normal(size=(STATE_DIM, d))
    arrays["out.b"] = rng.normal(size=STATE_DIM)
    return arrays


def test_weight_file_v1_per_gate_layout(tmp_path):
    """A v1 file holds one array per gate; loading stacks each layer's z, r
    and n blocks, and saving writes the same bytes back in v1 order."""
    config = tiny_config(num_layers=2)
    gates = _v1_gate_arrays(config, np.random.default_rng(21))
    path = tmp_path / "v1.weights"
    _v1_file(path, config, gates)
    params = hm.load_params(path)
    assert params.config == config
    for li in range(2):
        for kind in "WUb":
            expected = np.concatenate([gates[f"gru{li}.{kind}{g}"] for g in "zrn"])
            assert np.array_equal(params.arrays[f"gru{li}.{kind}"], expected)
    for name in ("out.W", "out.b"):
        assert np.array_equal(params.arrays[name], gates[name])
    again = tmp_path / "again.weights"
    hm.save_params(params, again)
    raw = again.read_bytes()
    hlen = int.from_bytes(raw[20:24], "little")
    assert [a["name"] for a in json.loads(raw[24 : 24 + hlen])["arrays"]] == list(gates)
    assert raw == path.read_bytes()


@pytest.mark.parametrize("broken", ["missing", "mis-shaped"])
def test_weight_file_names_a_bad_gate_block(tmp_path, broken):
    config = tiny_config(num_layers=2)
    gates = _v1_gate_arrays(config, np.random.default_rng(22))
    if broken == "missing":
        del gates["gru1.Ur"]
    else:
        gates["gru1.Ur"] = gates["gru1.Ur"][:, :-1]
    path = tmp_path / "bad.weights"
    _v1_file(path, config, gates)
    with pytest.raises(hm.ModelError, match=r"'gru1\.Ur'"):
        hm.load_params(path)
