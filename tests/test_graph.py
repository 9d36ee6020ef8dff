"""Unit tests for the tape engine: primitives, replay, backward, checks."""

import numpy as np
import pytest

from comotion.graph import (
    GraphError,
    Tape,
    backward,
    gradient_check,
    gru_cell,
    gru_unroll,
    record,
)


def test_identity_record():
    tape, out = record(lambda t, r: r["x"], {"x": np.array([1.0, 2.0])})
    assert np.array_equal(out, [1.0, 2.0])
    assert len(tape) == 1


def test_sum_of_squares_forward_and_grad():
    def f(t, r):
        return t.sum(t.mul(r["x"], r["x"]))

    tape, out = record(f, {"x": np.array([3.0, 4.0])})
    assert float(out) == 25.0
    grads = backward(tape, np.asarray(1.0))
    assert np.allclose(grads["x"], [6.0, 8.0])


def test_sum_gradient_all_ones():
    tape, _ = record(lambda t, r: t.sum(r["x"]), {"x": np.arange(5.0)})
    g = backward(tape, np.asarray(1.0))["x"]
    assert np.array_equal(g, np.ones(5))


def test_unconnected_leaf_gets_zero_gradient():
    def f(t, r):
        return t.sum(r["x"])

    tape, _ = record(f, {"x": np.ones(3), "y": np.ones(4)})
    grads = backward(tape, np.asarray(1.0))
    assert np.array_equal(grads["y"], np.zeros(4))


def test_seed_linearity():
    def f(t, r):
        return t.sum(t.sin(r["x"]))

    tape, _ = record(f, {"x": np.array([0.3, -0.7, 1.1])})
    g1 = backward(tape, np.asarray(1.0))["x"]
    g3 = backward(tape, np.asarray(3.0))["x"]
    assert np.allclose(g3, 3.0 * g1, rtol=0, atol=1e-15)


def test_replay_bit_exact():
    rng = np.random.default_rng(0)
    x = rng.normal(size=7)

    def f(t, r):
        a = t.sin(r["x"])
        return t.sum(t.div(a, t.add(t.square(t.cos(r["x"])), t.const(1.0))))

    tape, out = record(f, {"x": x})
    replay = tape.forward({"x": x.copy()})
    assert float(replay.output) == float(out)


def test_replay_new_leaves_match_fresh_record():
    rng = np.random.default_rng(1)

    def f(t, r):
        return t.norm(t.sub(t.cos(r["x"]), t.sin(r["y"])))

    x0, y0 = rng.normal(size=4), rng.normal(size=4)
    tape, _ = record(f, {"x": x0, "y": y0})
    x1, y1 = rng.normal(size=4), rng.normal(size=4)
    replay = tape.forward({"x": x1, "y": y1})
    _, fresh = record(f, {"x": x1, "y": y1})
    assert float(replay.output) == float(fresh)


def test_record_rejects_overflow():
    def f(t, r):
        y = r["x"]
        for _ in range(20):
            y = t.square(y)
        return t.sum(y)

    with pytest.raises(GraphError, match="numeric overflow at node"):
        record(f, {"x": np.array([10.0])})


def test_backward_seed_shape_mismatch():
    tape, _ = record(lambda t, r: t.mul(r["x"], r["x"]), {"x": np.ones(3)})
    with pytest.raises(GraphError, match="seed shape"):
        backward(tape, np.ones(2))


def test_max_first_index_tie_break():
    x = np.array([2.0, 1.0, 1.0, 5.0, 5.0])
    tape, out = record(lambda t, r: t.max_reduce(r["x"]), {"x": x})
    assert float(out) == 5.0
    g = backward(tape, np.asarray(1.0))["x"]
    assert np.array_equal(g, [0, 0, 0, 1, 0])


def test_logsumexp_bounds_max():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(size=9)
        tau = 10 ** rng.uniform(-3, 0)
        tape, out = record(lambda t, r: t.logsumexp(r["x"], tau), {"x": x})
        smooth = float(out)
        hard = float(np.max(x))
        assert smooth >= hard - 1e-12
        assert smooth <= hard + tau * np.log(x.size) + 1e-12


def test_smooth_min_bounds_min():
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 4, size=11)
    tape, out = record(lambda t, r: t.smooth_min(r["x"], 0.05), {"x": x})
    smooth = float(out)
    hard = float(np.min(x))
    assert smooth <= hard + 1e-12
    assert smooth >= hard - 0.05 * np.log(x.size) - 1e-12


@pytest.mark.parametrize("trial", range(10))
def test_primitive_gradients_match_finite_differences(trial):
    """Composed chain exercising every smooth primitive, 10 seeded trials."""
    rng = np.random.default_rng(100 + trial)
    x = rng.uniform(0.2, 1.5, size=6)
    y = rng.uniform(0.2, 1.5, size=6)
    W = rng.normal(size=(4, 6))

    def f(t, r):
        a = t.add(t.sin(r["x"]), t.cos(r["y"]))
        b = t.mul(a, t.sub(r["y"], t.const(np.full(6, 3.0))))
        c = t.div(b, t.add(t.square(r["x"]), t.const(np.full(6, 2.0))))
        m = t.mul(r["W"], t.sin(c))  # (4, 6) times a broadcast row
        d = t.sum(t.columns(m, 1, 5), axis=1)
        e = t.concat([d, t.add(r["x"], t.const(np.full(6, 1.0)))])
        h = t.slice(e, 1, 9)
        return t.add(
            t.norm(h),
            t.add(t.logsumexp(h, 0.1), t.sum(t.row(t.reshape(h, (2, 4)), 1))),
        )

    err = gradient_check(f, {"x": x, "y": y, "W": W}, step=1e-5)
    assert err < 1e-6


def test_max_gradient_at_interior_points():
    rng = np.random.default_rng(5)
    x = rng.normal(size=8)  # distinct values, away from ties

    def fmax(t, r):
        return t.max_reduce(t.mul(r["x"], r["x"]))

    assert gradient_check(fmax, {"x": x}) < 1e-7


def test_gradient_check_linear_is_exact():
    def f(t, r):
        return t.sum(t.mul(r["x"], t.const(np.array([2.0, -3.0, 0.5]))))

    err = gradient_check(f, {"x": np.array([1.0, 2.0, 3.0])})
    assert err < 1e-10


def test_broadcast_bias_add_gradient():
    rng = np.random.default_rng(6)
    M = rng.normal(size=(3, 5))
    b = rng.normal(size=(3, 1))

    def f(t, r):
        return t.sum(t.square(t.add(r["M"], r["b"])))

    assert gradient_check(f, {"M": M, "b": b}) < 1e-7


def test_grid_interp_matches_bilinear_and_gradient():
    rng = np.random.default_rng(8)
    values = rng.normal(size=(6, 5))
    origin = np.array([-1.0, -0.5])
    res = 0.25

    def f(t, r):
        return t.sum(t.grid_interp(r["p"], values, origin, res))

    # an exact node hit returns the stored value, the midpoint between two
    # nodes their mean
    p_node = origin + res * np.array([2.0, 3.0])
    p_mid = origin + res * np.array([2.5, 3.0])
    _, out = record(lambda t, r: t.grid_interp(r["p"], values, origin, res),
                    {"p": np.stack([p_node, p_mid])})
    assert out[0] == pytest.approx(values[2, 3], abs=1e-15)
    assert out[1] == pytest.approx(0.5 * (values[2, 3] + values[3, 3]), abs=1e-14)

    # interior gradient vs finite differences
    for _ in range(50):
        p = origin + res * (0.5 + rng.uniform(0.05, 0.9, size=(1, 2)) + rng.integers(0, 3, size=2))
        assert gradient_check(f, {"p": p}, step=1e-6 * res) < 1e-6


def test_duplicate_leaf_rejected():
    tape = Tape()
    tape.leaf("x", np.ones(2))
    with pytest.raises(GraphError, match="duplicate leaf"):
        tape.leaf("x", np.ones(2))


def test_cross_tape_operands_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.leaf("a", np.ones(2))
    b = t2.leaf("b", np.ones(2))
    with pytest.raises(GraphError, match="different tapes"):
        t1.add(a, b)


def test_recorded_tape_is_freed_by_reference_counting():
    """No reference cycle: a tape dies with its last reference, without gc."""
    import gc
    import weakref

    def f(t, r):
        y = t.mul(r["x"], t.const(2.0))  # a shared scalar constant
        y = t.add(y, t.const(2.0))  # a cache hit on it
        return t.sum(t.mul(y, t.const(np.ones(3))))

    gc.disable()
    try:
        tape, _ = record(f, {"x": np.ones(3)})
        backward(tape, np.asarray(1.0))
        alive = weakref.ref(tape)
        del tape
        assert alive() is None
    finally:
        gc.enable()


def test_backward_plan_is_computed_once_per_output_and_leaf_set():
    def f(t, r):
        return t.sum(t.mul(t.sin(r["x"]), r["y"]))

    x, y = np.array([0.3, -0.2]), np.array([1.5, 2.0])
    tape, _ = record(f, {"x": x, "y": y})
    gx = backward(tape, np.asarray(1.0), wrt=["x"])
    plan = tape.backward_plan(tape.output_index, {"x": tape.leaves["x"]})
    both = backward(tape, np.asarray(1.0))
    assert backward(tape, np.asarray(1.0), wrt=["x"])["x"].tolist() == gx["x"].tolist()
    assert tape.backward_plan(tape.output_index, {"x": tape.leaves["x"]}) is plan
    assert np.allclose(gx["x"], np.cos(x) * y, atol=1e-15)
    assert np.allclose(both["y"], np.sin(x), atol=1e-15)


def _gru_oracle(x, h, W, U, b, mx, mh):
    """Per-gate GRU step written from the gate equations."""
    d = h.shape[0]
    Wz, Wr, Wn = W[:d], W[d : 2 * d], W[2 * d :]
    Uz, Ur, Un = U[:d], U[d : 2 * d], U[2 * d :]
    bz, br, bn = (v[:, None] for v in (b[:d], b[d : 2 * d], b[2 * d :]))
    xd, hd = x * mx, h * mh
    z = 1.0 / (1.0 + np.exp(-(Wz @ xd + Uz @ hd + bz)))
    r = 1.0 / (1.0 + np.exp(-(Wr @ xd + Ur @ hd + br)))
    n = np.tanh(Wn @ xd + Un @ (r * hd) + bn)
    return (1.0 - z) * h + z * n


@pytest.mark.parametrize("batched", [False, True])
def test_gru_cell_matches_per_gate_oracle(batched):
    """The stacked kernel against the gate equations; batched with dropout masks."""
    rng = np.random.default_rng(20 + batched)
    d, k, B = 3, 4, 2
    cols = (B,) if batched else ()
    x, h = rng.normal(size=(k, *cols)), rng.normal(size=(d, *cols))
    W, U, b = rng.normal(size=(3 * d, k)), rng.normal(size=(3 * d, d)), rng.normal(size=3 * d)
    mx = mh = None
    if batched:
        mx = rng.binomial(1, 0.7, size=(k, B)) / 0.7
        mh = rng.binomial(1, 0.7, size=(d, B)) / 0.7
        mx[0, 0], mh[0, 1] = 0.0, 0.0  # at least one dropped entry each
    h_new, _ = gru_cell(x, h, W, U, b, mx, mh)
    oracle = _gru_oracle(x.reshape(k, -1), h.reshape(d, -1), W, U, b,
                         1.0 if mx is None else mx, 1.0 if mh is None else mh)
    assert np.allclose(h_new, oracle.reshape(h_new.shape), rtol=0, atol=1e-14)


def _scan_point(rng, layers=2, d=3, sd=5, lead=2):
    """Weights of a small GRU stack (input 2 sd - lead) with a residual output."""
    point, in_dim = {}, 2 * sd - lead
    for li in range(layers):
        point[f"gru{li}.W"] = 0.6 * rng.normal(size=(3 * d, in_dim))
        point[f"gru{li}.U"] = 0.6 * rng.normal(size=(3 * d, d))
        point[f"gru{li}.b"] = 0.3 * rng.normal(size=3 * d)
        in_dim = d
    point["out.W"] = 0.3 * rng.normal(size=(sd, d))
    point["out.b"] = 0.1 * rng.normal(size=sd)
    return point


def test_gru_scan_modifier_gradients_match_finite_differences_horizon_40():
    """Every modifier entry of a 40-step decoder, the last row included,
    whose velocity input uses the row itself as the next row."""
    rng = np.random.default_rng(23)
    H, d, sd = 40, 3, 5
    weights = _scan_point(rng, d=d, sd=sd)
    hiddens = [0.5 * rng.normal(size=d) for _ in range(2)]
    state, velocity = rng.normal(size=sd), 0.1 * rng.normal(size=sd)
    probe = rng.normal(size=(H, sd))

    def f(t, r):
        consts = [t.const(w) for w in weights.values()]
        out = t.gru_scan(consts, hiddens, state, velocity, H,
                         modifiers=t.reshape(r["u"], (H, sd)))
        return t.sum(t.mul(out, t.const(probe)))

    u = 0.2 * rng.normal(size=H * sd)
    assert gradient_check(f, {"u": u}, step=1e-6) < 1e-7


def test_gru_scan_weight_gradients_match_finite_differences():
    """All eight weight leaves of a two-layer stack on a column batch with
    dropout masks, through encoder and decoder steps."""
    rng = np.random.default_rng(24)
    H, E, d, sd, lead, B = 4, 3, 3, 5, 2, 2
    point = _scan_point(rng, d=d, sd=sd, lead=lead)
    in_dim = 2 * sd - lead
    hiddens = [np.zeros((d, B)) for _ in range(2)]
    inputs = rng.normal(size=(E, in_dim, B))
    state, velocity = rng.normal(size=(sd, B)), 0.1 * rng.normal(size=(sd, B))
    masks = [(rng.binomial(1, 0.7, size=(n, B)) / 0.7, rng.binomial(1, 0.7, size=(d, B)) / 0.7)
             for n in (in_dim, d)]
    masks[0][0][0, 0] = masks[1][1][0, 1] = 0.0  # at least one dropped entry each
    probe = rng.normal(size=(H, sd, B))

    def f(t, r):
        out = t.gru_scan([r[name] for name in point], hiddens, state, velocity, H,
                         inputs=inputs, masks=masks)
        return t.sum(t.mul(out, t.const(probe)))

    assert len(point) == 8
    assert gradient_check(f, point, step=1e-6) < 1e-7


def test_gru_scan_replay_matches_gru_unroll_bit_exact():
    rng = np.random.default_rng(25)
    H, sd = 6, 5
    weights = _scan_point(rng, sd=sd)
    hiddens = [rng.normal(size=3) for _ in range(2)]
    state, velocity = rng.normal(size=sd), rng.normal(size=sd)
    tape = Tape()
    u = tape.leaf("u", np.zeros((H, sd)))
    out = tape.gru_scan([tape.const(w) for w in weights.values()], hiddens, state, velocity, H,
                        modifiers=u)
    mods = rng.normal(size=(H, sd))
    replay = tape.forward({"u": mods}).value_of(out)
    expected = gru_unroll(list(weights.values()), hiddens, state, velocity, H, modifiers=mods)[0]
    assert replay.tobytes() == expected.tobytes()


def test_gru_scan_rejects_mismatched_shapes():
    rng = np.random.default_rng(26)
    weights = list(_scan_point(rng, layers=1).values())
    tape = Tape()
    consts = [tape.const(w) for w in weights]
    hiddens, state = [np.zeros(3)], np.zeros(5)
    with pytest.raises(GraphError, match="gru_scan shapes"):
        tape.gru_scan(consts[:-1], hiddens, state, state, 4)
    with pytest.raises(GraphError, match="gru_scan shapes"):
        tape.gru_scan(consts, [np.zeros(4)], state, state, 4)
    with pytest.raises(GraphError, match="gru_scan shapes"):
        tape.gru_scan(consts, hiddens, state, state, 4, modifiers=tape.const(np.zeros((3, 5))))
    with pytest.raises(GraphError, match="gru_scan shapes"):
        tape.gru_scan(consts, hiddens, state, state, 4, inputs=np.zeros((2, 7)))


def test_rollout_gradient_matches_finite_differences_horizon_40():
    """Every state of a 40-step rollout with large, varied headings."""
    rng = np.random.default_rng(21)
    H, n = 40, 5
    initial = np.array([0.4, -1.2, 1.1, 0.3, -0.5])
    controls = np.column_stack([rng.uniform(-0.15, 0.15, H), rng.uniform(-0.3, 0.3, H),
                                0.2 * rng.normal(size=(H, n - 3))])
    weights = rng.normal(size=(H, n))

    def f(t, r):
        return t.sum(t.mul(t.rollout(r["u"], initial), t.const(weights)))

    _, states = record(lambda t, r: t.rollout(r["u"], initial), {"u": controls.reshape(-1)})
    assert np.ptp(states[:, 2]) > 1.0  # the heading really turns
    s = initial.copy()
    for t, u in enumerate(controls):  # the per-step recursion, written out
        s[0] += np.cos(s[2]) * u[0]
        s[1] += np.sin(s[2]) * u[0]
        s[2] += u[1]
        s[3:] += u[2:]
        assert np.array_equal(states[t], s)
    assert gradient_check(f, {"u": controls.reshape(-1)}, step=1e-6) < 1e-7


def test_batched_grid_interp_matches_points_and_finite_differences():
    """(N, 2) queries, some clamped outside the grid, in one node: each row
    equals a one-point node, value and gradient."""
    rng = np.random.default_rng(22)
    values = rng.normal(size=(7, 6))
    origin = np.array([-1.0, -0.5])
    res = 0.25
    inside = origin + res * rng.uniform(0.1, 4.9, size=(6, 2))
    clamped = np.array([[-3.0, 0.1], [0.2, 5.0], [4.0, -2.0]])  # x, y, both clamped
    points = np.vstack([inside, clamped])
    weights = rng.normal(size=len(points))

    def f(t, r):
        d = t.grid_interp(r["p"], values, origin, res)
        return t.sum(t.mul(d, t.const(weights)))

    tape, _ = record(lambda t, r: t.grid_interp(r["p"], values, origin, res), {"p": points})
    batched = tape.output_value
    assert batched.shape == (len(points),)
    grads = backward(tape, np.ones(len(points)))["p"]
    for p, v, g in zip(points, batched, grads):
        single, out = record(lambda t, r: t.grid_interp(r["p"], values, origin, res),
                             {"p": p[None]})
        assert out.shape == (1,) and v == out[0]
        assert np.array_equal(g, backward(single, np.ones(1))["p"][0])
    assert np.array_equal(grads[6], [0.0, grads[6, 1]])
    assert np.array_equal(grads[7], [grads[7, 0], 0.0])
    assert np.array_equal(grads[8], [0.0, 0.0])
    assert gradient_check(f, {"p": points}, step=1e-6 * res) < 1e-6


def test_columns_gradient_matches_finite_differences():
    rng = np.random.default_rng(23)
    point = {"m": rng.normal(size=(4, 5))}
    weights = rng.normal(size=(4, 2))

    def f(t, r):
        return t.sum(t.mul(t.square(t.columns(r["m"], 1, 3)), t.const(weights)))

    _, out = record(lambda t, r: t.columns(r["m"], 1, 3), point)
    assert np.array_equal(out, point["m"][:, 1:3]) and out.flags["C_CONTIGUOUS"]
    assert gradient_check(f, point) < 1e-8


def test_row_and_axis_sum_gradients():
    rng = np.random.default_rng(24)
    m = rng.normal(size=(4, 3))

    def f(t, r):
        rows = t.sum(t.square(r["m"]), axis=1)
        return t.add(t.dot(rows, t.const(np.arange(4.0))), t.sum(t.sin(t.row(r["m"], -1))))

    _, out = record(lambda t, r: t.sum(r["m"], axis=1), {"m": m})
    assert np.array_equal(out, m.sum(axis=1))
    assert gradient_check(f, {"m": m}) < 1e-8
