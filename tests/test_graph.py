"""Unit tests for the tape engine: primitives, replay, backward, checks."""

import numpy as np
import pytest

from comotion.environment import Disc, Rect, Scene
from comotion.graph import (
    CHUNK_COLUMNS,
    GRULayer,
    GraphError,
    Tape,
    _workspace,
    backward,
    gradient_check,
    gru_cell,
    gru_unroll,
    handover_residual,
    record,
    squared_differences,
)


def test_identity_record():
    tape, out = record(lambda t, r: r["x"], {"x": np.array([1.0, 2.0])})
    assert np.array_equal(out, [1.0, 2.0])
    assert len(tape) == 1


def test_sum_of_squares_forward_and_grad():
    def f(t, r):
        return t.sum(t.square(r["x"]))

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
        return t.logsumexp(t.square(r["x"]), 0.5)

    tape, _ = record(f, {"x": np.array([0.3, -0.7, 1.1])})
    g1 = backward(tape, np.asarray(1.0))["x"]
    g3 = backward(tape, np.asarray(3.0))["x"]
    assert np.allclose(g3, 3.0 * g1, rtol=0, atol=1e-15)


def test_replay_bit_exact():
    rng = np.random.default_rng(0)
    x = rng.normal(size=7)

    def f(t, r):
        a = t.square(t.sub(t.square(r["x"]), t.const(1.0)))
        return t.sub(t.sum(a), t.logsumexp(a, 0.3))

    tape, out = record(f, {"x": x})
    replay = tape.forward({"x": x.copy()})
    assert float(replay.output) == float(out)


def test_replay_new_leaves_match_fresh_record():
    rng = np.random.default_rng(1)

    def f(t, r):
        return t.logsumexp(t.square(t.sub(t.square(r["x"]), r["y"])), 0.2)

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
    tape, _ = record(lambda t, r: t.square(r["x"]), {"x": np.ones(3)})
    with pytest.raises(GraphError, match="seed shape"):
        backward(tape, np.ones(2))


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
    """Composed chain exercising every smooth generic primitive and the
    handover node, 10 seeded trials: ``take`` of rows, column ranges and one
    entry, and a ``concat`` with a scalar part."""
    rng = np.random.default_rng(100 + trial)
    x = rng.uniform(0.2, 1.5, size=6)
    y = rng.uniform(0.2, 1.5, size=6)
    W = rng.normal(size=(4, 6))

    def f(t, r):
        a = t.sub(t.square(r["x"]), t.square(t.sub(r["x"], r["y"])))
        b = t.sub(a, t.sub(r["y"], t.const(np.full(6, 3.0))))
        m = t.square(t.sub(r["W"], b))  # (4, 6) minus a broadcast row
        d = t.sum(t.take(m, (slice(None), slice(1, 5))), axis=1)
        e = t.concat([d, t.take(m, (2, 3)), t.sub(r["x"], t.const(np.full(6, -1.0)))])
        h = t.take(e, slice(1, 9))
        meet = t.handover(t.take(e, slice(0, 3)), t.take(e, slice(8, 11)), h,
                          t.take(e, slice(2, 9)))
        return t.sub(meet, t.sub(t.logsumexp(h, 0.1), t.sum(t.take(m, -1))))

    err = gradient_check(f, {"x": x, "y": y, "W": W}, step=1e-5)
    assert err < 1e-6


def test_gradient_check_linear_is_exact():
    def f(t, r):
        twice_first = t.sum(t.concat([r["x"], t.take(r["x"], 0)]))
        return t.sub(twice_first, t.sum(t.sub(r["x"], t.const(np.array([2.0, -3.0, 0.5])))))

    err = gradient_check(f, {"x": np.array([1.0, 2.0, 3.0])})
    assert err < 1e-10


def test_broadcast_bias_gradient():
    """A (3, 1) bias broadcast over the columns of M sums its gradient back."""
    rng = np.random.default_rng(6)
    M = rng.normal(size=(3, 5))
    b = rng.normal(size=(3, 1))

    def f(t, r):
        return t.sum(t.square(t.sub(r["M"], r["b"])))

    assert gradient_check(f, {"M": M, "b": b}) < 1e-7


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
        t1.sub(a, b)


def test_recorded_tape_is_freed_by_reference_counting():
    """No reference cycle: a tape dies with its last reference, without gc."""
    import gc
    import weakref

    def f(t, r):
        y = t.sub(r["x"], t.const(2.0))  # a shared scalar constant
        y = t.sub(t.const(2.0), y)  # a cache hit on it
        return t.sum(t.sub(y, t.const(np.ones(3))))

    gc.disable()
    try:
        tape, _ = record(f, {"x": np.ones(3)})
        backward(tape, np.asarray(1.0))
        alive = weakref.ref(tape)
        del tape
        assert alive() is None
    finally:
        gc.enable()


def test_backward_wrt_one_leaf_repeats_and_matches_the_formula():
    def f(t, r):
        return t.sum(t.square(t.sub(t.square(r["x"]), r["y"])))

    x, y = np.array([0.3, -0.2]), np.array([1.5, 2.0])
    tape, _ = record(f, {"x": x, "y": y})
    gx = backward(tape, np.asarray(1.0), wrt=["x"])
    both = backward(tape, np.asarray(1.0))
    assert backward(tape, np.asarray(1.0), wrt=["x"])["x"].tolist() == gx["x"].tolist()
    assert np.allclose(gx["x"], 4.0 * x * (x * x - y), atol=1e-15)
    assert np.allclose(both["y"], -2.0 * (x * x - y), atol=1e-15)


def test_backward_rejects_an_unknown_wrt_leaf():
    tape, _ = record(lambda t, r: t.sum(r["x"]), {"x": np.ones(2)})
    with pytest.raises(GraphError, match="unknown leaf 'nope'"):
        backward(tape, np.asarray(1.0), wrt=["x", "nope"])


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
    return (1.0 - z) * h + z * n, np.concatenate([z, r, n])


@pytest.mark.parametrize("batched", [False, True])
def test_gru_cell_matches_per_gate_oracle(batched):
    """The stacked kernel against the gate equations; batched with dropout
    masks.  The gate slot receives [z; r; n], and a step may write its new
    hidden state over its input."""
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
    hidden, gates = np.empty((2, d, *cols)), np.empty((1, 3 * d, *cols))
    hidden[0] = h
    h_new = gru_cell(x, GRULayer(W, U, b, hidden, gates, mx, mh), 0)
    oracle, oracle_gates = _gru_oracle(x.reshape(k, -1), h.reshape(d, -1), W, U, b,
                                       1.0 if mx is None else mx, 1.0 if mh is None else mh)
    assert np.shares_memory(h_new, hidden[1]) and np.array_equal(hidden[0], h)
    assert np.allclose(h_new, oracle.reshape(h_new.shape), rtol=0, atol=1e-14)
    assert np.allclose(gates[0], oracle_gates.reshape(gates[0].shape), rtol=0, atol=1e-14)
    in_place = _workspace(h.shape, 2)  # both hidden slots are one workspace
    in_place[0] = h
    out = gru_cell(x, GRULayer(W, U, b, in_place, np.empty_like(gates), mx, mh), 0)
    assert np.shares_memory(out, in_place[0]) and out.tobytes() == h_new.tobytes()


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
        return t.gru_scan(consts, hiddens, state, velocity, H, modifiers=r["u"])

    u = 0.2 * rng.normal(size=(H, sd))
    assert gradient_check(f, {"u": u}, step=1e-6, seed=probe) < 1e-7


def test_gru_scan_weight_gradients_match_finite_differences():
    """All eight weight leaves of a two-layer stack on a column batch with
    dropout masks, through encoder and decoder steps."""
    rng = np.random.default_rng(24)
    H, E, d, sd, lead, B = 4, 3, 3, 5, 2, 2
    point = _scan_point(rng, d=d, sd=sd, lead=lead)
    in_dim = 2 * sd - lead
    hiddens = [np.zeros((d, B)) for _ in range(2)]
    frames = rng.normal(size=(E + 1, sd, B))
    state, velocity = rng.normal(size=(sd, B)), 0.1 * rng.normal(size=(sd, B))
    masks = [(rng.binomial(1, 0.7, size=(n, B)) / 0.7, rng.binomial(1, 0.7, size=(d, B)) / 0.7)
             for n in (in_dim, d)]
    masks[0][0][0, 0] = masks[1][1][0, 1] = 0.0  # at least one dropped entry each
    probe = rng.normal(size=(H, sd, B))

    def f(t, r):
        return t.gru_scan([r[name] for name in point], hiddens, state, velocity, H,
                          frames=frames, masks=masks)

    assert len(point) == 8
    assert gradient_check(f, point, step=1e-6, seed=probe) < 1e-7


def _bptt_oracle(weights, hiddens, state, velocity, H, seed, frames=None, modifiers=None,
                 masks=None, chunk_columns=CHUNK_COLUMNS):
    """``gru_scan``'s forward and adjoint written step by step from the module
    docstring's formulas, each product in its documented association order.
    The encoder inputs are built up front, as one concatenation of the later
    frames' entries past l and the frame differences.

    The weight gradients sum over chunks of C = max(1, chunk_columns // B)
    steps (B = 1 for vectors), the last chunk first: one product per chunk
    on its (dim, C B) columns, added to the sum of the later chunks.  With
    ``chunk_columns`` None the whole unroll is one chunk, one product.

    Returns the weight gradients (W, U, b per layer, then W_o, b_o) and the
    modifier gradient.  An absent mask is 1.0, and x * 1.0 is x bit for bit.
    """
    *cells, W_o, b_o = weights
    layers = [cells[i : i + 3] for i in range(0, len(cells), 3)]
    masks = [(1.0, 1.0)] * len(layers) if masks is None else masks
    col = (lambda v: v[:, None]) if hiddens[0].ndim == 2 else (lambda v: v)
    sd = W_o.shape[0]
    lead = 2 * sd - layers[0][0].shape[1]
    E = 0 if frames is None else len(frames) - 1
    if E:
        inputs = np.concatenate([frames[1:, lead:], frames[1:] - frames[:-1]], axis=1)

    def sigmoid(a):
        e = np.exp(-np.abs(a))
        return np.where(a >= 0, 1.0, e) / (1.0 + e)

    h, s, v = list(hiddens), state, velocity
    steps, outs = [], []  # per step and layer: (xd, hd, h, [z; r], n); decoder outputs
    for t in range(E + H):
        j = t - E
        if j < 0:
            x = inputs[t]
        elif modifiers is None:
            x = np.concatenate([s[lead:], v])
        else:
            u = modifiers[j]
            u_next = modifiers[j + 1] if j + 1 < H else u
            rot_in = s[lead:] + u[lead:]
            x = np.concatenate([rot_in, v + (u_next - u)])
        cache = []
        for li, ((W, U, b), (mx, mh)) in enumerate(zip(layers, masks)):
            d = U.shape[1]
            xd, hd = x * mx, h[li] * mh
            wx = W @ xd
            zr = sigmoid(wx[: 2 * d] + U[: 2 * d] @ hd + col(b[: 2 * d]))
            n = np.tanh(wx[2 * d :] + U[2 * d :] @ (zr[d:] * hd) + col(b[2 * d :]))
            cache.append((xd, hd, h[li], zr, n))
            h[li] = x = (1.0 - zr[:d]) * h[li] + zr[:d] * n
        steps.append(cache)
        if j >= 0:
            v = W_o @ x + col(b_o)
            s = (s if modifiers is None else np.concatenate([s[:lead], rot_in])) + v
            outs.append(x)

    gh = [np.zeros_like(hh) for hh in hiddens]
    S = V = None
    g_pres = [[None] * (E + H) for _ in layers]
    GV, R, Vs = [None] * H, [None] * H, [None] * H
    for t in range(E + H - 1, -1, -1):
        j = t - E
        if j >= 0:
            S = seed[j] if S is None else seed[j] + S
            GV[j] = gv = S if V is None else S + V
            gh[-1] = gh[-1] + W_o.T @ gv
        for li in range(len(layers) - 1, -1, -1):
            (W, U, _), (mx, mh) = layers[li], masks[li]
            d = U.shape[1]
            xd, hd, hp, zr, n = steps[t][li]
            g = gh[li]
            g_n = g * zr[:d] * (1.0 - n * n)
            g_rh = U[2 * d :].T @ g_n
            g_zr = np.concatenate([g * (n - hp), g_rh * hd]) * zr * (1.0 - zr)
            g_pres[li][t] = g_pre = np.concatenate([g_zr, g_n])
            g_x = (W.T @ g_pre) * mx
            gh[li] = g * (1.0 - zr[:d]) + (U[: 2 * d].T @ g_zr + g_rh * zr[d:]) * mh
            if li:
                gh[li - 1] = gh[li - 1] + g_x
        if j >= 0:
            R[j] = S[lead:] + g_x[: sd - lead]
            Vs[j] = V = g_x[sd - lead :]
            S = np.concatenate([S[:lead], R[j]])

    def over_time(arrays):  # (dim, T[, B]) stacked as one (dim, T B) matrix
        stacked = np.stack(arrays, axis=1)
        return stacked.reshape(stacked.shape[0], -1)

    T = E + H
    width = hiddens[0].shape[1] if hiddens[0].ndim == 2 else 1
    C = T if chunk_columns is None else max(1, chunk_columns // width)
    grads = []
    for hi in range(T, 0, -C):
        lo = max(hi - C, 0)
        chunk, part = steps[lo:hi], []
        for li, (W, U, _) in enumerate(layers):
            d = U.shape[1]
            G = over_time(g_pres[li][lo:hi])
            Xd, Hd = over_time([c[li][0] for c in chunk]), over_time([c[li][1] for c in chunk])
            RHd = over_time([c[li][3][d:] * c[li][1] for c in chunk])
            part += [G @ Xd.T, np.concatenate([G[: 2 * d] @ Hd.T, G[2 * d :] @ RHd.T]),
                     G.sum(axis=1)]
        dec = slice(max(lo - E, 0), hi - E)  # the chunk's decoder steps
        if dec.start < dec.stop:
            GVm = over_time(GV[dec])
            part += [GVm @ over_time(outs[dec]).T, GVm.sum(axis=1)]
        grads = part if not grads else [g + p for g, p in zip(grads, part)] + grads[len(part):]
    du = np.zeros_like(seed)
    for j in range(H):
        du[j, lead:] = R[j]
        if j < H - 1:
            du[j] = du[j] - Vs[j]
        if j:
            du[j] = du[j] + Vs[j - 1]
    return grads, du


def test_gru_scan_modifier_gradient_is_the_bptt_oracle_bit_for_bit():
    """The planning path: a two-layer, 40-step vector decoder differentiated
    with respect to its modifiers only."""
    rng = np.random.default_rng(28)
    H, d, sd, lead = 40, 20, 9, 3
    weights = list(_scan_point(rng, d=d, sd=sd, lead=lead).values())
    hiddens = [0.5 * rng.normal(size=d) for _ in range(2)]
    state, velocity = rng.normal(size=sd), 0.1 * rng.normal(size=sd)
    mods, seed = 0.2 * rng.normal(size=(H, sd)), rng.normal(size=(H, sd))
    tape = Tape()
    u = tape.leaf("u", mods)
    tape.set_output(tape.gru_scan([tape.const(w) for w in weights], hiddens, state, velocity,
                                  H, modifiers=u))
    _, du = _bptt_oracle(weights, hiddens, state, velocity, H, seed, modifiers=mods)
    assert backward(tape, seed, wrt=["u"])["u"].tobytes() == du.tobytes()


def test_gru_scan_weight_gradients_are_the_bptt_oracle_bit_for_bit():
    """The training path: all eight weight leaves of a two-layer stack on a
    column batch with dropout masks, through encoder and decoder steps."""
    rng = np.random.default_rng(29)
    H, E, d, sd, lead, B = 6, 4, 20, 9, 3, 5
    point = _scan_point(rng, d=d, sd=sd, lead=lead)
    in_dim = 2 * sd - lead
    hiddens = [np.zeros((d, B)) for _ in range(2)]
    frames = rng.normal(size=(E + 1, sd, B))
    state, velocity = rng.normal(size=(sd, B)), 0.1 * rng.normal(size=(sd, B))
    masks = [(rng.binomial(1, 0.7, size=(n, B)) / 0.7, rng.binomial(1, 0.7, size=(d, B)) / 0.7)
             for n in (in_dim, d)]
    seed = rng.normal(size=(H, sd, B))
    tape = Tape()
    refs = [tape.leaf(name, w) for name, w in point.items()]
    tape.set_output(tape.gru_scan(refs, hiddens, state, velocity, H, frames=frames,
                                  masks=masks))
    grads = backward(tape, seed)
    expected, _ = _bptt_oracle(list(point.values()), hiddens, state, velocity, H, seed,
                               frames=frames, masks=masks)
    for name, want in zip(point, expected):
        assert grads[name].tobytes() == want.tobytes(), name


def _chunked_scan(rng, B, d, sd, lead, E=30, H=30):
    """A masked training-shaped scan on B columns whose T = E + H steps span
    three chunks of CHUNK_COLUMNS // B steps, the earliest a short one."""
    chunk = CHUNK_COLUMNS // B
    assert 2 * chunk < E + H < 3 * chunk
    point = _scan_point(rng, d=d, sd=sd, lead=lead)
    hiddens = [np.zeros((d, B)) for _ in range(2)]
    frames = 0.3 * rng.normal(size=(E + 1, sd, B))
    state, velocity = rng.normal(size=(sd, B)), 0.1 * rng.normal(size=(sd, B))
    masks = [(rng.binomial(1, 0.7, size=(n, B)) / 0.7, rng.binomial(1, 0.7, size=(d, B)) / 0.7)
             for n in (2 * sd - lead, d)]
    return point, (hiddens, state, velocity, H), dict(frames=frames, masks=masks)


@pytest.mark.parametrize("B", [9, 10])
def test_gru_scan_weight_gradients_sum_chunk_by_chunk(B):
    """60 steps of B = 9 (10) columns: chunks of 28 (25) steps from the last,
    the earliest 4 (10) steps.  The weight gradients are the oracle's chunk
    sums bit for bit, and the one-GEMM sums within 1e-12 relative."""
    rng = np.random.default_rng(32)
    point, (hiddens, state, velocity, H), kw = _chunked_scan(rng, B, d=20, sd=9, lead=3)
    seed = rng.normal(size=(H, 9, B))
    tape = Tape()
    refs = [tape.leaf(name, w) for name, w in point.items()]
    tape.set_output(tape.gru_scan(refs, hiddens, state, velocity, H, **kw))
    grads = backward(tape, seed)
    weights = list(point.values())
    chunked, _ = _bptt_oracle(weights, hiddens, state, velocity, H, seed, **kw)
    whole, _ = _bptt_oracle(weights, hiddens, state, velocity, H, seed, chunk_columns=None, **kw)
    for name, want, one_gemm in zip(point, chunked, whole):
        assert grads[name].tobytes() == want.tobytes(), name
        assert np.max(np.abs(grads[name] - one_gemm)) <= 1e-12 * np.max(np.abs(one_gemm)), name


def test_gru_scan_weight_and_modifier_gradients_are_the_bptt_oracle_bit_for_bit():
    """All eight weight leaves and the modifiers of a masked 60-step scan on
    10 columns with encoder frames, over three chunks of 25 steps, one of
    them across the encoder's end.  The adjoint rebuilds the layer-0 inputs
    of each chunk, the decoder's from u_j and u_{j+1} - u_j; the oracle
    keeps the forward's."""
    rng = np.random.default_rng(38)
    point, (hiddens, state, velocity, H), kw = _chunked_scan(rng, 10, d=20, sd=9, lead=3)
    mods, seed = 0.2 * rng.normal(size=(H, 9, 10)), rng.normal(size=(H, 9, 10))
    tape = Tape()
    refs = [tape.leaf(name, w) for name, w in point.items()]
    u = tape.leaf("u", mods)
    tape.set_output(tape.gru_scan(refs, hiddens, state, velocity, H, modifiers=u, **kw))
    grads = backward(tape, seed)
    expected, du = _bptt_oracle(list(point.values()), hiddens, state, velocity, H, seed,
                                modifiers=mods, **kw)
    assert len(expected) == 8
    for name, want in zip(point, expected):
        assert grads[name].tobytes() == want.tobytes(), name
    assert grads["u"].tobytes() == du.tobytes()


def test_gru_scan_chunked_weight_gradients_match_finite_differences():
    """All eight weight leaves of a masked 60-step scan over three chunks of
    25 steps (10 columns), the earliest 10 steps.  The probe is scaled by 0.1
    so that the central differences' rounding over 60 steps stays below the
    tolerance (1.2e-8 here; 1.2e-7 with a unit probe, before chunking too)."""
    rng = np.random.default_rng(33)
    point, (hiddens, state, velocity, H), kw = _chunked_scan(rng, 10, d=3, sd=5, lead=2)
    probe = 0.1 * rng.normal(size=(H, 5, 10))

    def f(t, r):
        return t.gru_scan([r[name] for name in point], hiddens, state, velocity, H, **kw)

    assert gradient_check(f, point, step=1e-6, seed=probe) < 1e-7


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


def test_gru_unroll_without_keep_holds_one_step_of_workspace():
    """A forecast-sized unroll (40 steps, 205 columns, the default 2x100
    stack) that keeps no cache allocates no per-step buffers: its peak stays
    within twice its output, where a cache would hold about eight outputs."""
    import tracemalloc

    rng = np.random.default_rng(30)
    H, d, sd, lead, B = 40, 100, 129, 3, 205
    weights = list(_scan_point(rng, d=d, sd=sd, lead=lead).values())
    hiddens = [np.zeros((d, B)) for _ in range(2)]
    state, velocity = rng.normal(size=(sd, B)), 0.01 * rng.normal(size=(sd, B))
    tracemalloc.start()
    try:
        states = gru_unroll(weights, hiddens, state, velocity, H)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * states.nbytes


def test_gru_unroll_encoder_builds_no_input_array():
    """An encoder-only unroll over 20 frames of 205 columns (the default 2x100
    stack) writes each step's input into one workspace: its peak stays below
    the (19, 255, 205) input array that building the inputs up front takes."""
    import tracemalloc

    rng = np.random.default_rng(31)
    E, d, sd, lead, B = 19, 100, 129, 3, 205
    weights = list(_scan_point(rng, d=d, sd=sd, lead=lead).values())
    hiddens = [np.zeros((d, B)) for _ in range(2)]
    frames = rng.normal(size=(E + 1, sd, B))
    tracemalloc.start()
    try:
        gru_unroll(weights, hiddens, None, None, 0, frames)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < E * (2 * sd - lead) * B * 8


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
        tape.gru_scan(consts, hiddens, state, state, 4, frames=np.zeros((3, 7)))
    with pytest.raises(GraphError, match="gru_scan shapes"):
        tape.gru_scan(consts, hiddens, state, state, 4, frames=np.zeros((1, 5)))
    with pytest.raises(GraphError, match="gru_scan shapes"):
        tape.gru_scan(consts, hiddens, state, state, 4, frames=np.zeros(5))
    tape.gru_scan(consts, hiddens, state, state, 4, frames=np.zeros((2, 5)))


def test_rollout_gradient_matches_finite_differences_horizon_40():
    """Every state of a 40-step rollout with large, varied headings."""
    rng = np.random.default_rng(21)
    H, n = 40, 5
    initial = np.array([0.4, -1.2, 1.1, 0.3, -0.5])
    controls = np.column_stack([rng.uniform(-0.15, 0.15, H), rng.uniform(-0.3, 0.3, H),
                                0.2 * rng.normal(size=(H, n - 3))])
    weights = rng.normal(size=(H, n))

    def f(t, r):
        return t.rollout(r["u"], initial)

    _, states = record(f, {"u": controls})
    assert np.ptp(states[:, 2]) > 1.0  # the heading really turns
    s = initial.copy()
    for t, u in enumerate(controls):  # the per-step recursion, written out
        s[0] += np.cos(s[2]) * u[0]
        s[1] += np.sin(s[2]) * u[0]
        s[2] += u[1]
        s[3:] += u[2:]
        assert np.array_equal(states[t], s)
    assert gradient_check(f, {"u": controls}, step=1e-6, seed=weights) < 1e-7


def test_batched_scene_distance_matches_points_and_finite_differences():
    """(N, 2) queries, some outside the workspace bounds, in one node: each
    row equals a one-point node, value and gradient."""
    rng = np.random.default_rng(22)
    scene = Scene((Rect((0.5, 0.0), (0.3, 0.6)), Disc((-0.8, 0.4), 0.35)),
                  Rect((0.0, 0.0), (1.5, 1.5)))
    points = np.vstack([rng.uniform(-1.4, 1.4, size=(6, 2)),
                        [[-3.0, 0.1], [0.2, 5.0], [4.0, -2.0]]])
    weights = rng.normal(size=len(points))

    def f(t, r):
        return t.scene_distance(r["p"], scene)

    tape, batched = record(f, {"p": points})
    assert batched.shape == (len(points),)
    grads = backward(tape, np.ones(len(points)))["p"]
    for p, v, g in zip(points, batched, grads):
        single, out = record(f, {"p": p[None]})
        assert out.shape == (1,) and v == out[0]
        assert np.array_equal(g, backward(single, np.ones(1))["p"][0])
    assert gradient_check(f, {"p": points}, step=1e-7, seed=weights) < 1e-7


def test_columns_gradient_matches_finite_differences():
    """A column range taken by ``take``: a contiguous copy, and its adjoint
    puts the gradient back into those columns only."""
    rng = np.random.default_rng(23)
    point = {"m": rng.normal(size=(4, 5))}
    weights = rng.normal(size=(4, 2))

    def f(t, r):
        return t.square(t.take(r["m"], (slice(None), slice(1, 3))))

    _, out = record(lambda t, r: t.take(r["m"], (slice(None), slice(1, 3))), point)
    assert np.array_equal(out, point["m"][:, 1:3]) and out.flags["C_CONTIGUOUS"]
    tape, _ = record(f, point)
    grad = backward(tape, weights)["m"]
    assert not grad[:, [0, 3, 4]].any()
    assert gradient_check(f, point, seed=weights) < 1e-8


def test_row_and_axis_sum_gradients():
    """A row taken by ``take`` (negative counts from the end) and a sum
    along one axis."""
    rng = np.random.default_rng(24)
    m = rng.normal(size=(4, 3))

    def f(t, r):
        rows = t.sum(t.square(r["m"]), axis=1)
        return t.sub(t.sum(t.square(rows)), t.logsumexp(t.take(r["m"], -1), 0.5))

    _, out = record(lambda t, r: t.sum(r["m"], axis=1), {"m": m})
    assert np.array_equal(out, m.sum(axis=1))
    _, out = record(lambda t, r: t.take(r["m"], -1), {"m": m})
    assert np.array_equal(out, m[-1])
    assert gradient_check(f, {"m": m}) < 1e-8


def test_take_rejects_an_index_it_cannot_differentiate():
    """Out-of-range ints, slices past the axis, empty or stepped slices,
    more indices than axes and array indices are all refused."""
    tape = Tape()
    m = tape.leaf("m", np.ones((4, 3)))
    for index in (4, -5, slice(2, 5), slice(2, 2), slice(0, 4, 2), (0, 1, 2), [0, 1],
                  (slice(None), 3)):
        with pytest.raises(GraphError, match="cannot take"):
            tape.take(m, index)
    assert len(tape) == 1


def test_concat_takes_a_scalar_part_as_one_entry():
    """Scalars and vectors concatenate along axis 0; the adjoint hands each
    scalar part back a 0-d gradient."""
    def f(t, r):
        return t.concat([t.sum(r["x"]), r["x"], t.take(r["x"], 1)])

    x = np.array([1.0, 2.0, 4.0])
    tape, out = record(f, {"x": x})
    assert out.tolist() == [7.0, 1.0, 2.0, 4.0, 2.0]
    seed = np.array([1.0, 10.0, 100.0, 1000.0, 0.5])
    assert backward(tape, seed)["x"].tolist() == [11.0, 101.5, 1001.0]
    tape, out = record(lambda t, r: t.concat([t.sum(r["x"])]), {"x": x})
    assert out.shape == (1,) and backward(tape, np.ones(1))["x"].tolist() == [1.0] * 3


def test_handover_gradient_matches_finite_differences():
    """All four inputs of the handover node, at a human whose 6-D first
    column is not a unit vector; state columns the residual does not read
    get exactly 0."""
    rng = np.random.default_rng(25)
    human = rng.normal(size=129)
    human[3:9] = [1.7, -0.6, 0.4, 0.2, 0.9, -0.3]
    point = {"ph": rng.normal(size=3), "pr": rng.normal(size=3), "h": human,
             "r": rng.normal(size=7)}

    def f(t, r):
        return t.handover(r["ph"], r["pr"], r["h"], r["r"])

    assert gradient_check(f, point) < 1e-8
    tape, out = record(f, point)
    assert float(out) == handover_residual(point["ph"], point["pr"], human, point["r"])
    grads = backward(tape, np.asarray(1.0))
    assert np.all(np.delete(grads["h"], [3, 4]) == 0.0) and np.all(grads["h"][3:5] != 0.0)
    assert np.all(np.delete(grads["r"], 2) == 0.0) and grads["r"][2] != 0.0


def test_squared_differences_value_and_gradient():
    """The node is scale * sum_t |x[t+1] - x[t]|^2 over rows, its value is
    the numpy kernel's bit for bit, and its adjoint matches central
    differences; a single row costs 0 and gets a zero gradient."""
    rng = np.random.default_rng(26)
    x = rng.normal(size=(6, 4))

    def f(t, r):
        return t.squared_differences(r["x"], 2.5)

    tape, out = record(f, {"x": x})
    assert float(out) == pytest.approx(2.5 * np.sum(np.diff(x, axis=0) ** 2), rel=1e-14)
    assert float(out) == squared_differences(x, 2.5)
    assert gradient_check(f, {"x": x}) < 1e-8
    tape, out = record(f, {"x": x[:1]})
    assert float(out) == 0.0 and not backward(tape, np.asarray(1.0))["x"].any()
    with pytest.raises(GraphError, match="rows"):
        record(lambda t, r: t.squared_differences(r["x"], 1.0), {"x": x[0]})
