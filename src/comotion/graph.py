"""Tape-based computational graph with reverse-mode differentiation.

Every objective, constraint and dynamics function in this package is recorded
on a :class:`Tape` so that exact gradients with respect to all decision
variables are available from a single backward pass.  A tape is built eagerly:
each primitive evaluates immediately and appends one node.  After recording,
the tape is immutable; :meth:`Tape.forward` re-executes the node list with new
leaf values (bit-exact replay for identical leaves) and :func:`backward`
propagates a seed gradient to every leaf.

All values are 64-bit float arrays.  Scalars are 0-d arrays.

Subgradient convention at non-smooth points: a max reduction sends the full
gradient to the first attaining index (row-major order).

Fused primitives keep planning tapes short; each has a hand-written adjoint.

``gru_cell`` is one GRU layer step (Cho et al. 2014) on stacked gate weights
W = [Wz; Wr; Wn] (3d, in), U = [Uz; Ur; Un] (3d, d) and b = [bz; br; bn]
(3d,), with optional dropout masks mx, mh on the input and the hidden state::

    xd = x * mx,  hd = h * mh
    [z; r] = sigmoid(W[:2d] xd + U[:2d] hd + b[:2d])
    n = tanh(W[2d:] xd + U[2d:] (r * hd) + b[2d:])
    h' = (1 - z) * h + z * n

Inputs are vectors or column-batched (in, B) / (d, B) matrices.  With g the
gradient of h', its adjoint is::

    g_n = g * z * (1 - n^2),  g_rh = U[2d:]^T g_n
    g_zr = [g * (n - h); g_rh * hd] * [z; r] * (1 - [z; r])
    g_pre = [g_zr; g_n]
    g_x = (W^T g_pre) * mx,  g_h = g * (1 - z) + (U[:2d]^T g_zr + g_rh * r) * mh
    dW += g_pre xd^T,  dU += [g_zr hd^T; g_n (r * hd)^T],  db += g_pre

``gru_scan`` records a whole unroll of a GRU stack with a residual output
layer (Martinez et al. 2017, arXiv:1705.02445) as one node; its forward
:func:`gru_unroll` is what the plain-numpy predictor runs too.  Of the state
s (sd entries), the first l = 2 sd - in are not network inputs (the base
position of the human model).  E encoder steps read constant inputs x_t.
Then H decoder steps start from the constant s_0, v_0 and feed back their
own output, shifted by the optional modifier rows u_j, with u_H = u_{H-1}::

    x_j = [s_j[l:] + u_j[l:];  v_j + (u_{j+1} - u_j)]
    o_j = top-layer hidden after every layer's cell step on x_j
    v_{j+1} = W_o o_j + b_o
    s_{j+1} = [s_j[:l]; s_j[l:] + u_j[l:]] + v_{j+1}

The output is the (H, sd[, B]) states s_1..s_H.  Recording and replay keep,
in preallocated (dim, T, B) buffers over all T = E + H steps, the layer-0
inputs x and each layer's hidden states (T + 1 of them) and gates [z; r; n];
the backward pass reuses them instead of recomputing.  The adjoint is
backpropagation through time (Werbos 1990).  With G_j the output gradient
of s_{j+1}, the reverse loop carries S (the gradient of s_{j+1}), V (of
v_{j+1}) and one hidden-state gradient per layer, and at decoder step j::

    S <- G_j + S,  gv_j = S + V,  g_top += W_o^T gv_j
    per layer, top down: the cell adjoint; g_x adds to the layer below's
        hidden gradient, or is the step's input gradient at layer 0
    r_j = S[l:] + g_x[:sd-l],  V_j = V <- g_x[sd-l:],  S <- [S[:l]; r_j]
    du_j = [0; r_j] - V_j + V_{j-1}   (V_{H-1} drops out: u_H = u_{H-1})

Encoder steps run only the cell adjoints, and only when a weight wants a
gradient.  The weight gradients then sum over time in one GEMM per gate
block after the loop, on (dim, T B) views of the buffers and of the g_pre
stored per step::

    dW = G_pre Xd^T,  dU = [G_zr Hd^T; G_n (R * Hd)^T],  db = G_pre 1
    dW_o = GV O^T,  db_o = GV 1

where Xd and Hd are the masked inputs and hidden states, R the reset gates,
O the top-layer outputs of the decoder steps and GV their gv_j.

``rollout`` integrates the unicycle-plus-joints dynamics over H steps from a
constant initial state by sequential cumulative sums
(:func:`unicycle_rollout`).  With the heading before step k written
b_k = theta_{k-1} and the suffix sums R_k = sum_{t >= k} G_t of the output
gradient G (columns x, y, theta, q), the adjoint is::

    dv_k = cos(b_k) Rx_k + sin(b_k) Ry_k
    dw_k = Rtheta_k + sum_{j > k} v_j (cos(b_j) Ry_j - sin(b_j) Rx_j)
    dq_k = Rq_k

``link_point`` is serial-chain forward kinematics (:func:`chains.chain_fk`,
which the numpy FK runs too) over a (D,) state or an (H, D) trajectory: a
base translation p_0 read from state columns, links k = 1..K with fixed
offsets o_k and local rotations L_k read from state columns (L_k = I for a
rigid link), and a tip offset o_{K+1}::

    R_0 = I,  R_k = R_{k-1} L_k,  point = p_0 + sum_{k=1..K+1} R_{k-1} o_k

A human L_k is the 6-D Gram-Schmidt map (Zhou et al. 2019) of a state block
[a1; a2] with regularized norms |x| = sqrt(x . x + 1e-12), so a replay never
divides by zero: b1 = a1 / |a1|, v2 = a2 - (b1 . a2) b1, b2 = v2 / |v2|,
L = [b1, b2, b1 x b2].  A robot L_k turns a joint angle q about a unit axis
with cross-product matrix K (the base yaw about z first):
L = I + sin(q) K + (1 - cos(q)) K^2.  The adjoint carries the tip back,
u_K = o_{K+1}, u_{k-1} = o_k + L_k u_k, and gives L_k the gradient
c_k u_k^T with c_k = R_{k-1}^T g; the base columns get g.  Per block::

    gb1 = g1 + b2 x g3,  gb2 = g2 + g3 x b1   (g_i: columns of c_k u_k^T)
    gv2 = (gb2 - (b2 . gb2) b2) / |v2|,  ga2 = gv2 - (b1 . gv2) b1
    gb1' = gb1 - (b1 . gv2) a2 - (b1 . a2) gv2,  ga1 = (gb1' - (b1 . gb1') b1) / |a1|
    dq = cos(q) c_k . K u_k + sin(q) c_k . K^2 u_k

and columns off the chain get exactly 0.

``grid_interp`` looks up (N, 2) points and ``columns`` takes one column
range of an (N, D) trajectory, so per-timestep constraint terms are a few
(H,) vector nodes.
"""

from __future__ import annotations

import numpy as np

from .chains import NORM_EPS, Chain, chain_fk, chain_fk_adjoint

__all__ = [
    "GraphError",
    "Ref",
    "Tape",
    "Evaluation",
    "record",
    "backward",
    "gradient_check",
    "gru_cell",
    "gru_unroll",
    "unicycle_rollout",
]


class GraphError(RuntimeError):
    """Raised on malformed graph construction or numeric overflow."""


def _as_array(value) -> np.ndarray:
    a = np.asarray(value, dtype=np.float64)
    if a.ndim and not a.flags["C_CONTIGUOUS"]:
        a = np.ascontiguousarray(a)
    return a


# ---------------------------------------------------------------------------
# Primitive table.  Each op has a forward (vals, arg_ids, param) -> ndarray and
# a backward (grad_out, vals, arg_ids, param, out_val) -> tuple of input grads
# aligned with arg_ids (None for no gradient).
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _f_add(vals, a, p):
    return vals[a[0]] + vals[a[1]]


def _b_add(g, vals, a, p, out):
    return (_unbroadcast(g, vals[a[0]].shape), _unbroadcast(g, vals[a[1]].shape))


def _f_sub(vals, a, p):
    return vals[a[0]] - vals[a[1]]


def _b_sub(g, vals, a, p, out):
    return (_unbroadcast(g, vals[a[0]].shape), _unbroadcast(-g, vals[a[1]].shape))


def _f_mul(vals, a, p):
    return vals[a[0]] * vals[a[1]]


def _b_mul(g, vals, a, p, out):
    x, y = vals[a[0]], vals[a[1]]
    return (_unbroadcast(g * y, x.shape), _unbroadcast(g * x, y.shape))


def _f_div(vals, a, p):
    return vals[a[0]] / vals[a[1]]


def _b_div(g, vals, a, p, out):
    x, y = vals[a[0]], vals[a[1]]
    return (_unbroadcast(g / y, x.shape), _unbroadcast(-g * x / (y * y), y.shape))


def _f_concat(vals, a, p):
    return np.concatenate([vals[i] for i in a], axis=0)


def _b_concat(g, vals, a, p, out):
    grads = []
    pos = 0
    for i in a:
        n = vals[i].shape[0]
        grads.append(g[pos : pos + n])
        pos += n
    return tuple(grads)


def _f_slice(vals, a, p):
    return vals[a[0]][p[0] : p[1]]


def _b_slice(g, vals, a, p, out):
    full = np.zeros_like(vals[a[0]])
    full[p[0] : p[1]] = g
    return (full,)


def _f_reshape(vals, a, p):
    return vals[a[0]].reshape(p)


def _b_reshape(g, vals, a, p, out):
    return (g.reshape(vals[a[0]].shape),)


def _f_sum(vals, a, p):
    return np.asarray(np.sum(vals[a[0]], axis=p))


def _b_sum(g, vals, a, p, out):
    x = vals[a[0]]
    if p is None:
        return (np.full_like(x, float(g)),)
    return (np.broadcast_to(np.expand_dims(g, p), x.shape).copy(),)


def _f_row(vals, a, p):
    return vals[a[0]][p]


def _b_row(g, vals, a, p, out):
    full = np.zeros_like(vals[a[0]])
    full[p] = g
    return (full,)


def _f_columns(vals, a, p):
    return np.ascontiguousarray(vals[a[0]][:, p[0] : p[1]])


def _b_columns(g, vals, a, p, out):
    full = np.zeros_like(vals[a[0]])
    full[:, p[0] : p[1]] = g
    return (full,)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic of the GRU gates."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _f_sin(vals, a, p):
    return np.sin(vals[a[0]])


def _b_sin(g, vals, a, p, out):
    return (g * np.cos(vals[a[0]]),)


def _f_cos(vals, a, p):
    return np.cos(vals[a[0]])


def _b_cos(g, vals, a, p, out):
    return (-g * np.sin(vals[a[0]]),)


def _f_square(vals, a, p):
    x = vals[a[0]]
    return x * x


def _b_square(g, vals, a, p, out):
    return (2.0 * g * vals[a[0]],)


def _f_norm(vals, a, p):
    x = vals[a[0]]
    return np.asarray(np.sqrt(np.dot(x.reshape(-1), x.reshape(-1)) + NORM_EPS))


def _b_norm(g, vals, a, p, out):
    return (float(g) * vals[a[0]] / float(out),)


def _f_maxr(vals, a, p):
    return np.asarray(np.max(vals[a[0]]))


def _b_maxr(g, vals, a, p, out):
    x = vals[a[0]]
    full = np.zeros_like(x)
    full.reshape(-1)[int(np.argmax(x))] = float(g)
    return (full,)


def _f_lse(vals, a, p):
    x = vals[a[0]]
    tau = p
    m = np.max(x)
    return np.asarray(m + tau * np.log(np.sum(np.exp((x - m) / tau))))


def _b_lse(g, vals, a, p, out):
    x = vals[a[0]]
    w = np.exp((x - float(out)) / p)
    return (float(g) * w,)


def _interp2(points, values, origin, res, with_gradient):
    """Bilinear interpolation of a dense grid at (N, 2) points (clamped).

    Returns the (N,) values and, when asked, their (N, 2) analytic
    gradients, which are zero along clamped axes.
    """
    nx, ny = values.shape
    s = (points - origin) / res
    sc = np.minimum(np.maximum(s, 0.0), (nx - 1.0, ny - 1.0))
    cell = np.minimum(sc.astype(np.intp), (nx - 2, ny - 2))
    ix, iy = cell[:, 0], cell[:, 1]
    f = sc - cell
    fx, fy = f[:, 0], f[:, 1]
    v00 = values[ix, iy]
    v10 = values[ix + 1, iy]
    v01 = values[ix, iy + 1]
    v11 = values[ix + 1, iy + 1]
    out = (v00 * (1 - fx) * (1 - fy) + v10 * fx * (1 - fy)
           + v01 * (1 - fx) * fy + v11 * fx * fy)
    if not with_gradient:
        return out, None
    grad = np.empty_like(sc)
    grad[:, 0] = ((v10 - v00) * (1 - fy) + (v11 - v01) * fy) / res
    grad[:, 1] = ((v01 - v00) * (1 - fx) + (v11 - v10) * fx) / res
    return out, np.where(s == sc, grad, 0.0)


def _f_interp2(vals, a, p):
    return _interp2(vals[a[0]], *p, False)[0]


def _b_interp2(g, vals, a, p, out):
    return (g[:, None] * _interp2(vals[a[0]], *p, True)[1],)


# ---------------------------------------------------------------------------
# Fused primitives (see the module docstring for the math)
# ---------------------------------------------------------------------------


def gru_cell(x, h, W, U, b, mask_x=None, mask_h=None):
    """One GRU layer step on stacked gate weights; returns ``(h', gates)``.

    ``gates`` is ``(xd, hd, [z; r], r * hd, n)``.  Vectors or column-batched
    matrices.
    """
    d = h.shape[0]
    xd = x if mask_x is None else x * mask_x
    hd = h if mask_h is None else h * mask_h
    if x.ndim == 2:
        b = b[:, None]
    wx = W @ xd
    zr = sigmoid_array(wx[: 2 * d] + U[: 2 * d] @ hd + b[: 2 * d])
    z, r = zr[:d], zr[d:]
    rh = r * hd
    n = np.tanh(wx[2 * d :] + U[2 * d :] @ rh + b[2 * d :])
    return (1.0 - z) * h + z * n, (xd, hd, zr, rh, n)


def gru_unroll(weights, hiddens, state, velocity, horizon, inputs=None, modifiers=None,
               masks=None, keep=False):
    """Unroll a GRU stack with a residual output layer (see the module docstring).

    ``weights`` is ``(W, U, b)`` per layer, stacked as :func:`gru_cell` takes
    them, then the output layer ``(W_o, b_o)``; ``hiddens`` holds each layer's
    initial hidden state and ``masks`` one (input, hidden) dropout mask pair
    per layer.  The first ``len(inputs)`` steps read ``inputs``; the next
    ``horizon`` steps start from ``state`` and ``velocity`` and feed back their
    own outputs.  Row j of ``modifiers`` shifts decoder step j, and row j + 1
    (row j itself when there is none) its velocity input.  Vectors or
    column-batched matrices.

    Returns the (horizon, sd[, B]) decoder states, the last velocity, the
    final hidden states and, when ``keep``, the cache that the ``gru_scan``
    backward pass reads.
    """
    *cells, out_W, out_b = weights
    layers = [cells[i : i + 3] for i in range(0, len(cells), 3)]
    hiddens = list(hiddens)
    if masks is None:
        masks = [(None, None)] * len(layers)
    batch = hiddens[0].shape[1:]
    if batch:
        out_b = out_b[:, None]
    sd = out_W.shape[0]
    lead = 2 * sd - layers[0][0].shape[1]  # state entries that are not inputs
    enc = 0 if inputs is None else len(inputs)
    steps = enc + horizon
    states = np.empty((horizon, sd, *batch))
    cache = None
    if keep:
        xs = np.empty((layers[0][0].shape[1], steps, *batch))
        hs = [np.empty((h.shape[0], steps + 1, *batch)) for h in hiddens]
        gates = [np.empty((3 * h.shape[0], steps, *batch)) for h in hiddens]
        for h, buf in zip(hiddens, hs):
            buf[:, 0] = h
        cache = (xs, hs, gates)
    for t in range(steps):
        j = t - enc
        if j < 0:
            x = inputs[t]
        else:
            if modifiers is None:
                rot_in, vel_in = state[lead:], velocity
            else:
                u = modifiers[j]
                u_next = modifiers[j + 1] if j + 1 < len(modifiers) else u
                rot_in = state[lead:] + u[lead:]
                vel_in = velocity + (u_next - u)
            x = np.concatenate([rot_in, vel_in])
        inp = x
        for li, ((W, U, b), (mask_x, mask_h)) in enumerate(zip(layers, masks)):
            inp, (_, _, zr, _, n) = gru_cell(inp, hiddens[li], W, U, b, mask_x, mask_h)
            hiddens[li] = inp
            if keep:
                d2 = zr.shape[0]
                hs[li][:, t + 1] = inp
                gates[li][:d2, t] = zr
                gates[li][d2:, t] = n
        if keep:
            xs[:, t] = x
        if j >= 0:
            velocity = out_W @ inp + out_b
            # the residual integrates onto the shifted input state; the lead
            # entries have no modifier slot and integrate their velocity only
            base = state if modifiers is None else np.concatenate([state[:lead], rot_in])
            state = states[j] = base + velocity
    return states, velocity, hiddens, cache


def _f_scan(vals, a, p):
    hiddens, state, velocity, horizon, inputs, masks = p
    nw = 3 * len(hiddens) + 2
    modifiers = vals[a[nw]] if len(a) > nw else None
    states, _, _, cache = gru_unroll([vals[i] for i in a[:nw]], hiddens, state, velocity,
                                     horizon, inputs, modifiers, masks, keep=True)
    return states, cache


def _flat(a):
    """(dim, T[, B]) buffer as a (dim, T * B) matrix (a view)."""
    return a.reshape(a.shape[0], -1)


def _b_scan(g, vals, a, p, cache, needed):
    hiddens, _, _, horizon, _, masks = p
    nl = len(hiddens)
    nw = 3 * nl + 2
    layers = [tuple(vals[i] for i in a[k : k + 3]) for k in range(0, 3 * nl, 3)]
    out_W = vals[a[nw - 2]]
    if masks is None:
        masks = [(None, None)] * nl
    xs, hs, gates = cache
    steps = xs.shape[1]
    enc = steps - horizon
    sd = out_W.shape[0]
    lead = 2 * sd - xs.shape[0]
    batch = g.shape[2:]
    want_w = any(needed[i] for i in a[:nw])
    want_u = len(a) > nw and needed[a[nw]]
    if want_w:
        g_pre_buf = [np.empty_like(q) for q in gates]
        g_vel_buf = np.empty((sd, horizon, *batch))
    if want_u:
        g_rot = np.empty((horizon, sd - lead, *batch))
        g_vin = np.empty((horizon, sd, *batch))
    gh = [np.zeros_like(h) for h in hiddens]  # gradient of each layer's hidden
    g_s = g_v = g_x = None  # gradients of the decoder state, velocity and input
    # encoder steps only matter for the weight gradients
    for t in range(steps - 1, -1 if want_w else enc - 1, -1):
        j = t - enc
        if j >= 0:
            g_s = g[j] if g_s is None else g[j] + g_s
            g_vel = g_s if g_v is None else g_s + g_v
            if want_w:
                g_vel_buf[:, j] = g_vel
            gh[-1] = gh[-1] + out_W.T @ g_vel
        for li in range(nl - 1, -1, -1):
            W, U, _ = layers[li]
            mask_x, mask_h = masks[li]
            d = U.shape[1]
            gt = gh[li]
            zr = gates[li][: 2 * d, t]
            n = gates[li][2 * d :, t]
            h = hs[li][:, t]
            hd = h if mask_h is None else h * mask_h
            g_pre = g_pre_buf[li][:, t] if want_w else np.empty((3 * d, *batch))
            g_zr, g_n = g_pre[: 2 * d], g_pre[2 * d :]
            np.multiply(gt * zr[:d], 1.0 - n * n, out=g_n)
            g_rh = U[2 * d :].T @ g_n
            np.multiply(gt, n - h, out=g_zr[:d])
            np.multiply(g_rh, hd, out=g_zr[d:])
            g_zr *= zr
            g_zr *= 1.0 - zr
            g_hd = U[: 2 * d].T @ g_zr + g_rh * zr[d:]
            gh[li] = gt * (1.0 - zr[:d]) + (g_hd if mask_h is None else g_hd * mask_h)
            if li or j >= 0:
                g_in = W.T @ g_pre
                if mask_x is not None:
                    g_in = g_in * mask_x
                if li:
                    gh[li - 1] = gh[li - 1] + g_in
                else:
                    g_x = g_in
        if j >= 0:
            rot = g_s[lead:] + g_x[: sd - lead]
            g_v = g_x[sd - lead :]
            g_s = np.concatenate([g_s[:lead], rot])
            if want_u:
                g_rot[j] = rot
                g_vin[j] = g_v
    grads = [None] * nw
    if want_w:
        grads = []
        for li, ((W, U, _), (mask_x, mask_h)) in enumerate(zip(layers, masks)):
            d = U.shape[1]
            g_pre = _flat(g_pre_buf[li])
            x_in = xs if li == 0 else hs[li - 1][:, 1:]
            h_in = hs[li][:, :-1]
            xd = _flat(x_in if mask_x is None else x_in * mask_x[:, None])
            hd = h_in if mask_h is None else h_in * mask_h[:, None]
            rh = _flat(gates[li][d : 2 * d] * hd)
            gU = np.empty_like(U)
            gU[: 2 * d] = g_pre[: 2 * d] @ _flat(hd).T
            gU[2 * d :] = g_pre[2 * d :] @ rh.T
            grads += [g_pre @ xd.T, gU, g_pre.sum(axis=1)]
        g_vel = _flat(g_vel_buf)
        grads += [g_vel @ _flat(hs[-1][:, enc + 1 :]).T, g_vel.sum(axis=1)]
    if len(a) > nw:
        gu = None
        if want_u:
            # u_j shifts the rotation input and enters the velocity inputs of
            # steps j (minus) and j - 1 (plus); the last row is its own next
            # row, so its velocity terms cancel
            gu = np.zeros_like(g_vin)
            gu[:, lead:] = g_rot
            gu[:-1] -= g_vin[:-1]
            gu[1:] += g_vin[:-1]
        grads.append(gu)
    return tuple(grads)


def unicycle_rollout(initial, controls) -> np.ndarray:
    """Post-step states (H, n) of the unicycle-plus-joints dynamics.

    ``initial`` is ``[x, y, heading, q...]`` and each control row
    ``[forward, turn, dq...]``.  Step t moves the base along the heading it
    had before the step, then turns and moves the joints.  Every coordinate
    is a sequential cumulative sum, so the result repeats the per-step
    recursion bit for bit.
    """
    initial = np.asarray(initial, dtype=np.float64)
    controls = np.asarray(controls, dtype=np.float64)
    heading = np.cumsum(np.concatenate([initial[2:3], controls[:, 1]]))
    before = heading[:-1]
    states = np.empty((controls.shape[0], initial.shape[0]))
    states[:, 0] = np.cumsum(np.concatenate([initial[0:1], np.cos(before) * controls[:, 0]]))[1:]
    states[:, 1] = np.cumsum(np.concatenate([initial[1:2], np.sin(before) * controls[:, 0]]))[1:]
    states[:, 2] = heading[1:]
    states[:, 3:] = np.cumsum(np.vstack([initial[None, 3:], controls[:, 2:]]), axis=0)[1:]
    return states


def _f_rollout(vals, a, p):
    return unicycle_rollout(p, vals[a[0]].reshape(-1, p.shape[0] - 1))


def _b_rollout(g, vals, a, p, out):
    forward = vals[a[0]].reshape(-1, p.shape[0] - 1)[:, 0]
    before = np.concatenate([p[2:3], out[:-1, 2]])
    c, s = np.cos(before), np.sin(before)
    R = np.cumsum(g[::-1], axis=0)[::-1]  # R[k] = sum over t >= k of g[t]
    d_before = forward * (c * R[:, 1] - s * R[:, 0])
    later = np.cumsum(d_before[::-1])[::-1]  # sum over j >= k
    gu = np.empty((g.shape[0], g.shape[1] - 1))
    gu[:, 0] = c * R[:, 0] + s * R[:, 1]
    gu[:-1, 1] = R[:-1, 2] + later[1:]
    gu[-1, 1] = R[-1, 2]
    gu[:, 2:] = R[:, 3:]
    return (gu.reshape(-1),)


def _f_link_point(vals, a, p):
    x = vals[a[0]]
    point, _, cache = chain_fk(p, x.reshape(-1, x.shape[-1]), keep=True)
    return point.reshape(x.shape[:-1] + (3,)), cache


def _b_link_point(g, vals, a, p, cache):
    return (chain_fk_adjoint(p, cache, g.reshape(-1, 3)).reshape(vals[a[0]].shape),)


OP_LEAF = 0
OP_CONST = 1

_FWD = {}
_BWD = {}
_OP_NAMES = {OP_LEAF: "leaf", OP_CONST: "const"}
# ops whose backward also takes the needed mask and skips unwanted inputs
_MASKED: set[int] = set()
# ops whose forward returns (value, cache); backward gets the cache as `out`
_CACHED: set[int] = set()


def _register(name, fwd, bwd, masked=False, cached=False):
    code = len(_OP_NAMES)
    _OP_NAMES[code] = name
    _FWD[code] = fwd
    _BWD[code] = bwd
    if masked:
        _MASKED.add(code)
    if cached:
        _CACHED.add(code)
    return code


OP_ADD = _register("add", _f_add, _b_add)
OP_SUB = _register("subtract", _f_sub, _b_sub)
OP_MUL = _register("multiply", _f_mul, _b_mul)
OP_DIV = _register("divide", _f_div, _b_div)
OP_CONCAT = _register("concat", _f_concat, _b_concat)
OP_SLICE = _register("slice", _f_slice, _b_slice)
OP_RESHAPE = _register("reshape", _f_reshape, _b_reshape)
OP_SUM = _register("sum", _f_sum, _b_sum)
OP_SIN = _register("sin", _f_sin, _b_sin)
OP_COS = _register("cos", _f_cos, _b_cos)
OP_SQUARE = _register("square", _f_square, _b_square)
OP_NORM = _register("l2_norm", _f_norm, _b_norm)
OP_MAXR = _register("max_reduce", _f_maxr, _b_maxr)
OP_LSE = _register("logsumexp", _f_lse, _b_lse)
OP_INTERP2 = _register("grid_interp", _f_interp2, _b_interp2)
OP_ROW = _register("row", _f_row, _b_row)
OP_COLUMNS = _register("columns", _f_columns, _b_columns)
OP_SCAN = _register("gru_scan", _f_scan, _b_scan, masked=True, cached=True)
OP_ROLLOUT = _register("rollout", _f_rollout, _b_rollout)
OP_LINK_POINT = _register("link_point", _f_link_point, _b_link_point, cached=True)
# no primitive records these; the benchmark's per-type node counts still name them
OP_MATMUL, OP_SIGMOID, OP_TANH = -1, -2, -3


class Ref:
    """Handle to one node of a tape."""

    __slots__ = ("tape", "idx", "shape")

    def __init__(self, tape: "Tape", idx: int, shape: tuple[int, ...]):
        self.tape = tape
        self.idx = idx
        self.shape = shape

    @property
    def value(self) -> np.ndarray:
        return self.tape.vals[self.idx]


class Evaluation:
    """Result of one forward replay: per-node values, read-only afterwards.

    ``caches`` holds what fused nodes keep for their backward pass (the GRU
    gates), keyed by node index.
    """

    __slots__ = ("tape", "values", "caches")

    def __init__(self, tape: "Tape", values: list, caches: dict):
        self.tape = tape
        self.values = values
        self.caches = caches

    @property
    def output(self) -> np.ndarray:
        return self.values[self.tape.output_index]

    def value_of(self, ref: Ref) -> np.ndarray:
        return self.values[ref.idx]


class Tape:
    """Ordered list of primitive nodes plus a registry of named leaves.

    Single-writer while recording; replay (:meth:`forward`) and
    :func:`backward` do not mutate recorded state and are safe to run
    concurrently.
    """

    def __init__(self):
        self.ops: list[int] = []
        self.args: list[tuple[int, ...]] = []
        self.params: list = []
        self.vals: list[np.ndarray] = []
        self.shapes: list[tuple[int, ...]] = []
        self.caches: dict[int, tuple] = {}
        self.leaves: dict[str, int] = {}
        self.output_index: int | None = None
        # node indices, not Refs: a Ref points back at its tape, and a cycle
        # would keep every tape alive until a full garbage collection
        self._const_cache: dict[float, int] = {}
        self._backward_plans: dict = {}

    def __len__(self) -> int:
        return len(self.ops)

    # -- node construction --------------------------------------------------

    def _push(self, op: int, args: tuple[int, ...], param, value: np.ndarray) -> Ref:
        idx = len(self.ops)
        if not np.all(np.isfinite(value)):
            raise GraphError(f"numeric overflow at node {idx} ({_OP_NAMES[op]})")
        self.ops.append(op)
        self.args.append(args)
        self.params.append(param)
        self.vals.append(value)
        self.shapes.append(value.shape)
        return Ref(self, idx, value.shape)

    def leaf(self, name: str, value) -> Ref:
        if name in self.leaves:
            raise GraphError(f"duplicate leaf name {name!r}")
        ref = self._push(OP_LEAF, (), name, _as_array(value))
        self.leaves[name] = ref.idx
        return ref

    def const(self, value) -> Ref:
        arr = _as_array(value)
        if arr.ndim == 0:  # scalars recur constantly; share them
            key = float(arr)
            hit = self._const_cache.get(key)
            if hit is not None:
                return Ref(self, hit, ())
            ref = self._push(OP_CONST, (), None, arr)
            self._const_cache[key] = ref.idx
            return ref
        return self._push(OP_CONST, (), None, arr)

    def _apply(self, op: int, refs: tuple[Ref, ...], param=None) -> Ref:
        for r in refs:
            if r.tape is not self:
                raise GraphError("operands recorded on different tapes")
        args = tuple(r.idx for r in refs)
        with np.errstate(all="ignore"):
            value = _FWD[op](self.vals, args, param)
        if op in _CACHED:
            value, self.caches[len(self.ops)] = value
        return self._push(op, args, param, np.asarray(value))

    # -- primitives ----------------------------------------------------------

    def add(self, a: Ref, b: Ref) -> Ref:
        return self._apply(OP_ADD, (a, b))

    def sub(self, a: Ref, b: Ref) -> Ref:
        return self._apply(OP_SUB, (a, b))

    def mul(self, a: Ref, b: Ref) -> Ref:
        return self._apply(OP_MUL, (a, b))

    def div(self, a: Ref, b: Ref) -> Ref:
        return self._apply(OP_DIV, (a, b))

    def concat(self, parts: list[Ref]) -> Ref:
        if not parts:
            raise GraphError("concat of no tensors")
        return self._apply(OP_CONCAT, tuple(parts))

    def slice(self, x: Ref, start: int, stop: int) -> Ref:
        if not (0 <= start <= stop <= x.shape[0]):
            raise GraphError(f"slice [{start}:{stop}] out of range for {x.shape}")
        return self._apply(OP_SLICE, (x,), (start, stop))

    def reshape(self, x: Ref, shape: tuple[int, ...]) -> Ref:
        if int(np.prod(shape)) != int(np.prod(x.shape)):
            raise GraphError(f"cannot reshape {x.shape} to {shape}")
        return self._apply(OP_RESHAPE, (x,), tuple(shape))

    def sum(self, x: Ref, axis: int | None = None) -> Ref:
        """Sum of all entries, or along one axis."""
        return self._apply(OP_SUM, (x,), axis)

    def sin(self, x: Ref) -> Ref:
        return self._apply(OP_SIN, (x,))

    def cos(self, x: Ref) -> Ref:
        return self._apply(OP_COS, (x,))

    def square(self, x: Ref) -> Ref:
        return self._apply(OP_SQUARE, (x,))

    def norm(self, x: Ref) -> Ref:
        """Euclidean norm, regularized: sqrt(sum(x*x) + 1e-12)."""
        return self._apply(OP_NORM, (x,))

    def max_reduce(self, x: Ref) -> Ref:
        return self._apply(OP_MAXR, (x,))

    def logsumexp(self, x: Ref, temperature: float) -> Ref:
        """Smooth maximum: temperature * log(sum(exp(x / temperature)))."""
        if temperature <= 0:
            raise GraphError("logsumexp temperature must be positive")
        return self._apply(OP_LSE, (x,), float(temperature))

    def grid_interp(self, points: Ref, values: np.ndarray, origin, resolution: float) -> Ref:
        """Bilinear lookup of a dense 2-D grid at (N, 2) planar points, (N,).

        The grid itself is a constant; only the query points are
        differentiated.  Queries outside the node hull are clamped (zero
        gradient in the clamped axis).
        """
        if len(points.shape) != 2 or points.shape[1] != 2:
            raise GraphError(f"grid_interp expects (N, 2) points, got {points.shape}")
        param = (
            np.ascontiguousarray(values, dtype=np.float64),
            _as_array(origin),
            float(resolution),
        )
        return self._apply(OP_INTERP2, (points,), param)

    def row(self, x: Ref, index: int) -> Ref:
        """Row ``index`` of an array (negative counts from the end)."""
        n = x.shape[0] if x.shape else 0
        if not -n <= index < n:
            raise GraphError(f"row {index} out of range for {x.shape}")
        return self._apply(OP_ROW, (x,), index % n)

    def columns(self, x: Ref, lo: int, hi: int) -> Ref:
        """Columns ``lo:hi`` of an (N, D) array, (N, hi - lo)."""
        if len(x.shape) != 2 or not (0 <= lo < hi <= x.shape[1]):
            raise GraphError(f"cannot take columns [{lo}:{hi}] of {x.shape}")
        return self._apply(OP_COLUMNS, (x,), (lo, hi))

    def gru_scan(self, weights: list[Ref], hiddens, state, velocity, horizon: int,
                 inputs=None, modifiers: Ref | None = None, masks=None) -> Ref:
        """A whole GRU-stack unroll (:func:`gru_unroll`) as one node.

        ``weights`` are refs to ``(W, U, b)`` per layer then ``(W_o, b_o)``;
        the initial ``hiddens``, the decoder's initial ``state`` and
        ``velocity``, the encoder ``inputs`` (E, in[, B]) and the dropout
        ``masks`` are constants.  ``modifiers`` is an optional
        (horizon, sd[, B]) ref.  The output is the (horizon, sd[, B]) states.
        """
        hiddens = [_as_array(h) for h in hiddens]
        state, velocity = _as_array(state), _as_array(velocity)
        inputs = None if inputs is None else _as_array(inputs)
        shapes = [w.shape for w in weights]
        nl = len(hiddens)
        ok = (nl >= 1 and len(weights) == 3 * nl + 2 and horizon >= 1
              and len(shapes[0]) == 2 and all(h.ndim in (1, 2) for h in hiddens))
        if ok:
            batch = hiddens[0].shape[1:]
            in_dim = shapes[0][-1]
            for li, h in enumerate(hiddens):
                d = h.shape[0]
                ok &= (h.shape == (d, *batch)
                       and shapes[3 * li : 3 * li + 3] == [(3 * d, in_dim), (3 * d, d), (3 * d,)])
                in_dim = d
            sd = shapes[-1][0] if shapes[-1] else 0
            ok &= (shapes[-2:] == [(sd, in_dim), (sd,)] and 0 <= 2 * sd - shapes[0][-1] <= sd
                   and state.shape == velocity.shape == (sd, *batch))
            if inputs is not None:
                ok &= inputs.shape[1:] == (shapes[0][-1], *batch)
            if modifiers is not None:
                ok &= modifiers.shape == (horizon, sd, *batch)
        if not ok:
            raise GraphError(
                f"gru_scan shapes do not match: weights {shapes}, hiddens "
                f"{[h.shape for h in hiddens]}, state {state.shape}, velocity "
                f"{velocity.shape}, horizon {horizon}, inputs "
                f"{None if inputs is None else inputs.shape}, modifiers "
                f"{None if modifiers is None else modifiers.shape}"
            )
        refs = (*weights, modifiers) if modifiers is not None else tuple(weights)
        return self._apply(OP_SCAN, refs, (hiddens, state, velocity, horizon, inputs, masks))

    def rollout(self, controls: Ref, initial) -> Ref:
        """Unicycle-plus-joints states (H, n) for flat (H * (n - 1),) controls."""
        initial = _as_array(initial)
        if (initial.ndim != 1 or initial.shape[0] < 3 or len(controls.shape) != 1
                or not controls.shape[0] or controls.shape[0] % (initial.shape[0] - 1)):
            raise GraphError(
                f"rollout of initial state {initial.shape} needs flat controls in rows "
                f"of one less, got {controls.shape}"
            )
        return self._apply(OP_ROLLOUT, (controls,), initial)

    def link_point(self, states: Ref, chain: Chain) -> Ref:
        """World tip point of a kinematic chain (:func:`chains.chain_fk`):
        (3,) for a (D,) state, (H, 3) for an (H, D) trajectory."""
        if len(states.shape) not in (1, 2) or states.shape[-1] < chain.width:
            raise GraphError(
                f"link_point reads {chain.width} state columns, got states {states.shape}"
            )
        return self._apply(OP_LINK_POINT, (states,), chain)

    # -- convenience composites (no new primitives) ---------------------------

    def dot(self, a: Ref, b: Ref) -> Ref:
        return self.sum(self.mul(a, b))

    def sum_squares(self, x: Ref) -> Ref:
        return self.sum(self.square(x))

    def smooth_min(self, x: Ref, temperature: float) -> Ref:
        """Lower-bounding soft minimum: -logsumexp(-x, temperature)."""
        neg = self.mul(x, self.const(-1.0))
        return self.mul(self.logsumexp(neg, temperature), self.const(-1.0))

    # -- execution -----------------------------------------------------------

    def set_output(self, ref: Ref) -> None:
        if ref.tape is not self:
            raise GraphError("output belongs to a different tape")
        self.output_index = ref.idx

    @property
    def output_value(self) -> np.ndarray:
        if self.output_index is None:
            raise GraphError("tape has no recorded output")
        return self.vals[self.output_index]

    def forward(self, leaf_values: dict[str, np.ndarray] | None = None) -> Evaluation:
        """Replay the tape; leaves default to their recorded values."""
        overrides = {}
        if leaf_values:
            for name, v in leaf_values.items():
                idx = self.leaves.get(name)
                if idx is None:
                    raise GraphError(f"unknown leaf {name!r}")
                arr = _as_array(v)
                if arr.shape != self.shapes[idx]:
                    raise GraphError(
                        f"leaf {name!r} expects shape {self.shapes[idx]}, got {arr.shape}"
                    )
                overrides[idx] = arr
        n = len(self.ops)
        vals: list = [None] * n
        caches: dict = {}
        ops, args, params, rec = self.ops, self.args, self.params, self.vals
        fwd, cached = _FWD, _CACHED
        with np.errstate(all="ignore"):
            for i in range(n):
                op = ops[i]
                if op <= OP_CONST:
                    v = overrides.get(i, rec[i]) if op == OP_LEAF else rec[i]
                elif op in cached:
                    v, caches[i] = fwd[op](vals, args[i], params[i])
                else:
                    v = np.asarray(fwd[op](vals, args[i], params[i]))
                vals[i] = v
        return Evaluation(self, vals, caches)

    def backward_plan(self, out_idx: int, wanted: dict[str, int]):
        """The needed mask and the reverse visiting order for one output and
        leaf set, computed once per tape.

        A node needs a gradient iff it transitively depends on a wanted leaf;
        only needed non-leaf nodes are visited.
        """
        key = (out_idx, tuple(wanted))
        plan = self._backward_plans.get(key)
        if plan is None:
            ops, args = self.ops, self.args
            needed = bytearray(out_idx + 1)
            for idx in wanted.values():
                if idx <= out_idx:
                    needed[idx] = 1
            for i in range(out_idx + 1):
                if ops[i] > OP_CONST and not needed[i]:
                    for j in args[i]:
                        if needed[j]:
                            needed[i] = 1
                            break
            order = [i for i in range(out_idx, -1, -1) if needed[i] and ops[i] > OP_CONST]
            plan = self._backward_plans[key] = (needed, order)
        return plan


def record(fn, leaves: dict[str, np.ndarray]):
    """Record ``fn`` applied to named leaf values.

    ``fn(tape, refs)`` receives the fresh tape and a dict of leaf refs and
    returns the output ref.  Returns the tape and a copy of its output value.
    """
    tape = Tape()
    refs = {name: tape.leaf(name, value) for name, value in leaves.items()}
    out = fn(tape, refs)
    tape.set_output(out)
    return tape, tape.output_value.copy()


def backward(
    tape: Tape,
    seed,
    at: Evaluation | None = None,
    wrt: list[str] | None = None,
) -> dict[str, np.ndarray]:
    """Propagate ``seed`` from the output back to every leaf.

    Returns the gradient of ``seed . output`` for each named leaf; leaves with
    no path to the output get zero arrays.  ``at`` selects a replayed
    evaluation (defaults to the values captured while recording).  ``wrt``
    restricts the result to the named leaves; subgraphs feeding none of them
    are skipped entirely.
    """
    out_idx = tape.output_index
    if out_idx is None:
        raise GraphError("tape has no recorded output")
    vals = at.values if at is not None else tape.vals
    seed = _as_array(seed)
    if seed.shape != vals[out_idx].shape:
        raise GraphError(
            f"seed shape {seed.shape} does not match output shape {vals[out_idx].shape}"
        )
    ops, args, params = tape.ops, tape.args, tape.params
    if wrt is None:
        wanted = tape.leaves
    else:
        wanted = {name: tape.leaves[name] for name in wrt}
    needed, order = tape.backward_plan(out_idx, wanted)
    caches = at.caches if at is not None else tape.caches
    grads: list = [None] * (out_idx + 1)
    grads[out_idx] = seed
    bwd, masked, cached = _BWD, _MASKED, _CACHED
    with np.errstate(all="ignore"):
        for i in order:
            g = grads[i]
            if g is None:
                continue
            op, a = ops[i], args[i]
            out = caches[i] if op in cached else vals[i]
            if op in masked:
                contribs = bwd[op](g, vals, a, params[i], out, needed)
            else:
                contribs = bwd[op](g, vals, a, params[i], out)
            for j, c in zip(a, contribs):
                if c is None or not needed[j]:
                    continue
                prev = grads[j]
                grads[j] = c if prev is None else prev + c
    result = {}
    for name, idx in wanted.items():
        g = grads[idx] if idx <= out_idx else None
        if g is None:
            g = np.zeros(tape.shapes[idx])
        result[name] = np.asarray(g, dtype=np.float64)
    return result


def gradient_check(
    fn,
    point: dict[str, np.ndarray],
    step: float = 1e-5,
    coords_per_leaf: int | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """Compare recorded gradients of a scalar function with central differences.

    Returns max over checked coordinates of
    ``|analytic - central| / max(1, |analytic|)``; non-finite differences
    report as +inf.  ``coords_per_leaf`` subsamples coordinates of large
    leaves to bound runtime (all coordinates when None).
    """
    if not (0.0 < step <= 1e-3):
        raise ValueError("step must be in (0, 1e-3]")
    point = {k: _as_array(v).copy() for k, v in point.items()}
    tape, out = record(fn, point)
    if out.shape != ():
        raise GraphError("gradient_check requires a scalar-valued function")
    grads = backward(tape, np.asarray(1.0))
    worst = 0.0
    for name, x in point.items():
        flat = x.reshape(-1)
        n = flat.shape[0]
        if coords_per_leaf is not None and coords_per_leaf < n:
            gen = rng if rng is not None else np.random.default_rng(0)
            coords = gen.choice(n, size=coords_per_leaf, replace=False)
        else:
            coords = range(n)
        analytic = grads[name].reshape(-1)
        for i in coords:
            saved = flat[i]
            flat[i] = saved + step
            hi = float(tape.forward({name: x}).output)
            flat[i] = saved - step
            lo = float(tape.forward({name: x}).output)
            flat[i] = saved
            diff = (hi - lo) / (2.0 * step)
            if not np.isfinite(diff):
                return float("inf")
            err = abs(analytic[i] - diff) / max(1.0, abs(analytic[i]))
            if err > worst:
                worst = err
    return worst
