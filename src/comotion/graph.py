"""Tape-based computational graph with reverse-mode differentiation.

Every objective, constraint and dynamics function in this package is recorded
on a :class:`Tape` so that exact gradients with respect to all decision
variables are available from a single backward pass.  A tape is built eagerly:
each primitive evaluates immediately and appends one node.  After recording,
the tape is immutable; :meth:`Tape.forward` re-executes the node list with new
leaf values (bit-exact replay for identical leaves) and :func:`backward`
propagates a seed gradient to every leaf.

All values are 64-bit float arrays.  Scalars are 0-d arrays.

The primitives are subtract, square, sum, logsumexp, concat and take, and
the fused gru_scan, rollout, link_point, scene_distance, handover and
squared_differences.  Fused primitives keep planning tapes short; each has a
hand-written adjoint.  Leaves are recorded in their natural shapes, so no
primitive only reshapes.  Every primitive has one calling convention: its
forward returns the value and a cache (what its adjoint reads, or None), and
its backward receives that cache and the mask of nodes that want a gradient.

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
position of the human model).  E encoder steps read constant frames
f_0..f_E.  Then H decoder steps start from the constant s_0, v_0 and feed
back their own output, shifted by the optional modifier rows u_j, with
u_H = u_{H-1}.  Encoder step t and decoder step j read::

    x_t = [f_{t+1}[l:];  f_{t+1} - f_t]
    x_j = [s_j[l:] + u_j[l:];  v_j + (u_{j+1} - u_j)]
    o_j = top-layer hidden after every layer's cell step on x_j
    v_{j+1} = W_o o_j + b_o
    s_{j+1} = [s_j[:l]; s_j[l:] + u_j[l:]] + v_{j+1}

The output is the (H, sd[, B]) states s_1..s_H.  Recording and replay keep
a time-major cache over all T = E + H steps, which each step writes in
place: each layer's hidden states hs[l][t] (T + 1 of them) and gates
gates[l][t] = [z; r; n], and each decoder step's velocity slot v_{j+1}.
The layer-0 input x_t is not cached: every step writes it into one one-step
workspace, and no input array is built up front.  The backward pass reuses
the cache instead of recomputing.  When a weight wants a gradient it
rebuilds each chunk's layer-0 inputs from the frames, the states s_j, the
modifiers and the velocity slots, by the same elementwise operations as the
forward, so bit for bit; a value the backward pass can rebuild exactly and
cheaply need not be cached (Gruslys et al. 2016).  Planning's adjoint never
reads them.  An unroll that keeps no cache (prediction, encoding, the test
loss, the sampled forecast) runs every step in one-step workspaces.  A
``Workspace`` holds the cache, the chunk buffers below and the weight
gradients across scans: training's batches of an epoch share one.
The adjoint is backpropagation through time (Werbos 1990).  With G_j the
output gradient of s_{j+1}, the reverse loop carries S (the gradient of
s_{j+1}), V (of v_{j+1}) and one hidden-state gradient per layer, and at
decoder step j::

    S <- G_j + S,  gv_j = S + V,  g_top += W_o^T gv_j
    per layer, top down: the cell adjoint; g_x adds to the layer below's
        hidden gradient, or is the step's input gradient at layer 0
    r_j = S[l:] + g_x[:sd-l],  V_j = V <- g_x[sd-l:],  S <- [S[:l]; r_j]
    du_j = [0; r_j] - V_j + V_{j-1}   (V_{H-1} drops out: u_H = u_{H-1})

Encoder steps run only the cell adjoints, and only when a weight wants a
gradient.  The loop runs over chunks of C consecutive steps, the last chunk
first.  At a chunk's start, the forward-only factors of its cell adjoints
(1 - [z; r], 1 - n^2, n - h and hd) are computed for all its steps at once,
into time-major buffers that every chunk reuses; every product keeps the
association order written above.  The weight gradients sum over time chunk
by chunk.  At a chunk's end, one GEMM per gate block on contiguous
(dim, C B) copies of the chunk's cache and of the g_pre its steps stored
gives the chunk's share, which is added to the sum over the later chunks
(the last chunk's share starts it; the layer-0 Xd is rebuilt, not copied)::

    dW += G_pre Xd^T,  dU += [G_zr Hd^T; G_n (R * Hd)^T],  db += G_pre 1
    dW_o += GV O^T,  db_o += GV 1

where Xd and Hd are the chunk's masked inputs and hidden states, R its
reset gates, O the top-layer outputs of its decoder steps and GV their
gv_j.  C = max(1, 256 // B) steps on B columns (``CHUNK_COLUMNS``; B = 1
for vectors), and the earliest chunk takes what is left.  At 256 columns a
chunk's GEMMs take about 1.1 times what one GEMM over a whole default
unroll (39 steps of 32 columns) takes, against 1.3 to 1.7 times at 128 or
64 (one BLAS thread); and the adjoint's buffers stay a chunk long, not T
steps.  A default batch peaks at 15.6 MiB traced; caching the layer-0
inputs took it to 17.5 MiB, and whole-unroll adjoint buffers on top of that
to 25.0 MiB.
Chunking changes the weight gradients' rounding only.  Without weight
gradients (planning) the steps the loop runs are one chunk, so planning's
adjoint makes the same numpy calls per step as an unchunked loop.

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

``handover`` is the handover row (:func:`handover_residual`, which the numpy
success check and sample ranking run too) of palm points p_h and p_r, the xy
of the human base's 6-D first column (state columns 3:5) and the robot's
heading theta (state column 2); other state columns get exactly 0.  With g
the output gradient, and the terms summed in the order written::

    d = p_h - p_r,  n = sqrt(xy . xy + 1e-12),  f_h = xy / n,  f_r = (cos theta, sin theta)
    value = d . d + (1 + f_h . f_r)
    dp_h = -dp_r = 2 g d,  dxy = g f_r / n + (sum(-g f_r * xy) / n^2) xy / n
    dtheta = g f_h[1] cos theta + (-g f_h[0]) sin theta

``squared_differences`` is scale times the summed squared steps of (N, w)
rows x (:func:`squared_differences`, which the planning objective's
control-rate cost runs too, off the tape).  With g the output gradient::

    d = x[1:] - x[:-1],  value = (d * d).sum() * scale
    v = 2 (g scale) d,  dx = [-v; 0] + [0; v]

``scene_distance`` is a scene's exact signed distance at (N, 2) points p
(:func:`environment._nearest`, which ``scene_sdf`` runs too).  Its forward
keeps each point's nearest obstacle, the first on a tie, and its adjoint is
g times that obstacle's gradient (:func:`environment._gradient`): for a
disc (p - c) / |p - c|, 0 at its centre c; for a rectangle, with q =
|p - c| - h and s = sign(p - c), s m / |m| outside (m = max(q, 0)), and s
along the axis of max(q), the first on a tie, inside or on the edge.  The
nearest-obstacle switch and a rectangle's diagonals inside are kinks.
``take`` is one basic index of an array (a row, or a column range of an
(N, D) trajectory), so per-timestep constraint terms are a few (H,) vector
nodes.
"""

from __future__ import annotations

import math

import numpy as np

from .chains import NORM_EPS, Chain, chain_fk, chain_fk_adjoint
from .environment import _gradient, _nearest

__all__ = [
    "GraphError",
    "Ref",
    "Tape",
    "Evaluation",
    "Workspace",
    "record",
    "backward",
    "gradient_check",
    "GRULayer",
    "gru_cell",
    "gru_unroll",
    "unicycle_rollout",
    "handover_residual",
    "squared_differences",
    "squared_differences_adjoint",
]


class GraphError(RuntimeError):
    """Raised on malformed graph construction or numeric overflow."""


def _as_array(value) -> np.ndarray:
    a = np.asarray(value, dtype=np.float64)
    if a.ndim and not a.flags["C_CONTIGUOUS"]:
        a = np.ascontiguousarray(a)
    return a


# ---------------------------------------------------------------------------
# Primitive table.  Each op has a forward (vals, arg_ids, param) -> (value,
# cache) and a backward (grad_out, vals, arg_ids, param, cache, needed) ->
# tuple of input grads aligned with arg_ids (None for no gradient); ``needed``
# marks the nodes that want a gradient.
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


def _f_sub(vals, a, p):
    return vals[a[0]] - vals[a[1]], None


def _b_sub(g, vals, a, p, cache, needed):
    return (_unbroadcast(g, vals[a[0]].shape), _unbroadcast(-g, vals[a[1]].shape))


def _f_concat(vals, a, p):
    return np.concatenate([np.atleast_1d(vals[i]) for i in a]), None


def _b_concat(g, vals, a, p, cache, needed):
    grads = []
    pos = 0
    for i in a:
        shape = vals[i].shape
        n = shape[0] if shape else 1
        grads.append(g[pos : pos + n].reshape(shape))
        pos += n
    return tuple(grads)


def _f_sum(vals, a, p):
    return np.asarray(vals[a[0]].sum(axis=p)), None


def _b_sum(g, vals, a, p, cache, needed):
    x = vals[a[0]]
    if p is None:
        return (np.full(x.shape, float(g)),)
    return (np.broadcast_to(np.expand_dims(g, p), x.shape).copy(),)


def _f_take(vals, a, p):
    # a contiguous copy: a column range then sums as a fresh array does
    return np.array(vals[a[0]][p]), None


def _b_take(g, vals, a, p, cache, needed):
    full = np.zeros(vals[a[0]].shape)
    full[p] = g
    return (full,)


def _f_square(vals, a, p):
    x = vals[a[0]]
    return x * x, None


def _b_square(g, vals, a, p, cache, needed):
    return (2.0 * g * vals[a[0]],)


def _f_lse(vals, a, p):
    x = vals[a[0]]
    tau = p
    m = x.max()
    value = np.asarray(m + tau * np.log(np.exp((x - m) / tau).sum()))
    return value, value


def _b_lse(g, vals, a, p, value, needed):
    w = np.exp((vals[a[0]] - float(value)) / p)
    return (float(g) * w,)


# ---------------------------------------------------------------------------
# Fused primitives (see the module docstring for the math)
# ---------------------------------------------------------------------------


def _product(batch):
    """The matrix product a step calls: np.dot for vectors, whose gemv call
    dispatches faster than np.matmul's, and np.matmul for column batches,
    whose gemm call runs faster than np.dot's.  Both round alike."""
    return np.matmul if batch else np.dot


# Columns (steps times batch width) of one chunk of the gru_scan adjoint when
# it sums weight gradients: wide enough that a chunk's weight GEMMs run
# nearly as fast as one over the whole unroll, narrow enough that the chunk
# buffers stay small beside the forward cache (see the module docstring).
CHUNK_COLUMNS = 256


class Workspace:
    """Memory that successive ``gru_scan`` passes share: one flat buffer per key.

    :meth:`take` hands out a C-contiguous array at the head of a key's
    buffer, which a larger request replaces.  A narrower batch thus works in
    a contiguous prefix of the memory a wider one used, reshaped to its
    width, never in a strided column slice of it: a non-contiguous operand
    moves BLAS's rounding.  What one pass takes is valid until the next pass
    takes the same keys.
    """

    def __init__(self):
        self._buffers: dict[str, np.ndarray] = {}
        self._packed = True

    def take(self, key: str, shape: tuple[int, ...]) -> np.ndarray:
        size = math.prod(shape)
        buf = self._buffers.get(key)
        if buf is None or buf.size < size:
            buf = self._buffers[key] = np.empty(size)
            self._packed = False
        return buf[:size].reshape(shape)

    def pack(self) -> None:
        """Move the buffers into one block, at 64-byte-aligned offsets, unless
        they are one already; arrays taken before keep the old memory.

        Freed as one block, the memory stays with the process for the next
        workspace.  Freed as many arrays, glibc returns the heap top they
        leave to the system and the next workspace faults it back in: about
        6.8k minor page faults per perfbench ``train`` epoch, against none
        once packed.
        """
        if self._packed:
            return
        sizes = {key: -(-buf.size // 8) * 8 for key, buf in self._buffers.items()}
        self._buffers = {}  # freed before the block is allocated
        block = np.empty(sum(sizes.values()))
        start = 0
        for key, size in sizes.items():
            self._buffers[key] = block[start : start + size]
            start += size
        self._packed = True


def _buffer(workspace, key, shape):
    """A (shape) array to write into: fresh, or the head of ``workspace``'s
    ``key`` buffer.  Every buffer a scan pass keeps comes from here."""
    return np.empty(shape) if workspace is None else workspace.take(key, shape)


def _workspace(shape, count, keep=False, workspace=None, key=None):
    """``count`` (shape) slots, each its own when ``keep`` (see
    :func:`_buffer`); else all one workspace, a (count, *shape) view with a
    zero leading stride, for a pass that keeps no cache."""
    if keep:
        return _buffer(workspace, key, (count, *shape))
    ws = np.empty(shape)
    return np.lib.stride_tricks.as_strided(ws, (count, *shape), (0, *ws.strides))


class GRULayer:
    """One GRU layer as a pass uses it: the stacked weights (W, U, b) split
    into the blocks :func:`gru_cell` multiplies by, the (input, hidden)
    dropout masks, the workspaces of one step and the per-step views of the
    pass's buffers, all made once per pass.

    ``hidden`` is the (T + 1, d[, B]) buffer of hidden states, ``hidden[0]``
    the initial one, and ``gates`` the (T, 3d[, B]) gate slots; step t reads
    ``hidden[t]`` and writes ``gates[t]`` and ``hidden[t + 1]``.
    """

    def __init__(self, W, U, b, hidden, gates, mask_x=None, mask_h=None):
        d = U.shape[1]
        batch = hidden.shape[2:]
        if batch:
            b = b[:, None]
        self.W, self.U_zr, self.U_n = W, U[: 2 * d], U[2 * d :]
        self.b_zr, self.b_n = b[: 2 * d], b[2 * d :]
        self.mask_x, self.mask_h = mask_x, mask_h
        self.product = _product(batch)
        self.xd = None if mask_x is None else np.empty((W.shape[1], *batch))
        self.hd = None if mask_h is None else np.empty((d, *batch))
        self.wx = np.empty((3 * d, *batch))
        self.wx_zr, self.wx_n = self.wx[: 2 * d], self.wx[2 * d :]
        # the logistic's exp(-|a|) and exp(min(a, 0)), one np.exp for both
        self.e = np.empty((2, 2 * d, *batch))
        self.e_abs, self.e_min = self.e
        self.rh = np.empty((d, *batch))
        self.keep = self.e_abs[:d]  # free once the logistic is done
        self.h = list(hidden)
        self.zr, self.n = list(gates[:, : 2 * d]), list(gates[:, 2 * d :])
        self.z, self.r = list(gates[:, :d]), list(gates[:, d : 2 * d])


def gru_cell(x, layer: GRULayer, t):
    """Step ``t`` of one GRU layer (see the module docstring) on input ``x``.

    Reads the layer's hidden state ``t``, writes [z; r; n] into its gate slot
    ``t`` and h' into its hidden state ``t + 1``, which may be the same
    memory, and returns h'.  Vectors or column-batched matrices.
    """
    h, zr, z, r, n = layer.h[t], layer.zr[t], layer.z[t], layer.r[t], layer.n[t]
    xd = x if layer.mask_x is None else np.multiply(x, layer.mask_x, out=layer.xd)
    hd = h if layer.mask_h is None else np.multiply(h, layer.mask_h, out=layer.hd)
    product = layer.product
    product(layer.W, xd, out=layer.wx)
    product(layer.U_zr, hd, out=zr)
    zr += layer.wx_zr
    zr += layer.b_zr
    # overflow-safe logistic exp(min(a, 0)) / (1 + exp(-|a|)); the numerator
    # is 1 where a >= 0 and exp(-|a|) elsewhere
    e_abs = np.abs(zr, out=layer.e_abs)
    np.negative(e_abs, out=e_abs)
    np.minimum(zr, 0.0, out=layer.e_min)
    np.exp(layer.e, out=layer.e)
    e_abs += 1.0
    np.divide(layer.e_min, e_abs, out=zr)
    rh = np.multiply(r, hd, out=layer.rh)
    product(layer.U_n, rh, out=n)
    n += layer.wx_n
    n += layer.b_n
    np.tanh(n, out=n)
    keep = np.subtract(1.0, z, out=layer.keep)
    keep *= h
    return np.add(keep, np.multiply(z, n, out=rh), out=layer.h[t + 1])


class _ScanInputs:
    """The layer-0 input x_t of every step of one unroll (see the module
    docstring).  The forward writes each step's into its one-step workspace;
    the adjoint rebuilds a chunk's for its weight GEMMs, by the same
    elementwise operations on the same operands, so bit for bit.  A decoder
    step reads the state and the velocity that the step before it wrote
    into the unroll's ``states`` and velocity slots ``vels``, which nothing
    writes afterwards."""

    def __init__(self, lead, frames, state, velocity, states, vels, modifiers):
        self.lead, self.frames = lead, frames
        self.enc = 0 if frames is None else len(frames) - 1
        if len(states):  # s_j[l:] and v_j of every decoder step j
            self.s_rot = [state[lead:], *states[:-1, lead:]]
            self.v = [velocity, *vels[:-1]]
        self.mod_rot = self.shift = None
        if modifiers is not None:
            # u_{j+1} - u_j of every step at once; the last row is its own next row
            self.shift = list(np.diff(modifiers, axis=0, append=modifiers[-1:]))
            self.mod_rot = list(modifiers[:, lead:])

    def write(self, t, x_rot, x_vel):
        """x_t into its rotation and velocity parts."""
        j = t - self.enc
        if j < 0:
            f = self.frames
            np.copyto(x_rot, f[t + 1][self.lead :])
            np.subtract(f[t + 1], f[t], out=x_vel)
        elif self.mod_rot is None:
            np.copyto(x_rot, self.s_rot[j])
            np.copyto(x_vel, self.v[j])
        else:
            np.add(self.s_rot[j], self.mod_rot[j], out=x_rot)
            np.add(self.v[j], self.shift[j], out=x_vel)


def gru_unroll(weights, hiddens, state, velocity, horizon, frames=None, modifiers=None,
               masks=None, keep=False, workspace=None):
    """Unroll a GRU stack with a residual output layer (see the module docstring).

    ``weights`` is ``(W, U, b)`` per layer, stacked as :class:`GRULayer` takes
    them, then the output layer ``(W_o, b_o)``; ``hiddens`` holds each layer's
    initial hidden state and ``masks`` one (input, hidden) dropout mask pair
    per layer.  The first E steps read the (E + 1, sd[, B]) ``frames``; the
    next ``horizon`` steps start from ``state`` and ``velocity`` and feed back
    their own outputs.  Row j of ``modifiers`` shifts decoder step j, and row
    j + 1 (row j itself when there is none) its velocity input.  Vectors or
    column-batched matrices; ``frames``, ``state`` and ``velocity`` may be
    read-only views.

    Returns the (horizon, sd[, B]) decoder states, the last velocity, the
    final hidden states and, when ``keep``, the time-major cache that the
    ``gru_scan`` backward pass reads: the layer-0 inputs' operands (a
    :class:`_ScanInputs` over the frames, modifiers, states and the velocity
    slots v_1..v_H), each layer's hidden states ``hs[l][t]`` (T + 1 of them)
    and gates ``gates[l][t]``.  The states and the kept buffers come from
    ``workspace`` when one is given (see :func:`_buffer`).  Every step
    writes its input into one one-step workspace, and without ``keep`` its
    hidden states, gates and velocity too, so memory does not grow with the
    step count.
    """
    *cells, out_W, out_b = weights
    batch = hiddens[0].shape[1:]
    if masks is None:
        masks = [(None, None)] * len(hiddens)
    if batch:
        out_b = out_b[:, None]
    sd = out_W.shape[0]
    in_dim = cells[0].shape[1]
    lead = 2 * sd - in_dim  # state entries that are not inputs
    rot = sd - lead  # input entries the shifted state fills; the velocity fills the rest
    enc = 0 if frames is None else len(frames) - 1
    steps = enc + horizon
    # step t writes its input x, reads it and hs[l][t], writes gates[l][t] and
    # hs[l][t + 1], and decoder step j its velocity slot vels[j] and states[j];
    # without keep every step's slot is one workspace: hidden states update in place
    states = _buffer(workspace, "states", (horizon, sd, *batch))
    vels = _workspace((sd, *batch), horizon, keep, workspace, "vels")
    hs = [_workspace(h.shape, steps + 1, keep, workspace, f"hs{li}")
          for li, h in enumerate(hiddens)]
    gates = [_workspace((3 * h.shape[0], *batch), steps, keep, workspace, f"gates{li}")
             for li, h in enumerate(hiddens)]
    for buf, h in zip(hs, hiddens):
        buf[0] = h
    layers = [GRULayer(*cells[3 * li : 3 * li + 3], hs[li], gates[li], *masks[li])
              for li in range(len(hiddens))]
    x = np.empty((in_dim, *batch))
    x_rot, x_vel = x[:rot], x[rot:]
    inputs = _ScanInputs(lead, frames, state, velocity, states, vels, modifiers)
    out_lead, out_rot = list(states[:, :lead]), list(states[:, lead:])
    product = _product(batch)
    v = velocity  # v_j, and the lead entries of s_j
    if horizon:
        s_lead = state[:lead]
    for t in range(steps):
        inputs.write(t, x_rot, x_vel)
        o = x
        for layer in layers:
            o = gru_cell(o, layer, t)
        j = t - enc
        if j >= 0:
            v = product(out_W, o, out=vels[j])
            v += out_b
            # the residual integrates onto the shifted input state; the lead
            # entries have no modifier slot and integrate their velocity only
            s_lead = np.add(s_lead, v[:lead], out=out_lead[j])
            np.add(x_rot, v[lead:], out=out_rot[j])
    return states, v, [h[steps] for h in hs], (inputs, hs, gates) if keep else None


def _f_scan(vals, a, p):
    hiddens, state, velocity, horizon, frames, masks, workspace = p
    nw = 3 * len(hiddens) + 2
    modifiers = vals[a[nw]] if len(a) > nw else None
    states, _, _, cache = gru_unroll([vals[i] for i in a[:nw]], hiddens, state, velocity,
                                     horizon, frames, modifiers, masks, True, workspace)
    return states, cache


def _flat(a):
    """(dim, T[, B]) buffer as a (dim, T * B) matrix (a view)."""
    return a.reshape(a.shape[0], -1)


def _dim_major(flat, a, mask=None):
    """A time-major (c, dim[, B]) chunk, times a (dim[, B]) mask when given,
    as a contiguous (dim, c[, B]) array at the head of the 1-D buffer
    ``flat``: the layout of the weight GEMMs."""
    out = flat[: a.size].reshape(a.shape[1], len(a), *a.shape[2:])
    if mask is None:
        np.copyto(out, np.moveaxis(a, 0, 1))
    else:
        np.multiply(np.moveaxis(a, 0, 1), mask[:, None], out=out)
    return out


def _b_scan(g, vals, a, p, cache, needed):
    hiddens, _, _, horizon, _, masks, workspace = p
    nl = len(hiddens)
    nw = 3 * nl + 2
    out_WT = vals[a[nw - 2]].T
    if masks is None:
        masks = [(None, None)] * nl
    inputs, hs, gates = cache
    steps = len(gates[0])
    enc = steps - horizon
    sd = out_WT.shape[1]
    in_dim = vals[a[0]].shape[1]
    rot = in_dim - sd
    lead = sd - rot
    batch = g.shape[2:]
    product = _product(batch)
    want_w = any(needed[i] for i in a[:nw])
    want_u = len(a) > nw and needed[a[nw]]
    # Encoder steps only matter for the weight gradients.  The reverse loop
    # runs in chunks of steps, the last first; without weight gradients the
    # steps it runs are one chunk.
    stop = 0 if want_w else enc
    chunk = min(max(1, CHUNK_COLUMNS // math.prod(batch)), steps) if want_w else steps - stop
    layers, chunks = [], []
    for li, (mask_x, mask_h) in enumerate(masks):
        W, U = vals[a[3 * li]], vals[a[3 * li + 1]]
        d = U.shape[1]
        w_zr = np.empty((2 * d, *batch))
        layers.append((W.T, U[: 2 * d].T, U[2 * d :].T, mask_x, mask_h, d, w_zr, w_zr[:d],
                       w_zr[d:], np.empty((d, *batch)), np.empty((d, *batch)),
                       np.empty((W.shape[1], *batch)) if li else None))
        # a chunk's g_pre slots, its n - h and its masked hidden states
        chunks.append((_buffer(workspace, f"g_pre{li}", (chunk, 3 * d, *batch)),
                       _buffer(workspace, f"n_h{li}", (chunk, d, *batch)),
                       None if mask_h is None else
                       _buffer(workspace, f"hd{li}", (chunk, d, *batch))))
    if want_w:
        # the (dim, chunk B) operands of the weight GEMMs, which every layer
        # reuses, and the scratch that a chunk's share of a weight gradient
        # goes to before it is added to the later chunks'
        cols = chunk * math.prod(batch)
        g_buf = _buffer(workspace, "g_cols", (max(sd, *(3 * h.shape[0] for h in hiddens)) * cols,))
        x_buf = _buffer(workspace, "x_cols", (max(in_dim, *(h.shape[0] for h in hiddens)) * cols,))
        h_buf = _buffer(workspace, "h_cols", (max(h.shape[0] for h in hiddens) * cols,))
        part = _buffer(workspace, "part", (max(vals[i].size for i in a[:nw]),))
    # the velocity gradients of a chunk's steps are kept for the output-layer
    # GEMM; the input gradients of every step only for the modifier gradient
    g_vels = _workspace((sd, *batch), chunk, want_w, workspace, "g_vels")
    g_xs = _workspace((sd + rot, *batch), horizon, want_u, workspace, "g_xs")
    gu = np.zeros((horizon, sd, *batch)) if want_u else None
    gh = [np.zeros(h.shape) for h in hiddens]  # gradient of each layer's hidden state
    top = np.empty_like(gh[-1])
    g_s = np.empty((sd, *batch))  # S, the gradient of the decoder state
    g_s_rot, g_top = g_s[lead:], gh[-1]
    g_x_rot, g_x_vel = list(g_xs[:, :rot]), list(g_xs[:, rot:])
    gu_rot = list(gu[:, lead:]) if want_u else None
    g_v = None  # V, of the velocity
    grads = ([_buffer(workspace, f"grad{i}", vals[a[i]].shape) for i in range(nw)]
             if want_w else [None] * nw)

    # The last chunk, which runs first, writes its shares of the weight
    # gradients into them; every later chunk writes its share into the
    # scratch ``part`` and adds it to the sum over the chunks after it.
    def share(i):
        return grads[i] if hi == steps else part[: grads[i].size].reshape(grads[i].shape)

    def add(i, chunk_share):
        if hi < steps:
            grads[i] += chunk_share

    for hi in range(steps, stop, -chunk):
        lo = max(hi - chunk, stop)
        # The forward-only factors of the chunk's cell adjoints.  Step t's
        # g_pre slot starts out holding the factors its rows multiply by
        # last, [1 - z; 1 - r; 1 - n^2].
        views = []
        for li, ((_, mask_h), (slots, n_h, hd)) in enumerate(zip(masks, chunks)):
            d, c = hs[li].shape[1], hi - lo
            zr, n, h = gates[li][lo:hi, : 2 * d], gates[li][lo:hi, 2 * d :], hs[li][lo:hi]
            slots = slots[:c]
            np.subtract(1.0, zr, out=slots[:, : 2 * d])
            one_n2 = np.multiply(n, n, out=slots[:, 2 * d :])
            np.subtract(1.0, one_n2, out=one_n2)
            views.append((zr, slots, np.subtract(n, h, out=n_h[:c]),
                          h if mask_h is None else np.multiply(h, mask_h, out=hd[:c])))
        for t in range(hi - 1, lo - 1, -1):
            j, k = t - enc, t - lo
            if j >= 0:
                gv = g_vels[k]
                if g_v is None:
                    np.copyto(g_s, g[j])
                    np.copyto(gv, g_s)
                else:
                    g_s += g[j]
                    np.add(g_s, g_v, out=gv)
                g_top += product(out_WT, gv, out=top)
            for li in range(nl - 1, -1, -1):
                (WT, U_zrT, U_nT, mask_x, mask_h, d, w_zr, w_z, w_r, w_rh, w_hd,
                 w_in) = layers[li]
                zr, slots, n_h, hd = views[li]
                gt = gh[li]
                zr_t, g_pre = zr[k], slots[k]
                g_zr, g_n = g_pre[: 2 * d], g_pre[2 * d :]
                g_n *= np.multiply(gt, zr_t[:d], out=w_rh)  # (g z) (1 - n^2)
                g_rh = product(U_nT, g_n, out=w_rh)
                np.multiply(gt, n_h[k], out=w_z)
                np.multiply(g_rh, hd[k], out=w_r)
                w_zr *= zr_t
                gt *= g_zr[:d]  # g (1 - z), before g_zr is overwritten
                g_zr *= w_zr  # ([.] [z; r]) (1 - [z; r])
                g_hd = product(U_zrT, g_zr, out=w_hd)
                g_hd += np.multiply(g_rh, zr_t[d:], out=w_rh)
                if mask_h is not None:
                    g_hd *= mask_h
                gt += g_hd
                if li or j >= 0:
                    g_in = product(WT, g_pre, out=w_in if li else g_xs[j])
                    if mask_x is not None:
                        g_in *= mask_x
                    if li:
                        gh[li - 1] += g_in
            if j >= 0:
                g_s_rot += g_x_rot[j]
                if want_u:
                    np.copyto(gu_rot[j], g_s_rot)
                g_v = g_x_vel[j]
        if want_w:
            for li, ((mask_x, _), (zr, slots, _, hd)) in enumerate(zip(masks, views)):
                d = hd.shape[1]
                g_pre = _flat(_dim_major(g_buf, slots))
                if li:
                    xd = _dim_major(x_buf, hs[li - 1][lo + 1 : hi + 1], mask_x)
                else:  # the layer-0 inputs, rebuilt in _dim_major's layout
                    xd = x_buf[: in_dim * (hi - lo) * math.prod(batch)].reshape(
                        in_dim, hi - lo, *batch)
                    for k in range(hi - lo):
                        inputs.write(lo + k, xd[:rot, k], xd[rot:, k])
                    if mask_x is not None:
                        xd *= mask_x[:, None]
                add(3 * li, np.matmul(g_pre, _flat(xd).T, out=share(3 * li)))
                add(3 * li + 2, np.sum(g_pre, axis=1, out=share(3 * li + 2)))
                hd = _dim_major(h_buf, hd)
                gU = share(3 * li + 1)
                np.matmul(g_pre[: 2 * d], _flat(hd).T, out=gU[: 2 * d])
                rh = np.multiply(hd, np.moveaxis(zr[:, d:], 0, 1), out=hd)
                np.matmul(g_pre[2 * d :], _flat(rh).T, out=gU[2 * d :])
                add(3 * li + 1, gU)
            dec = max(lo, enc)  # the chunk's decoder steps
            if dec < hi:
                gv = _flat(_dim_major(g_buf, g_vels[dec - lo : hi - lo]))
                out = _flat(_dim_major(x_buf, hs[-1][dec + 1 : hi + 1]))
                add(nw - 2, np.matmul(gv, out.T, out=share(nw - 2)))
                add(nw - 1, np.sum(gv, axis=1, out=share(nw - 1)))
    if len(a) > nw:
        if want_u:
            # u_j shifts the rotation input and enters the velocity inputs of
            # steps j (minus) and j - 1 (plus); the last row is its own next
            # row, so its velocity terms cancel
            g_vin = g_xs[:, rot:]
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
    # row 0 the initial state, row t + 1 the increments of step t
    steps = np.empty((controls.shape[0] + 1, initial.shape[0]))
    steps[0] = initial
    steps[1:, 2] = controls[:, 1]
    before = np.cumsum(steps[:-1, 2])  # the heading before each step
    steps[1:, 0] = np.cos(before) * controls[:, 0]
    steps[1:, 1] = np.sin(before) * controls[:, 0]
    steps[1:, 3:] = controls[:, 2:]
    return np.cumsum(steps, axis=0)[1:]


def _f_rollout(vals, a, p):
    states = unicycle_rollout(p, vals[a[0]])
    return states, states


def _b_rollout(g, vals, a, p, states, needed):
    forward = vals[a[0]][:, 0]
    before = np.concatenate([p[2:3], states[:-1, 2]])
    c, s = np.cos(before), np.sin(before)
    R = np.cumsum(g[::-1], axis=0)[::-1]  # R[k] = sum over t >= k of g[t]
    d_before = forward * (c * R[:, 1] - s * R[:, 0])
    later = np.cumsum(d_before[::-1])[::-1]  # sum over j >= k
    gu = np.empty((g.shape[0], g.shape[1] - 1))
    gu[:, 0] = c * R[:, 0] + s * R[:, 1]
    gu[:-1, 1] = R[:-1, 2] + later[1:]
    gu[-1, 1] = R[-1, 2]
    gu[:, 2:] = R[:, 3:]
    return (gu,)


def _handover(palm_h, palm_r, human, robot):
    """The handover residual and the intermediates its adjoint reads."""
    d = palm_h - palm_r
    xy = human[..., 3:5]
    # the stacked product rounds as np.dot does, row by row
    norm = np.sqrt((xy[..., None, :] @ xy[..., :, None])[..., 0] + NORM_EPS)
    facing_h = xy / norm
    heading = robot[2:3]
    facing_r = np.concatenate([np.cos(heading), np.sin(heading)])
    value = (d * d).sum(axis=-1) + (1.0 + (facing_h * facing_r).sum(axis=-1))
    return value, (d, xy, norm, facing_h, facing_r)


def handover_residual(palm_h, palm_r, human, robot):
    """The handover residual (see the module docstring) of a human state
    (D,) and its (3,) palm point, or an (N, D) batch of them and (N, 3)
    palms, against one robot state and its palm: a float or an (N,) array."""
    return _handover(palm_h, palm_r, human, robot)[0]


def _f_handover(vals, a, p):
    value, cache = _handover(*(vals[i] for i in a))
    return np.asarray(value), cache


def _b_handover(g, vals, a, p, cache, needed):
    d, xy, norm, facing_h, facing_r = cache
    g = float(g)
    g_palm = 2.0 * g * d
    g_fh, g_fr = g * facing_r, g * facing_h
    g_norm = ((-g_fh) * xy / (norm * norm)).sum()
    g_human = np.zeros(vals[a[2]].shape)
    g_human[3:5] = g_fh / norm + g_norm * xy / norm
    g_robot = np.zeros(vals[a[3]].shape)
    g_robot[2:3] = g_fr[1:2] * facing_r[0:1] + (-g_fr[0:1]) * facing_r[1:2]
    return g_palm, -g_palm, g_human, g_robot


def squared_differences(rows, scale):
    """scale * sum_t |rows[t+1] - rows[t]|^2 of (N, w) rows, a float."""
    d = rows[1:] - rows[:-1]
    return (d * d).sum() * scale


def squared_differences_adjoint(rows, scale, g):
    """The (N, w) gradient of g * squared_differences(rows, scale)."""
    v = 2.0 * (g * scale) * (rows[1:] - rows[:-1])
    zero = np.zeros((1, rows.shape[1]))
    return np.concatenate([-v, zero]) + np.concatenate([zero, v])


def _f_sqdiff(vals, a, p):
    return np.asarray(squared_differences(vals[a[0]], p)), None


def _b_sqdiff(g, vals, a, p, cache, needed):
    return (squared_differences_adjoint(vals[a[0]], p, g),)


def _f_link_point(vals, a, p):
    x = vals[a[0]]
    point, _, cache = chain_fk(p, x.reshape(-1, x.shape[-1]), keep=True)
    return point.reshape(x.shape[:-1] + (3,)), cache


def _b_link_point(g, vals, a, p, cache, needed):
    return (chain_fk_adjoint(p, cache, g.reshape(-1, 3)).reshape(vals[a[0]].shape),)


def _f_scene_distance(vals, a, p):
    x = vals[a[0]]
    return _nearest(p, x[:, 0], x[:, 1], keep=True)


def _b_scene_distance(g, vals, a, p, index, needed):
    points = vals[a[0]]
    grad = np.zeros(points.shape)
    for k, ob in enumerate(p):
        at = index == k
        grad[at] = g[at, None] * _gradient(ob, points[at])
    return (grad,)


OP_LEAF = 0
OP_CONST = 1

_FWD = {}
_BWD = {}
_OP_NAMES = {OP_LEAF: "leaf", OP_CONST: "const"}


def _register(name, fwd, bwd):
    code = len(_OP_NAMES)
    _OP_NAMES[code] = name
    _FWD[code] = fwd
    _BWD[code] = bwd
    return code


OP_SUB = _register("subtract", _f_sub, _b_sub)
OP_CONCAT = _register("concat", _f_concat, _b_concat)
OP_SUM = _register("sum", _f_sum, _b_sum)
OP_SQUARE = _register("square", _f_square, _b_square)
OP_LSE = _register("logsumexp", _f_lse, _b_lse)
OP_SCENE_DISTANCE = _register("scene_distance", _f_scene_distance, _b_scene_distance)
OP_TAKE = _register("take", _f_take, _b_take)
OP_SCAN = _register("gru_scan", _f_scan, _b_scan)
OP_ROLLOUT = _register("rollout", _f_rollout, _b_rollout)
OP_LINK_POINT = _register("link_point", _f_link_point, _b_link_point)
OP_HANDOVER = _register("handover", _f_handover, _b_handover)
OP_SQDIFF = _register("squared_differences", _f_sqdiff, _b_sqdiff)
# no primitive records these; the benchmark's per-type node counts still name them
OP_MATMUL, OP_SIGMOID, OP_TANH, OP_SLICE, OP_ADD, OP_MUL, OP_INTERP2 = -1, -2, -3, -4, -5, -6, -7


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

    ``caches`` holds, per node, what its forward kept for the backward pass
    (the GRU gates, the chain rotations, the nearest obstacles), or None.
    """

    __slots__ = ("tape", "values", "caches")

    def __init__(self, tape: "Tape", values: list, caches: list):
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
        self.caches: list = []
        self.leaves: dict[str, int] = {}
        self.output_index: int | None = None
        # node indices, not Refs: a Ref points back at its tape, and a cycle
        # would keep every tape alive until a full garbage collection
        self._const_cache: dict[float, int] = {}

    def __len__(self) -> int:
        return len(self.ops)

    # -- node construction --------------------------------------------------

    def _push(self, op: int, args: tuple[int, ...], param, value: np.ndarray,
              cache=None) -> Ref:
        idx = len(self.ops)
        if not np.all(np.isfinite(value)):
            raise GraphError(f"numeric overflow at node {idx} ({_OP_NAMES[op]})")
        self.ops.append(op)
        self.args.append(args)
        self.params.append(param)
        self.vals.append(value)
        self.caches.append(cache)
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
            value, cache = _FWD[op](self.vals, args, param)
        return self._push(op, args, param, np.asarray(value), cache)

    # -- primitives ----------------------------------------------------------

    def sub(self, a: Ref, b: Ref) -> Ref:
        return self._apply(OP_SUB, (a, b))

    def concat(self, parts: list[Ref]) -> Ref:
        """The parts joined along axis 0; a scalar part is one entry."""
        if not parts:
            raise GraphError("concat of no tensors")
        return self._apply(OP_CONCAT, tuple(parts))

    def sum(self, x: Ref, axis: int | None = None) -> Ref:
        """Sum of all entries, or along one axis."""
        return self._apply(OP_SUM, (x,), axis)

    def square(self, x: Ref) -> Ref:
        return self._apply(OP_SQUARE, (x,))

    def logsumexp(self, x: Ref, temperature: float) -> Ref:
        """Smooth maximum: temperature * log(sum(exp(x / temperature)))."""
        if temperature <= 0:
            raise GraphError("logsumexp temperature must be positive")
        return self._apply(OP_LSE, (x,), float(temperature))

    def scene_distance(self, points: Ref, scene) -> Ref:
        """The signed distance (N,) of (N, 2) planar points to the nearest of
        an ``environment.Scene``'s obstacles: ``scene_sdf``, bit for bit."""
        if len(points.shape) != 2 or points.shape[1] != 2:
            raise GraphError(f"scene_distance expects (N, 2) points, got {points.shape}")
        return self._apply(OP_SCENE_DISTANCE, (points,), scene.obstacles)

    def take(self, x: Ref, index) -> Ref:
        """``x[index]`` for a basic index: per leading axis an int (negative
        counts from the end) or a ``slice(lo, hi)`` with 0 <= lo < hi."""
        parts = index if isinstance(index, tuple) else (index,)
        ok = len(parts) <= len(x.shape)
        for i, n in zip(parts, x.shape):
            if isinstance(i, slice):
                lo, hi = i.start or 0, n if i.stop is None else i.stop
                ok &= i.step is None and 0 <= lo < hi <= n
            else:
                ok &= isinstance(i, int) and -n <= i < n
        if not ok:
            raise GraphError(f"cannot take {index!r} of {x.shape}")
        return self._apply(OP_TAKE, (x,), index)

    def gru_scan(self, weights: list[Ref], hiddens, state, velocity, horizon: int,
                 frames=None, modifiers: Ref | None = None, masks=None,
                 workspace: Workspace | None = None) -> Ref:
        """A whole GRU-stack unroll (:func:`gru_unroll`) as one node.

        ``weights`` are refs to ``(W, U, b)`` per layer then ``(W_o, b_o)``;
        the initial ``hiddens``, the decoder's initial ``state`` and
        ``velocity``, the encoder ``frames`` (E + 1, sd[, B]; kept as views
        when C-contiguous) and the dropout ``masks`` are constants.
        ``modifiers`` is an optional (horizon, sd[, B]) ref.  The output is
        the (horizon, sd[, B]) states, which the adjoint reads and nothing
        may write.

        With a ``workspace`` the states, the cache, the adjoint's chunk
        buffers and its weight gradients live in the workspace's memory, so
        they hold until the next scan in it: a tape recorded and
        differentiated once, as a training batch's is.  Without one, which
        planning's replays need (the solver holds several evaluations at
        once), every pass allocates them afresh.
        """
        hiddens = [_as_array(h) for h in hiddens]
        state, velocity = _as_array(state), _as_array(velocity)
        frames = None if frames is None else _as_array(frames)
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
            if frames is not None:
                ok &= frames.shape[1:] == (sd, *batch) and len(frames) >= 2
            if modifiers is not None:
                ok &= modifiers.shape == (horizon, sd, *batch)
        if not ok:
            raise GraphError(
                f"gru_scan shapes do not match: weights {shapes}, hiddens "
                f"{[h.shape for h in hiddens]}, state {state.shape}, velocity "
                f"{velocity.shape}, horizon {horizon}, frames "
                f"{None if frames is None else frames.shape}, modifiers "
                f"{None if modifiers is None else modifiers.shape}"
            )
        refs = (*weights, modifiers) if modifiers is not None else tuple(weights)
        return self._apply(OP_SCAN, refs,
                           (hiddens, state, velocity, horizon, frames, masks, workspace))

    def rollout(self, controls: Ref, initial) -> Ref:
        """Unicycle-plus-joints states (H, n) for (H, n - 1) controls."""
        initial = _as_array(initial)
        if (initial.ndim != 1 or initial.shape[0] < 3 or len(controls.shape) != 2
                or not controls.shape[0] or controls.shape[1] != initial.shape[0] - 1):
            raise GraphError(
                f"rollout of initial state {initial.shape} needs (H, {initial.shape[0] - 1}) "
                f"controls, got {controls.shape}"
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

    def handover(self, palm_h: Ref, palm_r: Ref, human: Ref, robot: Ref) -> Ref:
        """The handover residual (:func:`handover_residual`) of one human and
        one robot state row and their (3,) palm points, a scalar."""
        shapes = [r.shape for r in (palm_h, palm_r, human, robot)]
        if shapes[:2] != [(3,), (3,)] or len(human.shape) != 1 or len(robot.shape) != 1:
            raise GraphError(f"handover reads (3,) palms and two state rows, got {shapes}")
        return self._apply(OP_HANDOVER, (palm_h, palm_r, human, robot))

    def squared_differences(self, rows: Ref, scale: float) -> Ref:
        """:func:`squared_differences` of (N, w) rows, a scalar."""
        if len(rows.shape) != 2:
            raise GraphError(f"squared_differences reads (N, w) rows, got {rows.shape}")
        return self._apply(OP_SQDIFF, (rows,), float(scale))

    # -- convenience composites (no new primitives) ---------------------------

    def sum_squares(self, x: Ref) -> Ref:
        return self.sum(self.square(x))

    def smooth_min(self, x: Ref, temperature: float) -> Ref:
        """Lower-bounding soft minimum: 0 - logsumexp(0 - x, temperature)."""
        zero = self.const(0.0)
        return self.sub(zero, self.logsumexp(self.sub(zero, x), temperature))

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
                if arr.shape != self.vals[idx].shape:
                    raise GraphError(
                        f"leaf {name!r} expects shape {self.vals[idx].shape}, got {arr.shape}"
                    )
                overrides[idx] = arr
        n = len(self.ops)
        vals: list = [None] * n
        caches: list = [None] * n
        ops, args, params, rec = self.ops, self.args, self.params, self.vals
        fwd = _FWD
        with np.errstate(all="ignore"):
            for i in range(n):
                op = ops[i]
                if op <= OP_CONST:
                    vals[i] = overrides.get(i, rec[i]) if op == OP_LEAF else rec[i]
                else:
                    v, caches[i] = fwd[op](vals, args[i], params[i])
                    vals[i] = np.asarray(v)
        return Evaluation(self, vals, caches)

    def backward_plan(self, out_idx: int, wanted: dict[str, int]):
        """The needed mask and the reverse visiting order for one output and
        leaf set.

        A node needs a gradient iff it transitively depends on a wanted leaf;
        only needed non-leaf nodes are visited.
        """
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
        return needed, order


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
        unknown = [name for name in wrt if name not in tape.leaves]
        if unknown:
            raise GraphError(f"unknown leaf {unknown[0]!r}")
        wanted = {name: tape.leaves[name] for name in wrt}
    needed, order = tape.backward_plan(out_idx, wanted)
    caches = at.caches if at is not None else tape.caches
    grads: list = [None] * (out_idx + 1)
    grads[out_idx] = seed
    bwd = _BWD
    with np.errstate(all="ignore"):
        for i in order:
            g = grads[i]
            if g is None:
                continue
            a = args[i]
            contribs = bwd[ops[i]](g, vals, a, params[i], caches[i], needed)
            for j, c in zip(a, contribs):
                if c is None or not needed[j]:
                    continue
                prev = grads[j]
                grads[j] = c if prev is None else prev + c
    result = {}
    for name, idx in wanted.items():
        g = grads[idx] if idx <= out_idx else None
        if g is None:
            g = np.zeros(tape.vals[idx].shape)
        result[name] = np.asarray(g, dtype=np.float64)
    return result


def gradient_check(
    fn,
    point: dict[str, np.ndarray],
    step: float = 1e-5,
    coords_per_leaf: int | None = None,
    rng: np.random.Generator | None = None,
    seed=1.0,
) -> float:
    """Compare recorded gradients of ``sum(seed * fn(point))`` with central
    differences.

    ``seed`` has the output's shape (the scalar 1.0 for a scalar function)
    and seeds the backward pass.  Returns max over checked coordinates of
    ``|analytic - central| / max(1, |analytic|)``; non-finite differences
    report as +inf.  ``coords_per_leaf`` subsamples coordinates of large
    leaves to bound runtime (all coordinates when None).
    """
    if not (0.0 < step <= 1e-3):
        raise ValueError("step must be in (0, 1e-3]")
    point = {k: _as_array(v).copy() for k, v in point.items()}
    seed = np.asarray(seed, dtype=np.float64)
    tape, _ = record(fn, point)
    grads = backward(tape, seed)
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
            hi = float((seed * tape.forward({name: x}).output).sum())
            flat[i] = saved - step
            lo = float((seed * tape.forward({name: x}).output).sum())
            flat[i] = saved
            diff = (hi - lo) / (2.0 * step)
            if not np.isfinite(diff):
                return float("inf")
            err = abs(analytic[i] - diff) / max(1.0, abs(analytic[i]))
            if err > worst:
                worst = err
    return worst
