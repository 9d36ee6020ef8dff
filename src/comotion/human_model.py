"""Recurrent human motion predictor with controllable decoder inputs.

The model is a stack of GRU layers plus one linear output layer.  Each step
consumes the current configuration's rotation block (base position is never a
network input) concatenated with the full finite-difference velocity, and
emits a predicted velocity that is integrated onto the state by a residual
connection.  The decoder feeds its own outputs back, so a whole future
unrolls from one encoded history.

Planning perturbs the decoder inputs with per-timestep modifier vectors: the
rotation block is shifted by the modifier and the velocity input by the
modifier's finite difference.  Zero modifiers reproduce the plain prediction
bit-exactly, which is what warm-starts the optimizer.

The unroll is written once, as :func:`comotion.graph.gru_unroll` on each
layer's stacked [z; r; n] gate weights; its encoder steps read the observed
frames in place.  ``predict``, ``encode``, ``unroll_decoder`` and the
test-set score call it on numpy arrays (vectors or column-batched matrices).
Planning and training record it on a :class:`~comotion.graph.Tape` as one
``gru_scan`` node, whose forward is that function and whose hand-written
adjoint is backpropagation through time: planning differentiates the decoder
states with respect to the modifiers, training a batch's loss with respect
to the weights.  A training call holds one batch's (span, 129, B) columns and
tape at a time, and an epoch's batches run in one
:class:`~comotion.graph.Workspace`, so a batch's scan cache, adjoint buffers
and weight gradients reuse the previous batch's memory, and Adam updates in
place.  It scores the test windows in two passes, so it never holds their
whole (span, 129, N) stack: first their observed frames, encoded and
decoded, then their true frames.

``ModelParams`` holds only those stacked weights.  The weight file keeps one
array per gate (``gru0.Wz``, ``gru0.Uz``, ``gru0.bz``, ``gru0.Wr`` ...); its
codec, :func:`save_params` and :func:`load_params`, is the one place that
reads or writes that layout, as row blocks of the stacked arrays.
"""

from __future__ import annotations

import json
import struct
import time
from dataclasses import asdict, dataclass

import numpy as np

from .data import FRAME_RATE, rotate_frames
from .graph import GraphError, Ref, Tape, Workspace, backward, gru_unroll
from .kinematics import ROT_BLOCK_DIM, STATE_DIM
from .schema import atomic_open, from_doc, is_number

INPUT_DIM = ROT_BLOCK_DIM + STATE_DIM  # rotation block + velocity block
MODIFIER_DIM = STATE_DIM  # 3 base-velocity handles + 126 rotation entries


class ModelError(ValueError):
    pass


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int):
        super().__init__(f"non-finite training loss in epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int = 2
    hidden_size: int = 100
    input_frames: int = 20
    output_frames: int = 20
    frame_rate: float = FRAME_RATE
    dropout: float = 0.2
    recurrent_dropout: float = 0.2

    def __post_init__(self):
        for name in ("num_layers", "hidden_size", "input_frames", "output_frames"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ModelError(f"{name} must be an integer, got {value!r}")
        if self.num_layers < 1 or self.hidden_size < 1:
            raise ModelError("need at least one layer and one hidden unit")
        if self.input_frames < 2 or self.output_frames < 2:
            raise ModelError("horizons must be at least 2 frames")
        if not (is_number(self.frame_rate) and self.frame_rate > 0):
            raise ModelError(f"frame_rate must be a positive finite number, "
                             f"got {self.frame_rate!r}")
        for name in ("dropout", "recurrent_dropout"):
            value = getattr(self, name)
            if not (is_number(value) and 0 <= value < 1):
                raise ModelError(f"{name} must be a number in [0, 1), got {value!r}")


def _weight_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """``ModelParams.arrays`` names and shapes, in ``gru_unroll`` order."""
    d = config.hidden_size
    shapes = {}
    for li in range(config.num_layers):
        shapes[f"gru{li}.W"] = (3 * d, INPUT_DIM if li == 0 else d)
        shapes[f"gru{li}.U"] = (3 * d, d)
        shapes[f"gru{li}.b"] = (3 * d,)
    shapes["out.W"] = (STATE_DIM, d)
    shapes["out.b"] = (STATE_DIM,)
    return shapes


@dataclass
class ModelParams:
    """Named weight arrays plus the architecture they belong to.

    ``arrays`` holds each layer's ``gru{i}.W``, ``.U`` and ``.b`` with the z,
    r and n gate blocks stacked in that order, the layout
    :class:`comotion.graph.GRULayer` takes, then ``out.W`` and ``out.b``.  The
    weight file stores one array per gate instead (``gru{i}.Wz`` ...); only
    :func:`save_params` and :func:`load_params` know that layout.
    """

    config: ModelConfig
    arrays: dict[str, np.ndarray]

    def __post_init__(self):
        for name, shape in _weight_shapes(self.config).items():
            a = self.arrays.get(name)
            if a is None:
                raise ModelError(f"missing weight {name!r}")
            if a.shape != shape:
                raise ModelError(f"weight {name!r} has shape {a.shape}, expected {shape}")
            if not np.all(np.isfinite(a)):
                raise ModelError(f"weight {name!r} contains non-finite values")

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.arrays.items()})


def _gate_blocks(config: ModelConfig) -> list[tuple[str, str, slice]]:
    """The weight file's arrays in file order, each as (file name, the
    ``ModelParams.arrays`` name it is a row block of, its rows)."""
    d = config.hidden_size
    return [(f"gru{li}.{kind}{gate}", f"gru{li}.{kind}", slice(k * d, (k + 1) * d))
            for li in range(config.num_layers) for k, gate in enumerate("zrn")
            for kind in "WUb"] + [(n, n, slice(None)) for n in ("out.W", "out.b")]


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Uniform [-1/sqrt(fan_in), +1/sqrt(fan_in)] matrices, zero biases, drawn
    one gate block at a time in weight-file order."""
    rng = np.random.default_rng(seed)
    arrays = {name: np.zeros(shape) for name, shape in _weight_shapes(config).items()}
    for _, name, rows in _gate_blocks(config):
        block = arrays[name][rows]
        if block.ndim == 2:
            bound = 1.0 / np.sqrt(block.shape[1])
            block[:] = rng.uniform(-bound, bound, size=block.shape)
    return ModelParams(config, arrays)


# ---------------------------------------------------------------------------
# Arguments of the shared unroll
# ---------------------------------------------------------------------------


def _weights(params: ModelParams) -> list[np.ndarray]:
    return [params.arrays[name] for name in _weight_shapes(params.config)]


def _zero_hiddens(config: ModelConfig, batch: tuple[int, ...] = ()) -> list[np.ndarray]:
    return [np.zeros((config.hidden_size, *batch)) for _ in range(config.num_layers)]


def _window_start(config: ModelConfig, cols: np.ndarray) -> tuple:
    """``gru_unroll`` arguments for (k + T, 129, B) windows: zero hiddens, the
    decoder start at frame k - 1, T steps and encoder frames 0..k-1, a view."""
    k = config.input_frames
    return (_zero_hiddens(config, cols.shape[2:]), cols[k - 1], cols[k - 1] - cols[k - 2],
            config.output_frames, cols[:k])


def _stack_windows(records, index, span, yaws=None) -> np.ndarray:
    """The (span, 129, N) columns of the windows ``index`` names, each
    rotated by its yaw when ``yaws`` are given."""
    wins = [records[ri][s : s + span] for ri, s in index]
    return np.stack(wins if yaws is None else list(map(rotate_frames, wins, yaws)), axis=2)


# ---------------------------------------------------------------------------
# Public prediction API (plain numpy)
# ---------------------------------------------------------------------------


def encode(params: ModelParams, observed: np.ndarray) -> list[np.ndarray]:
    """Hidden state after feeding the observed history (k >= 2 frames)."""
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim != 2 or observed.shape[1] != STATE_DIM:
        raise ModelError(f"observed must be (k, {STATE_DIM})")
    if observed.shape[0] < 2:
        raise ModelError("need at least 2 observed frames to form a velocity")
    return gru_unroll(_weights(params), _zero_hiddens(params.config), None, None, 0,
                      observed)[2]


def unroll_decoder(params: ModelParams, initial_state, initial_velocity, hidden,
                   modifiers: np.ndarray | None, horizon: int) -> np.ndarray:
    """Roll the controlled decoder out ``horizon`` steps; returns (H, 129).

    ``modifiers`` holds one row per step; the step after the horizon reuses
    the final row, so its velocity contribution vanishes there.  Without
    modifiers the decoder runs uncontrolled, and hidden states of S columns,
    (d, S) per layer, decode S futures from the one start at once:
    (H, 129, S).
    """
    if horizon < 1:
        raise ModelError("horizon must be at least 1")
    state = np.asarray(initial_state, dtype=np.float64)
    velocity = np.asarray(initial_velocity, dtype=np.float64)
    cols = hidden[0].shape[1:]
    if modifiers is not None:
        modifiers = np.asarray(modifiers, dtype=np.float64)
        if cols or modifiers.shape != (horizon, MODIFIER_DIM):
            raise ModelError(f"modifiers must be ({horizon}, {MODIFIER_DIM}), "
                             "for hidden states of one column")
    if cols:  # every column starts from the one state
        state, velocity = (np.broadcast_to(v[:, None], v.shape + cols) for v in (state, velocity))
    return gru_unroll(_weights(params), hidden, state, velocity, horizon, modifiers=modifiers)[0]


def predict(params: ModelParams, observed: np.ndarray, horizon: int | None = None) -> np.ndarray:
    """Uncontrolled forecast: encode the history, unroll zero modifiers."""
    observed = np.asarray(observed, dtype=np.float64)
    if horizon is None:
        horizon = params.config.output_frames
    hiddens = encode(params, observed)
    # zero modifiers, not None: the planner's zero-modifier warm start
    # reproduces this forecast bit for bit
    zeros = np.zeros((horizon, MODIFIER_DIM))
    return unroll_decoder(params, observed[-1], observed[-1] - observed[-2], hiddens,
                          zeros, horizon)


# ---------------------------------------------------------------------------
# Tape recording for planning
# ---------------------------------------------------------------------------


def unroll_graph(tape: Tape, params: ModelParams, observed: np.ndarray,
                 modifiers: Ref, horizon: int) -> Ref:
    """Record the controlled decoder on ``tape`` as one ``gru_scan`` node;
    returns the (horizon, 129) state trajectory ref.

    The observed history is encoded outside the tape (it is not a decision
    variable); weights enter as constants.  ``modifiers`` is a
    ``(horizon, MODIFIER_DIM)`` ref, one row per step.
    """
    observed = np.asarray(observed, dtype=np.float64)
    if modifiers.shape != (horizon, MODIFIER_DIM):
        raise ModelError(
            f"modifiers ref must have shape ({horizon}, {MODIFIER_DIM}), got {modifiers.shape}"
        )
    return tape.gru_scan([tape.const(w) for w in _weights(params)], encode(params, observed),
                         observed[-1], observed[-1] - observed[-2], horizon, modifiers=modifiers)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


def training_loss(pred: np.ndarray, truth: np.ndarray) -> float:
    """Mean squared base-position error plus mean L1 rotation error.

    Both terms are means over frames of a per-frame norm (squared Euclidean
    for the base, L1 over all 126 rotation entries).
    """
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape:
        raise ModelError(f"shape mismatch {pred.shape} vs {truth.shape}")
    return _batch_loss((pred - truth)[:, :, None])


@dataclass
class EpochMetrics:
    epoch: int
    train_loss: float
    test_loss: float
    base_pos_error: float  # mean base distance at the final predicted frame
    seconds: float  # wall time of the epoch, its test evaluation included


@dataclass
class TrainResult:
    params: ModelParams  # after the last epoch
    best: ModelParams  # lowest test loss (falls back to train loss)
    history: list[EpochMetrics]


def _batch_loss(diff: np.ndarray) -> float:
    """:func:`training_loss` averaged over a batch of (T, 129, B) errors."""
    base = sum(float(np.sum(d[:3] ** 2)) for d in diff)
    rot = sum(float(np.sum(np.abs(d[3:]))) for d in diff)
    return (base + rot) / (diff.shape[0] * diff.shape[2])


def _batch_gradients(params: ModelParams, cols: np.ndarray, masks=None,
                     workspace: Workspace | None = None):
    """Loss of one (span, 129, B) batch of windows and the gradients of the
    ``ModelParams.arrays`` weights (None when the loss is not finite).

    The tape holds the weight leaves and one ``gru_scan`` node; the loss
    gradient of its states seeds the backward pass.  In a ``workspace`` the
    scan keeps its buffers and the gradients there, valid until the next
    batch in it; the values are those of fresh buffers bit for bit.
    """
    config = params.config
    tape = Tape()
    weights = [tape.leaf(name, params.arrays[name]) for name in _weight_shapes(config)]
    out = tape.gru_scan(weights, *_window_start(config, cols), masks=masks, workspace=workspace)
    tape.set_output(out)
    diff = out.value - cols[config.input_frames :]
    loss = _batch_loss(diff)
    if not np.isfinite(loss):
        return loss, None
    # the loss gradient of the states, written over the errors
    scale = 1.0 / (diff.shape[0] * diff.shape[2])
    diff[:, :3] *= 2.0 * scale
    np.sign(diff[:, 3:], out=diff[:, 3:])
    diff[:, 3:] *= scale
    return loss, backward(tape, diff, wrt=list(tape.leaves))


class _Adam:
    """Standard Adam on a dict of arrays (beta1=0.9, beta2=0.999, eps=1e-8).

    ``update`` works in place: on ``m``, ``v`` and the weights, and on the
    gradients, which it overwrites, with one scratch array.  Each entry is
    the textbook expression's, operation for operation::

        m = b1 m + (1 - b1) g,  v = b2 v + ((1 - b2) g) g
        w -= (lr (m / c1)) / (sqrt(v / c2) + eps)
    """

    def __init__(self, arrays, learning_rate):
        self.lr = learning_rate
        self.m = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.v = {k: np.zeros_like(v) for k, v in arrays.items()}
        self.step = 0

    def update(self, arrays, grads):
        self.step += 1
        b1, b2, eps = 0.9, 0.999, 1e-8
        c1 = 1.0 - b1 ** self.step
        c2 = 1.0 - b2 ** self.step
        flat = np.empty(max(g.size for g in grads.values()))
        for name, g in grads.items():
            m, v, tmp = self.m[name], self.v[name], flat[: g.size].reshape(g.shape)
            v *= b2
            v += np.multiply(np.multiply(1 - b2, g, out=tmp), g, out=tmp)
            m *= b1
            m += np.multiply(1 - b1, g, out=g)
            step = np.divide(m, c1, out=g)
            step *= self.lr
            denom = np.sqrt(np.divide(v, c2, out=tmp), out=tmp)
            denom += eps
            step /= denom
            arrays[name] -= step


def training_windows(records: list[np.ndarray], config: ModelConfig,
                     name: str = "training records") -> list[tuple]:
    """(record, first frame) of every window of ``config``'s ``input +
    output`` frames, in order; a ``ModelError`` that begins with ``name``
    when there is none."""
    if not records:
        raise ModelError(f"{name}: the set is empty")
    span = config.input_frames + config.output_frames
    index = [(ri, s) for ri, rec in enumerate(records) for s in range(len(rec) - span + 1)]
    if not index:
        raise ModelError(f"{name}: no record is long enough for {span}-frame windows")
    return index


def _evaluate(params, config, records, index):
    """Loss and mean final-frame base error of the windows ``index`` names in
    ``records`` (NaN for none).

    The windows' k observed frames are stacked as (k, 129, N) columns,
    encoded, and the T steps decoded from them; only then are the T true
    frames stacked, and the error overwrites the decoded states.  So scoring
    holds two (T, 129, N) arrays at most, and no (k + T, 129, N) stack.
    Every step multiplies all N columns at once, so the score equals one
    whole-set ``gru_unroll`` over the stacked windows bit for bit; a GEMM
    over a subset of the columns can round its last columns differently.
    """
    if not index:
        return float("nan"), float("nan")
    k, T = config.input_frames, config.output_frames
    weights = _weights(params)
    observed = _stack_windows(records, index, k)
    hiddens = gru_unroll(weights, _zero_hiddens(config, observed.shape[2:]), None, None, 0,
                         observed)[2]
    start = observed[-1].copy(), observed[-1] - observed[-2]
    del observed  # before the decoder makes its states
    diff = gru_unroll(weights, hiddens, *start, T)[0]
    diff -= _stack_windows(records, [(ri, s + k) for ri, s in index], T)
    return _batch_loss(diff), float(np.mean(np.linalg.norm(diff[-1, :3], axis=0)))


def train(
    records: list[np.ndarray],
    config: ModelConfig,
    seed: int,
    *,
    epochs: int = 30,
    batch_size: int = 32,
    learning_rate: float = 1e-4,
    learning_rate_decay: float = 1.0,
    test_records: list[np.ndarray] | None = None,
    augment: bool = True,
    progress=None,
) -> TrainResult:
    """Train the uncontrolled predictor on sliding windows of the records.

    Every contiguous window of ``input + output`` frames is a sample; each
    draw applies a fresh uniform yaw to the whole window (rigid rotation).
    Dropout and recurrent dropout masks are sampled once per batch and reused
    across timesteps.  Deterministic for a fixed seed.

    A batch is stacked once, as (span, 129, B) columns whose first k frames
    its tape reads in place.  An epoch's batches work in one workspace,
    which its first batch sizes, packed into one block after that batch;
    the tail batch takes a prefix of it.  The workspace lives for that
    epoch's batches only and is released before the test windows are
    scored, so the scoring's stacks do not add to it.  Each
    epoch ends by scoring the test windows (NaN for none; the best weights
    then follow the train loss).  Training or test records without a window
    raise a ``ModelError`` that names the set, as do ``epochs`` or
    ``batch_size`` other than positive integers.

    ``learning_rate_decay`` multiplies the step size once per epoch; the L1
    rotation term keeps Adam oscillating at the step-size scale, so exact
    convergence needs a decaying schedule (default keeps it constant).
    """
    for name, value in (("epochs", epochs), ("batch_size", batch_size)):
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise ModelError(f"{name} must be a positive integer, got {value!r}")
    index = training_windows(records, config)
    test_index = training_windows(test_records, config, "test records") if test_records else []
    span = config.input_frames + config.output_frames

    params = init_params(config, seed)
    adam = _Adam(params.arrays, learning_rate)
    history: list[EpochMetrics] = []
    best: ModelParams | None = None
    best_key = np.inf
    keep = 1.0 - config.dropout
    keep_rec = 1.0 - config.recurrent_dropout

    for epoch in range(epochs):
        t0 = time.perf_counter()
        rng = np.random.default_rng([seed, epoch])
        order = rng.permutation(len(index))
        epoch_loss = 0.0
        batches = range(0, len(order), batch_size)
        workspace = Workspace()
        for lo in batches:
            chosen = [index[i] for i in order[lo : lo + batch_size]]
            yaws = rng.uniform(0.0, 2.0 * np.pi, size=len(chosen)) if augment else None
            cols = _stack_windows(records, chosen, span, yaws)
            bsz = cols.shape[2]
            masks = None
            if keep < 1.0 or keep_rec < 1.0:
                masks = []
                for li in range(config.num_layers):
                    in_dim = INPUT_DIM if li == 0 else config.hidden_size
                    mx = rng.binomial(1, keep, size=(in_dim, bsz)) / keep
                    mh = rng.binomial(1, keep_rec, size=(config.hidden_size, bsz)) / keep_rec
                    masks.append((mx, mh))
            try:
                loss, grads = _batch_gradients(params, cols, masks, workspace)
            except GraphError as exc:
                raise TrainingDiverged(epoch) from exc
            if grads is None:
                raise TrainingDiverged(epoch)
            adam.update(params.arrays, grads)
            epoch_loss += loss
            del cols, masks, grads  # before the next batch, so pack() frees the first's arrays
            workspace.pack()
        del workspace

        adam.lr *= learning_rate_decay
        test_loss, base_err = _evaluate(params, config, test_records, test_index)
        metrics = EpochMetrics(epoch, epoch_loss / len(batches), test_loss, base_err,
                               time.perf_counter() - t0)
        history.append(metrics)
        key = test_loss if np.isfinite(test_loss) else metrics.train_loss
        if key < best_key:
            best_key = key
            best = params.copy()
        if progress is not None:
            progress(metrics)

    return TrainResult(params=params, best=best if best is not None else params.copy(),
                       history=history)


# ---------------------------------------------------------------------------
# Weight container: magic string, JSON header, little-endian float64 payload
# ---------------------------------------------------------------------------

_MAGIC = b"COMOTION-WEIGHTS v1\n"


def save_params(params: ModelParams, path) -> None:
    """Write one array per gate, each a row block of the stacked weights."""
    blocks = [(n, params.arrays[name][rows]) for n, name, rows in _gate_blocks(params.config)]
    header = {
        "config": asdict(params.config),
        "arrays": [{"name": n, "shape": list(a.shape)} for n, a in blocks],
    }
    blob = json.dumps(header).encode("utf-8")
    with atomic_open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for _, a in blocks:
            fh.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ModelError(f"{path}: not a weight file")
        prefix = fh.read(4)
        if len(prefix) != 4:
            raise ModelError(f"{path}: truncated header length")
        (hlen,) = struct.unpack("<I", prefix)
        try:
            header = json.loads(fh.read(hlen).decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise ModelError(f"{path}: bad weight header: {exc}") from None
        for key in ("config", "arrays"):
            if not isinstance(header, dict) or key not in header:
                raise ModelError(f"{path}: weight header lacks {key!r}")
        try:
            config = from_doc(ModelConfig, header["config"])
        except (TypeError, ModelError) as exc:  # an unknown key or a bad value
            raise ModelError(f"{path}: bad model config: {exc}") from None
        blocks = {}
        for spec in header["arrays"]:
            try:
                name, shape = spec["name"], tuple(int(v) for v in spec["shape"])
            except (KeyError, TypeError, ValueError):
                raise ModelError(f"{path}: bad array entry {spec!r}") from None
            count = int(np.prod(shape))
            raw = fh.read(count * 8)
            if len(raw) != count * 8:
                raise ModelError(f"{path}: truncated weight payload")
            blocks[name] = np.frombuffer(raw, dtype="<f8").reshape(shape)
        if fh.read(1):
            raise ModelError(f"{path}: bytes after the last weight array")
    arrays = {name: np.empty(shape) for name, shape in _weight_shapes(config).items()}
    for n, name, rows in _gate_blocks(config):
        target = arrays[name][rows]
        if n not in blocks:
            raise ModelError(f"{path}: missing weight {n!r}")
        if blocks[n].shape != target.shape:
            raise ModelError(f"{path}: weight {n!r} has shape {blocks[n].shape}, "
                             f"expected {target.shape}")
        target[:] = blocks[n]
    return ModelParams(config, arrays)
