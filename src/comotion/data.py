"""Trajectory ingestion, preprocessing, dataset splits and synthetic motion.

Canonical trajectory files are ``schema`` row files: a header line opens
each record (subject, frame rate, joint order, annotations), followed by one
row per frame holding 87 finite numbers: base position (3) then 21 nonzero
quaternions (w x y z) in the canonical joint order.  Rotations are stored
as quaternions on disk and converted to the 6-D representation at load time.
Both directions make one batched ``kinematics`` conversion per record
(``(n, 21, k)`` arrays); the 6-D to quaternion direction runs the exact-norm
Gram-Schmidt map.

``synth_generate`` builds each record in one batched pass over its frames:
its speed, swing and arm-blend schedules are array expressions, every joint
rotation of the record comes from one ``axis_angle_matrix`` or
``yaw_matrix`` call over an angle array, the right arm's blended frames
share one stacked SVD, and one ``matrix_to_rot6d`` call converts the lot.
Only the heading, gait phase and position recurrences are summed frame by
frame.  Records are batched one at a time, never across records, so memory
stays at one record's frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kinematics import (
    HUMAN_JOINT_NAMES,
    NUM_JOINTS,
    STATE_DIM,
    axis_angle_matrix,
    forward_kinematics,
    matrix_to_rot6d,
    quat_from_rot6d,
    rot6d_from_quat,
    yaw_matrix,
)
from .schema import atomic_open, is_number, read_blocks, write_block

FRAME_NUMBERS = 3 + 4 * NUM_JOINTS  # 87 per line on disk
FRAME_RATE = 20.0  # fps of synthetic data, and the default of a model and of a problem


class DataError(ValueError):
    pass


@dataclass
class TrajectoryRecord:
    subject: str
    fps: float
    frames: np.ndarray  # (n, 129)
    annotations: dict = field(default_factory=dict)

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)
        if self.frames.ndim != 2 or self.frames.shape[1] != STATE_DIM:
            raise DataError(f"frames must be (n, {STATE_DIM}), got {self.frames.shape}")
        if self.frames.shape[0] < 2:
            raise DataError("a record needs at least 2 frames")
        if not 0.0 < self.fps < np.inf:
            raise DataError(f"frame rate must be positive and finite, got {self.fps!r}")


# ---------------------------------------------------------------------------
# Canonical file format
# ---------------------------------------------------------------------------


def load_trajectories(path) -> list[TrajectoryRecord]:
    """Parse a canonical trajectory file; an error names ``path`` and the line
    of the malformed row, or of the header of the malformed record."""
    records = []
    for line, header, raw in read_blocks(path, "comotion-trajectory", DataError):
        where = f"{path}: line {line}"
        if header.get("joints") != HUMAN_JOINT_NAMES:
            raise DataError(f"{where}: joint order differs from the canonical schema")
        for key in ("subject", "fps"):
            if key not in header:
                raise DataError(f"{where}: record header lacks {key!r}")
        if not is_number(header["fps"]):
            raise DataError(f"{where}: record header 'fps' is not a number: {header['fps']!r}")
        n = len(raw)
        if raw.shape[1] != FRAME_NUMBERS:
            raise DataError(f"{where}: {raw.shape[1]} numbers per frame, expected {FRAME_NUMBERS}")
        quats = raw[:, 3:].reshape(n, NUM_JOINTS, 4)
        for bad, what in ((~np.isfinite(raw).all(axis=1), "an infinite entry"),
                          ((np.linalg.norm(quats, axis=2) < 1e-6).any(axis=1),
                           "a zero-norm quaternion")):
            if bad.any():
                raise DataError(f"{where}: frame {np.argmax(bad)} of the record has {what}")
        frames = np.concatenate([raw[:, :3], rot6d_from_quat(quats).reshape(n, -1)], axis=1)
        try:
            records.append(TrajectoryRecord(str(header["subject"]), float(header["fps"]), frames,
                                            header.get("annotations", {})))
        except DataError as exc:
            raise DataError(f"{where}: {exc}") from None
    return records


def save_trajectories(records: list[TrajectoryRecord], path) -> None:
    with atomic_open(path) as fh:
        for rec in records:
            header = {
                "format": "comotion-trajectory",
                "version": 1,
                "subject": rec.subject,
                "fps": rec.fps,
                "joints": HUMAN_JOINT_NAMES,
                "annotations": rec.annotations,
            }
            n = len(rec.frames)
            quats = quat_from_rot6d(rec.frames[:, 3:].reshape(n, NUM_JOINTS, 6))
            write_block(fh, header,
                        np.concatenate([rec.frames[:, :3], quats.reshape(n, -1)], axis=1))


# ---------------------------------------------------------------------------
# Preprocessing
# ---------------------------------------------------------------------------


def rotate_frames(frames: np.ndarray, yaw: float) -> np.ndarray:
    """Rigidly rotate a motion about the world z axis.

    Base positions and the base rotation are pre-multiplied; joint-local
    rotations are parent-relative and unchanged.
    """
    R = yaw_matrix(yaw)
    out = np.array(frames, dtype=np.float64, copy=True)
    out[..., :3] = frames[..., :3] @ R.T
    out[..., 3:6] = frames[..., 3:6] @ R.T
    out[..., 6:9] = frames[..., 6:9] @ R.T
    return out


# ---------------------------------------------------------------------------
# Dataset splitting
# ---------------------------------------------------------------------------


@dataclass
class DatasetSplit:
    train: list[TrajectoryRecord]
    test: list[TrajectoryRecord]
    held_out: list[TrajectoryRecord]


def split_dataset(
    records: list[TrajectoryRecord],
    held_out_subject: str,
    test_fraction: float = 0.2,
    seed: int = 0,
) -> DatasetSplit:
    """Subject-disjoint held-out split plus a per-subject train/test split.

    Raises ``DataError`` when ``test_fraction`` lies outside (0, 1), no
    record has the held-out subject, or no other subject has the two records
    that put one into the test split."""
    if not 0.0 < test_fraction < 1.0:
        raise DataError(f"test fraction must lie in (0, 1), got {test_fraction}")
    present = sorted({r.subject for r in records})
    if held_out_subject not in present:
        raise DataError(f"no record has the held-out subject {held_out_subject!r}; "
                        f"the subjects are {', '.join(present)}")
    held = [r for r in records if r.subject == held_out_subject]
    rest = [r for r in records if r.subject != held_out_subject]
    rng = np.random.default_rng(seed)
    train: list[TrajectoryRecord] = []
    test: list[TrajectoryRecord] = []
    subjects = sorted({r.subject for r in rest})
    for subject in subjects:
        own = [r for r in rest if r.subject == subject]
        order = rng.permutation(len(own))
        n_test = max(1, int(round(test_fraction * len(own)))) if len(own) > 1 else 0
        test += [own[i] for i in order[:n_test]]
        train += [own[i] for i in order[n_test:]]
    if not test:
        raise DataError(f"empty test split: no subject but the held-out {held_out_subject!r} "
                        f"has two records")
    return DatasetSplit(train=train, test=test, held_out=held)


# ---------------------------------------------------------------------------
# Synthetic walk-and-reach data, at FRAME_RATE
# ---------------------------------------------------------------------------
MIN_SPEED = 0.3  # m/s, the slowest cruise speed drawn
WORKSPACE = 3.0  # half-extent of the start square, m
BASE_HEIGHT = 0.93  # pelvis height, m
NUM_SUBJECTS = 6  # trajectory i belongs to subject i mod NUM_SUBJECTS


@dataclass(frozen=True)
class SynthConfig:
    """What ``synth_generate`` draws.  A reach longer than the record starts
    before its first frame; a speed of 0 stands still."""

    num_trajectories: int = 200
    duration_frames: int = 80
    max_speed: float = 0.55  # m/s, hard clamp on base speed: 0, or at least MIN_SPEED
    max_turn_rate: float = 0.4  # rad/s
    reach_frames: int = 20  # terminal arm-reach segment

    def __post_init__(self):
        for name, least in (("num_trajectories", 1), ("duration_frames", 2), ("reach_frames", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise DataError(f"{name} must be an integer of at least {least}, got {value!r}")
        if not (is_number(self.max_speed) and (self.max_speed == 0 or self.max_speed >= MIN_SPEED)):
            raise DataError(f"max_speed must be 0 or a finite number of at least {MIN_SPEED} m/s, "
                            f"got {self.max_speed!r}")
        if not (is_number(self.max_turn_rate) and self.max_turn_rate >= 0):
            raise DataError(f"max_turn_rate must be a finite number of at least 0, "
                            f"got {self.max_turn_rate!r}")


def _smoothstep(x: np.ndarray) -> np.ndarray:
    x = np.clip(x, 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def _partial_sums(start: float, steps: np.ndarray) -> np.ndarray:
    """``start``, then ``start + steps[0]``, then that plus ``steps[1]`` and so
    on, ``len(steps)`` values in all: a recurrence, summed in order."""
    return np.cumsum(np.concatenate(([start], steps[:-1])))


# the gait swings about the y axis; its fixed rotations are the left elbow
# bend, the right elbow's gait bend and the right arm's reach pose (shoulder,
# elbow), which the right arm blends into
_Y_AXIS = (0.0, 1.0, 0.0)
_L_ELBOW = axis_angle_matrix([0, 0, 1], 0.25)
_EL_GAIT = axis_angle_matrix([0, 0, 1], -0.25)
_ARM_REACH = np.stack([
    axis_angle_matrix([0, 0, 1], 1.05) @ axis_angle_matrix(_Y_AXIS, -0.25),
    axis_angle_matrix([0, 0, 1], -0.05),
])[:, None]
# the joints that swing with the stride, in the order of _synth_frames' angles
_SWING_JOINTS = [HUMAN_JOINT_NAMES.index(name)
                 for name in ("lHip", "rHip", "lKnee", "rKnee", "lShoulder", "torso")]
_R_ARM = [HUMAN_JOINT_NAMES.index(name) for name in ("rShoulder", "rElbow")]
_L_ELBOW_INDEX = HUMAN_JOINT_NAMES.index("lElbow")


def _blend_rotations(Ra: np.ndarray, Rb: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Rotate each of Ra (k, m, 3, 3) toward its Rb (k, 1, 3, 3) by the
    fractions w (m,) in (0, 1): the rotations nearest to the chordal blends,
    by one stacked SVD.

    Slerp via quaternions would pull in more machinery than the data needs;
    normalizing a chordal blend is smooth and exact at both endpoints.
    """
    w = w[:, None, None]
    u, _, vt = np.linalg.svd((1.0 - w) * Ra + w * Rb)
    flip = np.broadcast_to(np.eye(3), u.shape).copy()
    flip[..., 2, 2] = np.sign(np.linalg.det(u @ vt))
    return u @ flip @ vt


def _synth_frames(config: SynthConfig, cruise: float, turn: float, heading: float,
                  pos: tuple[float, float], phase: float) -> np.ndarray:
    """The (n, 129) frames of one record, from its drawn cruise speed, turn
    rate, initial heading, position and gait phase, in one pass over its
    frames.

    The speed ramps up over the first 10 frames and slows by 70% during the
    reach, while the right arm blends from its gait swing into a forward
    reach; the joints swing with the stride, in amplitude with the speed.
    Heading, gait phase (0.6 m per stride) and position are recurrences,
    each summed frame by frame.
    """
    n = config.duration_frames
    dt = 1.0 / FRAME_RATE
    i = np.arange(n)
    reach = _smoothstep((i - (n - config.reach_frames)) / max(config.reach_frames, 1))
    speed = np.minimum(cruise * _smoothstep(i / 10.0) * (1.0 - 0.7 * reach), config.max_speed)
    swing = np.minimum(speed / 0.6, 1.0)
    headings = _partial_sums(heading, np.full(n, turn * dt))
    phases = _partial_sums(phase, 2.0 * np.pi * speed * dt / 0.6)
    step = speed * dt

    frames = np.empty((n, STATE_DIM))
    frames[:, 0] = _partial_sums(pos[0], step * np.cos(headings))
    frames[:, 1] = _partial_sums(pos[1], step * np.sin(headings))
    frames[:, 2] = BASE_HEIGHT + 0.015 * swing * np.cos(2.0 * phases)

    s, c = np.sin(phases), np.cos(phases)
    swings = axis_angle_matrix(_Y_AXIS, [
        swing * 0.5 * s, -swing * 0.5 * s,  # hips
        swing * 0.4 * (0.5 - 0.5 * c), swing * 0.4 * (0.5 + 0.5 * c),  # knees
        -swing * 0.35 * s, 0.04 + 0.05 * swing,  # left shoulder, torso
        swing * 0.35 * s,  # the right shoulder's gait swing
    ])
    local = np.tile(np.eye(3), (n, NUM_JOINTS, 1, 1))  # base, then joint rotations
    local[:, 0] = yaw_matrix(headings)
    local[:, _SWING_JOINTS] = swings[:-1].swapaxes(0, 1)
    local[:, _L_ELBOW_INDEX] = _L_ELBOW
    # the right arm's gait pose, blended into the reach pose as the reach goes
    arm = np.stack([swings[-1], np.broadcast_to(_EL_GAIT, (n, 3, 3))])
    blending = (reach > 0.0) & (reach < 1.0)
    arm[:, blending] = _blend_rotations(arm[:, blending], _ARM_REACH, reach[blending])
    arm[:, reach >= 1.0] = _ARM_REACH
    local[:, _R_ARM] = arm.swapaxes(0, 1)
    frames[:, 3:] = matrix_to_rot6d(local).reshape(n, -1)
    return frames


def synth_generate(config: SynthConfig, seed: int) -> list[TrajectoryRecord]:
    """Procedural walk-and-reach trajectories with goal annotations.

    Each trajectory walks a smooth arc at a per-trajectory cruise speed with
    stride-locked joint oscillation, then blends the right arm into a reach
    during the final segment.  The annotated goal is the exact final wrist
    position.  A record is one batched pass over its frames
    (``_synth_frames``); records are drawn one after another from one seeded
    generator, so the first k records do not depend on how many follow.
    """
    rng = np.random.default_rng(seed)
    records = []
    for ti in range(config.num_trajectories):
        n = config.duration_frames
        cruise = 0.0 if config.max_speed <= 0 else rng.uniform(MIN_SPEED, config.max_speed)
        cruise = min(cruise, config.max_speed)
        turn = rng.uniform(-config.max_turn_rate, config.max_turn_rate)
        heading = rng.uniform(0, 2 * np.pi)
        pos = (rng.uniform(-WORKSPACE, WORKSPACE), rng.uniform(-WORKSPACE, WORKSPACE))
        phase = rng.uniform(0, 2 * np.pi)
        frames = _synth_frames(config, cruise, turn, heading, pos, phase)
        goal, _ = forward_kinematics(frames[-1], "rWrist")
        records.append(
            TrajectoryRecord(
                subject=f"synth{ti % NUM_SUBJECTS}",
                fps=FRAME_RATE,
                frames=frames,
                annotations={"goal": [float(v) for v in goal], "goal_frame": n - 1,
                             "goal_link": "rWrist"},
            )
        )
    return records
