"""Seeded problem generators for the experiment studies.

All scenarios start from synthetic walk-and-reach trajectories: the first
second is the observed history, the rest is ground truth.  Problems are
canonicalized so the human walks along +x through the origin, which makes
scene construction (corridors, handover partners) straightforward; the
predictor is position/yaw independent, so this loses no generality.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import FRAME_RATE, SynthConfig, rotate_frames, synth_generate
from .environment import Disc, Rect, Scene
from .kinematics import forward_kinematics, rot6d_to_matrix
from .objectives import ConstraintSpec, ObjectiveWeights, ProblemSpec
from .robot_model import ROBOT_STATE_DIM


@dataclass
class ScenarioInstance:
    problem: ProblemSpec
    ground_truth: np.ndarray | None  # (H, 129) future frames, when known
    kind: str  # the family's label; scoring reads the constraints, not this
    problem_id: str


def _canonical_walk(frames: np.ndarray, k: int) -> np.ndarray:
    """Rotate/translate a record so at frame k-1 the base sits at the origin
    heading along +x."""
    heading = rot6d_to_matrix(frames[k - 1, 3:9])[:, 0]
    yaw = np.arctan2(heading[1], heading[0])
    out = rotate_frames(frames, -yaw)
    shift = out[k - 1, :3].copy()
    shift[2] = 0.0
    out[:, :3] -= shift
    return out


_MIN_WALK_SPEED = 0.2  # m/s, mean base speed over the span


def _walking_records(count: int, seed: int, frames_needed: int) -> list[np.ndarray]:
    """Frames of the first `count` synthetic records that keep walking, in
    generation order, from a pool of `3 * count`.

    A record keeps walking when its base chord (first to last frame) covers
    `_MIN_WALK_SPEED * (frames_needed - 1) / FRAME_RATE` metres.  The threshold
    scales with the span because the walkers ramp up over the first 10 frames
    and slow during the 12-frame reach: no 30-frame walker covers 0.6 m, while
    every 60-frame one does.  So `count` records are drawn first, and the
    whole pool only when fewer than `count` of them walk; the first records
    of a seeded `synth_generate` do not depend on how many follow, so either
    way the result is the pool's first `count` walkers.
    Raises ValueError when fewer than `count` records of the pool qualify.
    """
    min_travel = _MIN_WALK_SPEED * (frames_needed - 1) / FRAME_RATE
    for drawn in (count, 3 * count):
        cfg = SynthConfig(num_trajectories=drawn, duration_frames=frames_needed,
                          max_turn_rate=0.25, reach_frames=12)
        walking = [rec.frames for rec in synth_generate(cfg, seed)
                   if np.linalg.norm(rec.frames[-1, :2] - rec.frames[0, :2]) >= min_travel]
        if len(walking) >= count:
            return walking[:count]
    raise ValueError(
        f"asked for {count} walking records but only {len(walking)} of "
        f"{drawn} cover {min_travel:.3f} m over a "
        f"{frames_needed}-frame span (seed {seed})")


def make_reach_problems(count: int, seed: int, observed_frames: int = 20,
                        prediction_frames: int = 40) -> list[ScenarioInstance]:
    """Human-only problems with an oracle wrist goal from the true future."""
    span = observed_frames + prediction_frames
    frames = _walking_records(count, seed, span)
    out = []
    for i, rec in enumerate(frames):
        rec = _canonical_walk(rec, observed_frames)
        observed = rec[:observed_frames]
        truth = rec[observed_frames:span]
        goal, _ = forward_kinematics(truth[-1], "rWrist")
        problem = ProblemSpec(
            steps=prediction_frames,
            observed_human=observed,
            constraints=[
                ConstraintSpec(kind="goal", agent="human", link="rWrist",
                               target=tuple(goal))
            ],
        )
        out.append(ScenarioInstance(problem, truth, "goal", f"reach{i:03d}"))
    return out


def make_crossing_problems(count: int, seed: int, observed_frames: int = 20,
                           prediction_frames: int = 40,
                           clearance: float = 0.5) -> list[ScenarioInstance]:
    """Corridor scenes where straight-line plans put the agents in conflict.

    The human walks +x through a gap between two blocks; the robot must cross
    the corridor perpendicularly through the same gap within the horizon.
    """
    rng = np.random.default_rng(seed)
    span = observed_frames + prediction_frames
    frames = _walking_records(count, seed + 1, span)
    out = []
    for i, rec in enumerate(frames):
        rec = _canonical_walk(rec, observed_frames)
        observed = rec[:observed_frames]
        truth = rec[observed_frames:span]
        goal, _ = forward_kinematics(truth[-1], "rWrist")

        # corridor gap centered on the walked path, ahead of the human
        walked = truth[-1, :2] - observed[-1, :2]
        gap_x = float(observed[-1, 0] + 0.5 * walked[0])
        gap_half = rng.uniform(0.85, 1.1)
        block = rng.uniform(0.5, 0.8)
        wall_y = gap_half + block
        scene = Scene(
            obstacles=(
                Rect((gap_x, wall_y), (0.35, block)),
                Rect((gap_x, -wall_y), (0.35, block)),
            ),
            bounds=Rect((0.0, 0.0), (6.0, 6.0)),
        )
        # robot crosses the human path through the gap
        side = 1.0 if rng.uniform() < 0.5 else -1.0
        start_y = side * rng.uniform(1.4, 1.9)
        robot_initial = np.zeros(ROBOT_STATE_DIM)
        robot_initial[0] = gap_x + rng.uniform(-0.15, 0.15)
        robot_initial[1] = start_y
        robot_initial[2] = -side * np.pi / 2  # facing across the corridor
        robot_goal = (gap_x + rng.uniform(-0.2, 0.2), -start_y, 0.0)

        problem = ProblemSpec(
            steps=prediction_frames,
            observed_human=observed,
            robot_initial=robot_initial,
            scene=scene,
            constraints=[
                ConstraintSpec(kind="goal", agent="human", link="rWrist",
                               target=tuple(goal)),
                ConstraintSpec(kind="goal", agent="robot", link="base",
                               target=robot_goal),
                ConstraintSpec(kind="collision", agent="human"),
                ConstraintSpec(kind="collision", agent="robot"),
                ConstraintSpec(kind="joint_clearance", clearance=clearance),
            ],
        )
        out.append(ScenarioInstance(problem, truth, "collision", f"cross{i:03d}"))
    return out


def make_handover_problems(count: int, seed: int, observed_frames: int = 20,
                           prediction_frames: int = 40) -> list[ScenarioInstance]:
    """The robot stands ahead of the walking human; both must meet for a
    handover by the final frame, avoiding a chair-like obstacle."""
    rng = np.random.default_rng(seed)
    span = observed_frames + prediction_frames
    frames = _walking_records(count, seed + 2, span)
    out = []
    for i, rec in enumerate(frames):
        rec = _canonical_walk(rec, observed_frames)
        observed = rec[:observed_frames]
        truth = rec[observed_frames:span]
        walked = np.linalg.norm(truth[-1, :2] - observed[-1, :2])

        # partner ahead of the predicted end, offset to a random side
        ahead = observed[-1, :2] + np.array([walked + rng.uniform(1.0, 1.6),
                                             rng.uniform(-0.8, 0.8)])
        robot_initial = np.zeros(ROBOT_STATE_DIM)
        robot_initial[:2] = ahead
        robot_initial[2] = np.pi + rng.uniform(-0.4, 0.4)  # roughly facing the human

        # one chair-sized obstacle near, but not on, the meeting line
        mid = 0.5 * (observed[-1, :2] + ahead)
        off = np.array([0.0, rng.uniform(0.7, 1.0) * (1 if rng.uniform() < 0.5 else -1)])
        scene = Scene(
            obstacles=(Disc(tuple(mid + off), 0.3),),
            bounds=Rect((0.0, 0.0), (8.0, 8.0)),
        )
        problem = ProblemSpec(
            steps=prediction_frames,
            observed_human=observed,
            robot_initial=robot_initial,
            scene=scene,
            constraints=[
                ConstraintSpec(kind="collision", agent="human"),
                ConstraintSpec(kind="collision", agent="robot"),
                ConstraintSpec(kind="handover"),
            ],
        )
        out.append(ScenarioInstance(problem, truth, "handover", f"hand{i:03d}"))
    return out


def make_pickup_handover_problem(seed: int, observed_frames: int = 20,
                                 prediction_frames: int = 40,
                                 human_base_penalty: float = 0.0) -> ScenarioInstance:
    """An object must be picked by either agent, then handed over at the end.

    The grasp point sits just ahead of the human at table height, so with no
    extra cost the human naturally picks it up; penalizing human base motion
    pushes the pickup to the robot.
    """
    rng = np.random.default_rng(seed)
    span = observed_frames + prediction_frames
    rec = _walking_records(1, seed + 3, span)[0]
    rec = _canonical_walk(rec, observed_frames)
    observed = rec[:observed_frames]
    truth = rec[observed_frames:span]

    pickup = (observed[-1, 0] + 0.75, observed[-1, 1] + 0.1, 0.85)
    robot_initial = np.zeros(ROBOT_STATE_DIM)
    robot_initial[:2] = observed[-1, :2] + np.array([1.9, -0.4])
    robot_initial[2] = np.pi

    problem = ProblemSpec(
        steps=prediction_frames,
        observed_human=observed,
        robot_initial=robot_initial,
        weights=ObjectiveWeights(human_base_penalty=human_base_penalty),
        constraints=[
            ConstraintSpec(kind="joint_goal", target=pickup),
            ConstraintSpec(kind="handover"),
        ],
    )
    return ScenarioInstance(problem, truth, "pickup_handover", f"pbh-{seed}")
