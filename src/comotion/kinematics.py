"""Rotation representations, skeletons and forward kinematics.

Rotations are carried through optimization as 6-D vectors (the first two
columns of a rotation matrix, column-major), which stay continuous under
addition; quaternions appear only in error metrics and file import/export.

A human configuration is a flat 129-vector::

    [ base position (3) | base rotation (6) | 20 joint rotations (6 each) ]

Joint rotations are local (parent-relative) and ordered as in
``HUMAN_JOINT_NAMES``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .graph import Ref, Tape

STATE_DIM = 129  # 3 base position + 21 * 6 rotation entries
ROT_BLOCK_DIM = 126
NUM_JOINTS = 21

ROT6D_IDENTITY = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0])


class KinematicsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# 6-D rotation representation
# ---------------------------------------------------------------------------


def rot6d_to_matrix(r) -> np.ndarray:
    """Orthonormalize a 6-D rotation into a proper rotation matrix.

    Column 1 is normalized, column 2 is Gram-Schmidt projected, column 3 is
    their cross product.  Raises on (near-)parallel columns.
    """
    r = np.asarray(r, dtype=np.float64)
    if r.shape != (6,):
        raise KinematicsError(f"expected 6 values, got shape {r.shape}")
    a1, a2 = r[:3], r[3:]
    n1 = np.linalg.norm(a1)
    if n1 < 1e-9:
        raise KinematicsError("degenerate 6D rotation")
    b1 = a1 / n1
    v2 = a2 - (b1 @ a2) * b1
    n2 = np.linalg.norm(v2)
    if n2 <= 1e-6 * max(np.linalg.norm(a2), 1e-30):
        raise KinematicsError("degenerate 6D rotation")
    b2 = v2 / n2
    b3 = np.cross(b1, b2)
    return np.column_stack([b1, b2, b3])


def matrix_to_rot6d(R) -> np.ndarray:
    """First two columns of an orthonormal rotation matrix."""
    R = np.asarray(R, dtype=np.float64)
    if R.shape != (3, 3):
        raise KinematicsError(f"expected 3x3 matrix, got {R.shape}")
    if not np.allclose(R.T @ R, np.eye(3), atol=1e-6) or np.linalg.det(R) < 0:
        raise KinematicsError("matrix is not a rotation (orthonormality > 1e-6 off)")
    return np.concatenate([R[:, 0], R[:, 1]])


def axis_angle_matrix(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation about a unit axis."""
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def yaw_matrix(yaw: float) -> np.ndarray:
    c, s = np.cos(yaw), np.sin(yaw)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


# ---------------------------------------------------------------------------
# Quaternions (w, x, y, z) for metrics and file storage
# ---------------------------------------------------------------------------


def quat_from_matrix(R) -> np.ndarray:
    """Unit quaternion of a rotation matrix (Shepperd's method)."""
    R = np.asarray(R, dtype=np.float64)
    t = np.trace(R)
    if t > 0:
        s = np.sqrt(t + 1.0) * 2.0
        q = np.array(
            [0.25 * s, (R[2, 1] - R[1, 2]) / s, (R[0, 2] - R[2, 0]) / s, (R[1, 0] - R[0, 1]) / s]
        )
    else:
        i = int(np.argmax(np.diag(R)))
        j, k = (i + 1) % 3, (i + 2) % 3
        s = np.sqrt(max(R[i, i] - R[j, j] - R[k, k] + 1.0, 0.0)) * 2.0
        q = np.empty(4)
        q[0] = (R[k, j] - R[j, k]) / s
        q[1 + i] = 0.25 * s
        q[1 + j] = (R[j, i] + R[i, j]) / s
        q[1 + k] = (R[k, i] + R[i, k]) / s
    return q / np.linalg.norm(q)


def quat_to_matrix(q) -> np.ndarray:
    w, x, y, z = np.asarray(q, dtype=np.float64) / np.linalg.norm(q)
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def relative_angle(q1, q2) -> float:
    """Rotation angle between two unit quaternions, in [0, pi].

    The absolute value of the dot product makes the measure insensitive to the
    quaternion double cover.
    """
    d = abs(float(np.dot(q1, q2)))
    return 2.0 * float(np.arccos(min(max(d, 0.0), 1.0)))


def quat_from_rot6d(r) -> np.ndarray:
    return quat_from_matrix(rot6d_to_matrix(r))


def rot6d_from_quat(q) -> np.ndarray:
    return matrix_to_rot6d(quat_to_matrix(q))


# ---------------------------------------------------------------------------
# Skeleton
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Joint:
    name: str
    parent: int  # -1 for the root
    offset: tuple[float, float, float]  # fixed translation in the parent frame, meters


@dataclass(frozen=True)
class Skeleton:
    """Kinematic chain: joints in topological order (parent before child)."""

    joints: tuple[Joint, ...]

    def __post_init__(self):
        for i, j in enumerate(self.joints):
            if i == 0:
                if j.parent != -1:
                    raise KinematicsError("first joint must be the root")
            elif not (0 <= j.parent < i):
                raise KinematicsError(f"joint {j.name!r} breaks topological order")

    def index(self, name: str) -> int:
        for i, j in enumerate(self.joints):
            if j.name == name:
                return i
        raise KinematicsError(f"unknown link {name!r}")

    @property
    def names(self) -> list[str]:
        return [j.name for j in self.joints]

    def chain(self, name: str) -> list[int]:
        """Indices from the root down to ``name`` inclusive."""
        path = []
        i = self.index(name)
        while i >= 0:
            path.append(i)
            i = self.joints[i].parent
        return path[::-1]

    def scaled(self, factor: float) -> "Skeleton":
        """Uniformly scale all bone offsets (per-subject body size)."""
        return Skeleton(
            tuple(Joint(j.name, j.parent, tuple(factor * o for o in j.offset)) for j in self.joints)
        )


# Canonical joint order.  The upstream capture lists the same 21 joints in an
# arbitrary table order; here parents always precede children and the index
# doubles as the rotation-slot index in the state vector.
HUMAN_JOINT_NAMES = [
    "base",
    "pelvis",
    "torso",
    "neck",
    "head",
    "linnerShoulder",
    "lShoulder",
    "lElbow",
    "lWrist",
    "rinnerShoulder",
    "rShoulder",
    "rElbow",
    "rWrist",
    "lHip",
    "lKnee",
    "lAnkle",
    "lToe",
    "rHip",
    "rKnee",
    "rAnkle",
    "rToe",
]

_HUMAN_JOINTS = (
    Joint("base", -1, (0.0, 0.0, 0.0)),
    Joint("pelvis", 0, (0.0, 0.0, 0.10)),
    Joint("torso", 1, (0.0, 0.0, 0.22)),
    Joint("neck", 2, (0.0, 0.0, 0.25)),
    Joint("head", 3, (0.0, 0.0, 0.15)),
    Joint("linnerShoulder", 2, (0.0, 0.05, 0.21)),
    Joint("lShoulder", 5, (0.0, 0.13, 0.02)),
    Joint("lElbow", 6, (0.0, 0.28, 0.0)),
    Joint("lWrist", 7, (0.0, 0.25, 0.0)),
    Joint("rinnerShoulder", 2, (0.0, -0.05, 0.21)),
    Joint("rShoulder", 9, (0.0, -0.13, 0.02)),
    Joint("rElbow", 10, (0.0, -0.28, 0.0)),
    Joint("rWrist", 11, (0.0, -0.25, 0.0)),
    Joint("lHip", 0, (0.0, 0.09, -0.05)),
    Joint("lKnee", 13, (0.0, 0.0, -0.42)),
    Joint("lAnkle", 14, (0.0, 0.0, -0.40)),
    Joint("lToe", 15, (0.15, 0.0, -0.07)),
    Joint("rHip", 0, (0.0, -0.09, -0.05)),
    Joint("rKnee", 17, (0.0, 0.0, -0.42)),
    Joint("rAnkle", 18, (0.0, 0.0, -0.40)),
    Joint("rToe", 19, (0.15, 0.0, -0.07)),
)

DEFAULT_HUMAN_SKELETON = Skeleton(_HUMAN_JOINTS)

ARM_JOINT_NAMES = ["rElbow", "rShoulder"]  # joints entering the arm angle metric


def save_skeleton(skeleton: Skeleton, path) -> None:
    doc = {
        "format": "comotion-skeleton",
        "version": 1,
        "units": "meters",
        "joints": [
            {"name": j.name, "parent": None if j.parent < 0 else skeleton.joints[j.parent].name,
             "offset": list(j.offset)}
            for j in skeleton.joints
        ],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1)


def load_skeleton(path) -> Skeleton:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("format") != "comotion-skeleton":
        raise KinematicsError(f"{path}: not a skeleton file")
    names = {}
    joints = []
    for i, spec in enumerate(doc["joints"]):
        parent = -1 if spec["parent"] is None else names[spec["parent"]]
        joints.append(Joint(spec["name"], parent, tuple(float(v) for v in spec["offset"])))
        names[spec["name"]] = i
    return Skeleton(tuple(joints))


# ---------------------------------------------------------------------------
# Human state vector layout
# ---------------------------------------------------------------------------


def base_position(state: np.ndarray) -> np.ndarray:
    return state[..., :3]

def rotation_block(state: np.ndarray) -> np.ndarray:
    return state[..., 3:]

def joint_rotation(state: np.ndarray, joint_index: int) -> np.ndarray:
    lo = 3 + 6 * joint_index
    return state[..., lo : lo + 6]


def identity_state(base_pos=(0.0, 0.0, 0.0)) -> np.ndarray:
    state = np.zeros(STATE_DIM)
    state[:3] = base_pos
    for j in range(NUM_JOINTS):
        state[3 + 6 * j : 9 + 6 * j] = ROT6D_IDENTITY
    return state


# ---------------------------------------------------------------------------
# Forward kinematics (plain numpy)
# ---------------------------------------------------------------------------


def forward_kinematics(skeleton: Skeleton, state: np.ndarray, link: str):
    """World position and orientation of ``link`` for a 129-dim configuration.

    Returns ``(position, rotation_matrix)``.
    """
    state = np.asarray(state, dtype=np.float64)
    if state.shape != (STATE_DIM,):
        raise KinematicsError(f"expected state of {STATE_DIM} values, got {state.shape}")
    chain = skeleton.chain(link)
    pos = state[:3].copy()
    R = rot6d_to_matrix(state[3:9])
    for idx in chain[1:]:
        joint = skeleton.joints[idx]
        pos = pos + R @ np.asarray(joint.offset)
        R = R @ rot6d_to_matrix(joint_rotation(state, idx))
    return pos, R


# ---------------------------------------------------------------------------
# Forward kinematics on a tape
# ---------------------------------------------------------------------------
#
# Rotations on the tape are stored transposed (M = R^T): composition becomes
# M_child = M_local @ M_parent and rotating a vector is the 1-D @ 2-D product
# v @ M, which keeps matrix assembly down to one concat + reshape.


def _cross_graph(t: Tape, a: Ref, b: Ref) -> Ref:
    c0 = t.sub(t.mul(a[1:2], b[2:3]), t.mul(a[2:3], b[1:2]))
    c1 = t.sub(t.mul(a[2:3], b[0:1]), t.mul(a[0:1], b[2:3]))
    c2 = t.sub(t.mul(a[0:1], b[1:2]), t.mul(a[1:2], b[0:1]))
    return t.concat([c0, c1, c2])


def rot6d_to_mat_t_graph(t: Tape, r: Ref) -> Ref:
    """Transposed rotation matrix (rows b1,b2,b3) of a 6-D rotation ref."""
    a1, a2 = r[0:3], r[3:6]
    b1 = t.div(a1, t.norm(a1))
    v2 = t.sub(a2, t.mul(t.dot(b1, a2), b1))
    b2 = t.div(v2, t.norm(v2))
    b3 = _cross_graph(t, b1, b2)
    return t.reshape(t.concat([b1, b2, b3]), (3, 3))


def fk_graph(t: Tape, skeleton: Skeleton, state: Ref, link: str):
    """Differentiable chain FK.  Returns (position ref, transposed-matrix ref).

    ``state`` is a 129-vector ref with the standard layout.
    """
    chain = skeleton.chain(link)
    pos = state[0:3]
    mat_t = rot6d_to_mat_t_graph(t, state[3:9])
    for idx in chain[1:]:
        joint = skeleton.joints[idx]
        off = t.const(np.asarray(joint.offset, dtype=np.float64))
        pos = t.add(pos, t.matmul(off, mat_t))
        lo = 3 + 6 * idx
        local = rot6d_to_mat_t_graph(t, state[lo : lo + 6])
        mat_t = t.matmul(local, mat_t)
    return pos, mat_t
