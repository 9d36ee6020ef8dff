"""Rotation representations, the human skeleton and forward kinematics.

Rotations are carried through optimization as 6-D vectors (the first two
columns of a rotation matrix, column-major), which stay continuous under
addition; quaternions appear only in error metrics and file import/export.

Every conversion (``rot6d_to_matrix``, ``matrix_to_rot6d``,
``quat_from_matrix``, ``quat_to_matrix``, ``quat_from_rot6d``,
``rot6d_from_quat`` and ``relative_angle``) takes one rotation or a batch of
shape ``(..., k)``, ``k`` being 6, (3, 3) or 4, and checks the whole batch
before converting it.  The 6-D to matrix map is ``chains.gram_schmidt``, the
tape's own kernel: here, on checked input, with exact norms (``eps=0``);
in ``chains.chain_fk`` and so on the tape, with the ``NORM_EPS`` regularizer
that keeps norms differentiable.

A human configuration is a flat 129-vector::

    [ base position (3) | base rotation (6) | 20 joint rotations (6 each) ]

The joints' rotations are local (parent-relative) and ordered as in
``HUMAN_JOINT_NAMES``.
"""

from __future__ import annotations

import numpy as np

from .chains import Chain, chain_fk, gram_schmidt

STATE_DIM = 129  # 3 base position + 21 * 6 rotation entries
ROT_BLOCK_DIM = 126
NUM_JOINTS = 21


class KinematicsError(ValueError):
    pass


# ---------------------------------------------------------------------------
# Rotation conversions, each over a batch (..., k) of rotations
# ---------------------------------------------------------------------------


def _rotations(x, tail: tuple, what: str) -> np.ndarray:
    """``x`` as float64, raising unless its trailing dimensions are ``tail``."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[max(x.ndim - len(tail), 0):] != tail:
        raise KinematicsError(f"expected {what} of shape (..., {', '.join(map(str, tail))}), "
                              f"got {x.shape}")
    return x


def _check_rot6d(r) -> None:
    """Raise on 6-D rotations (..., 6) with |a1| < 1e-9, or with the part of
    a2 orthogonal to a1 at most 1e-6 |a2| (near-parallel columns)."""
    a1, a2 = r[..., :3], r[..., 3:]
    s11 = np.sum(a1 * a1, axis=-1)
    s22 = np.sum(a2 * a2, axis=-1)
    s12 = np.sum(a1 * a2, axis=-1)
    if np.any(s11 < 1e-18) or np.any(
        s11 * s22 - s12 * s12 <= 1e-12 * s11 * np.maximum(s22, 1e-60)
    ):
        raise KinematicsError("degenerate 6D rotation")


def rot6d_to_matrix(r) -> np.ndarray:
    """Proper rotation matrices (..., 3, 3) of 6-D rotations (..., 6).

    Column 1 is normalized, column 2 is Gram-Schmidt projected, column 3 is
    their cross product: ``chains.gram_schmidt`` with exact norms.  Raises on
    (near-)parallel columns anywhere in the batch.
    """
    r = _rotations(r, (6,), "6-D rotations")
    _check_rot6d(r)
    return gram_schmidt(r, eps=0.0)[0]


def matrix_to_rot6d(R) -> np.ndarray:
    """First two columns (..., 6) of rotation matrices (..., 3, 3).  Raises
    unless every matrix is orthonormal within 1e-6 with a positive determinant,
    the column triple product c0 . (c1 x c2)."""
    R = _rotations(R, (3, 3), "rotation matrices")
    if not np.allclose(np.swapaxes(R, -1, -2) @ R, np.eye(3), atol=1e-6):
        raise KinematicsError("matrix is not a rotation (orthonormality > 1e-6 off)")
    c0, c1, c2 = R[..., 0], R[..., 1], R[..., 2]
    det = (c0[..., 0] * (c1[..., 1] * c2[..., 2] - c1[..., 2] * c2[..., 1])
           + c0[..., 1] * (c1[..., 2] * c2[..., 0] - c1[..., 0] * c2[..., 2])
           + c0[..., 2] * (c1[..., 0] * c2[..., 1] - c1[..., 1] * c2[..., 0]))
    if np.any(det < 0):
        raise KinematicsError("matrix is not a rotation (a reflection)")
    return np.concatenate([R[..., :, 0], R[..., :, 1]], axis=-1)


def axis_angle_matrix(axis, angle) -> np.ndarray:
    """Rodrigues rotations (..., 3, 3) about one axis by angles (...): a
    (3, 3) matrix for one angle.  Each matrix equals the one-angle call bit
    for bit."""
    a = np.asarray(axis, dtype=np.float64)
    a = a / np.linalg.norm(a)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    angle = np.asarray(angle, dtype=np.float64)[..., None, None]
    return np.eye(3) + np.sin(angle) * K + (1.0 - np.cos(angle)) * (K @ K)


def yaw_matrix(yaw) -> np.ndarray:
    """Rotations (..., 3, 3) about the z axis by angles (...): a (3, 3)
    matrix for one angle.  Each matrix equals the one-angle call bit for
    bit."""
    yaw = np.asarray(yaw, dtype=np.float64)
    c, s = np.cos(yaw), np.sin(yaw)
    R = np.zeros(yaw.shape + (3, 3))
    R[..., 0, 0] = R[..., 1, 1] = c
    R[..., 0, 1] = -s
    R[..., 1, 0] = s
    R[..., 2, 2] = 1.0
    return R


# ---------------------------------------------------------------------------
# Quaternions (w, x, y, z) for metrics and file storage
# ---------------------------------------------------------------------------


def quat_from_matrix(R) -> np.ndarray:
    """Unit quaternions (..., 4) of rotation matrices (..., 3, 3), by
    Shepperd's method.

    K = 4 q q^T is linear in R, so row b of K, normalized, is q with q[b] > 0.
    Row 0 serves when the trace is positive (w > 0), else row 1 + i for the
    largest diagonal entry i; either way K[b, b] >= 1.
    """
    R = _rotations(R, (3, 3), "rotation matrices")
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = np.moveaxis(R, (-2, -1), (0, 1))
    t = r00 + r11 + r22
    K = np.stack([
        np.stack([1.0 + t, r21 - r12, r02 - r20, r10 - r01], axis=-1),
        np.stack([r21 - r12, 1.0 + r00 - r11 - r22, r01 + r10, r02 + r20], axis=-1),
        np.stack([r02 - r20, r01 + r10, 1.0 - r00 + r11 - r22, r12 + r21], axis=-1),
        np.stack([r10 - r01, r02 + r20, r12 + r21, 1.0 - r00 - r11 + r22], axis=-1),
    ], axis=-2)
    b = np.where(t > 0, 0, 1 + np.argmax(np.diagonal(R, axis1=-2, axis2=-1), axis=-1))
    q = np.take_along_axis(K, b[..., None, None], axis=-2)[..., 0, :]
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_to_matrix(q) -> np.ndarray:
    """Rotation matrices (..., 3, 3) of quaternions (..., 4), normalized first."""
    q = _rotations(q, (4,), "quaternions")
    w, x, y, z = np.moveaxis(q / np.linalg.norm(q, axis=-1, keepdims=True), -1, 0)
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ],
        axis=-2,
    )


def relative_angle(q1, q2):
    """Rotation angles (...) between unit quaternions (..., 4), in [0, pi].

    theta = 4 atan2(|q1 - s q2|, |q1 + s q2|) with s the sign of q1 . q2:
    flipping q2 onto q1's hemisphere makes the measure insensitive to the
    quaternion double cover, and unlike 2 arccos|q1 . q2| it keeps full
    relative precision near zero angle.
    """
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    s = np.where(np.sum(q1 * q2, axis=-1, keepdims=True) < 0.0, -1.0, 1.0)
    return 4.0 * np.arctan2(np.linalg.norm(q1 - s * q2, axis=-1),
                            np.linalg.norm(q1 + s * q2, axis=-1))


def quat_from_rot6d(r) -> np.ndarray:
    return quat_from_matrix(rot6d_to_matrix(r))


def rot6d_from_quat(q) -> np.ndarray:
    return matrix_to_rot6d(quat_to_matrix(q))


# ---------------------------------------------------------------------------
# The human skeleton
# ---------------------------------------------------------------------------

# (name, parent index, fixed translation in the parent frame in meters), in
# canonical joint order.  The upstream capture lists the same 21 joints in an
# arbitrary table order; here parents always precede children, the root's
# parent is -1, and the index doubles as the rotation-slot index in the state
# vector.
HUMAN_JOINTS = (
    ("base", -1, (0.0, 0.0, 0.0)),
    ("pelvis", 0, (0.0, 0.0, 0.10)),
    ("torso", 1, (0.0, 0.0, 0.22)),
    ("neck", 2, (0.0, 0.0, 0.25)),
    ("head", 3, (0.0, 0.0, 0.15)),
    ("linnerShoulder", 2, (0.0, 0.05, 0.21)),
    ("lShoulder", 5, (0.0, 0.13, 0.02)),
    ("lElbow", 6, (0.0, 0.28, 0.0)),
    ("lWrist", 7, (0.0, 0.25, 0.0)),
    ("rinnerShoulder", 2, (0.0, -0.05, 0.21)),
    ("rShoulder", 9, (0.0, -0.13, 0.02)),
    ("rElbow", 10, (0.0, -0.28, 0.0)),
    ("rWrist", 11, (0.0, -0.25, 0.0)),
    ("lHip", 0, (0.0, 0.09, -0.05)),
    ("lKnee", 13, (0.0, 0.0, -0.42)),
    ("lAnkle", 14, (0.0, 0.0, -0.40)),
    ("lToe", 15, (0.15, 0.0, -0.07)),
    ("rHip", 0, (0.0, -0.09, -0.05)),
    ("rKnee", 17, (0.0, 0.0, -0.42)),
    ("rAnkle", 18, (0.0, 0.0, -0.40)),
    ("rToe", 19, (0.15, 0.0, -0.07)),
)

HUMAN_JOINT_NAMES = [name for name, _, _ in HUMAN_JOINTS]


def joint_index(name: str) -> int:
    """The index of joint ``name`` in ``HUMAN_JOINTS``."""
    try:
        return HUMAN_JOINT_NAMES.index(name)
    except ValueError:
        raise KinematicsError(f"unknown link {name!r}") from None


def kinematic_chain(link: str, tip=(0.0, 0.0, 0.0)) -> Chain:
    """The chain from the base to ``link`` in a human state vector, ending at
    ``tip`` in the link frame.  The root's own offset is not used."""
    path = []
    i = joint_index(link)
    while i > 0:
        path.append(i)
        i = HUMAN_JOINTS[i][1]
    path.reverse()
    offsets = [(0.0, 0.0, 0.0)] + [HUMAN_JOINTS[i][2] for i in path]
    return Chain(range(3), offsets, [3 + 6 * i for i in [0] + path], tip=tip)


ARM_JOINT_NAMES = ["rElbow", "rShoulder"]  # joints entering the arm angle metric


# ---------------------------------------------------------------------------
# Forward kinematics
# ---------------------------------------------------------------------------
#
# The chain itself is chains.chain_fk, which the tape's link_point node also
# records; this numpy entry point validates its input first.


def forward_kinematics(states: np.ndarray, link: str):
    """World position and orientation of ``link`` for one 129-dim
    configuration or an (N, 129) batch.

    Returns ``(position, rotation_matrix)``: (3,) and (3, 3), or (N, 3) and
    (N, 3, 3).  Raises on a degenerate 6-D rotation along the chain.
    """
    states = np.asarray(states, dtype=np.float64)
    if states.ndim not in (1, 2) or states.shape[-1] != STATE_DIM:
        raise KinematicsError(f"expected states of {STATE_DIM} values, got {states.shape}")
    chain = kinematic_chain(link)
    batch = states.reshape(-1, STATE_DIM)
    _check_rot6d(batch[:, chain.rot_cols])
    pos, rot, _ = chain_fk(chain, batch)
    return (pos[0], rot[0]) if states.ndim == 1 else (pos, rot)
