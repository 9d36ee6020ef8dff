"""Serial-chain forward kinematics, batched over states, with its adjoint.

The one FK definition: ``kinematics.forward_kinematics``, ``robot_model.robot_fk``
and the tape's ``link_point`` node all run :func:`chain_fk`.  The math is in
the ``graph`` module docstring.  numpy only, so ``graph`` can import it.
"""

from __future__ import annotations

import numpy as np

NORM_EPS = 1e-12  # norms are sqrt(x . x + eps): never zero, always differentiable


_NEXT, _PREV = np.array([1, 2, 0]), np.array([2, 0, 1])


def _cross(a, b):
    return a.take(_NEXT, -1) * b.take(_PREV, -1) - a.take(_PREV, -1) * b.take(_NEXT, -1)


def _dot(a, b):
    return (a * b).sum(axis=-1, keepdims=True)


class Chain:
    """The serial chain of one link in a state vector, ending at a tip offset.

    ``base`` lists the state columns of the base translation (missing
    coordinates are 0).  Each link has an ``offsets`` row, its translation in
    the parent frame, and a ``columns`` entry, the first state column of its
    local rotation (None for a rigid link).  ``axes`` holds the revolute axes
    of the rotating links, or is None when every local rotation is 6-D.
    """

    def __init__(self, base, offsets, columns, axes=None, tip=(0.0, 0.0, 0.0)):
        self.base = list(base)
        self.links = [(np.asarray(o, dtype=np.float64), any(o), c)
                      for o, c in zip(offsets, columns)]
        self.tip = np.asarray(tip, dtype=np.float64)
        cols = np.array([c for c in columns if c is not None], dtype=np.intp)
        self.axes = axes
        if axes is None:
            self.rot_cols = cols[:, None] + np.arange(6)
        else:
            unit = np.asarray(axes, dtype=np.float64)
            unit = unit / np.linalg.norm(unit, axis=1, keepdims=True)
            self.rot_cols = cols
            self.k1 = np.swapaxes(np.cross(unit[:, None, :], np.eye(3)), 1, 2)  # K v = a x v
            self.k2 = self.k1 @ self.k1
        self.width = 1 + max(self.base + [int(np.max(self.rot_cols, initial=-1))])


def gram_schmidt(r, eps=NORM_EPS):
    """Rotation matrices [b1 b2 b3] (..., 3, 3) of 6-D rotations (..., 6),
    and the intermediates the adjoint reads.

    The tape keeps the regularizer ``eps`` in its norms; ``eps=0`` gives the
    exact map ``kinematics.rot6d_to_matrix`` uses on checked input.
    """
    a1, a2 = r[..., :3], r[..., 3:]
    n1 = np.sqrt(_dot(a1, a1) + eps)
    b1 = a1 / n1
    d = _dot(b1, a2)
    v2 = a2 - d * b1
    n2 = np.sqrt(_dot(v2, v2) + eps)
    b2 = v2 / n2
    return np.stack((b1, b2, _cross(b1, b2)), axis=-1), (a2, n1, b1, d, n2, b2)


def chain_fk(chain: Chain, states, keep=False):
    """World tip points (N, 3) and last-frame rotations (N, 3, 3) of the
    chain for (N, D) states, and, when ``keep``, the cache that
    :func:`chain_fk_adjoint` reads."""
    n = states.shape[0]
    if chain.axes is None:
        local, aux = gram_schmidt(states[:, chain.rot_cols])
    else:
        aux = states[:, chain.rot_cols][..., None, None]
        local = np.eye(3) + np.sin(aux) * chain.k1 + (1.0 - np.cos(aux)) * chain.k2
    pos = np.zeros((n, 3))
    pos[:, : len(chain.base)] = states[:, chain.base]
    rot = None  # identity
    frames = []  # the rotation each rotating link turns from
    for off, moves, col in chain.links:
        if moves:
            pos = pos + (off if rot is None else rot @ off)
        if col is not None:
            frames.append(rot)
            turn = local[:, len(frames) - 1]
            rot = turn if rot is None else rot @ turn
    if rot is None:
        rot = np.broadcast_to(np.eye(3), (n, 3, 3))
    if chain.tip.any():
        pos = pos + rot @ chain.tip
    return pos, rot, ((states.shape, local, aux, frames) if keep else None)


def chain_fk_adjoint(chain: Chain, cache, g) -> np.ndarray:
    """Gradient (N, D) of sum(g * tip points) with respect to the states."""
    shape, local, aux, frames = cache
    grad = np.zeros(shape)
    grad[:, chain.base] = g[:, : len(chain.base)]
    # tips[:, j]: the tip seen from the frame rotating link j turns into
    tips = np.empty(local.shape[:2] + (3,))
    u = np.broadcast_to(chain.tip, (g.shape[0], 3))
    j = len(frames)
    for off, moves, col in reversed(chain.links):
        if col is not None:
            j -= 1
            tips[:, j] = u
            u = (local[:, j] @ u[..., None])[..., 0]
        if moves:
            u = u + off
    # the world gradient seen from the frame each rotating link turns from
    back = np.stack([g if rot is None else (g[:, None, :] @ rot)[:, 0] for rot in frames], axis=1)
    if chain.axes is None:
        a2, n1, b1, d, n2, b2 = aux
        g1, g2, g3 = (back * tips[..., i : i + 1] for i in range(3))
        gb1 = g1 + _cross(b2, g3)
        gb2 = g2 + _cross(g3, b1)
        gv2 = (gb2 - b2 * _dot(b2, gb2)) / n2
        p = _dot(b1, gv2)
        gb1 = gb1 - p * a2 - d * gv2
        grad[:, chain.rot_cols] = np.concatenate(
            ((gb1 - b1 * _dot(b1, gb1)) / n1, gv2 - p * b1), axis=-1)
    else:
        q = aux[..., 0, 0]
        k1u = np.einsum("mij,nmj->nmi", chain.k1, tips)
        k2u = np.einsum("mij,nmj->nmi", chain.k2, tips)
        grad[:, chain.rot_cols] = (np.cos(q) * (back * k1u).sum(axis=-1)
                                   + np.sin(q) * (back * k2u).sum(axis=-1))
    return grad
