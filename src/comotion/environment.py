"""Planar obstacle scenes and their signed distance.

A scene is a set of axis-aligned rectangles and discs inside a workspace
rectangle.  Each primitive's exact distance (positive in free space,
negative inside) is written once, over x and y coordinates that broadcast,
and its gradient beside it.  ``_nearest`` is the scene's one distance
kernel: ``scene_sdf`` and the tape's ``scene_distance`` node run it, and
``build_sdf`` runs it on a regular grid's axes for plot files, equal to
``scene_sdf`` at every node bit for bit; its transient is one (nx, ny)
array per obstacle (two for a rectangle).
An SDF grid file is a ``schema`` row file of one block, whose entries may
be infinite: an obstacle-free scene's grid is +inf at every node.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .schema import atomic_open, from_doc, is_number, is_numbers, read_blocks, write_block

DEFAULT_RESOLUTION = 0.05  # meters per cell


class SceneError(ValueError):
    pass


@dataclass(frozen=True)
class Rect:
    center: tuple[float, float]
    half_extents: tuple[float, float]

    def __post_init__(self):
        for name in ("center", "half_extents"):
            value = getattr(self, name)
            if not is_numbers(value, 2):
                raise SceneError(f"rectangle {name} must be 2 finite numbers, got {value!r}")
        if min(self.half_extents) <= 0:
            raise SceneError("rectangle half-extents must be positive")


@dataclass(frozen=True)
class Disc:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not is_numbers(self.center, 2):
            raise SceneError(f"disc center must be 2 finite numbers, got {self.center!r}")
        if not is_number(self.radius):
            raise SceneError(f"disc radius must be a finite number, got {self.radius!r}")
        if self.radius <= 0:
            raise SceneError("disc radius must be positive")


@dataclass(frozen=True)
class Scene:
    obstacles: tuple
    bounds: Rect

    def __post_init__(self):
        cx, cy = self.bounds.center
        hx, hy = self.bounds.half_extents
        for ob in self.obstacles:
            if isinstance(ob, Disc):
                ox, oy, rx, ry = *ob.center, ob.radius, ob.radius
            else:
                ox, oy = ob.center
                rx, ry = ob.half_extents
            if abs(ox - cx) + rx > hx + 1e-9 or abs(oy - cy) + ry > hy + 1e-9:
                raise SceneError(f"obstacle {ob} sticks out of the workspace bounds")


def _distance(ob, x, y) -> np.ndarray:
    """Signed distance to one obstacle at coordinates ``x`` and ``y`` that
    broadcast against each other, as a new array (a rectangle makes two)."""
    cx, cy = ob.center
    if isinstance(ob, Disc):
        d = np.square(x - cx) + np.square(y - cy)
        return np.subtract(np.sqrt(d, out=d), ob.radius, out=d)
    qx, qy = np.abs(x - cx) - ob.half_extents[0], np.abs(y - cy) - ob.half_extents[1]
    d = np.square(np.maximum(qx, 0.0)) + np.square(np.maximum(qy, 0.0))
    inside = np.maximum(qx, qy)
    return np.add(np.sqrt(d, out=d), np.minimum(inside, 0.0, out=inside), out=d)


def _gradient(ob, points) -> np.ndarray:
    """The (N, 2) gradient of ``_distance`` to one obstacle at (N, 2) points
    (``graph``'s ``scene_distance`` states it); a disc's is a zero-size
    rectangle's, (p - c) / |p - c| and 0 at its centre."""
    offset = points - ob.center
    sign = np.sign(offset)
    q = np.abs(offset) - (ob.half_extents if isinstance(ob, Rect) else 0.0)
    m = np.maximum(q, 0.0)
    norm = np.hypot(m[:, :1], m[:, 1:])
    grad = np.divide(sign * m, norm, out=np.zeros_like(offset), where=norm > 0)
    inside = np.flatnonzero(norm == 0)  # inside or on the edge
    axis = np.argmax(q[inside], axis=1)  # the first axis on a tie
    grad[inside, axis] = sign[inside, axis]
    return grad


def _nearest(obstacles, x, y, keep=False):
    """The running minimum of ``_distance`` over the obstacles (inf for
    none), and, when ``keep``, the index of the one that attains it (the
    first on a tie), else None."""
    if not obstacles:
        return np.full(np.broadcast_shapes(np.shape(x), np.shape(y)), np.inf), None
    values = _distance(obstacles[0], x, y)
    index = np.zeros(values.shape, dtype=np.intp) if keep else None
    for k, ob in enumerate(obstacles[1:], 1):
        d = _distance(ob, x, y)
        if keep:
            index[d < values] = k
        np.minimum(values, d, out=values)
        del d  # before the next obstacle's array: one transient at a time
    return values, index


def scene_sdf(scene: Scene, points) -> np.ndarray:
    """Exact signed distance to the nearest obstacle at (N, 2) points, (N,)."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    return _nearest(scene.obstacles, points[:, 0], points[:, 1])[0]


@dataclass(frozen=True)
class SdfGrid:
    origin: tuple[float, float]  # world position of node (0, 0)
    resolution: float
    values: np.ndarray  # (nx, ny), positive in free space


def build_sdf(scene: Scene, resolution: float = DEFAULT_RESOLUTION) -> SdfGrid:
    """Sample the exact scene distance onto a regular grid over the bounds,
    evaluated on its axes (xs[:, None] against ys[None, :]): node (i, j) is
    ``scene_sdf`` at (xs[i], ys[j]) bit for bit, and the transient beside the
    grid is one (nx, ny) array per obstacle (two for a rectangle)."""
    if not is_number(resolution) or resolution <= 0:
        raise SceneError(f"resolution must be a positive finite number, got {resolution!r}")
    cx, cy = scene.bounds.center
    hx, hy = scene.bounds.half_extents
    nx = int(np.floor(2 * hx / resolution)) + 1
    ny = int(np.floor(2 * hy / resolution)) + 1
    if nx < 2 or ny < 2:
        raise SceneError("workspace is too small for this resolution")
    origin = (cx - hx, cy - hy)
    xs = origin[0] + resolution * np.arange(nx)
    ys = origin[1] + resolution * np.arange(ny)
    return SdfGrid(origin, resolution, _nearest(scene.obstacles, xs[:, None], ys[None, :])[0])


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def scene_to_doc(scene: Scene) -> dict:
    """The JSON document of a scene, as problem files embed it: its bounds and
    its obstacles, each tagged with its ``kind``."""
    return {
        "bounds": asdict(scene.bounds),
        "obstacles": [{"kind": "disc" if isinstance(ob, Disc) else "rect", **asdict(ob)}
                      for ob in scene.obstacles],
    }


def scene_from_doc(doc: dict) -> Scene:
    """Inverse of ``scene_to_doc``.  An unknown obstacle kind is a
    ``SceneError``; a missing or unknown key is the ``KeyError`` or
    ``TypeError`` that names it."""
    obstacles = []
    for ob in doc["obstacles"]:
        cls = {"disc": Disc, "rect": Rect}.get(ob["kind"])
        if cls is None:
            raise SceneError(f"unknown obstacle kind {ob['kind']!r}")
        obstacles.append(from_doc(cls, {k: v for k, v in ob.items() if k != "kind"}))
    return Scene(tuple(obstacles), from_doc(Rect, doc["bounds"]))


def save_sdf(grid: SdfGrid, path) -> None:
    """Dense grid export: one row block, a row of values per x index."""
    header = {
        "format": "comotion-sdf",
        "version": 1,
        "origin": list(grid.origin),
        "resolution": grid.resolution,
        "dims": list(grid.values.shape),
    }
    with atomic_open(path) as fh:
        write_block(fh, header, grid.values)


def load_sdf(path) -> SdfGrid:
    """Inverse of ``save_sdf``; a malformed file is a ``SceneError`` naming ``path``."""
    blocks = read_blocks(path, "comotion-sdf", SceneError)
    if len(blocks) != 1:
        raise SceneError(f"{path}: holds {len(blocks)} SDF grids, expected 1")
    ((line, header, values),) = blocks
    where = f"{path}: line {line}"
    origin, resolution, dims = (header.get(key) for key in ("origin", "resolution", "dims"))
    if not (isinstance(origin, list) and is_numbers(tuple(origin), 2)
            and is_number(resolution) and resolution > 0):
        raise SceneError(f"{where}: header lacks an origin of 2 numbers or a positive resolution")
    if list(values.shape) != dims:
        raise SceneError(f"{where}: dims {dims} do not match a payload of shape {values.shape}")
    return SdfGrid(origin=tuple(origin), resolution=float(resolution), values=values)
