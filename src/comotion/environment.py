"""Planar obstacle scenes and their sampled signed distance fields.

A scene is a set of axis-aligned rectangles and discs inside a workspace
rectangle.  ``build_sdf`` samples exact per-primitive distances onto a
regular grid (positive in free space, negative inside obstacles); a query
is one tape node (``sdf_query_graph``) that interpolates bilinearly, with an
analytic gradient.  Points outside the grid hull clamp to it.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .graph import Ref, Tape
from .schema import from_doc, is_number, is_numbers

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
                raise SceneError(f"rectangle {name} must be 2 numbers, got {value!r}")
        if min(self.half_extents) <= 0:
            raise SceneError("rectangle half-extents must be positive")


@dataclass(frozen=True)
class Disc:
    center: tuple[float, float]
    radius: float

    def __post_init__(self):
        if not is_numbers(self.center, 2):
            raise SceneError(f"disc center must be 2 numbers, got {self.center!r}")
        if not is_number(self.radius):
            raise SceneError(f"disc radius must be a number, got {self.radius!r}")
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


def _rect_sdf(points: np.ndarray, rect: Rect) -> np.ndarray:
    q = np.abs(points - np.asarray(rect.center)) - np.asarray(rect.half_extents)
    outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
    inside = np.minimum(np.max(q, axis=-1), 0.0)
    return outside + inside


def _disc_sdf(points: np.ndarray, disc: Disc) -> np.ndarray:
    return np.linalg.norm(points - np.asarray(disc.center), axis=-1) - disc.radius


def scene_sdf(scene: Scene, points) -> np.ndarray:
    """Exact signed distance to the nearest obstacle, vectorized over points."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not scene.obstacles:
        return np.full(points.shape[0], np.inf)
    dists = [
        _disc_sdf(points, ob) if isinstance(ob, Disc) else _rect_sdf(points, ob)
        for ob in scene.obstacles
    ]
    return np.min(np.stack(dists), axis=0)


@dataclass(frozen=True)
class SdfGrid:
    origin: tuple[float, float]  # world position of node (0, 0)
    resolution: float
    values: np.ndarray  # (nx, ny), positive in free space


def build_sdf(scene: Scene, resolution: float = DEFAULT_RESOLUTION) -> SdfGrid:
    """Sample the exact scene distance onto a regular grid over the bounds."""
    if resolution <= 0:
        raise SceneError("resolution must be positive")
    cx, cy = scene.bounds.center
    hx, hy = scene.bounds.half_extents
    nx = int(np.floor(2 * hx / resolution)) + 1
    ny = int(np.floor(2 * hy / resolution)) + 1
    if nx < 2 or ny < 2:
        raise SceneError("workspace is too small for this resolution")
    origin = (cx - hx, cy - hy)
    xs = origin[0] + resolution * np.arange(nx)
    ys = origin[1] + resolution * np.arange(ny)
    pts = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
    values = scene_sdf(scene, pts).reshape(nx, ny)
    return SdfGrid(origin=origin, resolution=resolution, values=values)


def sdf_query_graph(tape: Tape, grid: SdfGrid, points: Ref) -> Ref:
    """Differentiable SDF lookup of (N, 2) positions in one node, (N,)."""
    return tape.grid_interp(points, grid.values, np.asarray(grid.origin), grid.resolution)


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
    """Dense grid export: one JSON header line, then one row of values per line."""
    header = {
        "format": "comotion-sdf",
        "version": 1,
        "origin": list(grid.origin),
        "resolution": grid.resolution,
        "dims": list(grid.values.shape),
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header) + "\n")
        for row in grid.values:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_sdf(path) -> SdfGrid:
    with open(path) as fh:
        header = json.loads(fh.readline())
        if header.get("format") != "comotion-sdf":
            raise SceneError(f"{path}: not an SDF grid file")
        rows = [np.array([float(v) for v in line.split()]) for line in fh if line.strip()]
    values = np.stack(rows)
    if list(values.shape) != header["dims"]:
        raise SceneError(f"{path}: dims {header['dims']} do not match payload {values.shape}")
    return SdfGrid(origin=tuple(header["origin"]), resolution=float(header["resolution"]),
                   values=values)
