"""Scene, signed distance and distance-grid tests, including the brute-force oracle."""

import json
import re

import numpy as np
import pytest

from comotion import environment as env
from comotion import scenarios
from comotion.graph import GraphError, Tape, backward, gradient_check, record
from helpers import traced_peak


def single_disc_scene(radius=1.0):
    return env.Scene(
        obstacles=(env.Disc((0.0, 0.0), radius),),
        bounds=env.Rect((0.0, 0.0), (3.0, 3.0)),
    )


def node_positions(grid):
    """World x and y coordinates of the grid nodes."""
    nx, ny = grid.values.shape
    return (grid.origin[0] + grid.resolution * np.arange(nx),
            grid.origin[1] + grid.resolution * np.arange(ny))


def random_scene(rng, n_obstacles=3, bound=3.0):
    """Random scene with non-overlapping primitives."""
    obstacles = []
    for _ in range(40):
        if len(obstacles) >= n_obstacles:
            break
        if rng.uniform() < 0.5:
            ob = env.Disc(tuple(rng.uniform(-bound * 0.6, bound * 0.6, 2)),
                          float(rng.uniform(0.2, 0.5)))
        else:
            ob = env.Rect(tuple(rng.uniform(-bound * 0.6, bound * 0.6, 2)),
                          tuple(rng.uniform(0.2, 0.5, 2)))
        # keep primitives separated so distances to the union boundary are exact
        def clearance(a, b):
            ra = a.radius if isinstance(a, env.Disc) else float(np.linalg.norm(a.half_extents))
            rb = b.radius if isinstance(b, env.Disc) else float(np.linalg.norm(b.half_extents))
            return np.linalg.norm(np.subtract(a.center, b.center)) - ra - rb
        if all(clearance(ob, other) > 0.1 for other in obstacles):
            obstacles.append(ob)
    return env.Scene(tuple(obstacles), env.Rect((0.0, 0.0), (bound, bound)))


def boundary_points(ob, n):
    ts = np.linspace(0, 2 * np.pi, n, endpoint=False)
    if isinstance(ob, env.Disc):
        return np.asarray(ob.center) + ob.radius * np.stack([np.cos(ts), np.sin(ts)], axis=1)
    hx, hy = ob.half_extents
    per = np.linspace(-1, 1, n // 4)
    c = np.asarray(ob.center)
    pts = [c + np.stack([per * hx, np.full_like(per, s * hy)], axis=1) for s in (-1, 1)]
    pts += [c + np.stack([np.full_like(per, s * hx), per * hy], axis=1) for s in (-1, 1)]
    return np.vstack(pts)


def contains(ob, p):
    if isinstance(ob, env.Disc):
        return np.linalg.norm(p - np.asarray(ob.center)) <= ob.radius
    d = np.abs(p - np.asarray(ob.center)) - np.asarray(ob.half_extents)
    return np.all(d <= 0)


def test_disc_distances():
    grid = env.build_sdf(single_disc_scene(), resolution=0.05)
    xs, ys = node_positions(grid)
    ix = int(np.argmin(np.abs(xs - 2.0)))
    iy = int(np.argmin(np.abs(ys - 0.0)))
    assert grid.values[ix, iy] == pytest.approx(1.0, abs=0.05)
    ic = int(np.argmin(np.abs(xs - 0.0)))
    jc = int(np.argmin(np.abs(ys - 0.0)))
    assert grid.values[ic, jc] == pytest.approx(-1.0, abs=0.05)


def test_grid_matches_brute_force_boundary_sampling():
    rng = np.random.default_rng(0)
    for trial in range(3):
        scene = random_scene(rng)
        res = 0.1
        grid = env.build_sdf(scene, resolution=res)
        samples = np.vstack([boundary_points(ob, 4000) for ob in scene.obstacles])
        xs, ys = node_positions(grid)
        sub_x = rng.choice(len(xs), size=15, replace=False)
        sub_y = rng.choice(len(ys), size=15, replace=False)
        for i in sub_x:
            for j in sub_y:
                p = np.array([xs[i], ys[j]])
                brute = np.min(np.linalg.norm(samples - p, axis=1))
                if any(contains(ob, p) for ob in scene.obstacles):
                    brute = -brute
                assert abs(grid.values[i, j] - brute) < res


def norm_oracle(scene, points):
    """The point-cloud formula: ``np.linalg.norm`` over each (N, 2) offset,
    stacked over the obstacles and reduced with ``np.min``."""
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if not scene.obstacles:
        return np.full(points.shape[0], np.inf)
    dists = []
    for ob in scene.obstacles:
        if isinstance(ob, env.Disc):
            dists.append(np.linalg.norm(points - np.asarray(ob.center), axis=-1) - ob.radius)
        else:
            q = np.abs(points - np.asarray(ob.center)) - np.asarray(ob.half_extents)
            dists.append(np.linalg.norm(np.maximum(q, 0.0), axis=-1)
                         + np.minimum(np.max(q, axis=-1), 0.0))
    return np.min(np.stack(dists), axis=0)


def kind_scenes():
    """Rectangle-only, disc-only, mixed and obstacle-free scenes."""
    bounds = env.Rect((0.5, -0.25), (3.0, 2.5))
    rects = (env.Rect((-1.0, 0.5), (0.4, 0.7)), env.Rect((1.5, -1.0), (0.3, 0.2)))
    discs = (env.Disc((0.0, -1.2), 0.5), env.Disc((2.4, 1.1), 0.35))
    return [env.Scene(obs, bounds) for obs in (rects, discs, rects[:1] + discs + rects[1:], ())]


def generator_scenes():
    """The crossing and handover scenes of generator seeds 0-11, 72 in all."""
    return [inst.problem.scene for seed in range(12)
            for make in (scenarios.make_crossing_problems, scenarios.make_handover_problems)
            for inst in make(3, seed)]


def test_grid_is_scene_sdf_at_every_node_bit_for_bit():
    scenes = kind_scenes() + generator_scenes()
    assert len(scenes) == 76
    for scene in scenes:
        grid = env.build_sdf(scene)
        xs, ys = node_positions(grid)
        nodes = np.stack(np.meshgrid(xs, ys, indexing="ij"), axis=-1).reshape(-1, 2)
        expected = env.scene_sdf(scene, nodes).reshape(grid.values.shape)
        assert grid.values.tobytes() == expected.tobytes()


def test_scene_sdf_is_the_norm_formula_bit_for_bit():
    """Random points, obstacle centres and rectangle corners (where the
    outside and inside terms meet) give the point-cloud formula's bits."""
    rng = np.random.default_rng(4)
    scenes = kind_scenes() + generator_scenes()[::6] + [random_scene(rng) for _ in range(4)]
    for scene in scenes:
        (cx, cy), (hx, hy) = scene.bounds.center, scene.bounds.half_extents
        points = [rng.uniform((cx - hx, cy - hy), (cx + hx, cy + hy), size=(500, 2))]
        for ob in scene.obstacles:
            points.append(np.asarray(ob.center)[None])
            if isinstance(ob, env.Rect):
                signs = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])
                points.append(np.asarray(ob.center) + signs * np.asarray(ob.half_extents))
        points = np.vstack(points)
        assert env.scene_sdf(scene, points).tobytes() == norm_oracle(scene, points).tobytes()
        for p in points[:5]:
            assert env.scene_sdf(scene, p).tobytes() == norm_oracle(scene, p).tobytes()


def test_build_sdf_holds_no_point_cloud():
    """16 x 16 m bounds at 0.05 m: a (321, 321) grid of 0.82 MB.  Beside the
    grid, a disc's distance is one more (nx, ny) array and a rectangle's
    two, so three discs peak below twice the grid and a mixed scene below
    three times it: 1.71 and 2.50 MiB traced.  Built from an (nx * ny, 2)
    point cloud they took 7.87 and 10.2-11.0 MiB."""
    bounds = env.Rect((0.0, 0.0), (8.0, 8.0))
    discs = tuple(env.Disc((x, 1.0), 0.4) for x in (-3.0, 0.0, 3.0))
    rects = (env.Rect((-2.0, -3.0), (0.5, 1.0)), env.Rect((2.5, -4.0), (1.0, 0.3)))
    grid_bytes = 321 * 321 * 8
    small = 2**18  # the axes, the per-axis terms and numpy's broadcasting buffers
    for obstacles, arrays in ((discs, 2), (discs + rects, 3), (rects + discs, 3)):
        scene = env.Scene(obstacles, bounds)
        assert env.build_sdf(scene).values.nbytes == grid_bytes
        assert traced_peak(lambda: env.build_sdf(scene)) < arrays * grid_bytes + small


def scene_distance(scene, points):
    """The ``scene_distance`` node's values at (N, 2) points, and the
    gradient of their sum."""
    tape, values = record(lambda t, r: t.scene_distance(r["p"], scene), {"p": points})
    return values, backward(tape, np.ones(len(points)))["p"]


def test_scene_distance_node_is_scene_sdf_bit_for_bit():
    """On the 72 generator scenes, at random points over and around the
    bounds, at obstacle centres and at rectangle corners, the node's values
    at recording and at a replay are ``scene_sdf``'s bits."""
    rng = np.random.default_rng(5)
    scenes = generator_scenes()
    assert len(scenes) == 72
    for scene in scenes:
        (cx, cy), (hx, hy) = scene.bounds.center, scene.bounds.half_extents
        points = [rng.uniform((cx - hx - 1, cy - hy - 1), (cx + hx + 1, cy + hy + 1), (200, 2))]
        for ob in scene.obstacles:
            points.append(np.asarray(ob.center)[None])
            if isinstance(ob, env.Rect):
                signs = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)])
                points.append(np.asarray(ob.center) + signs * np.asarray(ob.half_extents))
        points = np.vstack(points)
        tape, values = record(lambda t, r: t.scene_distance(r["p"], scene), {"p": points})
        assert values.tobytes() == env.scene_sdf(scene, points).tobytes()
        moved = points + 0.01
        replay = tape.forward({"p": moved}).output
        assert replay.tobytes() == env.scene_sdf(scene, moved).tobytes()


def test_scene_distance_gradient_matches_finite_differences():
    """Outside a rectangle (beside its faces and off its corners), inside it
    (near its corners, off the diagonals) and around a disc, away from the
    kinks."""
    rect = env.Rect((0.5, -0.2), (0.4, 0.25))
    disc = env.Disc((-1.0, 0.6), 0.3)
    scene = env.Scene((rect, disc), env.Rect((0.0, 0.0), (3.0, 3.0)))
    corners = np.array([(1, 1), (1, -1), (-1, 1), (-1, -1)]) * rect.half_extents + rect.center
    outward = np.sign(corners - rect.center)
    angles = np.linspace(0.1, 2 * np.pi, 8, endpoint=False)
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    points = np.vstack([
        rect.center + np.array([(0.6, 0.05), (-0.1, 0.4), (-0.55, -0.1), (0.2, -0.5)]),
        corners + outward * (0.03, 0.02),  # off the corners, outside
        corners - outward * (0.02, 0.05),  # near the corners, inside
        rect.center + np.array([(0.1, 0.02), (-0.05, -0.2)]),
        disc.center + np.vstack([0.5 * disc.radius * ring, 1.6 * disc.radius * ring]),
    ])
    weights = np.random.default_rng(6).normal(size=len(points))

    def f(t, r):
        return t.scene_distance(r["p"], scene)

    assert gradient_check(f, {"p": points}, step=1e-7, seed=weights) < 1e-7


def test_scene_distance_gradient_at_centres_and_ties():
    """A disc's centre and a rectangle's centre give a finite gradient with
    no floating-point warning; a tie goes to the first obstacle, and at a
    corner to the first axis."""
    rect = env.Rect((1.0, 0.0), (0.5, 0.25))
    disc = env.Disc((-1.0, 0.0), 0.5)
    scene = env.Scene((rect, disc), env.Rect((0.0, 0.0), (3.0, 3.0)))
    centres = np.array([rect.center, disc.center])
    with np.errstate(all="raise"):
        for ob, centre in zip(scene.obstacles, centres):
            assert np.array_equal(env._gradient(ob, centre[None]), [(0.0, 0.0)])
    values, grad = scene_distance(scene, centres)
    assert np.array_equal(values, [-0.25, -0.5]) and np.array_equal(grad, 0 * centres)
    # the origin is 0.5 m from both; a corner is on the rectangle's edge
    points = np.array([(0.0, 0.0), (1.5, 0.25), (1.5, -0.25), (0.5, 0.25)])
    values, grad = scene_distance(scene, points)
    assert np.array_equal(values, [0.5, 0.0, 0.0, 0.0])
    assert np.array_equal(grad, [(-1.0, 0.0), (1.0, 0.0), (1.0, 0.0), (-1.0, 0.0)])
    flipped = env.Scene((disc, rect), scene.bounds)
    assert np.array_equal(scene_distance(flipped, points[:1])[1], [(1.0, 0.0)])
    tape = Tape()
    with pytest.raises(GraphError, match="expects \\(N, 2\\) points"):
        tape.scene_distance(tape.leaf("p", np.zeros((3, 3))), scene)


def test_scene_validation():
    with pytest.raises(env.SceneError, match="sticks out"):
        env.Scene((env.Disc((2.9, 0.0), 0.5),), env.Rect((0, 0), (3, 3)))
    with pytest.raises(env.SceneError):
        env.Rect((0, 0), (0.0, 1.0))
    with pytest.raises(env.SceneError):
        env.Disc((0, 0), -1.0)
    for make, field in ((lambda: env.Rect((0.0, 0.0, 0.0), (1.0, 1.0)), "center"),
                        (lambda: env.Rect((0.0, 0.0), (1.0,)), "half_extents"),
                        (lambda: env.Disc((0.0,), 1.0), "center"),
                        (lambda: env.Disc((0.0, 0.0), "1.0"), "radius")):
        with pytest.raises(env.SceneError, match=field):
            make()
    with pytest.raises(env.SceneError, match="too small"):
        env.build_sdf(env.Scene((), env.Rect((0, 0), (0.01, 0.01))), resolution=0.05)
    for resolution in (float("nan"), float("inf"), "0.1", None, True, 0.0, -0.05):
        with pytest.raises(env.SceneError, match="resolution must be a positive finite number"):
            env.build_sdf(single_disc_scene(), resolution=resolution)


def test_scene_file_round_trip(tmp_path):
    """Scenes are stored inside problem files, as ``scene_to_doc`` documents."""
    rng = np.random.default_rng(3)
    scene = random_scene(rng)
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(env.scene_to_doc(scene)))
    assert env.scene_from_doc(json.loads(path.read_text())) == scene


def test_sdf_file_round_trip(tmp_path):
    grid = env.build_sdf(single_disc_scene(), resolution=0.25)
    path = tmp_path / "field.sdf"
    env.save_sdf(grid, path)
    loaded = env.load_sdf(path)
    assert loaded.origin == grid.origin
    assert loaded.resolution == grid.resolution
    assert np.array_equal(loaded.values, grid.values)


GOOD_HEADER = json.dumps({"format": "comotion-sdf", "version": 1, "origin": [0.0, 0.0],
                          "resolution": 0.5, "dims": [2, 3]})


@pytest.mark.parametrize("text", [
    "not json\n1 2 3\n4 5 6\n",
    "[1, 2]\n1 2 3\n4 5 6\n",
    '{"format": "comotion-sdf", "resolution": 0.5, "dims": [2, 3]}\n1 2 3\n4 5 6\n',
    '{"format": "comotion-sdf", "origin": [0, 0], "dims": [2, 3]}\n1 2 3\n4 5 6\n',
    '{"format": "comotion-sdf", "origin": [0, 0], "resolution": 0.5}\n1 2 3\n4 5 6\n',
    GOOD_HEADER + "\n",
    GOOD_HEADER + "\n1 2 3\n4 5\n",
    GOOD_HEADER + "\n1 2 x\n4 5 6\n",
    GOOD_HEADER + "\n1 2 3\n",
], ids=["header not json", "header not an object", "no origin", "no resolution", "no dims",
        "no payload rows", "rows of two lengths", "a word in a row", "dims off the payload"])
def test_load_sdf_names_the_path_of_a_malformed_file(tmp_path, text):
    path = tmp_path / "field.sdf"
    path.write_text(text)
    with pytest.raises(env.SceneError, match=re.escape(str(path))):
        env.load_sdf(path)
    path.write_text(GOOD_HEADER + "\n1 2 3\n4 5 6\n")
    assert env.load_sdf(path).values.shape == (2, 3)
