"""Scene and signed-distance-field tests, including the brute-force oracle."""

import json
import re

import numpy as np
import pytest

from comotion import environment as env
from comotion import scenarios
from comotion.graph import backward, gradient_check, record
from helpers import traced_peak


def single_disc_scene(radius=1.0):
    return env.Scene(
        obstacles=(env.Disc((0.0, 0.0), radius),),
        bounds=env.Rect((0.0, 0.0), (3.0, 3.0)),
    )


def sdf_query(grid, points):
    """Distances at (N, 2) points or one (2,) point, and their gradients, from
    the one tape node planning records."""
    points = np.asarray(points, dtype=np.float64)
    tape, values = record(lambda t, r: env.sdf_query_graph(t, grid, r["p"]),
                          {"p": points.reshape(-1, 2)})
    grads = backward(tape, np.ones_like(values))["p"]
    return values.reshape(points.shape[:-1]), grads.reshape(points.shape)


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


def test_query_at_node_returns_stored_value():
    grid = env.build_sdf(single_disc_scene(), resolution=0.05)
    xs, ys = node_positions(grid)
    v, _ = sdf_query(grid, (xs[10], ys[20]))
    assert v == pytest.approx(grid.values[10, 20], abs=1e-14)


def test_query_midway_is_mean_of_neighbors():
    grid = env.build_sdf(single_disc_scene(), resolution=0.05)
    xs, ys = node_positions(grid)
    v, _ = sdf_query(grid, (0.5 * (xs[10] + xs[11]), ys[20]))
    assert v == pytest.approx(0.5 * (grid.values[10, 20] + grid.values[11, 20]), abs=1e-14)


def test_query_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    scene = random_scene(rng)
    grid = env.build_sdf(scene, resolution=0.05)
    xs, ys = node_positions(grid)

    def f(t, r):
        return t.sum(env.sdf_query_graph(t, grid, r["p"]))

    checked = 0
    while checked < 200:
        # strictly inside a cell, away from node lines where the patch kinks
        i = rng.integers(0, len(xs) - 1)
        j = rng.integers(0, len(ys) - 1)
        frac = rng.uniform(0.2, 0.8, size=2)
        p = np.array([[xs[i] + frac[0] * 0.05, ys[j] + frac[1] * 0.05]])
        assert gradient_check(f, {"p": p}, step=1e-6 * 0.05) < 1e-6
        checked += 1


def test_numpy_query_equals_graph_query():
    """The tape node against bilinear interpolation written out in numpy."""
    rng = np.random.default_rng(2)
    scene = random_scene(rng)
    grid = env.build_sdf(scene, resolution=0.07)
    points = rng.uniform(-3, 3, size=(50, 2))
    nx, ny = grid.values.shape
    s = np.clip((points - grid.origin) / grid.resolution, 0.0, [nx - 1, ny - 1])
    i, j = np.minimum(s.astype(int), [nx - 2, ny - 2]).T
    fx, fy = (s - np.stack([i, j], axis=1)).T
    v = grid.values
    expected = (v[i, j] * (1 - fx) * (1 - fy) + v[i + 1, j] * fx * (1 - fy)
                + v[i, j + 1] * (1 - fx) * fy + v[i + 1, j + 1] * fx * fy)
    values, _ = sdf_query(grid, points)
    assert np.allclose(values, expected, rtol=0, atol=1e-12)
    for p, value in zip(points, values):
        assert float(sdf_query(grid, p)[0]) == value


def test_interpolation_continuous_across_cell_boundaries():
    grid = env.build_sdf(single_disc_scene(), resolution=0.05)
    xs, ys = node_positions(grid)
    eps = 1e-9
    for i in range(5, 20, 3):
        x_edge = xs[i]
        for y in np.linspace(-2, 2, 7):
            lo, _ = sdf_query(grid, (x_edge - eps, y))
            hi, _ = sdf_query(grid, (x_edge + eps, y))
            assert abs(hi - lo) < 1e-6


def test_outward_ray_monotone_from_isolated_disc():
    grid = env.build_sdf(single_disc_scene(radius=0.6), resolution=0.05)
    for ang in np.linspace(0, 2 * np.pi, 12, endpoint=False):
        d = np.array([np.cos(ang), np.sin(ang)])
        rs = np.linspace(0.0, 2.6, 80)
        vals, _ = sdf_query(grid, rs[:, None] * d)
        assert np.all(np.diff(vals) > -1e-9)


def test_query_outside_clamps():
    grid = env.build_sdf(single_disc_scene(), resolution=0.05)
    v_edge, _ = sdf_query(grid, (3.0, 0.0))
    v_out, g_out = sdf_query(grid, (5.0, 0.0))
    assert v_out == pytest.approx(v_edge, abs=1e-12)
    assert g_out[0] == 0.0


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
