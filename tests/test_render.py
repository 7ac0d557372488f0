import numpy as np
import pytest

from pokegrasp.catalog import OBJECT_NAMES, benchmark_scene, catalog_entry, default_camera, \
    make_object
from pokegrasp.errors import InvalidGeometry
from pokegrasp.geometry import RigidTransform, rot_x, rot_z
from pokegrasp.render import Hit, compile_primitives, contains, intersect_object, ray_intersect, \
    render, top_heights
from pokegrasp.scene import Box, ObjectModel, RevolutionProfile, Scene

from conftest import overhead_camera, straight_cup


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def cylinder_quadratic_oracle(origin, direction, radius):
    """Standalone quadratic solve for |o_xy + t d_xy| = r; smallest t > 0."""
    ox, oy = origin[0], origin[1]
    dx, dy = direction[0], direction[1]
    a = dx * dx + dy * dy
    b = 2 * (ox * dx + oy * dy)
    c = ox * ox + oy * oy - radius * radius
    disc = b * b - 4 * a * c
    if a == 0 or disc < 0:
        return None
    roots = sorted([(-b - np.sqrt(disc)) / (2 * a), (-b + np.sqrt(disc)) / (2 * a)])
    for t in roots:
        if t > 1e-9:
            return t
    return None


class TestRayIntersect:
    def test_vertical_ray_onto_rim(self):
        cup = straight_cup(radius=0.03, height=0.10, wall=0.003)
        # aim at the middle of the rim annulus from above
        hit = ray_intersect(cup, origin=[0.0285, 0.0, 0.5], direction=[0.0, 0.0, -1.0])
        assert hit is not None
        assert abs(hit.t - (0.5 - 0.10)) < 1e-12
        assert np.allclose(hit.normal, [0.0, 0.0, 1.0], atol=1e-12)
        assert hit.face == "rim"

    def test_outer_wall_matches_quadratic_oracle(self):
        cup = straight_cup(radius=0.03, height=0.10)
        origin = np.array([0.2, 0.05, 0.05])
        direction = unit([-1.0, -0.3, 0.0])
        expected = cylinder_quadratic_oracle(origin, direction, 0.03)
        hit = ray_intersect(cup, origin, direction)
        assert hit is not None and expected is not None
        assert abs(hit.t - expected) < 1e-9

    def test_miss_returns_none(self):
        cup = straight_cup()
        assert ray_intersect(cup, [1.0, 1.0, 0.5], unit([0.0, 0.0, -1.0])) is None

    def test_rejects_non_unit_direction(self):
        with pytest.raises(InvalidGeometry):
            ray_intersect(straight_cup(), [0, 0, 1], [0, 0, -2.0])

    def test_normal_faces_the_ray(self):
        rng = np.random.default_rng(11)
        cup = straight_cup()
        for _ in range(200):
            origin = rng.uniform([-0.2, -0.2, 0.01], [0.2, 0.2, 0.4])
            direction = unit(rng.standard_normal(3))
            hit = ray_intersect(cup, origin, direction)
            if hit is not None:
                assert float(np.dot(hit.normal, direction)) < 1e-12
                assert abs(np.linalg.norm(hit.normal) - 1.0) < 1e-9

    def test_posed_box_faces(self):
        box = ObjectModel(id=1, shape=Box(size=(0.05, 0.07, 0.09)), mass=0.1,
                          pose=RigidTransform(rot_z(0.0), [0.1, 0.0, 0.0]))
        hit = ray_intersect(box, [0.1, 0.0, 0.5], [0.0, 0.0, -1.0])
        assert hit is not None
        assert abs(hit.t - (0.5 - 0.09)) < 1e-12
        assert np.allclose(hit.normal, [0, 0, 1])


class TestRender:
    def test_empty_scene_depth_is_slant_range(self):
        cam = overhead_camera(height=0.7, width=64, height_px=48, cx=32.0, cy=24.0, fx=60, fy=60)
        buf = render(Scene(camera=cam))
        assert np.all(buf.instance == 0)
        assert np.all(np.isfinite(buf.depth))
        # depth = camera height / cos(angle between ray and vertical)
        u, v = np.meshgrid(np.arange(64, dtype=float), np.arange(48, dtype=float))
        d = np.stack([(u - cam.cx) / cam.fx, (v - cam.cy) / cam.fy, np.ones_like(u)], axis=-1)
        cos = 1.0 / np.linalg.norm(d, axis=-1)
        assert np.abs(buf.depth - 0.7 / cos).max() < 1e-9
        assert np.allclose(buf.normals[..., 2], 1.0)

    def test_upright_cylinder_rim_and_wall_normals(self, cup_scene):
        buf = render(cup_scene)
        nz = buf.normals[..., 2]
        rim = buf.hit & (buf.instance == 1) & (np.abs(nz) > 0.5)
        wall = buf.hit & (buf.instance == 1) & (np.abs(nz) <= 0.5)
        assert rim.sum() > 100
        assert np.all(nz[rim] >= 0.999)
        assert np.all(np.abs(nz[wall]) <= 0.01)

    def test_render_deterministic(self, cup_scene):
        a = render(cup_scene)
        b = render(cup_scene)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.normals, b.normals)
        assert np.array_equal(a.instance, b.instance)

    def test_threads_bit_identical(self, cup_scene):
        a = render(cup_scene, threads=1)
        b = render(cup_scene, threads=4)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.normals, b.normals)
        assert np.array_equal(a.instance, b.instance)

    def test_occlusion_brute_force(self):
        # nearest-hit bookkeeping vs per-object single-ray queries at 64x48
        cam = overhead_camera(height=0.6, width=64, height_px=48, cx=32.0, cy=24.0,
                              fx=60.0, fy=60.0, tilt=0.12)
        cup = straight_cup(radius=0.06, height=0.08)
        box = ObjectModel(id=2, shape=Box(size=(0.08, 0.08, 0.12)), mass=0.2,
                          pose=RigidTransform(rot_z(0.3), [0.05, 0.02, 0.0]))
        scene = Scene(camera=cam, objects=(cup, box))
        buf = render(scene)
        for v in range(0, 48, 3):
            for u in range(0, 64, 3):
                origin, d = cam.pixel_ray((u, v))
                best = np.inf
                if d[2] < 0:
                    best = (0.0 - origin[2]) / d[2]
                for obj in scene.objects:
                    hit = ray_intersect(obj, origin, d)
                    if hit is not None:
                        best = min(best, hit.t)
                if np.isinf(best):
                    assert not buf.hit[v, u]
                else:
                    assert abs(buf.depth[v, u] - best) < 1e-9

    def test_instance_masks_disjoint(self):
        cam = overhead_camera(width=160, height_px=120, cx=80.0, cy=60.0, fx=150, fy=150)
        a = straight_cup(radius=0.04, oid=1)
        b = ObjectModel(id=5, shape=Box(size=(0.06, 0.06, 0.05)), mass=0.2,
                        pose=RigidTransform(np.eye(3), [0.12, 0.0, 0.0]))
        buf = render(Scene(camera=cam, objects=(a, b)))
        m1 = buf.instance_mask(1)
        m5 = buf.instance_mask(5)
        assert m1.any() and m5.any()
        assert not np.any(m1 & m5)
        assert np.array_equal(m1, (buf.instance == 1) & buf.hit)


def unculled_render(scene):
    """Reference nearest-hit buffers: every pixel ray against the table and
    every object, with no bounding-volume culling."""
    cam = scene.camera
    d = cam.pixel_directions()
    o = np.broadcast_to(cam.pose.translation, d.shape)
    with np.errstate(divide="ignore"):
        t_table = (scene.table_height - o[:, 2]) / d[:, 2]
    on_table = (np.abs(d[:, 2]) > 1e-14) & (t_table > 1e-9)
    depth = np.where(on_table, t_table, np.inf)
    normal = np.zeros(d.shape)
    normal[on_table] = np.where(d[on_table, 2:] < 0, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0])
    inst = np.zeros(d.shape[0], dtype=np.int32)
    for obj in scene.objects:
        t, nrm, _ = intersect_object(obj, o, d)
        closer = t < depth
        depth[closer] = t[closer]
        normal[closer] = nrm[closer]
        inst[closer] = obj.id
    shape = (cam.height, cam.width)
    return depth.reshape(shape), normal.reshape(shape + (3,)), inst.reshape(shape)


def assert_buffers_identical(buf, depth, normals, instance):
    assert buf.depth.tobytes() == depth.tobytes()
    assert buf.normals.tobytes() == normals.tobytes()
    assert buf.instance.tobytes() == instance.tobytes()


class TestCulledRenderMatchesUnculled:
    @pytest.mark.parametrize("attempt", [0, 4, 8])
    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_catalog_scene(self, name, attempt):
        scene = benchmark_scene(name, attempt, master_seed=0)
        assert_buffers_identical(render(scene), *unculled_render(scene))

    def test_two_objects_with_rotated_box(self):
        cup = make_object(catalog_entry("champagne_cup"), "upright", -0.03, 0.01, 0.4, oid=1)
        box = ObjectModel(id=2, shape=Box(size=(0.05, 0.07, 0.09)), mass=0.1,
                          pose=RigidTransform(rot_z(0.7) @ rot_x(0.5), [0.03, -0.02, 0.03]))
        scene = Scene(camera=default_camera(), objects=(cup, box))
        buf = render(scene)
        assert buf.instance_mask(1).any() and buf.instance_mask(2).any()
        assert_buffers_identical(buf, *unculled_render(scene))

    def test_thread_count_does_not_change_catalog_render(self):
        scene = benchmark_scene("rectangular_cup", 8, master_seed=0)
        one = render(scene, threads=1)
        assert_buffers_identical(render(scene, threads=2), one.depth, one.normals, one.instance)


def columns_around(obj, half=0.16, n=64):
    """(n*n, 2) grid of columns over a square that covers the whole object:
    a side-lying pose extends up to its full length from the pose origin."""
    g = np.linspace(-half, half, n)
    xx, yy = np.meshgrid(g, g)
    return np.stack([xx.ravel(), yy.ravel()], axis=-1) + obj.pose.translation[:2]


def assert_heights_from_intersect(obj, z_start=0.5):
    xy = columns_around(obj)
    heights, ids = top_heights([obj], xy, z_start=z_start)
    origins = np.concatenate([xy, np.full((xy.shape[0], 1), z_start)], axis=1)
    t, _, _ = intersect_object(obj, origins, np.broadcast_to([0.0, 0.0, -1.0], origins.shape))
    assert np.isfinite(heights).any()
    assert heights.tobytes() == (z_start - t).tobytes()
    assert np.array_equal(ids, np.where(np.isfinite(t), obj.id, 0))


class TestTopHeightsMatchesIntersectObject:
    """top_heights takes the minimum primitive distance instead of
    intersect_object's nearest-face gather; the heights must not move."""

    @pytest.mark.parametrize("attempt", [0, 4, 8])
    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_catalog_object(self, name, attempt):
        (obj,) = benchmark_scene(name, attempt, master_seed=0).objects
        assert_heights_from_intersect(obj)

    def test_tilted_box(self):
        box = ObjectModel(id=2, shape=Box(size=(0.05, 0.07, 0.09)), mass=0.1,
                          pose=RigidTransform(rot_z(0.7) @ rot_x(0.5), [0.03, -0.02, 0.03]))
        assert_heights_from_intersect(box)


class TestSolidQueries:
    def test_contains_cup_cavity(self):
        cup = straight_cup(radius=0.03, height=0.10, wall=0.003)
        pts = np.array([
            [0.0, 0.0, 0.05],     # inside the cavity -> not solid
            [0.0285, 0.0, 0.05],  # in the wall -> solid
            [0.0, 0.0, 0.001],    # in the floor slab -> solid
            [0.05, 0.0, 0.05],    # outside
            [0.0, 0.0, 0.15],     # above
        ])
        assert list(contains(cup, pts)) == [False, True, True, False, False]

    def test_top_heights_columns(self):
        cup = straight_cup(radius=0.03, height=0.10, wall=0.003)
        xy = np.array([[0.0285, 0.0],   # rim
                       [0.0, 0.0],      # over the cavity -> floor slab top
                       [0.2, 0.2]])     # nothing
        h, ids = top_heights([cup], xy)
        assert abs(h[0] - 0.10) < 1e-12
        assert abs(h[1] - 0.003) < 1e-12
        assert np.isneginf(h[2]) and ids[2] == 0
        assert ids[0] == 1 and ids[1] == 1

    def test_side_lying_cylinder_rotated_pose(self):
        # barrel axis along y at height r: top line z = 2r
        r, h = 0.035, 0.09
        jar = ObjectModel(
            id=1, shape=RevolutionProfile(points=((r, 0.0), (r, h)), open_top=True),
            mass=0.3, wall_thickness=0.003,
            pose=RigidTransform(rot_x(np.pi / 2), [0.0, 0.0, r]))
        heights, _ = top_heights([jar], np.array([[0.0, -0.02], [0.0, 0.05]]))
        assert abs(heights[0] - 2 * r) < 1e-9
        assert np.isneginf(heights[1])  # beyond the barrel end


def test_compile_primitives_open_vs_closed():
    open_tags = {p[-1] for p in compile_primitives(straight_cup())}
    assert "rim" in open_tags and "cavity_floor" in open_tags and "bottom" in open_tags
    closed = ObjectModel(id=1, shape=RevolutionProfile(points=((0.03, 0.0), (0.03, 0.1))),
                         mass=0.2)
    closed_tags = {p[-1] for p in compile_primitives(closed)}
    assert "top" in closed_tags and "rim" not in closed_tags
