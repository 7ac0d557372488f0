import importlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pokegrasp.catalog import OBJECT_NAMES, benchmark_scene, catalog_entry, default_camera, \
    make_object
from pokegrasp.geometry import RigidTransform, rot_x, rot_y, rot_z
from pokegrasp.render import _compiled, _frustum_normal, _intersect_box, _intersect_disk, \
    _intersect_frustum, _local_box, _pixel_window, _rising_primitives, \
    compile_primitives, contains, intersect_object, object_top_z, render, rises_above, \
    top_heights
from pokegrasp.scene import Box, ObjectModel, RevolutionProfile, Scene

from conftest import overhead_camera, straight_cup, unculled_render

# the module, which the package's ``render`` function shadows as an attribute
render_module = importlib.import_module("pokegrasp.render")


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def cast_one(obj, origin, direction):
    """``intersect_object`` on one ray: (t, world normal, face tag), t = inf
    where the object is missed."""
    t, normal, face = intersect_object(obj, np.array([origin], dtype=np.float64),
                                       np.array([direction], dtype=np.float64))
    return float(t[0]), normal[0], compile_primitives(obj)[int(face[0])][-1]


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
        t, normal, face = cast_one(cup, [0.0285, 0.0, 0.5], [0.0, 0.0, -1.0])
        assert abs(t - (0.5 - 0.10)) < 1e-12
        assert np.allclose(normal, [0.0, 0.0, 1.0], atol=1e-12)
        assert face == "rim"

    def test_outer_wall_matches_quadratic_oracle(self):
        cup = straight_cup(radius=0.03, height=0.10)
        origin = np.array([0.2, 0.05, 0.05])
        direction = unit([-1.0, -0.3, 0.0])
        expected = cylinder_quadratic_oracle(origin, direction, 0.03)
        t, _, face = cast_one(cup, origin, direction)
        assert expected is not None
        assert abs(t - expected) < 1e-9
        assert face == "outer:0"

    def test_miss_returns_inf(self):
        cup = straight_cup()
        t, normal, _ = cast_one(cup, [1.0, 1.0, 0.5], unit([0.0, 0.0, -1.0]))
        assert t == np.inf
        assert np.array_equal(normal, np.zeros(3))

    def test_normal_faces_the_ray(self):
        rng = np.random.default_rng(11)
        cup = straight_cup()
        faces = set()
        for _ in range(200):
            origin = rng.uniform([-0.2, -0.2, 0.01], [0.2, 0.2, 0.4])
            # aimed into the cup's bounding box, so that most rays hit
            direction = unit(rng.uniform([-0.03, -0.03, 0.0], [0.03, 0.03, 0.1]) - origin)
            t, normal, face = cast_one(cup, origin, direction)
            if np.isfinite(t):
                faces.add(face.split(":")[0])
                assert float(np.dot(normal, direction)) < 1e-12
                assert abs(np.linalg.norm(normal) - 1.0) < 1e-9
        assert faces == {"rim", "outer", "inner", "cavity_floor"}

    def test_posed_box_faces(self):
        box = ObjectModel(id=1, shape=Box(size=(0.05, 0.07, 0.09)), mass=0.1,
                          pose=RigidTransform(rot_z(0.0), [0.1, 0.0, 0.0]))
        t, normal, face = cast_one(box, [0.1, 0.0, 0.5], [0.0, 0.0, -1.0])
        assert abs(t - (0.5 - 0.09)) < 1e-12
        assert np.allclose(normal, [0, 0, 1])
        assert face == "box"


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
        assert buf.pixels.size == 0 and buf.pixel_normals.shape == (0, 3)

    def test_upright_cylinder_rim_and_wall_normals(self, cup_scene):
        buf = render(cup_scene)
        assert np.all(buf.instance.reshape(-1)[buf.pixels] == 1)
        nz = buf.pixel_normals[:, 2]
        rim = np.abs(nz) > 0.5
        assert rim.sum() > 100
        assert np.all(nz[rim] >= 0.999)
        assert np.all(np.abs(nz[~rim]) <= 0.01)

    def test_render_deterministic(self, cup_scene):
        a = render(cup_scene)
        b = render(cup_scene)
        assert np.array_equal(a.depth, b.depth)
        assert np.array_equal(a.instance, b.instance)
        assert np.array_equal(a.pixels, b.pixels)
        assert np.array_equal(a.pixel_normals, b.pixel_normals)

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
                    best = min(best, cast_one(obj, origin, d)[0])
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


def assert_buffers_identical(buf, depth, normals, instance):
    # the object pixels the cast kept, with their normals
    pixels = np.flatnonzero(instance != 0)
    assert buf.pixels.tobytes() == pixels.tobytes()
    assert buf.pixel_normals.tobytes() == normals.reshape(-1, 3)[pixels].tobytes()
    assert buf.depth.tobytes() == depth.tobytes()
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

    @pytest.mark.parametrize("y, edge_row", [(0.25, 0), (-0.27, 239)])
    def test_object_cut_by_the_image_edge(self, y, edge_row):
        obj = make_object(catalog_entry("mug"), "upright", 0.0, y, 0.0)
        scene = Scene(camera=default_camera(), objects=(obj,))
        rows = _pixel_window(scene.camera, obj) // scene.camera.width
        assert edge_row in (rows.min(), rows.max()) and rows.size < 240 * 320
        buf = render(scene)
        assert buf.instance_mask(1)[edge_row].any()
        assert_buffers_identical(buf, *unculled_render(scene))

    @pytest.mark.parametrize("x, y", [(0.0, 0.5), (0.0, -0.5), (0.6, 0.0)])
    def test_object_out_of_view_casts_no_ray(self, x, y, monkeypatch):
        obj = make_object(catalog_entry("jar"), "upright", x, y, 0.0)
        scene = Scene(camera=default_camera(), objects=(obj,))
        cast = []
        monkeypatch.setattr(render_module, "intersect_object",
                            lambda *args: cast.append(args) or intersect_object(*args))
        buf = render(scene)
        assert cast == [] and not buf.instance_mask(1).any()
        assert_buffers_identical(buf, *unculled_render(scene))

    def test_a_box_corner_behind_the_camera_casts_the_whole_frame(self):
        # a box corner behind the camera: a cup just below a tilted camera,
        # and a tower beside it that rises above the camera, whose near face
        # runs out to the frame edge while its corners project inside it
        cam = overhead_camera(height=0.105, width=160, height_px=120, cx=80.0, cy=60.0,
                              fx=100.0, fy=100.0, tilt=0.1)
        tower = ObjectModel(id=1, shape=Box(size=(0.05, 0.05, 0.2)), mass=0.1,
                            pose=RigidTransform(np.eye(3), [0.05, 0.0, 0.0]))
        for obj in (straight_cup(), tower):
            scene = Scene(camera=cam, objects=(obj,))
            assert np.array_equal(_pixel_window(cam, obj), np.arange(120 * 160))
            buf = render(scene)
            assert buf.instance_mask(1).any()
            assert_buffers_identical(buf, *unculled_render(scene))
        assert buf.instance_mask(1)[:, -1].any()

    def test_two_objects_with_overlapping_windows(self):
        a = make_object(catalog_entry("highball_cup"), "upright", -0.04, 0.0, 0.0, oid=1)
        b = make_object(catalog_entry("vial"), "upside_down", 0.0, 0.01, 0.0, oid=2)
        scene = Scene(camera=default_camera(), objects=(a, b))
        assert np.intersect1d(*(_pixel_window(scene.camera, o) for o in (a, b))).size > 0
        buf = render(scene)
        assert buf.instance_mask(1).any() and buf.instance_mask(2).any()
        assert_buffers_identical(buf, *unculled_render(scene))

    @pytest.mark.parametrize("closer_first", [False, True])
    def test_an_object_hidden_in_part_by_a_closer_one(self, closer_first):
        # a plate held above a mug covers part of its image: there the plate
        # is the closer hit, whichever of the two is cast first
        mug = make_object(catalog_entry("mug"), "upright", 0.0, 0.0, 0.0, oid=1)
        plate = ObjectModel(id=2, shape=Box(size=(0.06, 0.06, 0.01)), mass=0.1,
                            pose=RigidTransform(rot_z(0.3), [0.04, 0.0, 0.15]))
        cam = default_camera()
        hidden = np.logical_and(*(render(Scene(camera=cam, objects=(o,))).instance_mask(o.id)
                                  for o in (mug, plate)))
        scene = Scene(camera=cam, objects=(plate, mug) if closer_first else (mug, plate))
        buf = render(scene)
        assert hidden.any() and np.all(buf.instance[hidden] == 2)
        assert (buf.instance_mask(1) & ~hidden).any()
        assert_buffers_identical(buf, *unculled_render(scene))

    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_seeded_tilted_poses(self, name):
        # two poses in view and two cut by the frame edge: the point on the
        # axis at mid-height on the ray of a border pixel, so that the border
        # row or column crosses the solid
        border = ((0, 120), (319, 120), (160, 0), (160, 239))
        entry = catalog_entry(name)
        k = OBJECT_NAMES.index(name)
        rng = np.random.default_rng(k)
        cam = default_camera()
        for i in range(4):
            rot = rot_z(rng.uniform(-np.pi, np.pi)) @ rot_y(rng.uniform(-np.pi, np.pi)) \
                @ rot_x(rng.uniform(-np.pi, np.pi))
            xyz = np.array([*rng.uniform(-0.1, 0.1, size=2), rng.uniform(0.0, 0.05)])
            if i >= 2:
                centre = rot @ [0.0, 0.0, (entry.shape.z_min + entry.shape.z_max) / 2.0]
                xyz = cam.backproject_at_height(border[(k + i) % 4], xyz[2] + centre[2]) - centre
            obj = ObjectModel(id=1, shape=entry.shape, mass=entry.mass,
                              wall_thickness=entry.wall_thickness, pose=RigidTransform(rot, xyz))
            scene = Scene(camera=cam, objects=(obj,))
            depth, normals, instance = unculled_render(scene)
            assert_buffers_identical(render(scene), depth, normals, instance)
            mask = instance == 1
            assert mask.any()
            assert np.isin(np.flatnonzero(mask), _pixel_window(cam, obj)).all()
            if i >= 2:
                assert mask[[0, -1]].any() or mask[:, [0, -1]].any()

    def test_side_lying_barrel_and_tilted_box(self):
        barrel = make_object(catalog_entry("jar"), "side", -0.05, 0.02, 1.1, oid=1)
        box = ObjectModel(id=2, shape=Box(size=(0.04, 0.06, 0.08)), mass=0.1,
                          pose=RigidTransform(rot_z(0.4) @ rot_y(0.6) @ rot_x(-0.3),
                                              [0.06, -0.03, 0.04]))
        for objects in ((barrel,), (box,), (barrel, box)):
            scene = Scene(camera=default_camera(), objects=objects)
            buf = render(scene)
            assert all(buf.instance_mask(o.id).any() for o in objects)
            assert_buffers_identical(buf, *unculled_render(scene))

    def test_table_depth_is_kept_per_camera(self):
        scene = benchmark_scene("mug", 1, master_seed=3)
        large = Scene(camera=default_camera(width=640, height=480), objects=scene.objects)
        for s in (scene, large, scene):
            assert_buffers_identical(render(s), *unculled_render(s))

    def test_a_changed_render_leaves_the_next_one_alone(self):
        scene = benchmark_scene("big_disposable_cup", 4, master_seed=2)
        buf = render(scene)
        buf.depth[:] = 1.0
        buf.instance[:] = 7
        buf.pixels[:] = 0
        buf.pixel_normals[:] = 0.5
        assert_buffers_identical(render(scene), *unculled_render(scene))
        assert not scene.camera.table_depth().flags.writeable

    def test_a_field_cannot_be_rebound(self):
        buf = render(benchmark_scene("mug", 0, master_seed=0))
        for name in ("depth", "instance", "pixels", "pixel_normals"):
            with pytest.raises(AttributeError):
                setattr(buf, name, getattr(buf, name).copy())


def columns_around(obj, half=0.16, n=64):
    """(n*n, 2) grid of columns over a square that covers the whole object:
    a side-lying pose extends up to its full length from the pose origin."""
    g = np.linspace(-half, half, n)
    xx, yy = np.meshgrid(g, g)
    return np.stack([xx.ravel(), yy.ravel()], axis=-1) + obj.pose.translation[:2]


def assert_heights_from_intersect(obj, xy=None):
    """``top_heights`` reads, on each column, the height where a downward ray
    from 1 cm above the object's top first meets it."""
    if xy is None:
        xy = columns_around(obj)
    heights, ids = top_heights([obj], xy)
    z_start = max(0.0, object_top_z(obj)) + 0.01
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

    def test_top_heights_start_above_a_high_object(self):
        # the box reaches above 10 m: the columns start above its top
        box = ObjectModel(id=1, shape=Box(size=(0.1, 0.1, 0.05)), mass=0.5,
                          pose=RigidTransform(np.eye(3), [0.0, 0.0, 9.99]))
        heights, ids = top_heights([box], [[0.0, 0.0]])
        assert abs(heights[0] - 10.04) < 1e-9 and ids[0] == 1

    @pytest.mark.parametrize("floor", [-np.inf, 0.05])
    def test_top_heights_of_no_columns(self, floor):
        cup = straight_cup(radius=0.03, height=0.10, wall=0.003)
        heights, ids = top_heights([cup], np.empty((0, 2)), floor=floor)
        assert heights.shape == ids.shape == (0,)
        assert (heights.dtype, ids.dtype) == (np.float64, np.int32)

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


class TestRisesAbove:
    """Closed forms of the highest surface under a sensor footprint on a
    posed straight mug: ``rises_above`` is True at a floor just below it and
    False just above."""

    r, height, wall = 0.04, 0.095, 0.0035

    def mug(self, pose):
        shape = RevolutionProfile(points=((self.r, 0.0), (self.r, self.height)), open_top=True)
        return ObjectModel(id=1, shape=shape, mass=0.3, wall_thickness=self.wall, pose=pose)

    def rises(self, obj, center, floor, half=(0.007, 0.00525)):
        c, h = np.asarray(center), np.asarray(half)
        return rises_above([obj], c - h, c + h, floor)

    def assert_top(self, obj, center, top, half=(0.007, 0.00525)):
        assert self.rises(obj, center, top - 1e-7, half)
        assert not self.rises(obj, center, top + 1e-7, half)

    def test_upright(self):
        mug = self.mug(RigidTransform(rot_z(0.3), [0.01, -0.02, 0.0]))
        # inside the bore only the cavity floor can be under the footprint
        self.assert_top(mug, [0.01, -0.02], self.wall)
        self.assert_top(mug, [0.01 + 0.02, -0.02], self.wall)
        # across the rim, or on the wall: the rim height
        self.assert_top(mug, [0.01 + 0.038, -0.02], self.height)
        self.assert_top(mug, [0.01, -0.02 - self.r], self.height)
        # beside the mug nothing is under the footprint
        for floor in (-1e3, 0.0, self.wall):
            assert not self.rises(mug, [0.01 + self.r + 0.01, -0.02], floor)

    def test_upside_down(self):
        mug = self.mug(RigidTransform(rot_x(np.pi), [0.0, 0.0, self.height]))
        # the closed base faces up: flat at the top over the whole disk
        self.assert_top(mug, [0.0, 0.0], self.height)
        assert not self.rises(mug, [self.r + 0.01, 0.0], -1e3)

    def test_other_poses_fall_back_to_the_object_top(self):
        side = self.mug(RigidTransform(rot_x(np.pi / 2), [0.0, 0.0, self.r]))
        self.assert_top(side, [0.5, 0.5], 2 * self.r)
        box = ObjectModel(id=2, shape=Box(size=(0.05, 0.07, 0.09)), mass=0.2,
                          pose=RigidTransform(rot_z(0.4), [0.0, 0.0, 0.0]))
        assert rises_above([side, box], (0.4, 0.4), (0.5, 0.5), 0.09 - 1e-7)
        assert not rises_above([side, box], (0.4, 0.4), (0.5, 0.5), 0.09 + 1e-7)
        assert not rises_above([], (0.0, 0.0), (0.1, 0.1), -1e3)

    def test_slightly_tilted_axis_is_not_taken_as_vertical(self):
        # a 1e-6 rad tilt moves the rim 9.5e-8 m sideways: a column just
        # inside the upright bore radius meets the rim, not the cavity floor
        mug = self.mug(RigidTransform(rot_x(1e-6), [0.0, 0.0, 0.0]))
        bore = self.r - self.wall
        column = np.array([[0.0, bore - 7e-8]])
        height = top_heights([mug], column)[0][0]
        assert height == pytest.approx(self.height, abs=1e-6)
        assert rises_above([mug], column[0] - [0.0, 2e-8], column[0] + [0.0, 2e-8],
                           height - 1e-12)

    def test_tapered_wall_is_bounded_at_the_clipped_radius(self):
        # inner wall r = 0.028 + 0.1 z: over radii [0.032, 0.035] it rises to
        # z = 0.07, below the rim (0.1) and above the outer wall (0.05)
        shape = RevolutionProfile(points=((0.03, 0.0), (0.04, 0.1)), open_top=True)
        cone = ObjectModel(id=1, shape=shape, mass=0.1, wall_thickness=0.002)
        self.assert_top(cone, [0.0335, 0.0], 0.07, half=(0.0015, 0.0))
        heights, _ = top_heights([cone], np.array([[0.032, 0.0], [0.035, 0.0]]))
        assert heights.max() == pytest.approx(0.07, abs=1e-12)
        assert rises_above([cone], (0.032, 0.0), (0.035, 0.0), heights.max() - 1e-12)


@pytest.mark.parametrize("name", OBJECT_NAMES)
def test_rises_above_holds_up_to_rounding(name):
    # rises_above is sharp: it is True at a floor 1e-12 m below the highest
    # cast column of the rectangle, far inside the 1e-9 m pads of the rule
    rng = np.random.default_rng(OBJECT_NAMES.index(name))
    finite = 0
    for attempt in range(12):
        (obj,) = benchmark_scene(name, attempt, master_seed=0).objects
        corners = obj.pose.apply(np.array(list(itertools.product(*zip(*_local_box(obj))))))
        xy_lo, xy_hi = corners[:, :2].min(axis=0) - 0.01, corners[:, :2].max(axis=0) + 0.01
        for _ in range(8):
            centre = rng.uniform(xy_lo, xy_hi)
            half = rng.uniform(0.0005, 0.015, size=2)
            gx, gy = np.meshgrid(*(np.linspace(-h, h, 16) for h in half))
            xy = centre + np.stack([gx.ravel(), gy.ravel()], axis=-1)
            heights, _ = top_heights([obj], xy)
            if np.isfinite(heights).any():
                assert rises_above([obj], centre - half, centre + half, heights.max() - 1e-12)
                finite += 1
    assert finite >= 32


class TestRayCastMatchesContains:
    """Just before a non-grazing hit of ``intersect_object`` a point is
    outside the solid and just after it inside, by ``contains``, which
    decides the finger sweep of a simulated grasp."""

    @pytest.mark.parametrize("attempt", [0, 4, 8])
    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_catalog_object(self, name, attempt):
        # a step of 1e-6 m is far past the rounding of the hit point and
        # far inside the thinnest wall; at a grazing hit (|n.d| <= 0.05) it
        # moves the point too little across the surface to tell the sides
        (obj,) = benchmark_scene(name, attempt, master_seed=0).objects
        rng = np.random.default_rng(OBJECT_NAMES.index(name) * 12 + attempt)
        lo, hi = _local_box(obj)
        targets = obj.pose.apply(rng.uniform(lo, hi, size=(4000, 3)))
        d = rng.normal(size=(4000, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        origins = targets - 0.5 * d
        t, normal, _ = intersect_object(obj, origins, d)
        hit = np.isfinite(t) & (np.abs(np.sum(normal * d, axis=1)) > 0.05)
        assert hit.sum() > 1000
        p, d = origins[hit] + t[hit, None] * d[hit], d[hit]
        assert not contains(obj, p - 1e-6 * d).any()
        assert contains(obj, p + 1e-6 * d).all()


def test_floor_below_the_mug_rim_leaves_only_the_rim_annulus():
    # a sensor footprint across the rim of an upright mug, with the sensing
    # plane 0.5 mm below the rim: only the rim annulus rises above it
    r, height, wall = 0.04, 0.095, 0.0035
    axis = np.array([0.01, -0.02])
    mug = ObjectModel(id=1, shape=RevolutionProfile(points=((r, 0.0), (r, height)), open_top=True),
                      mass=0.3, wall_thickness=wall, pose=RigidTransform(rot_z(0.3), [*axis, 0.0]))
    xx, yy = np.meshgrid(np.linspace(-0.007, 0.007, 160), np.linspace(-0.00525, 0.00525, 120))
    xy = np.stack([xx.ravel(), yy.ravel()], axis=-1) + axis + [r - wall / 2.0, 0.0]
    full, full_ids = top_heights([mug], xy)
    got, ids = top_heights([mug], xy, floor=height - 0.0005)
    rho = np.hypot(*(xy - axis).T)
    rim = (rho >= r - wall - 1e-12) & (rho <= r + 1e-12)
    bore = rho < r - wall - 1e-12
    assert rim.any() and bore.any() and (rho > r + 1e-12).any()
    assert np.array_equal(np.isfinite(got), rim)
    assert got[rim].tobytes() == full[rim].tobytes()
    assert np.all(np.abs(got[rim] - height) < 1e-12) and np.all(ids[rim] == 1)
    # the bore reads the cavity floor in the full query, the outside nothing
    assert np.all(np.abs(full[bore] - wall) < 1e-12) and np.all(full_ids[bore] == 1)
    assert np.all(np.isneginf(got[~rim])) and np.all(ids[~rim] == 0)


def test_compile_primitives_open_vs_closed():
    open_tags = {p[-1] for p in compile_primitives(straight_cup())}
    assert "rim" in open_tags and "cavity_floor" in open_tags and "bottom" in open_tags
    closed = ObjectModel(id=1, shape=RevolutionProfile(points=((0.03, 0.0), (0.03, 0.1))),
                         mass=0.2)
    closed_tags = {p[-1] for p in compile_primitives(closed)}
    assert "top" in closed_tags and "rim" not in closed_tags


def test_compile_primitives_is_one_tuple_per_shape():
    entry = catalog_entry("mug")
    a = make_object(entry, "upright", 0.0, 0.0, 0.3)
    b = make_object(entry, "side", 0.02, -0.01, 1.1, oid=2)
    prims = compile_primitives(a)
    assert isinstance(prims, tuple) and all(isinstance(p, tuple) for p in prims)
    assert compile_primitives(b) is prims
    # an equal shape built anew compiles to an equal tuple
    copy = ObjectModel(id=3, shape=RevolutionProfile(points=entry.shape.points, open_top=True,
                                                     cavity_depth=entry.shape.cavity_depth),
                       mass=entry.mass, wall_thickness=entry.wall_thickness)
    assert compile_primitives(copy) == prims
    with pytest.raises(TypeError):
        prims[0] = ("disk", 0.0, 0.0, 0.01, "bottom")
    thinner = ObjectModel(id=4, shape=entry.shape, mass=entry.mass,
                          wall_thickness=entry.wall_thickness / 2.0)
    assert compile_primitives(thinner) != prims


def test_vertical_profile_is_one_tuple_per_shape_and_direction():
    entry = catalog_entry("mug")
    upright = make_object(entry, "upright", 0.0, 0.0, 0.3)
    prims, profile = _compiled(upright)
    assert prims is compile_primitives(upright) and len(profile) == len(prims)
    assert _compiled(make_object(entry, "upright", 0.05, -0.02, 1.7, oid=2))[1] is profile
    # every pose shares the one profile; upside down, the cull rule negates its heights
    assert _compiled(make_object(entry, "side", 0.0, 0.0, 0.3))[1] is profile
    flipped = make_object(entry, "upside_down", 0.0, 0.0, 0.3)
    assert _compiled(flipped)[1] is profile
    tz = float(flipped.pose.translation[2])
    heights = sorted({-h for seg in profile for h in (seg[1], seg[3])})
    floors = [heights[0] - 0.01] + [(a + b) / 2.0 for a, b in zip(heights, heights[1:])]
    for h in floors:
        kept = [prim for prim, _ in _rising_primitives(flipped, tz + h)]
        assert kept == [prim for prim, (_, h0, _, h1) in zip(prims, profile)
                        if max(-h0, -h1) > h]
    assert _rising_primitives(flipped, tz + heights[-1] + 0.01) == []
    thinner = ObjectModel(id=4, shape=entry.shape, mass=entry.mass,
                          wall_thickness=entry.wall_thickness / 2.0)
    assert _compiled(thinner)[1] != profile


# ---------------------------------------------------------------------------
# the one-dimensional kernels against their (n, 3) forms
# ---------------------------------------------------------------------------

BOX = (0.06, 0.04, 0.09)


def reference_intersect_box(o, d, w, dd, h):
    """The slab test over (n, 3) arrays, reducing along the axis column."""
    lo = np.array([-w / 2.0, -dd / 2.0, 0.0])
    hi = np.array([w / 2.0, dd / 2.0, h])
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (lo - o) / d
        t1 = (hi - o) / d
    t_lo = np.where(np.isnan(t0), -np.inf, np.minimum(t0, t1))
    t_hi = np.where(np.isnan(t1), np.inf, np.maximum(t0, t1))
    par = np.abs(d) < 1e-14
    inside = (o >= lo) & (o <= hi)
    t_lo = np.where(par, np.where(inside, -np.inf, np.inf), t_lo)
    t_hi = np.where(par, np.where(inside, np.inf, -np.inf), t_hi)
    near_ax = np.argmax(t_lo, axis=1)
    t_near = np.max(t_lo, axis=1)
    t_far = np.min(t_hi, axis=1)
    ok = (t_near <= t_far + 1e-15) & (t_far > 1e-9)
    t = np.where(t_near > 1e-9, t_near, t_far)
    return np.where(ok, t, np.inf), near_ax


def assert_box_slabs_match(o, d):
    t, near_ax = _intersect_box(o, d, *BOX)
    t_ref, near_ref = reference_intersect_box(o, d, *BOX)
    assert t.tobytes() == t_ref.tobytes()
    assert near_ax.dtype == near_ref.dtype and near_ax.tobytes() == near_ref.tobytes()
    return t


class TestBoxSlabsMatchTheColumnReduction:
    def test_seeded_rays(self):
        rng = np.random.default_rng(11)
        o = rng.uniform(-0.15, 0.15, size=(5000, 3))
        d = rng.normal(size=(5000, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        assert np.isfinite(assert_box_slabs_match(o, d)).sum() > 100

    def test_axis_parallel_rays(self):
        rng = np.random.default_rng(12)
        o = rng.uniform(-0.1, 0.15, size=(4000, 3))
        d = rng.normal(size=(4000, 3))
        # zero, signed-zero and sub-tolerance components on one or two axes
        tiny = np.array([0.0, -0.0, 1e-15, -1e-15, 9.9e-15, 1e-14])
        for ax in range(3):
            pick = rng.random(4000) < 0.5
            d[pick, ax] = rng.choice(tiny, size=int(pick.sum()))
        o[::7, :2] = rng.uniform(-0.015, 0.015, size=(len(o[::7]), 2))  # inside the x/y slabs
        assert np.isfinite(assert_box_slabs_match(o, d)).sum() > 100

    def test_origins_on_faces_and_inside(self):
        rng = np.random.default_rng(13)
        w, dd, h = BOX
        faces = ((-w / 2.0, w / 2.0), (-dd / 2.0, dd / 2.0), (0.0, h))
        o = np.column_stack([rng.uniform(lo, hi, size=3000) for lo, hi in faces])
        for ax, (lo, hi) in enumerate(faces):
            pick = rng.random(3000) < 0.3
            o[pick, ax] = rng.choice([lo, hi], size=int(pick.sum()))
        d = rng.normal(size=(3000, 3))
        d[::5, 2] = 0.0
        d[1::5] = [[0.0, 0.0, -1.0]]
        assert np.isfinite(assert_box_slabs_match(o, d)).sum() > 100

    def test_shared_column_direction(self):
        rng = np.random.default_rng(14)
        o = np.column_stack([rng.uniform(-0.05, 0.05, size=(4000, 2)), np.full(4000, 0.2)])
        hits = 0
        for rot in [np.eye(3), rot_x(np.pi / 2), rot_z(0.7) @ rot_x(np.pi / 2),
                    rot_x(0.3) @ rot_z(1.2), rot_x(np.pi)]:
            # the downward column direction in a box frame, shared by every column
            d = np.array([[0.0, 0.0, -1.0]]) @ rot
            hits += np.isfinite(assert_box_slabs_match(o @ rot, d)).sum()
        assert hits > 1000


def test_frustum_normal_matches_the_row_norm():
    rng = np.random.default_rng(15)
    x, y = rng.normal(scale=0.03, size=(2, 5000))
    x[:10] = y[:10] = 0.0  # on the axis, where the radius is clamped
    for r0, z0, r1, z1 in ((0.03, 0.0, 0.04, 0.1), (0.05, 0.02, 0.01, 0.03), (0.02, 0.0, 0.02, 0.1)):
        k = (r1 - r0) / (z1 - z0)
        if k == 0.0:  # a straight wall has no normal on its axis
            x, y = x[10:], y[10:]
        n = np.stack([x, y, -k * np.maximum(np.hypot(x, y), 1e-12)], axis=-1)
        expected = n / np.linalg.norm(n, axis=-1, keepdims=True)
        assert _frustum_normal(x, y, r0, z0, r1, z1).tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# the one-direction branches of the disk and frustum kernels
# ---------------------------------------------------------------------------

FRUSTA = ((0.03, 0.0, 0.04, 0.1), (0.05, 0.02, 0.01, 0.03), (0.02, 0.0, 0.02, 0.1))
DISKS = ((0.0, 0.0, 0.03), (0.05, 0.01, 0.04))  # (zc, r_in, r_out)


def one_directions() -> list:
    """(1, 3) directions with d_z at and around the disk's 1e-14 tolerance, and
    with a = d_x ** 2 of a straight wall (k = 0) around the frustum's 1e-14."""
    dirs = [[0.6, 0.8, dz] for dz in (0.0, -0.0, 6e-17, 1e-14, -1e-14, 1.1e-14, -1.1e-14)]
    dirs += [[np.sqrt(a), 0.0, -1.0] for a in (0.0, 0.5e-14, 0.99e-14, 1.01e-14, 2e-14)]
    dirs += [[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.3, -0.2, -0.93]]
    return [np.array([d]) for d in dirs]


def column_origins(n=3000, seed=16):
    rng = np.random.default_rng(seed)
    o = rng.uniform(-0.06, 0.06, size=(n, 3))
    o[:, 2] = rng.uniform(-0.05, 0.2, size=n)
    return o


def test_one_direction_kernels_equal_the_repeated_direction():
    # a (1, 3) direction takes the shared branch, the same row repeated n
    # times the per-row one; the two must agree byte for byte
    a = [d[0, 0] ** 2 for d in one_directions() if d[0, 2] == -1.0]
    assert any(0.98e-14 < x < 1e-14 for x in a) and any(1e-14 < x < 1.02e-14 for x in a)
    o = column_origins()
    hits = 0
    for d in one_directions():
        rows = np.repeat(d, o.shape[0], axis=0)
        for prim in FRUSTA:
            t = _intersect_frustum(o, d, *prim)
            assert t.tobytes() == _intersect_frustum(o, rows, *prim).tobytes(), (d, prim)
            hits += np.isfinite(t).sum()
        for prim in DISKS:
            t = _intersect_disk(o, d, *prim)
            assert t.tobytes() == _intersect_disk(o, rows, *prim).tobytes(), (d, prim)
            hits += np.isfinite(t).sum()
    assert hits > 1000


def test_mixed_directions_equal_the_one_direction_kernels():
    # many directions in one call against one single-row call per ray
    o = column_origins(n=600, seed=17)
    dirs = one_directions()
    d = np.concatenate([dirs[i % len(dirs)] for i in range(o.shape[0])])
    hits = 0
    for kernel, prims in ((_intersect_frustum, FRUSTA), (_intersect_disk, DISKS)):
        for prim in prims:
            t = kernel(o, d, *prim)
            rows = np.concatenate([kernel(o[i:i + 1], d[i:i + 1], *prim) for i in range(o.shape[0])])
            assert t.tobytes() == rows.tobytes(), (kernel.__name__, prim)
            hits += np.isfinite(t).sum()
    assert hits > 100


# ---------------------------------------------------------------------------
# property tests over drawn solids: profiles (open, closed, with a cavity
# depth), boxes, any rotation, placed around the table origin
# ---------------------------------------------------------------------------

@st.composite
def drawn_solids(draw, oid=1):
    """A posed solid of revolution or box. Open-top radii stay above the
    thickest wall, so the cavity offset is always a valid profile."""
    angles = [draw(st.floats(-np.pi, np.pi)) for _ in range(3)]
    rot = rot_z(angles[0]) @ rot_y(angles[1]) @ rot_x(angles[2])
    xyz = [draw(st.floats(-0.08, 0.08)), draw(st.floats(-0.08, 0.08)), draw(st.floats(-0.02, 0.08))]
    pose = RigidTransform(rot, xyz)
    if draw(st.booleans()):
        size = tuple(draw(st.floats(0.005, 0.1)) for _ in range(3))
        return ObjectModel(id=oid, shape=Box(size=size), mass=0.1, pose=pose)
    open_top = draw(st.booleans())
    wall = draw(st.floats(0.001, 0.004))
    n = draw(st.integers(2, 5))
    radii = draw(st.lists(st.floats(0.005 if open_top else 0.0, 0.05), min_size=n, max_size=n))
    assume(max(radii) >= 0.005)
    steps = draw(st.lists(st.floats(0.005, 0.06), min_size=n - 1, max_size=n - 1))
    zs = draw(st.floats(-0.02, 0.02)) + np.concatenate([[0.0], np.cumsum(steps)])
    cavity = None
    if open_top and draw(st.booleans()):
        cavity = draw(st.floats(0.1, 0.95)) * float(zs[-1] - zs[0])
    shape = RevolutionProfile(points=tuple(zip(radii, zs)), open_top=open_top,
                              cavity_depth=cavity)
    return ObjectModel(id=oid, shape=shape, mass=0.1, wall_thickness=wall, pose=pose)


def interior_point(obj):
    """World point inside the solid or its cavity: the box centre, or the
    axis point at the height of the widest radius. A vertical line through
    it meets the surface."""
    shape = obj.shape
    if isinstance(shape, Box):
        local = [0.0, 0.0, shape.size[2] / 2.0]
    else:
        local = [0.0, 0.0, max(shape.points)[1]]
    return obj.pose.apply(np.array(local))


class TestDrawnSolids:
    """The culled and floored paths give the full cast's bytes on solids
    beyond the catalog; every comparison is byte-equal, as the code promises."""

    @settings(max_examples=40)
    @given(drawn_solids(), st.floats(-0.05, 0.3))
    def test_top_heights_match_downward_rays(self, obj, floor):
        # a thin solid can fall between the grid's columns, so one column
        # also runs through a point inside it
        xy = np.concatenate([columns_around(obj), interior_point(obj)[None, :2]])
        assert_heights_from_intersect(obj, xy=xy)
        # a floored query reads the full height wherever that is above the floor
        full, ids = top_heights([obj], xy)
        got, got_ids = top_heights([obj], xy, floor=floor)
        above = full > floor
        assert got.tobytes() == np.where(above, full, -np.inf).tobytes()
        assert got_ids.tobytes() == np.where(above, ids, 0).tobytes()

    @settings(max_examples=25)
    @given(drawn_solids(oid=1), st.one_of(st.none(), drawn_solids(oid=2)))
    def test_culled_render_matches_unculled(self, first, second):
        objects = (first,) if second is None else (first, second)
        scene = Scene(camera=default_camera(width=160, height=120), objects=objects)
        assert_buffers_identical(render(scene), *unculled_render(scene))
