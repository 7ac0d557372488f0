import numpy as np
import pytest

from pokegrasp.catalog import OBJECT_NAMES, benchmark_scene, catalog_entry, default_camera, \
    make_object
from pokegrasp.errors import InvalidGeometry
from pokegrasp.geometry import RigidTransform, rot_x, rot_z
from pokegrasp.render import Hit, _frustum_normal, _intersect_box, compile_primitives, contains, \
    intersect_object, ray_intersect, render, top_height_bound, top_heights
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


class TestTopHeightBound:
    """Closed forms of the per-rectangle bound on a posed straight mug."""

    r, height, wall = 0.04, 0.095, 0.0035

    def mug(self, pose):
        shape = RevolutionProfile(points=((self.r, 0.0), (self.r, self.height)), open_top=True)
        return ObjectModel(id=1, shape=shape, mass=0.3, wall_thickness=self.wall, pose=pose)

    def bound(self, obj, center, half=(0.007, 0.00525)):
        c, h = np.asarray(center), np.asarray(half)
        return top_height_bound([obj], c - h, c + h)

    def test_upright(self):
        mug = self.mug(RigidTransform(rot_z(0.3), [0.01, -0.02, 0.0]))
        # inside the bore only the cavity floor can be under the footprint
        assert self.bound(mug, [0.01, -0.02]) == self.wall
        assert self.bound(mug, [0.01 + 0.02, -0.02]) == self.wall
        # across the rim, or on the wall: the rim height
        assert self.bound(mug, [0.01 + 0.038, -0.02]) == self.height
        assert self.bound(mug, [0.01, -0.02 - self.r]) == self.height
        # beside the mug nothing is under the footprint
        assert self.bound(mug, [0.01 + self.r + 0.01, -0.02]) == -np.inf

    def test_upside_down(self):
        mug = self.mug(RigidTransform(rot_x(np.pi), [0.0, 0.0, self.height]))
        # the closed base faces up: flat at the top over the whole disk
        assert self.bound(mug, [0.0, 0.0]) == pytest.approx(self.height, abs=1e-15)
        assert self.bound(mug, [self.r + 0.01, 0.0]) == -np.inf

    def test_other_poses_fall_back_to_the_object_top(self):
        side = self.mug(RigidTransform(rot_x(np.pi / 2), [0.0, 0.0, self.r]))
        assert self.bound(side, [0.5, 0.5]) == pytest.approx(2 * self.r, abs=1e-15)
        box = ObjectModel(id=2, shape=Box(size=(0.05, 0.07, 0.09)), mass=0.2,
                          pose=RigidTransform(rot_z(0.4), [0.0, 0.0, 0.0]))
        assert top_height_bound([side, box], (0.4, 0.4), (0.5, 0.5)) == pytest.approx(0.09)
        assert top_height_bound([], (0.0, 0.0), (0.1, 0.1)) == -np.inf

    def test_slightly_tilted_axis_is_not_taken_as_vertical(self):
        # a 1e-6 rad tilt moves the rim 9.5e-8 m sideways: a column just
        # inside the upright bore radius meets the rim, not the cavity floor
        mug = self.mug(RigidTransform(rot_x(1e-6), [0.0, 0.0, 0.0]))
        bore = self.r - self.wall
        column = np.array([[0.0, bore - 7e-8]])
        assert top_heights([mug], column)[0][0] == pytest.approx(self.height, abs=1e-6)
        got = top_height_bound([mug], column[0] - [0.0, 2e-8], column[0] + [0.0, 2e-8])
        assert got >= self.height

    def test_tapered_wall_is_bounded_at_the_clipped_radius(self):
        # inner wall r = 0.028 + 0.1 z: over radii [0.032, 0.035] it rises to
        # z = 0.07, below the rim (0.1) and above the outer wall (0.05)
        shape = RevolutionProfile(points=((0.03, 0.0), (0.04, 0.1)), open_top=True)
        cone = ObjectModel(id=1, shape=shape, mass=0.1, wall_thickness=0.002)
        got = top_height_bound([cone], (0.032, 0.0), (0.035, 0.0))
        assert got == pytest.approx(0.07, abs=1e-7)
        heights, _ = top_heights([cone], np.array([[0.032, 0.0], [0.035, 0.0]]))
        assert heights.max() == pytest.approx(0.07, abs=1e-12)
        assert heights.max() <= got

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
