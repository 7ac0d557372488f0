import numpy as np
import pytest

from pokegrasp.catalog import default_camera
from pokegrasp.errors import (InvalidConfig, InvalidGeometry, PointBehindCamera,
                              RayParallelToPlane)
from pokegrasp.geometry import RigidTransform, rot_x, rot_z
from pokegrasp.scene import Box, CameraModel, ObjectModel, RevolutionProfile, Scene, \
    _inner_polyline

from conftest import overhead_camera, straight_cup


NON_FINITE = [np.nan, np.inf, -np.inf]


def identity_camera():
    return CameraModel(fx=600, fy=600, cx=320, cy=240, width=640, height=480)


class TestProject:
    def test_optical_axis_maps_to_principal_point(self):
        cam = identity_camera()
        for depth in (0.1, 1.0, 7.3):
            assert cam.project([0.0, 0.0, depth]) == (320.0, 240.0)

    def test_hand_computed_pixel(self):
        # 600 * 0.1 / 1 + 320 = 380
        cam = identity_camera()
        u, v = cam.project([0.1, 0.0, 1.0])
        assert abs(u - 380.0) < 1e-12
        assert abs(v - 240.0) < 1e-12

    def test_point_behind_camera(self):
        cam = identity_camera()
        with pytest.raises(PointBehindCamera):
            cam.project([0.0, 0.0, -0.5])

    def test_points_project_as_each_point(self):
        cam = overhead_camera(tilt=0.2)
        points = np.random.default_rng(5).uniform([-0.2, -0.2, 0.0], [0.2, 0.2, 0.3], (40, 3))
        u, v = cam.project(points)
        assert u.shape == v.shape == (40,)
        for p, got in zip(points, zip(u, v)):
            assert got == cam.project(p)

    @pytest.mark.parametrize("z", (0.0, -0.5))
    def test_one_point_behind_the_camera_raises_for_all(self, z):
        cam = identity_camera()
        points = np.array([[0.0, 0.0, 1.0], [0.1, 0.0, z], [0.0, 0.1, 2.0]])
        with pytest.raises(PointBehindCamera):
            cam.project(points)


class TestBackproject:
    def test_roundtrip_world_point(self):
        cam = overhead_camera(tilt=0.2)
        p = np.array([0.07, -0.04, 0.12])
        uv = cam.project(p)
        assert np.abs(cam.backproject_at_height(uv, p[2]) - p).max() < 1e-9

    def test_straight_down_center_pixel(self):
        cam = overhead_camera(height=1.0)
        p = cam.backproject_at_height((cam.cx, cam.cy), 0.0)
        assert np.allclose(p, [0.0, 0.0, 0.0], atol=1e-12)

    def test_against_independent_ray_plane_solver(self):
        # oracle: solve o + t*d with d built from first principles
        cam = overhead_camera(height=0.8, tilt=0.15)
        pixel = (411.0, 97.0)
        height = 0.04
        d_cam = np.array([(pixel[0] - cam.cx) / cam.fx, (pixel[1] - cam.cy) / cam.fy, 1.0])
        d_world = cam.pose.rotation @ d_cam
        o = cam.pose.translation
        t = (height - o[2]) / d_world[2]
        expected = o + t * d_world
        assert np.abs(cam.backproject_at_height(pixel, height) - expected).max() < 1e-9

    def test_parallel_ray_raises(self):
        # horizontal camera: the center-pixel ray has zero world-z component
        rot = rot_x(-np.pi / 2) @ np.diag([1.0, -1.0, -1.0])
        cam = CameraModel(fx=600, fy=600, cx=320, cy=240, width=640, height=480,
                          pose=RigidTransform(rot, [0.0, 0.0, 0.3]))
        with pytest.raises(RayParallelToPlane):
            cam.backproject_at_height((320.0, 240.0), 0.1)

    def test_project_backproject_identity_on_pixels(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            cam = overhead_camera(height=rng.uniform(0.3, 1.2), tilt=rng.uniform(0, 0.4))
            uv = (rng.uniform(0, 639), rng.uniform(0, 479))
            h = rng.uniform(0.0, 0.2)
            p = cam.backproject_at_height(uv, h)
            u2, v2 = cam.project(p)
            assert abs(u2 - uv[0]) < 1e-7 and abs(v2 - uv[1]) < 1e-7


class TestPixelDirections:
    def test_rows_match_pixel_ray(self):
        cam = CameraModel(fx=60.0, fy=55.0, cx=31.5, cy=20.0, width=64, height=48,
                          pose=RigidTransform(rot_z(0.4) @ rot_x(2.8), [0.05, -0.1, 0.7]))
        dirs = cam.pixel_directions()
        assert dirs.shape == (48 * 64, 3)
        for v in range(48):
            for u in range(64):
                _, d = cam.pixel_ray((u, v))
                assert np.abs(dirs[v * 64 + u] - d).max() <= 1e-15

    def test_unit_norm(self):
        dirs = default_camera().pixel_directions()
        assert np.abs(np.linalg.norm(dirs, axis=-1) - 1.0).max() <= 1e-15

    def test_read_only(self):
        dirs = default_camera().pixel_directions()
        with pytest.raises(ValueError):
            dirs[0, 0] = 0.0

    def test_equal_cameras_share_one_grid(self):
        a, b = default_camera(), default_camera()
        assert a is not b
        assert a.pixel_directions() is b.pixel_directions()
        assert default_camera(width=160, height=120).pixel_directions() is not a.pixel_directions()


class TestTableDepth:
    def test_equal_cameras_share_one_read_only_depth(self):
        a, b = default_camera(), default_camera()
        depth = a.table_depth()
        assert b.table_depth() is depth and not depth.flags.writeable
        with pytest.raises(ValueError):
            depth[0] = 0.0
        assert default_camera(cam_height=0.5).table_depth() is not depth

    def test_depth_is_the_ray_distance_to_the_table(self):
        cam = overhead_camera(height=0.7, tilt=0.3)
        points = cam.pose.translation + cam.table_depth()[:, None] * cam.pixel_directions()
        assert cam.table_depth().shape == (480 * 640,)
        assert np.abs(points[:, 2]).max() < 1e-12

    def test_a_ray_that_misses_the_table_reads_inf(self):
        # a camera below the table looks down away from it
        cam = overhead_camera(height=-0.1)
        assert np.all(cam.table_depth() == np.inf)


class TestValidation:
    def test_camera_invariants(self):
        with pytest.raises(InvalidConfig):
            CameraModel(fx=-1, fy=600, cx=320, cy=240, width=640, height=480)
        with pytest.raises(InvalidConfig):
            CameraModel(fx=600, fy=600, cx=999, cy=240, width=640, height=480)

    @pytest.mark.parametrize("width, height", [(320.0, 240), (320, 240.0), (True, 240),
                                               (320, False), (np.float64(320), 240),
                                               ("320", 240), (0, 240), (320, -1)])
    def test_camera_resolution_must_be_a_positive_integer(self, width, height):
        # a float width would pass the principal-point check and fail the
        # render with a bare TypeError when the flat buffers are reshaped
        with pytest.raises(InvalidConfig):
            CameraModel(fx=60.0, fy=60.0, cx=0.5, cy=0.5, width=width, height=height)

    def test_camera_resolution_accepts_numpy_integers(self):
        cam = CameraModel(fx=60.0, fy=60.0, cx=32.0, cy=24.0,
                          width=np.int64(64), height=np.int32(48))
        assert cam.pixel_directions().shape == (64 * 48, 3)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_camera_intrinsics_must_be_finite(self, value):
        # with fx NaN a 64x48 camera rendered 0 of 3,072 finite depths
        for name in ("fx", "fy", "cx", "cy"):
            kwargs = dict(fx=60.0, fy=60.0, cx=32.0, cy=24.0, width=64, height=48)
            kwargs[name] = value
            with pytest.raises(InvalidConfig, match="finite"):
                CameraModel(**kwargs)

    def test_profile_invariants(self):
        with pytest.raises(InvalidGeometry):
            RevolutionProfile(points=((0.03, 0.1), (0.03, 0.0)))  # heights not increasing
        with pytest.raises(InvalidGeometry):
            RevolutionProfile(points=((-0.01, 0.0), (0.03, 0.1)))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_box_size_must_be_finite(self, value):
        for axis in range(3):
            size = [0.1, 0.1, 0.1]
            size[axis] = value
            with pytest.raises(InvalidGeometry, match="finite"):
                Box(tuple(size))

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_profile_points_must_be_finite(self, value):
        for points in (((value, 0.0), (0.03, 0.1)), ((0.03, 0.0), (0.03, value))):
            with pytest.raises(InvalidGeometry, match="finite"):
                RevolutionProfile(points=points)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_cavity_depth_must_be_finite(self, value):
        with pytest.raises(InvalidGeometry, match="finite"):
            RevolutionProfile(points=((0.03, 0.0), (0.03, 0.1)), open_top=True,
                              cavity_depth=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_mass_must_be_finite(self, value):
        # a NaN mass fails the tipping comparison: a light cup never toppled
        with pytest.raises(InvalidConfig, match="finite"):
            ObjectModel(id=1, shape=Box((0.1, 0.1, 0.1)), mass=value)

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_wall_thickness_must_be_finite(self, value):
        for shape in (Box((0.1, 0.1, 0.1)), straight_cup().shape):
            with pytest.raises(InvalidConfig, match="finite"):
                ObjectModel(id=1, shape=shape, mass=0.1, wall_thickness=value)

    def test_wall_thickness_bound(self):
        shape = RevolutionProfile(points=((0.01, 0.0), (0.01, 0.1)), open_top=True)
        with pytest.raises(InvalidGeometry):
            ObjectModel(id=1, shape=shape, mass=0.1, wall_thickness=0.02)

    def test_a_cone_cup_is_rejected_when_built(self):
        # its offset wall crosses the axis above the cavity floor: the object
        # was built, and its first render raised inside a trial
        shape = RevolutionProfile(points=((0.0, 0.0), (0.04, 0.1)), open_top=True)
        with pytest.raises(InvalidGeometry, match="offset"):
            ObjectModel(id=1, shape=shape, mass=0.1)

    def test_an_open_profile_of_zero_radii_is_rejected(self):
        # the narrowest-radius rule raised a bare ValueError from min()
        shape = RevolutionProfile(points=((0.0, 0.0), (0.0, 0.1)), open_top=True)
        with pytest.raises(InvalidGeometry):
            ObjectModel(id=1, shape=shape, mass=0.1)

    @pytest.mark.parametrize("depth", (0.15, 0.1, 0.0, -0.01))
    def test_cavity_depth_must_lie_within_the_height(self, depth):
        # a 0.15 m cavity in a 0.1 m cup put the floor below the base: the axis
        # column read the bottom disk, while contains put the base outside
        shape = RevolutionProfile(points=((0.03, 0.0), (0.03, 0.1)), open_top=True,
                                  cavity_depth=depth)
        with pytest.raises(InvalidGeometry, match="between the base and the rim"):
            ObjectModel(id=1, shape=shape, mass=0.1)

    def test_a_closed_top_takes_no_cavity_depth(self):
        # the depth was silently ignored: the closed cup rendered solid
        with pytest.raises(InvalidGeometry, match="closed top"):
            RevolutionProfile(((0.03, 0.0), (0.03, 0.1)), open_top=False, cavity_depth=0.05)

    @pytest.mark.parametrize("oid", (1.5, True, np.float64(2.0), "1", None, 0, -1))
    def test_object_id_must_be_an_integer_from_1(self, oid):
        # 1.5 rendered as instance 1 and its pr poke raised a bare KeyError;
        # True ran as object 1
        with pytest.raises(InvalidConfig, match="ids"):
            ObjectModel(id=oid, shape=Box((0.1, 0.1, 0.1)), mass=0.1)

    def test_object_id_accepts_numpy_integers(self):
        assert ObjectModel(id=np.int64(2), shape=Box((0.1, 0.1, 0.1)), mass=0.1).id == 2

    def test_unique_ids(self):
        cam = identity_camera()
        a = straight_cup(oid=1)
        b = straight_cup(oid=1)
        with pytest.raises(InvalidConfig):
            Scene(camera=cam, objects=(a, b))


class TestCavity:
    def test_an_open_top_keeps_its_cavity(self):
        cup = straight_cup(wall=0.003)
        assert cup.cavity == _inner_polyline(cup.shape, 0.003)
        assert cup.cavity == ((0.027, 0.003), (0.027, 0.10))

    def test_other_shapes_have_none(self):
        closed = RevolutionProfile(((0.03, 0.0), (0.03, 0.1)))
        for shape in (closed, Box((0.1, 0.1, 0.1))):
            assert ObjectModel(id=1, shape=shape, mass=0.1).cavity is None

    def test_the_cavity_is_derived_not_passed(self):
        cup = straight_cup()
        with pytest.raises(TypeError):
            ObjectModel(id=1, shape=cup.shape, mass=0.1, cavity=cup.cavity)
        with pytest.raises(AttributeError):
            cup.cavity = ()
