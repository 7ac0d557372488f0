import numpy as np
import pytest

from pokegrasp.catalog import OBJECT_NAMES, SIDE, UPRIGHT, benchmark_scene, catalog_entry, \
    default_camera, make_object
from pokegrasp.errors import InvalidConfig, ShapeMismatch
from pokegrasp.geometry import RigidTransform, rot_x
from pokegrasp.regions import DEFAULT_H_MIN, DEFAULT_TAU_DOT, bbox_of, height_map, poking_region
from pokegrasp.render import render
from pokegrasp.scene import Box, ObjectModel, RevolutionProfile, Scene

from conftest import overhead_camera, straight_cup, unculled_render


class TestDotProductMap:
    """A normal's dot with the table normal +z is its z component."""

    def test_rim_parallel_and_wall_orthogonal(self, cup_scene):
        # classify pixels analytically from their hit points: the rim is the
        # annulus plane z = 0.10, the outer wall the cylinder rho = 0.03
        buf = render(cup_scene)
        dots = buf.pixel_normals[:, 2]
        heights = height_map(buf.depth, cup_scene.camera).reshape(-1)[buf.pixels]
        rim = np.abs(heights - 0.10) < 1e-9
        wall = (heights < 0.0999) & (heights > 0.01)
        assert rim.sum() > 100 and wall.sum() > 100
        assert np.abs(dots[rim] - 1.0).max() < 1e-6
        # walls are the outer/inner cylinder: normals horizontal
        assert np.abs(dots[wall]).max() < 1e-6

    def test_side_lying_cylinder_cosine_falloff(self):
        # barrel axis along world y at height r: normal z-component at a
        # surface point equals (z_hit - r) / r, the cosine of the
        # circumferential angle from the top line
        r, h = 0.035, 0.12
        jar = ObjectModel(
            id=1, shape=RevolutionProfile(points=((r, 0.0), (r, h))), mass=0.3,
            pose=RigidTransform(rot_x(np.pi / 2), [0.0, 0.06, r]))
        cam = overhead_camera(height=0.6)
        scene = Scene(camera=cam, objects=(jar,))
        buf = render(scene)
        dots = buf.pixel_normals[:, 2]
        heights = height_map(buf.depth, cam).reshape(-1)[buf.pixels]
        barrel = np.abs(buf.pixel_normals[:, 1]) < 0.01
        assert barrel.sum() > 500
        expected = (heights[barrel] - r) / r
        assert np.abs(dots[barrel] - expected).max() < 1e-6
        assert dots[barrel].max() > 0.9999  # top line present


class TestHeightMap:
    def test_table_pixels_zero(self, down_cam):
        buf = render(Scene(camera=down_cam))
        heights = height_map(buf.depth, down_cam)
        assert np.abs(heights).max() < 1e-9

    def test_rim_height(self, cup_scene):
        buf = render(cup_scene)
        heights = height_map(buf.depth, cup_scene.camera).reshape(-1)[buf.pixels]
        rim = (buf.pixel_normals[:, 2] > 0.999) & (heights > 0.05)
        assert rim.any()
        assert np.abs(heights[rim] - 0.10).max() < 1e-6

    def test_non_hit_sentinel(self):
        cam = overhead_camera(height=0.6, width=4, height_px=4, cx=2.0, cy=1.0,
                              fx=10.0, fy=10.0)
        depth = np.full((4, 4), np.inf)
        depth[1, 2] = 0.6  # the principal-point pixel, straight down
        heights = height_map(depth, cam)
        assert np.isneginf(heights[0, 0])
        assert abs(heights[1, 2]) < 1e-9

    def test_matches_inline_pixel_grid(self):
        scene = benchmark_scene("jar", 4, master_seed=0)
        cam = scene.camera
        depth = render(scene).depth
        # the per-call grid that height_map built before the camera cached it
        uu, vv = np.meshgrid(np.arange(cam.width, dtype=np.float64),
                             np.arange(cam.height, dtype=np.float64))
        d_cam = np.stack([(uu - cam.cx) / cam.fx, (vv - cam.cy) / cam.fy,
                          np.ones_like(uu)], axis=-1)
        d_world = d_cam.reshape(-1, 3) @ cam.pose.rotation.T
        dz = (d_world[:, 2] / np.linalg.norm(d_world, axis=-1)).reshape(depth.shape)
        hit = np.isfinite(depth)
        expected = np.where(hit, cam.pose.translation[2] + np.where(hit, depth, 0.0) * dz,
                            -np.inf)
        assert height_map(depth, cam).tobytes() == expected.tobytes()

    def test_shape_mismatch(self, down_cam):
        with pytest.raises(ShapeMismatch):
            height_map(np.zeros((down_cam.width, down_cam.height)), down_cam)


class TestPokingRegion:
    def test_upright_open_cup_region_is_rim_annulus(self, cup_scene):
        # h_min above the cavity floor slab: only the rim annulus survives
        buf = render(cup_scene)
        anns = poking_region(buf, cup_scene.camera, h_min=0.02)
        assert len(anns) == 1
        ann = anns[0]
        heights = height_map(buf.depth, cup_scene.camera)
        rim_truth = (buf.instance == 1) & (np.abs(heights - 0.10) < 1e-9)
        assert np.array_equal(ann.poking_region, rim_truth)
        # the cavity floor is visible through the bore but excluded by height
        floor = (heights.reshape(-1)[buf.pixels] < 0.0999) & (buf.pixel_normals[:, 2] > 0.999)
        assert floor.any()
        assert not np.any(ann.poking_region.reshape(-1)[buf.pixels] & floor)

    def test_closed_box_region_is_top_face(self, down_cam):
        box = ObjectModel(id=3, shape=Box(size=(0.06, 0.05, 0.08)), mass=0.2)
        buf = render(Scene(camera=down_cam, objects=(box,)))
        anns = poking_region(buf, down_cam, h_min=0.02)
        heights = height_map(buf.depth, down_cam)
        top = (buf.instance == 3) & (heights > 0.0799)
        assert np.array_equal(anns[0].poking_region, top)
        assert anns[0].poking_area == top.sum() > 0

    @pytest.mark.parametrize("h_min", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_h_min(self, h_min):
        # a NaN or infinite h_min would silently return empty regions
        scene = benchmark_scene("mug", 0, master_seed=0)
        buf = render(scene)
        assert poking_region(buf, scene.camera)[0].poking_area > 0
        with pytest.raises(InvalidConfig):
            poking_region(buf, scene.camera, h_min=h_min)
        # also with nothing in view, where valid thresholds give no annotation
        empty = render(Scene(camera=scene.camera))
        assert poking_region(empty, scene.camera) == []
        with pytest.raises(InvalidConfig):
            poking_region(empty, scene.camera, h_min=h_min)

    def test_thresholds_are_keyword_only(self, cup_scene):
        # a third positional argument, such as a table normal, must not be
        # read as tau_dot
        buf = render(cup_scene)
        with pytest.raises(TypeError):
            poking_region(buf, cup_scene.camera, (0.0, 0.0, 1.0))

    def test_tau_dot_bounds(self, cup_scene):
        buf = render(cup_scene)
        with pytest.raises(InvalidConfig):
            poking_region(buf, cup_scene.camera, tau_dot=1.0 + 1e-9)
        anns = poking_region(buf, cup_scene.camera, tau_dot=1.0)
        dots = unculled_render(cup_scene)[1][..., 2]
        assert np.all(dots[anns[0].poking_region] >= 1.0)

    def test_region_pixels_satisfy_all_conditions(self, cup_scene):
        buf = render(cup_scene)
        tau, h_min = 0.9, 0.03
        anns = poking_region(buf, cup_scene.camera, tau_dot=tau, h_min=h_min)
        dots = unculled_render(cup_scene)[1][..., 2]
        heights = height_map(buf.depth, cup_scene.camera)
        for ann in anns:
            pr = ann.poking_region
            assert np.all(dots[pr] >= tau)
            assert np.all(heights[pr] >= h_min)
            assert np.all(buf.instance[pr] == ann.id)
            assert not np.any(pr & ~ann.mask)  # subset of the instance mask

    def test_monotone_in_thresholds(self, cup_scene):
        buf = render(cup_scene)
        strict = poking_region(buf, cup_scene.camera, tau_dot=0.999, h_min=0.05)[0]
        loose = poking_region(buf, cup_scene.camera, tau_dot=0.8, h_min=0.01)[0]
        assert not np.any(strict.poking_region & ~loose.poking_region)

    def test_distinct_instances_disjoint(self, down_cam):
        a = straight_cup(radius=0.03, oid=1)
        b = ObjectModel(id=2, shape=Box(size=(0.05, 0.05, 0.06)), mass=0.2,
                        pose=RigidTransform(np.eye(3), [0.1, 0.0, 0.0]))
        buf = render(Scene(camera=down_cam, objects=(a, b)))
        anns = poking_region(buf, down_cam)
        assert len(anns) == 2
        assert not np.any(anns[0].poking_region & anns[1].poking_region)

    def test_annotations_in_ascending_id_order(self, down_cam):
        # scene order 5, 3, 2 with id 3 far outside the view
        box = ObjectModel(id=5, shape=Box(size=(0.05, 0.05, 0.06)), mass=0.2,
                          pose=RigidTransform(np.eye(3), [0.1, 0.0, 0.0]))
        hidden = straight_cup(oid=3, pose=RigidTransform(np.eye(3), [1.0, 0.0, 0.0]))
        cup = straight_cup(radius=0.03, oid=2, pose=RigidTransform(np.eye(3), [-0.05, 0.0, 0.0]))
        buf = render(Scene(camera=down_cam, objects=(box, hidden, cup)))
        assert np.unique(buf.instance).tolist() == [0, 2, 5]
        anns = poking_region(buf, down_cam)
        assert [a.id for a in anns] == [2, 5]
        for ann in anns:
            mask = buf.instance_mask(ann.id)
            assert ann.mask.tobytes() == mask.tobytes()
            assert ann.poking_region.any() and not np.any(ann.poking_region & ~mask)

    def test_bbox_tight(self, cup_scene):
        buf = render(cup_scene)
        ann = poking_region(buf, cup_scene.camera)[0]
        vs, us = np.nonzero(ann.mask)
        assert ann.bbox == (us.min(), vs.min(), us.max(), vs.max())


def literal_poking_region(cam, depth, normals, instance,
                          tau_dot=DEFAULT_TAU_DOT, h_min=DEFAULT_H_MIN):
    """poking_region as the full-frame composition of its public pieces, on
    (depth, normals, instance) images such as ``unculled_render``'s. A pixel
    with no hit has a zero normal, whose z component 0 is below any tau_dot."""
    eligible = (normals[..., 2] >= tau_dot) & (height_map(depth, cam) >= h_min)
    out = []
    for oid in np.unique(instance[instance != 0]):
        mask = (instance == oid) & np.isfinite(depth)
        out.append((int(oid), mask, mask & eligible, bbox_of(mask)))
    return out


def assert_matches_literal(anns, expected):
    def key(oid, mask, region, bbox):
        return (oid, mask.shape, mask.dtype, mask.tobytes(), region.shape, region.dtype,
                region.tobytes(), bbox)
    assert [key(a.id, a.mask, a.poking_region, a.bbox) for a in anns] == \
        [key(*e) for e in expected]


class TestPokingRegionMatchesFullFrame:
    """poking_region is byte-equal to the full-frame composition of the
    normals' z components, height_map, the instance masks and bbox_of on a
    reference cast."""

    @pytest.mark.parametrize("slot", (0, 4, 8))
    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_catalog_objects(self, name, slot):
        scene = benchmark_scene(name, slot, master_seed=0)
        buf = render(scene)
        anns = poking_region(buf, scene.camera)
        assert anns and anns[0].poking_area > 0
        assert_matches_literal(anns, literal_poking_region(scene.camera, *unculled_render(scene)))

    def test_three_objects_one_cut_by_the_frame_edge(self):
        cam = default_camera()
        objs = (make_object(catalog_entry("mug"), UPRIGHT, -0.08, 0.02, 0.3, oid=1),
                make_object(catalog_entry("rectangular_cup"), SIDE, 0.05, -0.06, 1.1, oid=2),
                make_object(catalog_entry("jar"), UPRIGHT, 0.31, 0.0, 0.0, oid=3))
        scene = Scene(camera=cam, objects=objs)
        buf = render(scene)
        anns = poking_region(buf, cam)
        assert [a.id for a in anns] == [1, 2, 3]
        assert anns[2].mask[:, -1].any() and not anns[2].mask[:, 0].any()
        assert_matches_literal(anns, literal_poking_region(cam, *unculled_render(scene)))
