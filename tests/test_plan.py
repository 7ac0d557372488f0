import numpy as np
import pytest

from pokegrasp.catalog import benchmark_scene
from pokegrasp.errors import EmptyMask, InvalidConfig, WidthOverflow
from pokegrasp.harness import TrialConfig, annotations_for
from pokegrasp.imgeo import Ellipse
from pokegrasp.plan import (RING, SIMPLY_CONNECTED, GripperSpec, PokePlan, heuristic_grasp,
                            poking_point)

from conftest import overhead_camera
from test_imgeo import annulus_mask, disk_mask

GRIPPER = GripperSpec(maximum_gripper_width=0.085, finger_width=0.020)


class TestPokingPoint:
    def test_filled_disk_pokes_center(self):
        mask = disk_mask((100, 100), (50, 50), 20)
        plan = poking_point(mask)
        assert plan.point_px == (50, 50)
        assert plan.region_topology == SIMPLY_CONNECTED

    def test_annulus_pokes_rim(self):
        mask = annulus_mask((100, 100), (50, 50), 8, 12)
        plan = poking_point(mask)
        assert plan.region_topology == RING
        u, v = plan.point_px
        assert mask[v, u]
        # matches an exhaustive nearest scan from the fitted center
        cu, cv = plan.ellipse.centroid
        vs, us = np.nonzero(mask)
        d2 = (us - cu) ** 2 + (vs - cv) ** 2
        assert (u - cu) ** 2 + (v - cv) ** 2 == d2.min()
        assert abs(np.hypot(u - 50, v - 50) - 8.0) < 1.0

    def test_empty_mask(self):
        with pytest.raises(EmptyMask):
            poking_point(np.zeros((10, 10), dtype=bool))

    def test_translation_equivariance(self):
        base = annulus_mask((120, 120), (40, 38), 9, 13)
        moved = np.zeros_like(base)
        du, dv = 17, 23
        moved[dv:, du:] = base[:-dv, :-du]
        p0 = poking_point(base).point_px
        p1 = poking_point(moved).point_px
        assert (p0[0] + du, p0[1] + dv) == p1


@pytest.mark.parametrize("attempt", [0, 1, 2, 3, 8, 10])
def test_small_cup_ellipse_is_centred_on_the_rim(attempt):
    # the thin rim of an upright small disposable cup breaks into several
    # components; a fit to every boundary pixel still centres on the rim,
    # where a fit to the largest fragment alone lands 5-15 px off
    scene = benchmark_scene("small_disposable_cup", attempt, master_seed=0)
    cup = scene.objects[0]
    assert cup.pose.rotation[2, 2] == 1.0  # upright
    rim = cup.pose.translation + [0.0, 0.0, cup.shape.z_max]
    ellipse = annotations_for(scene, TrialConfig()).plan("pr").ellipse
    assert np.hypot(*np.subtract(ellipse.centroid, scene.camera.project(rim))) < 1.0


def ring_plan(ellipse):
    """The plan of an annulus of radii 30-36 px around the ellipse center:
    poked on its rim, with the center off the region."""
    return PokePlan(point_px=(353, 240), ellipse=ellipse, region_topology=RING)


def make_ring_setup(dist, z=0.10):
    """Ring plan whose fitted center is off the region, plus a camera and poke
    point placed exactly `dist` meters (horizontal) from the back-projected
    center."""
    cam = overhead_camera(height=0.6)
    ellipse = Ellipse(centroid=(320.0, 240.0), semi_major=33.0, semi_minor=33.0,
                      rotation_angle=0.4)
    center_world = cam.backproject_at_height(ellipse.centroid, z)
    poke_world = center_world + np.array([dist, 0.0, 0.0])
    return cam, ring_plan(ellipse), ellipse, poke_world, center_world


def overhead_bearing(angle):
    """World bearing of the image direction at ``angle`` under the untilted
    ``overhead_camera``: it maps +u to +x and +v to -y with fx == fy, so the
    direction (cos a, sin a) lands on (cos a, -sin a), bearing -a mod pi."""
    return (-angle) % np.pi


class TestHeuristicGrasp:
    def test_simply_connected_centroid_grasp(self):
        cam = overhead_camera()
        # the plan of a 25 px disk around the ellipse center
        ellipse = Ellipse(centroid=(320.0, 240.0), semi_major=25.0, semi_minor=25.0,
                          rotation_angle=1.0)
        plan = PokePlan(point_px=(320, 240), ellipse=ellipse, region_topology=SIMPLY_CONNECTED)
        poke_world = np.array([0.0, 0.0, 0.08])
        g = heuristic_grasp(poke_world, plan, cam, GRIPPER)
        assert g.kind == "centroid"
        assert (g.x, g.y, g.z) == (0.0, 0.0, 0.08)
        assert g.w == GRIPPER.maximum_gripper_width
        assert g.theta == pytest.approx(overhead_bearing(ellipse.rotation_angle), abs=1e-9)

    def test_ring_edge_grasp_width_is_twice_distance(self):
        cam, plan, ellipse, poke_world, _ = make_ring_setup(0.020)
        g = heuristic_grasp(poke_world, plan, cam, GRIPPER)
        assert g.kind == "edge"
        assert abs(g.w - 0.040) < 1e-12
        assert np.allclose([g.x, g.y, g.z], poke_world, atol=1e-12)
        # bearing of center->poke is +x here: theta == 0 mod pi
        assert min(g.theta, np.pi - g.theta) < 1e-9

    def test_ring_small_distance_falls_back_to_centroid(self):
        cam, plan, ellipse, poke_world, center_world = make_ring_setup(0.005)
        g = heuristic_grasp(poke_world, plan, cam, GRIPPER)
        assert g.kind == "centroid"
        assert np.allclose([g.x, g.y], center_world[:2], atol=1e-12)
        assert g.z == poke_world[2]
        assert g.w == GRIPPER.maximum_gripper_width
        assert g.theta == pytest.approx(overhead_bearing(ellipse.rotation_angle), abs=1e-9)

    def test_boundary_distance_takes_centroid_branch(self):
        half_fw = 0.5 * GRIPPER.finger_width
        cam, plan, ellipse, poke_world, _ = make_ring_setup(half_fw)
        assert heuristic_grasp(poke_world, plan, cam, GRIPPER).kind == "centroid"
        cam, plan, ellipse, poke_world, _ = make_ring_setup(half_fw - 1e-9)
        assert heuristic_grasp(poke_world, plan, cam, GRIPPER).kind == "centroid"
        cam, plan, ellipse, poke_world, _ = make_ring_setup(half_fw + 1e-9)
        assert heuristic_grasp(poke_world, plan, cam, GRIPPER).kind == "edge"

    def test_width_overflow_signaled(self):
        cam, plan, ellipse, poke_world, _ = make_ring_setup(0.050)  # 2 D = 0.1 > 0.085
        with pytest.raises(WidthOverflow):
            heuristic_grasp(poke_world, plan, cam, GRIPPER)

    def test_edge_theta_parallel_to_segment(self):
        rng = np.random.default_rng(9)
        cam = overhead_camera()
        ellipse = Ellipse(centroid=(320.0, 240.0), semi_major=33.0, semi_minor=33.0,
                          rotation_angle=0.0)
        plan = ring_plan(ellipse)
        z = 0.07
        center_world = cam.backproject_at_height(ellipse.centroid, z)
        for _ in range(50):
            ang = rng.uniform(0, 2 * np.pi)
            dist = rng.uniform(0.011, 0.042)
            poke_world = center_world + dist * np.array([np.cos(ang), np.sin(ang), 0.0])
            g = heuristic_grasp(poke_world, plan, cam, GRIPPER)
            assert g.kind == "edge"
            diff = (g.theta - ang) % np.pi
            assert min(diff, np.pi - diff) < 1e-9
            assert abs(g.w - 2 * dist) < 1e-12


def test_grasp_proposal_json():
    cam, plan, ellipse, poke_world, _ = make_ring_setup(0.02)
    g = heuristic_grasp(poke_world, plan, cam, GRIPPER)
    d = g.to_json()
    assert set(d) == {"x", "y", "z", "w", "theta", "kind"}
    assert d["kind"] == "edge"


@pytest.mark.parametrize("field", ["maximum_gripper_width", "finger_width"])
def test_gripper_spec_rejects_non_finite(field):
    # with finger_width NaN the bound err >= 0.5 * nan never held: every
    # grasp that crossed the wall succeeded
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidConfig, match="finite"):
            GripperSpec(**{field: value})
