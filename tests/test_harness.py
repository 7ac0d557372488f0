import dataclasses
import hashlib
import json
import weakref

import numpy as np
import pytest

from pokegrasp.catalog import CATALOG, SIDE, UPRIGHT, UPSIDE_DOWN, benchmark_scene, \
    benchmark_scene_set, catalog_entry, default_camera, make_object, small_vial_scene
from pokegrasp.errors import InvalidConfig, InvalidGeometry, ShapeMismatch
from pokegrasp.geometry import RigidTransform, rot_x, rot_z
from pokegrasp import harness
from pokegrasp.harness import FAILURE, POKE_GUIDANCE_MODES, SIDE_INSIDE_TOL, SUCCESS, TOPPLE, \
    TrialConfig, _contact_dot, _convex_hull, _footprint_heights, annotations_for, \
    calibration_shift, corrupt_depth, poke_pixel_for_guidance, run_benchmark, \
    run_grasp_trial, run_poke_trial, scene_top_z, simulate_grasp, simulate_poke, tipping_arms, \
    tipping_max_force
from pokegrasp.plan import GraspProposal
from pokegrasp.render import RenderBuffers, compile_primitives, render, top_height_bound, \
    top_heights
from pokegrasp.scene import Box, ObjectModel, RevolutionProfile, Scene
from pokegrasp.seeding import rng_for
from pokegrasp.tactile import TactileSensorSpec, detect_contact, frame_from_heights


def inline_corrupt_depth(buffers, scene, rng, dropout, sigma):
    """corrupt_depth with the per-call pixel grid it built before the camera
    cached one."""
    cam = scene.camera
    depth = buffers.depth.copy()
    obj_px = buffers.instance > 0
    h, w = depth.shape
    uu, vv = np.meshgrid(np.arange(w, dtype=np.float64), np.arange(h, dtype=np.float64))
    d_cam = np.stack([(uu - cam.cx) / cam.fx, (vv - cam.cy) / cam.fy, np.ones_like(uu)], axis=-1)
    d_world = d_cam.reshape(-1, 3) @ cam.pose.rotation.T
    d_world /= np.linalg.norm(d_world, axis=-1, keepdims=True)
    dz = d_world[:, 2].reshape(h, w)
    with np.errstate(divide="ignore"):
        t_table = (scene.table_height - cam.pose.translation[2]) / dz
    drop = obj_px & (rng.random(depth.shape) < dropout) & (dz < 0)
    depth[drop] = t_table[drop]
    survive = obj_px & ~drop
    depth[survive] += rng.normal(0.0, sigma, size=int(survive.sum()))
    return depth


class TestCorruptDepth:
    def test_matches_inline_pixel_grid(self):
        scene = benchmark_scene("mug", 8, master_seed=0)
        buf = render(scene)
        got = corrupt_depth(buf, scene, np.random.default_rng(7), 0.7, 0.01)
        expected = inline_corrupt_depth(buf, scene, np.random.default_rng(7), 0.7, 0.01)
        assert got.tobytes() == expected.tobytes()

    def test_shape_mismatch(self):
        scene = benchmark_scene("vial", 0, master_seed=0)
        buf = render(scene)
        cropped = RenderBuffers(depth=buf.depth[:-1], normals=buf.normals[:-1],
                                instance=buf.instance[:-1])
        with pytest.raises(ShapeMismatch):
            corrupt_depth(cropped, scene, np.random.default_rng(0), 0.7, 0.01)


def test_contact_dot_on_side_lying_barrel():
    # barrel axis along world y at height r: the surface above x = r sin(phi)
    # has a normal whose z component is cos(phi)
    r = 0.035
    barrel = ObjectModel(id=1, shape=RevolutionProfile(points=((r, 0.0), (r, 0.12))), mass=0.3,
                         pose=RigidTransform(rot_x(np.pi / 2), [0.0, 0.06, r]))
    scene = Scene(camera=default_camera(), objects=(barrel,))
    for phi in (0.0, 0.3, 0.9):
        x = r * np.sin(phi)
        contact = np.array([x, 0.0, r + r * np.cos(phi)])
        assert abs(_contact_dot(scene, 1, contact) - np.cos(phi)) < 1e-9


def test_small_tables_run_without_raising():
    # a light cup that topples and a heavy one that holds: pokes reach contact
    scenes = benchmark_scene_set(names=("big_disposable_cup", "highball_cup"), attempts=2)
    poke = run_benchmark(scenes, POKE_GUIDANCE_MODES, 2, TrialConfig(), task="poke")
    grasp = run_benchmark(scenes, ("tactile",), 2, TrialConfig(), task="grasp")
    assert len(poke.trials) == 12 and len(grasp.trials) == 4
    statuses = {t["outcome"]["status"] for t in poke.trials}
    assert {SUCCESS, TOPPLE} <= statuses
    assert grasp.successes("tactile") > 0


@pytest.mark.parametrize("field, value", [("coarse_step", 0.0), ("descent_step", 0.0),
                                          ("value_threshold", -1e-6), ("count_threshold", -1)])
def test_trial_config_rejects_bad_probe_settings(field, value):
    # a zero step would never leave simulate_poke's descent loop
    with pytest.raises(InvalidConfig):
        TrialConfig(**{field: value})


def test_trial_config_rejects_negative_depth_sigma():
    # corrupt_depth would raise numpy's "scale < 0" in the middle of a table
    with pytest.raises(InvalidConfig):
        TrialConfig(depth_sigma=-0.01)
    assert TrialConfig(depth_sigma=0.0).depth_sigma == 0.0


@pytest.mark.parametrize("value", [-0.1, 1.5])
def test_trial_config_rejects_depth_dropout_outside_unit_interval(value):
    with pytest.raises(InvalidConfig):
        TrialConfig(depth_dropout=value)
    assert TrialConfig(depth_dropout=0.0).depth_dropout == 0.0
    assert TrialConfig(depth_dropout=1.0).depth_dropout == 1.0


FLOAT_FIELDS = ("h_stop", "f_stop", "calib_range", "adhesion_prob", "value_threshold",
                "descent_step", "coarse_step", "descend_offset", "depth_dropout", "depth_sigma",
                "tau_dot", "h_min", "contact_dot_min")


def test_float_fields_are_the_ones_checked_for_finiteness():
    assert set(FLOAT_FIELDS) == {f.name for f in dataclasses.fields(TrialConfig)
                                 if isinstance(f.default, float)}


@pytest.mark.parametrize("field", FLOAT_FIELDS)
def test_trial_config_rejects_non_finite(field):
    # with h_stop or coarse_step NaN the descent loop never ran: every poke
    # ended as a silent miss
    for value in (np.nan, np.inf, -np.inf, np.float32("nan")):
        with pytest.raises(InvalidConfig, match=field):
            TrialConfig(**{field: value})


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_no_surface_rises_above_scene_top_z(entry):
    """simulate_poke skips probes within value_threshold of scene_top_z; that
    is sound only while no sensel column reads a height above it."""
    spec = TactileSensorSpec()
    rng = rng_for(0, 0x70B, CATALOG.index(entry))
    if isinstance(entry.shape, Box):
        r = max(entry.shape.size[:2]) / 2.0
        axis_z = (0.0, entry.shape.size[2] / 2.0, entry.shape.size[2])
    else:
        r = entry.shape.max_radius
        z0, z1 = entry.shape.z_min, entry.shape.z_max
        axis_z = (z0, (z0 + z1) / 2.0, z1)
    # sensor footprints centred on the axis ends and middle, and a radius off
    # the axis to either side: they cover rims, caps and side-lying top lines
    local = np.array([[x, y, z] for z in axis_z
                      for x, y in ((0, 0), (r, 0), (-r, 0), (0, r), (0, -r))])
    for orientation in (UPRIGHT, UPSIDE_DOWN, SIDE):
        for yaw in rng.uniform(0.0, 2.0 * np.pi, size=3):
            obj = make_object(entry, orientation, 0.01, -0.02, float(yaw))
            scene = Scene(camera=default_camera(), objects=(obj,))
            top = scene_top_z(scene)
            highest = max(float(_footprint_heights(scene, spec, c)[0].max())
                          for c in obj.pose.apply(local))
            assert highest <= top + 1e-9
            assert highest > top - 1e-5  # the footprints reach the top surface


def footprint_radii(entry) -> tuple:
    """Footprint centre distances from the axis: on the axis, inside the
    bore, across the rim, on the outer wall and beside the object."""
    beside = TactileSensorSpec().area_x
    if isinstance(entry.shape, Box):
        r = max(entry.shape.size[:2]) / 2.0
        return 0.0, r / 2.0, min(entry.shape.size[:2]) / 2.0, r, r + beside
    bore = entry.shape.top_radius - entry.wall_thickness
    return (0.0, bore / 2.0, bore + entry.wall_thickness / 2.0, entry.shape.max_radius,
            entry.shape.max_radius + beside)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_top_height_bound_covers_every_footprint(entry):
    """simulate_poke skips a probe within value_threshold of the bound over
    its footprint; that is sound only while no sensel reads above it."""
    spec = TactileSensorSpec()
    half = np.array([spec.area_x, spec.area_y]) / 2.0
    rng = rng_for(0, 0xB0D, CATALOG.index(entry))
    z1 = entry.shape.z_max
    bounds = []
    for orientation in (UPRIGHT, UPSIDE_DOWN, SIDE):
        for yaw in rng.uniform(0.0, 2.0 * np.pi, size=3):
            obj = make_object(entry, orientation, 0.01, -0.02, float(yaw))
            scene = Scene(camera=default_camera(), objects=(obj,))
            # three seeded azimuths, at the base, the middle and the top of
            # the axis (the level matters only when the axis is not vertical)
            azimuths = rng.uniform(0.0, 2.0 * np.pi, size=3)
            local = np.array([[rho * np.cos(a), rho * np.sin(a), z]
                              for rho in footprint_radii(entry)
                              for a, z in zip(azimuths, (0.0, z1 / 2.0, z1))])
            for c in obj.pose.apply(local):
                highest = float(_footprint_heights(scene, spec, c)[0].max())
                bound = top_height_bound(scene.objects, c[:2] - half, c[:2] + half)
                assert highest <= bound + 1e-9
                assert bound <= scene_top_z(scene)
                bounds.append(bound)
    if not isinstance(entry.shape, Box):
        # beside an upright or upside-down object nothing can be touched
        assert -np.inf in bounds


def primitive_world_zs(obj) -> list:
    """World z of every primitive's local heights, taken on the axis."""
    local_zs = []
    for prim in compile_primitives(obj):
        if prim[0] == "disk":
            local_zs.append(prim[1])
        elif prim[0] == "frustum":
            local_zs += [prim[2], prim[4]]
        else:
            local_zs += [0.0, prim[3]]
    return [float(obj.pose.apply(np.array([0.0, 0.0, z]))[2]) for z in local_zs]


def primitive_radii(obj) -> list:
    """End radii of every profile segment a primitive sweeps."""
    radii = set()
    for prim in compile_primitives(obj):
        if prim[0] == "disk":
            radii.update(prim[2:4])
        elif prim[0] == "frustum":
            radii.update((prim[1], prim[3]))
    return sorted(r for r in radii if r > 0)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_floored_top_heights_equal_the_full_query(entry):
    """A floored query casts only the columns that can rise above the floor;
    every column must read what the full query reads, or -inf / 0 where that
    is not above the floor."""
    spec = TactileSensorSpec(res_x=40, res_y=30)
    cfg = TrialConfig()
    rng = rng_for(0, 0xF10, CATALOG.index(entry))
    z1 = entry.shape.z_max
    for orientation in (UPRIGHT, UPSIDE_DOWN, SIDE):
        for yaw in rng.uniform(0.0, 2.0 * np.pi, size=3):
            obj = make_object(entry, orientation, 0.01, -0.02, float(yaw))
            scene = Scene(camera=default_camera(), objects=(obj,))
            azimuths = rng.uniform(0.0, 2.0 * np.pi, size=3)
            centers = obj.pose.apply(np.array([[rho * np.cos(a), rho * np.sin(a), z]
                                               for rho in footprint_radii(entry)
                                               for a, z in zip(azimuths, (0.0, z1 / 2.0, z1))]))
            footprints = [spec.sensel_offsets + c[:2] for c in centers]
            # columns on every segment end radius, where the cast is most sensitive
            ring = rng.uniform(0.0, 2.0 * np.pi) + np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
            edges = np.array([[r * np.cos(a), r * np.sin(a), 0.0]
                              for r in primitive_radii(obj) for a in ring]).reshape(-1, 3)
            xy = np.concatenate(footprints + [obj.pose.apply(edges)[:, :2]])
            top = scene_top_z(scene)
            z_start = top + 0.01
            full, ids = top_heights(scene.objects, xy, z_start=z_start)
            floors = {-np.inf, top - cfg.value_threshold, (scene.table_height + top) / 2.0}
            floors.update(z + e for z in primitive_world_zs(obj) for e in (-1e-12, 0.0, 1e-12))
            for f in sorted(floors):
                got, got_ids = top_heights(scene.objects, xy, z_start=z_start, floor=f)
                above = full > f
                assert got.tobytes() == np.where(above, full, -np.inf).tobytes(), f
                assert got_ids.tobytes() == np.where(above, ids, 0).tobytes(), f


def march(z: float, step: float, h_stop: float):
    """The heights simulate_poke's descent steps through from z."""
    while z >= h_stop - 1e-12:
        yield z
        z -= step


@pytest.mark.parametrize("name, attempt", [("jar", 0), ("mug", 5), ("champagne_cup", 0),
                                           ("rectangular_cup", 8)])
def test_probes_the_bound_skips_count_no_sensel(name, attempt):
    """Cast every coarse and fine probe height the bound skips, along each
    guidance pixel's view ray, and check that none counts a sensel."""
    scene = benchmark_scene(name, attempt, master_seed=0)
    cfg = TrialConfig()
    spec = cfg.sensor
    half = np.array([spec.area_x, spec.area_y]) / 2.0
    reference = np.zeros((spec.res_y, spec.res_x))
    _, anns = annotations_for(scene, cfg)
    plans = [poke_pixel_for_guidance(anns[0], g) for g in POKE_GUIDANCE_MODES]
    z_top = scene_top_z(scene) + cfg.coarse_step
    skipped = 0
    for px in sorted({plan.point_px for plan in plans if plan is not None}):
        origin, direction = scene.camera.pixel_ray(px)

        def center_at(z):
            center = origin + (z - origin[2]) / direction[2] * direction
            center[2] = z
            return center

        def count_at(z):
            heights, _, _ = _footprint_heights(scene, spec, center_at(z))
            frame = frame_from_heights(heights, spec, center_at(z))
            return detect_contact(reference, frame.image, cfg.value_threshold,
                                  cfg.count_threshold)[1]

        def skips(z):
            c = center_at(z)[:2]
            return z >= top_height_bound(scene.objects, c - half, c + half) \
                - cfg.value_threshold + 1e-9

        first_touch = None
        for z in march(z_top, cfg.coarse_step, cfg.h_stop):
            if skips(z):
                assert count_at(z) == 0, z
                skipped += 1
            elif first_touch is None and count_at(z) > 0:
                first_touch = z
        fine_start = z_top if first_touch is None else min(first_touch + cfg.coarse_step, z_top)
        for z in march(fine_start, cfg.descent_step, cfg.h_stop):
            if skips(z):
                assert count_at(z) == 0, z
                skipped += 1
    assert skipped >= 5


def test_contact_probe_carries_the_sensor_posed_at_the_contact():
    # the contact frame carries the centre of the probe that fired: the view
    # ray's point at the stop height, with the stop height itself as its z
    scene = benchmark_scene("jar", 0, master_seed=0)
    cfg = TrialConfig()
    _, anns = annotations_for(scene, cfg)
    plan = poke_pixel_for_guidance(anns[0], "pr")
    outcome = simulate_poke(scene, plan, cfg)
    assert outcome.status in (SUCCESS, TOPPLE)
    center = outcome.frame.center
    assert center[2] == outcome.stop_z
    origin, direction = scene.camera.pixel_ray(plan.point_px)
    on_ray = origin + (outcome.stop_z - origin[2]) / direction[2] * direction
    assert center[:2].tobytes() == on_ray[:2].tobytes()
    grid = cfg.sensor.sensel_offsets + center[:2]
    assert np.any(np.all(grid == outcome.contact_point[:2], axis=1))


def face_down_sensel_xy(spec, center) -> np.ndarray:
    """Reference sensel (x, y) of a face-down sensor at yaw 0 as a rigid
    pose: the local grid (x_j, y_i, 0) rotated by rot_z(0) @ diag(1, -1, -1),
    then moved to ``center``."""
    xs = (np.arange(spec.res_x) + 0.5) * spec.pitch_x - spec.area_x / 2.0
    ys = (np.arange(spec.res_y) + 0.5) * spec.pitch_y - spec.area_y / 2.0
    xx, yy = np.meshgrid(xs, ys)
    local = np.stack([xx, yy, np.zeros_like(xx)], axis=-1).reshape(-1, 3)
    offsets = local @ (rot_z(0.0) @ np.diag([1.0, -1.0, -1.0])).T
    return offsets[:, :2] + np.asarray(center)[:2]


def test_footprint_sensels_match_the_posed_grid():
    # the offsets are built once per sensor spec, and they equal the face-down
    # sensor's rotated grid to the last bit
    scene = benchmark_scene("jar", 0, master_seed=0)
    for spec in (TactileSensorSpec(res_x=32, res_y=24), TactileSensorSpec()):
        shape = (spec.res_y, spec.res_x, 2)
        for center in ([0.01, -0.02, 0.05], [-0.031, 0.007, 0.12]):
            _, _, xy = _footprint_heights(scene, spec, np.array(center))
            assert xy.tobytes() == face_down_sensel_xy(spec, center).reshape(shape).tobytes()
        assert spec.sensel_offsets.tobytes() == face_down_sensel_xy(spec, (0.0, 0.0)).tobytes()


class TestTippingStatics:
    """Closed-form tipping arms on the three support kinds."""

    def test_max_force_is_torque_balance(self):
        assert tipping_max_force(2.0, 0.03, 0.01) == pytest.approx(6.0)
        with pytest.raises(InvalidGeometry):
            tipping_max_force(2.0, 0.03, 0.0)

    def test_circle_support(self):
        # upright cylinder: pivot on the base circle, centre of mass on the axis
        r = 0.03
        cup = ObjectModel(id=1, shape=RevolutionProfile(points=((r, 0.0), (0.04, 0.1))),
                          mass=0.1, pose=RigidTransform(rot_z(0.7), [0.02, -0.01, 0.0]))
        axis = np.array([0.02, -0.01])
        for phi, rho in ((0.0, 0.035), (2.0, 0.04), (-2.5, 0.031)):
            contact = axis + rho * np.array([np.cos(phi), np.sin(phi)])
            inside, d1, d2 = tipping_arms(cup, contact)
            assert not inside
            assert d1 == pytest.approx(r, abs=1e-12)
            assert d2 == pytest.approx(rho - r, abs=1e-12)
        assert tipping_arms(cup, axis + [0.01, 0.02]) == (True, 0.0, 0.0)

    def test_circle_support_upside_down(self):
        # resting on its rim: the support circle has the top radius
        cup = ObjectModel(id=1, shape=RevolutionProfile(points=((0.03, 0.0), (0.04, 0.1))),
                          mass=0.1, pose=RigidTransform(rot_x(np.pi), [0.0, 0.0, 0.1]))
        inside, d1, d2 = tipping_arms(cup, np.array([0.0, 0.05]))
        assert not inside
        assert d1 == pytest.approx(0.04, abs=1e-12)
        assert d2 == pytest.approx(0.01, abs=1e-12)
        assert tipping_arms(cup, np.array([0.035, 0.0])) == (True, 0.0, 0.0)

    def test_segment_support(self):
        # side-lying barrel along world y: the support is its bottom line
        r, length = 0.035, 0.12
        barrel = ObjectModel(id=1, shape=RevolutionProfile(points=((r, 0.0), (r, length))),
                             mass=0.3, pose=RigidTransform(rot_x(-np.pi / 2), [0.0, 0.0, r]))
        # beside the line: the centre of mass is above the pivot, no arm
        inside, d1, d2 = tipping_arms(barrel, np.array([0.02, 0.05]))
        assert not inside
        assert d1 == pytest.approx(0.0, abs=1e-12)
        assert d2 == pytest.approx(0.02, abs=1e-12)
        # past the far end: pivot at the end, centre of mass half a length back
        inside, d1, d2 = tipping_arms(barrel, np.array([0.0, length + 0.01]))
        assert not inside
        assert d1 == pytest.approx(length / 2.0, abs=1e-12)
        assert d2 == pytest.approx(0.01, abs=1e-12)
        assert tipping_arms(barrel, np.array([SIDE_INSIDE_TOL / 2, 0.06])) == (True, 0.0, 0.0)

    def test_polygon_support(self):
        w, d, h = 0.05, 0.08, 0.1
        yaw = 0.4
        box = ObjectModel(id=1, shape=Box(size=(w, d, h)), mass=0.2,
                          pose=RigidTransform(rot_z(yaw), [0.01, 0.02, 0.0]))
        c, s = np.cos(yaw), np.sin(yaw)
        ex, ey = np.array([c, s]), np.array([-s, c])
        center = np.array([0.01, 0.02])
        # off the +x face, between its corners: pivot on that edge
        inside, d1, d2 = tipping_arms(box, center + (w / 2 + 0.015) * ex + 0.01 * ey)
        assert not inside
        assert d1 == pytest.approx(w / 2, abs=1e-12)
        assert d2 == pytest.approx(0.015, abs=1e-12)
        # diagonally off a corner: the corner is the pivot
        corner = center + (w / 2) * ex + (d / 2) * ey
        inside, d1, d2 = tipping_arms(box, corner + 0.006 * ex + 0.008 * ey)
        u = (0.006 * ex + 0.008 * ey) / 0.01
        assert not inside
        assert d2 == pytest.approx(0.01, abs=1e-12)
        assert d1 == pytest.approx(float((corner - center) @ u), abs=1e-12)
        assert tipping_arms(box, center + 0.02 * ex - 0.03 * ey) == (True, 0.0, 0.0)


def test_convex_hull_drops_interior_and_collinear_points():
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]
    extra = [[0.5, 0.5], [0.5, 0.0], [1.0, 0.25], [0.2, 0.7]]
    hull = _convex_hull(np.array(extra + square[::-1]))
    assert hull.tolist() == square


class TestSimulateGraspReasons:
    """One hand-built proposal per outcome, against an upright mug (outer
    radius 0.040, wall 0.0035, so the bore radius is 0.0365, the cavity
    floor sits at z = 0.0035 and the rim at z = 0.095) and an upright
    0.05 x 0.07 x 0.08 box. Edge proposals with theta = 0 close along
    world x: the fingers descend at x +- w/2, each sweeping y in
    +-finger_width/2 = +-0.01, to z = grasp.z - descend_offset = grasp.z - 0.02."""

    cfg = TrialConfig()
    r_in, r_out, rim_z = 0.0365, 0.040, 0.095

    def mug_scene(self):
        mug = make_object(catalog_entry("mug"), UPRIGHT, 0.0, 0.0, 0.0)
        return Scene(camera=default_camera(), objects=(mug,))

    def box_scene(self):
        box = ObjectModel(id=1, shape=Box(size=(0.05, 0.07, 0.08)), mass=0.16,
                          pose=RigidTransform.identity())
        return Scene(camera=default_camera(), objects=(box,))

    def edge(self, x, w, z=0.095):
        return GraspProposal(x=x, y=0.0, z=z, w=w, theta=0.0, kind="edge")

    def test_finger_over_the_rim_collides(self):
        # tips at x = +-0.038: both sweeps stay within the rim annulus
        # (0.038 <= rho <= hypot(0.038, 0.01) = 0.0393 < 0.040), whose top
        # z = 0.095 is above the closing height 0.075
        out = simulate_grasp(self.mug_scene(), self.edge(0.0, 0.076), self.cfg)
        assert (out.status, out.reason) == (FAILURE, "descent_collision")

    def test_closing_inside_the_bore_touches_nothing(self):
        # tips at x = +-0.03: the sweeps stay over the cavity floor
        # (rho <= hypot(0.03, 0.01) = 0.0316 < 0.0365, top z = 0.0035), and the
        # whole closing segment at z = 0.075 lies in the open bore
        assert np.hypot(0.03, 0.01) < self.r_in
        out = simulate_grasp(self.mug_scene(), self.edge(0.0, 0.06), self.cfg)
        assert (out.status, out.reason) == (FAILURE, "no_contact")

    def test_closing_at_the_top_face_starts_inside(self):
        # the closing height sits within 1e-9 below the box top (z = 0.08):
        # the top face does not rise above it, so the descent is clear, but
        # the segment's start x = 0.005 lies on the box (|x| <= 0.025)
        z = 0.08 + self.cfg.descend_offset - 5e-10
        out = simulate_grasp(self.box_scene(), self.edge(0.02, 0.03, z=z), self.cfg)
        assert (out.status, out.reason) == (FAILURE, "finger_inside_object")

    def test_off_centre_edge_grasp_is_a_localization_error(self):
        # tips at x = 0.03 (bore) and x = 0.07 (beside the mug): the segment
        # crosses the wall on [0.0365, 0.040], whose midpoint 0.03825 lies
        # 0.01175 from the grasp centre, beyond half a finger width (0.01)
        out = simulate_grasp(self.mug_scene(), self.edge(0.05, 0.04), self.cfg)
        assert (out.status, out.reason) == (FAILURE, "localization_error")
        step = 0.04 / 800  # spacing of the closing-segment samples
        assert out.localization_error == pytest.approx(0.05 - (self.r_in + self.r_out) / 2,
                                                       abs=step)
        assert out.localization_error >= self.cfg.gripper.finger_width / 2

    def test_edge_grasp_across_the_rim_succeeds(self):
        # tips at x = 0.0283 (bore: rho <= 0.0300) and x = 0.0483 (beside):
        # the wall midpoint 0.03825 is 5e-5 from the centre
        out = simulate_grasp(self.mug_scene(), self.edge(0.0383, 0.02), self.cfg)
        assert (out.status, out.reason) == (SUCCESS, "")
        assert out.localization_error == pytest.approx(0.0383 - (self.r_in + self.r_out) / 2,
                                                       abs=0.02 / 800)

    def test_centroid_grasp_across_the_box_succeeds(self):
        # a centroid proposal closes perpendicular to theta, here along
        # world y: the tips at y = +-0.04 clear the box (|y| <= 0.035) and
        # the segment crosses it symmetrically about the centre
        grasp = GraspProposal(x=0.0, y=0.0, z=0.08, w=0.08, theta=0.0, kind="centroid")
        out = simulate_grasp(self.box_scene(), grasp, self.cfg)
        assert (out.status, out.reason) == (SUCCESS, "")
        assert out.localization_error == pytest.approx(0.0, abs=0.08 / 800)


# ---------------------------------------------------------------------------
# the plans and pokes shared by the trials on one PreparedScene
# ---------------------------------------------------------------------------

def counted(monkeypatch, name: str) -> list:
    """Replace ``harness.<name>`` by a wrapper that logs each call."""
    calls = []
    original = getattr(harness, name)

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, name, wrapper)
    return calls


def as_json(outcomes) -> str:
    return json.dumps([o.to_json() for o in outcomes], sort_keys=True)


# (trial, mode, seed): every poke and grasp mode, the pr poke before the tactile grasp
ALL_TRIALS = ((run_poke_trial, "bbox", 11), (run_poke_trial, "mask", 12),
              (run_poke_trial, "pr", 13), (run_grasp_trial, "tactile", 14),
              (run_grasp_trial, "camera-pr", 15), (run_grasp_trial, "camera-mask", 16))


@pytest.mark.parametrize("name, attempt", [("big_disposable_cup", 0), ("jar", 0),
                                           ("rectangular_cup", 8), ("mug", 5)])
def test_shared_trials_equal_fresh_ones(name, attempt, monkeypatch):
    scene = benchmark_scene(name, attempt, master_seed=0)
    cfg = TrialConfig()
    fresh = [trial(scene, cfg, seed, mode) for trial, mode, seed in ALL_TRIALS]
    _, anns = annotations_for(scene, cfg)
    pixels = {poke_pixel_for_guidance(anns[0], g).point_px for g in POKE_GUIDANCE_MODES}
    pokes = counted(monkeypatch, "simulate_poke")
    plans = counted(monkeypatch, "poking_point")
    prepared = annotations_for(scene, cfg)
    shared = [trial(scene, cfg, seed, mode, prepared=prepared) for trial, mode, seed in ALL_TRIALS]
    assert as_json(shared) == as_json(fresh)
    # one poke per pixel: the tactile grasp reuses the pr poke
    assert len(pokes) == len(pixels)
    # one plan per region: poking_region (pr, tactile, camera-pr) and mask (camera-mask)
    assert len(plans) == 2


def test_bbox_and_mask_pokes_on_one_pixel_share_the_poke(monkeypatch):
    scene = benchmark_scene("big_disposable_cup", 0, master_seed=0)
    cfg = TrialConfig()
    fresh = [run_poke_trial(scene, cfg, seed, mode) for mode, seed in (("bbox", 3), ("mask", 4))]
    pokes = counted(monkeypatch, "simulate_poke")
    prepared = annotations_for(scene, cfg)
    ann = prepared.anns[0]
    assert poke_pixel_for_guidance(ann, "bbox").point_px == \
        poke_pixel_for_guidance(ann, "mask").point_px
    shared = [run_poke_trial(scene, cfg, seed, mode, prepared=prepared)
              for mode, seed in (("bbox", 3), ("mask", 4))]
    assert as_json(shared) == as_json(fresh)
    assert len(pokes) == 1


def test_each_shared_outcome_carries_its_own_seed(monkeypatch):
    scene = benchmark_scene("jar", 0, master_seed=0)
    cfg = TrialConfig()
    pokes = counted(monkeypatch, "simulate_poke")
    prepared = annotations_for(scene, cfg)
    first, second, third = (run_poke_trial(scene, cfg, seed, "pr", prepared=prepared)
                            for seed in (5, 6, 7))
    assert len(pokes) == 1
    assert (first.seed, second.seed, third.seed) == (5, 6, 7)
    assert first.status in (SUCCESS, TOPPLE)
    for out in (second, third):
        assert dataclasses.replace(out, seed=first.seed).to_json() == first.to_json()
    # the shared arrays cannot be changed through any one outcome
    for out in (first, second, third):
        assert not out.contact_point.flags.writeable
        assert not out.frame.image.flags.writeable
        assert not out.frame.center.flags.writeable


def test_pokes_with_different_shifts_are_not_shared(monkeypatch):
    scene = benchmark_scene("jar", 0, master_seed=0)
    cfg = TrialConfig(calib_range=0.01)
    seeds = (21, 22)
    shifts = [calibration_shift(cfg, s) for s in seeds]
    assert shifts[0] != shifts[1]
    fresh = [run_poke_trial(scene, cfg, s, "pr") for s in seeds] \
        + [run_grasp_trial(scene, cfg, s, "tactile") for s in seeds]
    pokes = counted(monkeypatch, "simulate_poke")
    prepared = annotations_for(scene, cfg)
    shared = [run_poke_trial(scene, cfg, s, "pr", prepared=prepared) for s in seeds] \
        + [run_grasp_trial(scene, cfg, s, "tactile", prepared=prepared) for s in seeds]
    assert as_json(shared) == as_json(fresh)
    # one poke per shift: a grasp shares the poke of the trial with its seed
    assert len(pokes) == 2


def test_a_preparation_for_another_scene_or_cfg_is_not_reused(monkeypatch):
    scene = benchmark_scene("jar", 0, master_seed=0)
    cfg = TrialConfig()
    fresh = as_json([run_poke_trial(scene, cfg, 1, "pr"), run_grasp_trial(scene, cfg, 2, "tactile")])
    own = annotations_for(scene, cfg)
    foreign = {"an equal cfg": annotations_for(scene, TrialConfig()),
               "an equal scene": annotations_for(benchmark_scene("jar", 0, master_seed=0), cfg),
               "a plain tuple": tuple(own)}
    for label, prepared in foreign.items():
        pokes = counted(monkeypatch, "simulate_poke")
        plans = counted(monkeypatch, "poking_point")
        got = [run_poke_trial(scene, cfg, 1, "pr", prepared=prepared),
               run_grasp_trial(scene, cfg, 2, "tactile", prepared=prepared)]
        assert as_json(got) == fresh, label
        assert (len(pokes), len(plans)) == (2, 2), label
        monkeypatch.undo()
    buffers, anns = own
    assert buffers is own.buffers and anns is own.anns


def test_run_benchmark_drops_an_objects_preparations_after_it(monkeypatch):
    # the preparations, with their memoised frames, held for a whole table
    # took a full poke table from about 105 to 410 MB of peak memory
    scenes = {name: [benchmark_scene(name, a, master_seed=0) for a in (0, 4)]
              for name in ("jar", "mug")}
    prepared, alive_at_call = [], []
    original = harness.annotations_for

    def tracked(scene, cfg):
        alive_at_call.append(sum(ref() is not None for ref in prepared))
        out = original(scene, cfg)
        prepared.append(weakref.ref(out))
        return out

    monkeypatch.setattr(harness, "annotations_for", tracked)
    run_benchmark(scenes, POKE_GUIDANCE_MODES, 2, TrialConfig(), task="poke")
    assert alive_at_call == [0, 1, 0, 1]


# SHA-256 of the sorted-key JSON of 24 tactile grasps, then 24 pr pokes, at
# seeds 0-23 on the small vial with calibration error and tactile alignment
CALIBRATION_ABLATION_SHA256 = "904c18cc6088b1c5a4cd6c606c67d32e25b52d323895bed0842684fd5df06dcb"


def test_calibration_ablation_is_pinned():
    """The calibration-error ablation: an x offset of up to 15 mm on every
    executed motion, with the ring alignment rectifying the centroid grasp."""
    scene = small_vial_scene()
    cfg = TrialConfig(calib_range=0.015, use_tactile_align=True)
    prepared = annotations_for(scene, cfg)
    grasps = [run_grasp_trial(scene, cfg, s, "tactile", prepared=prepared) for s in range(24)]
    pokes = [run_poke_trial(scene, cfg, s, "pr", prepared=prepared) for s in range(24)]
    digest = hashlib.sha256(as_json(grasps + pokes).encode()).hexdigest()
    assert digest == CALIBRATION_ABLATION_SHA256
    # the same trials without alignment: the render and annotations are reused
    off = TrialConfig(calib_range=0.015)
    unaligned = [run_grasp_trial(scene, off, s, "tactile", prepared=prepared) for s in range(12)]
    assert sum(g.status == SUCCESS for g in grasps[:12]) \
        > sum(g.status == SUCCESS for g in unaligned)
