import dataclasses
import importlib
import json
import weakref
from collections import Counter

import numpy as np
import pytest

from pokegrasp.catalog import CATALOG, OBJECT_NAMES, SIDE, UPRIGHT, UPSIDE_DOWN, benchmark_scene, \
    benchmark_scene_set, catalog_entry, default_camera, make_object
from pokegrasp.errors import InvalidConfig, InvalidGeometry, ShapeMismatch
from pokegrasp.geometry import RigidTransform, rot_x, rot_y, rot_z
from pokegrasp import harness
from pokegrasp.harness import COARSE_STEP, CONTACT_DOT_MIN, DESCEND_OFFSET, DESCENT_STEP, \
    F_STOP, FAILURE, GRASP_MODES, GRIPPER, H_STOP, MISS, POKE_GUIDANCE_MODES, SENSOR, \
    SIDE_INSIDE_TOL, SUCCESS, TOPPLE, PokeOutcome, PreparedScene, TrialConfig, _contact, \
    _contact_dot, _footprint_heights, annotations_for, corrupt_depth, \
    poke_would_topple, run_benchmark, run_grasp_trial, run_poke_trial, simulate_grasp, \
    simulate_poke, tipping_arms, tipping_max_force
from pokegrasp.plan import SIMPLY_CONNECTED, GraspProposal, PokePlan, heuristic_grasp
from pokegrasp.regions import pixel_ray_dz, poking_region, surface_heights
from pokegrasp.render import _CORNER_HIGH, _local_box, column_start, compile_primitives, \
    intersect_object, render, rises_above, scene_top_z, top_heights
from pokegrasp.scene import Box, ObjectModel, RevolutionProfile, Scene
from pokegrasp.seeding import rng_for
from pokegrasp.tactile import DEFAULT_COUNT_THRESHOLD, DEFAULT_VALUE_THRESHOLD, \
    TactileSensorSpec, detect_contact, frame_from_heights

from conftest import overhead_camera
from test_golden import _digest, golden_pins, pinned_tables

# the module, which the package's ``render`` function shadows as an attribute
render_module = importlib.import_module("pokegrasp.render")


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
        t_table = (0.0 - cam.pose.translation[2]) / dz
    drop = obj_px & (rng.random(depth.shape) < dropout) & (dz < 0)
    depth[drop] = t_table[drop]
    survive = obj_px & ~drop
    depth[survive] += rng.normal(0.0, sigma, size=int(survive.sum()))
    return depth


def made_generators(monkeypatch) -> list:
    """Replace ``harness.rng_for`` by a wrapper that logs each generator it makes."""
    made = []

    def recording(*seeds):
        made.append(rng_for(*seeds))
        return made[-1]

    monkeypatch.setattr(harness, "rng_for", recording)
    return made


class TestCorruptDepth:
    @pytest.mark.parametrize("slot", (0, 4, 8))
    @pytest.mark.parametrize("name", OBJECT_NAMES)
    def test_matches_inline_pixel_grid(self, name, slot, monkeypatch):
        scene = benchmark_scene(name, slot, master_seed=0)
        buf = render(scene)
        made = made_generators(monkeypatch)
        ref_rng = rng_for(7)
        got = corrupt_depth(buf, scene, 7, 0.7, 0.01)
        expected = inline_corrupt_depth(buf, scene, ref_rng, 0.7, 0.01)
        assert got.tobytes() == expected.tobytes()
        (rng,) = made
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        assert rng.random() == ref_rng.random()

    @pytest.mark.parametrize("seed", (7.0, "7", None, np.random.default_rng(7)))
    def test_rejects_a_seed_that_is_not_an_integer(self, seed):
        scene = benchmark_scene("vial", 0, master_seed=0)
        with pytest.raises(InvalidConfig, match="integers"):
            corrupt_depth(render(scene), scene, seed, 0.7, 0.01)

    def test_nothing_in_view_draws_nothing(self, monkeypatch):
        scene = Scene(camera=default_camera())
        buf = render(scene)
        made = made_generators(monkeypatch)
        got = corrupt_depth(buf, scene, 7, 0.7, 0.01)
        assert got.tobytes() == buf.depth.tobytes()
        (rng,) = made
        assert rng.bit_generator.state == rng_for(7).bit_generator.state

    def test_shape_mismatch(self):
        scene = benchmark_scene("vial", 0, master_seed=0)
        buf = render(scene)
        cropped = dataclasses.replace(buf, depth=buf.depth[:-1], instance=buf.instance[:-1])
        with pytest.raises(ShapeMismatch):
            corrupt_depth(cropped, scene, 0, 0.7, 0.01)


@pytest.mark.parametrize("slot", (0, 4, 8))
@pytest.mark.parametrize("name", OBJECT_NAMES)
def test_camera_trial_heights_equal_the_full_frame_gather(name, slot, monkeypatch):
    # a camera trial corrupts and reads only the object pixels; the reference
    # corrupts the whole frame and gathers it through the region
    scene = benchmark_scene(name, slot, master_seed=0)
    cam = scene.camera
    cfg = TrialConfig()
    prepared = annotations_for(scene, cfg)
    buf, anns = prepared
    averaged, seeds = [], []
    original = harness._corrupted_pixel_depths

    def recording_depths(buffers, scene, seed, *args):
        seeds.append(seed)
        return original(buffers, scene, seed, *args)

    def recording_heights(*args):
        averaged.append(surface_heights(*args))
        return averaged[-1]

    monkeypatch.setattr(harness, "_corrupted_pixel_depths", recording_depths)
    monkeypatch.setattr(harness, "surface_heights", recording_heights)
    made = made_generators(monkeypatch)
    modes = {"camera-mask": anns[0].mask, "camera-pr": anns[0].poking_region}
    for mode, region in modes.items():
        for log in (averaged, seeds, made):
            log.clear()
        run_grasp_trial(scene, cfg, 5 + slot, mode, prepared=prepared)
        (seed,), (rng,), (got,) = seeds, made, averaged
        ref_rng = rng_for(seed)
        corrupted = inline_corrupt_depth(buf, scene, ref_rng, harness.DEPTH_DROPOUT,
                                         harness.DEPTH_SIGMA)
        expected = surface_heights(corrupted[region], pixel_ray_dz(corrupted, cam)[region],
                                   cam.pose.translation[2])
        assert got.size and got.tobytes() == expected.tobytes(), mode
        assert rng.bit_generator.state == ref_rng.bit_generator.state, mode


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


def test_run_benchmark_rejects_negative_attempts():
    # range(-1) is empty: the table came back with no rows and no trials
    scenes = {"jar": [benchmark_scene("jar", 0, master_seed=0)]}
    with pytest.raises(InvalidConfig, match="attempts_per_object"):
        run_benchmark(scenes, ("bbox",), -1, TrialConfig())
    assert run_benchmark(scenes, ("bbox",), 0, TrialConfig()).trials == ()


def test_run_benchmark_rejects_a_repeated_mode():
    # ("bbox", "bbox") returned two identical rows and every trial twice
    scenes = {"jar": [benchmark_scene("jar", 0, master_seed=0)]}
    with pytest.raises(InvalidConfig, match="repeat"):
        run_benchmark(scenes, ("bbox", "mask", "bbox"), 1, TrialConfig())


@pytest.mark.parametrize("attempts", (2.0, True, "2", None))
def test_run_benchmark_rejects_attempts_that_are_not_an_integer(attempts):
    # 2.0 raised a bare TypeError from range; True ran and wrote True into the rows
    scenes = {"jar": [benchmark_scene("jar", 0, master_seed=0)]}
    with pytest.raises(InvalidConfig, match="attempts_per_object"):
        run_benchmark(scenes, ("bbox",), attempts, TrialConfig())


@pytest.mark.parametrize("attempts", (-1, 2.0, True, "2", None))
def test_benchmark_scene_set_rejects_attempts_that_are_not_a_count(attempts):
    # -1 returned empty scene lists; 2.0 raised a bare TypeError from range
    with pytest.raises(InvalidConfig, match="attempts"):
        benchmark_scene_set(names=("jar",), attempts=attempts)
    assert [len(v) for v in benchmark_scene_set(names=("jar",), attempts=np.int64(2)).values()] \
        == [2]


def test_an_unknown_guidance_raises_with_nothing_in_view():
    scene = Scene(camera=default_camera())
    cfg = TrialConfig()
    assert run_poke_trial(scene, cfg, 0, "bbox").status == MISS
    with pytest.raises(InvalidConfig, match="guidance"):
        run_poke_trial(scene, cfg, 0, "centre")


@pytest.mark.parametrize("guidance", ["bbox", "mask"])
def test_a_guidance_plan_without_an_ellipse_gets_no_grasp(guidance):
    scene = benchmark_scene("jar", 0, master_seed=0)
    plan = annotations_for(scene, TrialConfig()).plan(guidance)
    assert plan.ellipse is None
    with pytest.raises(InvalidConfig, match="ellipse"):
        heuristic_grasp(np.array([0.0, 0.0, 0.05]), plan, scene.camera, GRIPPER)


# TrialConfig's float fields; one added needs a finiteness check and a test here
FLOAT_FIELDS = ()


def test_float_fields_are_the_ones_checked_for_finiteness():
    assert set(FLOAT_FIELDS) == {f.name for f in dataclasses.fields(TrialConfig)
                                 if isinstance(f.default, float)}


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
            top = scene_top_z(scene.objects)
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
def test_rises_above_covers_every_footprint(entry):
    """simulate_poke skips a probe where nothing under its footprint rises
    above the plane plus value_threshold; that is sound only while
    ``rises_above`` holds below every sensel's height."""
    spec = TactileSensorSpec()
    half = np.array([spec.area_x, spec.area_y]) / 2.0
    rng = rng_for(0, 0xB0D, CATALOG.index(entry))
    z1 = entry.shape.z_max
    reaches = []
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
                lo, hi = c[:2] - half, c[:2] + half
                highest = float(_footprint_heights(scene, spec, c)[0].max())
                if np.isfinite(highest):
                    assert rises_above(scene.objects, lo, hi, highest - 1e-12)
                assert not rises_above(scene.objects, lo, hi, scene_top_z(scene.objects) + 1e-8)
                reaches.append(rises_above(scene.objects, lo, hi, -1.0))
    if not isinstance(entry.shape, Box):
        # beside an upright or upside-down object nothing can be touched
        assert not all(reaches)


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


def probe_columns(entry, obj, spec, rng) -> np.ndarray:
    """(x, y) of the sensel columns of footprints centred at ``footprint_radii``
    from the axis (three seeded azimuths, at the base, the middle and the top
    of the axis), one footprint after another, then of rings of columns on
    every segment end radius, where the cast is most sensitive."""
    z1 = entry.shape.z_max
    azimuths = rng.uniform(0.0, 2.0 * np.pi, size=3)
    centers = obj.pose.apply(np.array([[rho * np.cos(a), rho * np.sin(a), z]
                                       for rho in footprint_radii(entry)
                                       for a, z in zip(azimuths, (0.0, z1 / 2.0, z1))]))
    footprints = [spec.sensel_offsets + c[:2] for c in centers]
    ring = rng.uniform(0.0, 2.0 * np.pi) + np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    edges = np.array([[r * np.cos(a), r * np.sin(a), 0.0]
                      for r in primitive_radii(obj) for a in ring]).reshape(-1, 3)
    return np.concatenate(footprints + [obj.pose.apply(edges)[:, :2]])


def probe_floors(scene, obj) -> set:
    """-inf, two sensing planes below the top, and every primitive height
    and its neighbours 1e-12 away."""
    top = scene_top_z(scene.objects)
    floors = {-np.inf, top - DEFAULT_VALUE_THRESHOLD, top / 2.0}
    floors.update(z + e for z in primitive_world_zs(obj) for e in (-1e-12, 0.0, 1e-12))
    return floors


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_floored_top_heights_equal_the_full_query(entry):
    """A floored query casts only the columns that can rise above the floor;
    every column must read what the full query reads, or -inf / 0 where that
    is not above the floor."""
    spec = TactileSensorSpec(res_x=40, res_y=30)
    rng = rng_for(0, 0xF10, CATALOG.index(entry))
    for orientation in (UPRIGHT, UPSIDE_DOWN, SIDE):
        for yaw in rng.uniform(0.0, 2.0 * np.pi, size=3):
            obj = make_object(entry, orientation, 0.01, -0.02, float(yaw))
            scene = Scene(camera=default_camera(), objects=(obj,))
            xy = probe_columns(entry, obj, spec, rng)
            full, ids = top_heights(scene.objects, xy)
            for f in sorted(probe_floors(scene, obj)):
                got, got_ids = top_heights(scene.objects, xy, floor=f)
                above = full > f
                assert got.tobytes() == np.where(above, full, -np.inf).tobytes(), f
                assert got_ids.tobytes() == np.where(above, ids, 0).tobytes(), f


def march(z: float, step: float, h_stop: float):
    """The heights simulate_poke's descent steps through from z."""
    while z >= h_stop - 1e-12:
        yield z
        z -= step


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_a_subset_cast_equals_the_full_cast(entry):
    """The coarse descent casts a lattice of the sensel columns before the
    frame; a column must read the same bytes, height and id, whichever
    other columns are cast with it."""
    spec = TactileSensorSpec(res_x=40, res_y=30)
    rng = rng_for(0, 0x5B5, CATALOG.index(entry))
    n_sensels = spec.res_y * spec.res_x
    rows = np.flatnonzero((spec.sensel_offsets[:, None] == spec.lattice_offsets).all(-1).any(-1))
    assert len(rows) == len(spec.lattice_offsets)
    lattice = np.concatenate([rows + k * n_sensels
                              for k in range(len(footprint_radii(entry)) * 3)])
    for orientation in (UPRIGHT, UPSIDE_DOWN, SIDE):
        obj = make_object(entry, orientation, 0.01, -0.02, float(rng.uniform(0.0, 2.0 * np.pi)))
        scene = Scene(camera=default_camera(), objects=(obj,))
        xy = probe_columns(entry, obj, spec, rng)
        n = len(xy)
        start = int(rng.integers(0, n // 2))
        subsets = {"lattice": lattice,
                   "random": rng.choice(n, n // 7, replace=False),  # in seeded order
                   "range": np.arange(start, start + n // 3)}
        floors = probe_floors(scene, obj)
        floors.update(march(scene_top_z(scene.objects) + COARSE_STEP, COARSE_STEP, H_STOP))
        for f in sorted(floors):
            full, ids = top_heights(scene.objects, xy, floor=f)
            for name, sub in subsets.items():
                got, got_ids = top_heights(scene.objects, xy[sub], floor=f)
                assert got.tobytes() == full[sub].tobytes(), (name, f)
                assert got_ids.tobytes() == ids[sub].tobytes(), (name, f)


def tilted_scene(entry, rng) -> Scene:
    """Two seeded ``rot_z @ rot_y @ rot_x`` poses of the entry's shape, ids 1
    and 2, 3 cm apart along x, so that their columns overlap."""
    objects = []
    for oid, x in ((1, -0.015), (2, 0.015)):
        rot = rot_z(rng.uniform(-np.pi, np.pi)) @ rot_y(rng.uniform(-np.pi, np.pi)) \
            @ rot_x(rng.uniform(-np.pi, np.pi))
        xyz = [x, rng.uniform(-0.01, 0.01), rng.uniform(0.0, 0.05)]
        objects.append(ObjectModel(id=oid, shape=entry.shape, mass=entry.mass,
                                   wall_thickness=entry.wall_thickness,
                                   pose=RigidTransform(rot, xyz)))
    return Scene(camera=default_camera(), objects=tuple(objects))


def columns_over(scene, n=48) -> np.ndarray:
    """(n*n, 2) grid of columns over the world rectangle that holds every
    object's local box."""
    corners = []
    for obj in scene.objects:
        lo, hi = _local_box(obj)
        corners.append(obj.pose.apply(np.where(_CORNER_HIGH, hi, lo)))
    corners = np.concatenate(corners)
    lo, hi = corners[:, :2].min(axis=0), corners[:, :2].max(axis=0)
    xx, yy = np.meshgrid(np.linspace(lo[0], hi[0], n), np.linspace(lo[1], hi[1], n))
    return np.stack([xx.ravel(), yy.ravel()], axis=1)


def primitive_world_tops(obj) -> list:
    """World height of each primitive's bounding cylinder: its highest end
    along the axis plus its widest radius times the axis' horizontal reach;
    a box's highest corner."""
    if isinstance(obj.shape, Box):
        return [float(obj.pose.apply(obj.shape.corners())[:, 2].max())]
    a_z = float(obj.pose.rotation[2, 2])
    reach = np.sqrt(max(0.0, 1.0 - a_z * a_z))
    tops = []
    for prim in compile_primitives(obj):
        if prim[0] == "disk":
            zs, r = (prim[1],), prim[3]
        else:
            zs, r = (prim[2], prim[4]), max(prim[1], prim[3])
        tops.append(float(obj.pose.translation[2]) + max(z * a_z for z in zs) + r * reach)
    return tops


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_floored_top_heights_equal_the_full_query_on_tilted_poses(entry):
    """On tilted solids the floor culls primitives by their world tops;
    every column must still read what the full query reads, or -inf / 0
    where that is not above the floor. The floors sit 1e-12 about every
    primitive's heights on the axis, its world top and that top less the
    1e-9 pad."""
    rng = rng_for(0, 0x7117, CATALOG.index(entry))
    for _ in range(3):
        scene = tilted_scene(entry, rng)
        xy = columns_over(scene)
        full, ids = top_heights(scene.objects, xy)
        assert set(np.unique(ids)) == {0, 1, 2}
        floors = {-np.inf}
        for obj in scene.objects:
            heights = primitive_world_zs(obj) + primitive_world_tops(obj)
            heights += [z - 1e-9 for z in primitive_world_tops(obj)]
            floors.update(z + e for z in heights for e in (-1e-12, 0.0, 1e-12))
        for f in sorted(floors):
            got, got_ids = top_heights(scene.objects, xy, floor=f)
            above = full > f
            assert got.tobytes() == np.where(above, full, -np.inf).tobytes(), f
            assert got_ids.tobytes() == np.where(above, ids, 0).tobytes(), f


def full_contact_dot(scene, object_id, contact) -> float:
    """``_contact_dot`` with the contact ray cast against every primitive of
    the object, as it was before the cast was culled."""
    origin = np.array([[contact[0], contact[1], column_start(scene.objects)]])
    _, normal, _ = intersect_object(scene.object_by_id(object_id), origin,
                                    np.array([[0.0, 0.0, -1.0]]))
    return float(normal[0, 2])


def assert_contact_dot_is_the_full_one(scene, object_id, contact):
    got = np.float64(_contact_dot(scene, object_id, contact))
    assert got.tobytes() == np.float64(full_contact_dot(scene, object_id, contact)).tobytes()


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_contact_dot_equals_the_full_cast_on_tilted_poses(entry):
    # contacts at 150 seeded columns with a surface, at the cast height
    rng = rng_for(0, 0xD07, CATALOG.index(entry))
    for _ in range(2):
        scene = tilted_scene(entry, rng)
        xy = columns_over(scene)
        heights, ids = top_heights(scene.objects, xy)
        hit = np.flatnonzero(ids)
        for k in rng.choice(hit, size=min(150, hit.size), replace=False):
            contact = np.array([xy[k, 0], xy[k, 1], heights[k]])
            assert_contact_dot_is_the_full_one(scene, int(ids[k]), contact)


def test_contact_dot_equals_the_full_cast_on_the_catalog_slots(monkeypatch):
    # every contact that fires in the bbox, mask and pr pokes of the 54
    # catalog scenes at the even attempt slots
    contacts = []
    original = harness._contact_dot

    def recording(scene, object_id, contact):
        contacts.append((scene, object_id, contact.copy()))
        return original(scene, object_id, contact)

    monkeypatch.setattr(harness, "_contact_dot", recording)
    for name in OBJECT_NAMES:
        for attempt in range(0, 12, 2):
            scene = benchmark_scene(name, attempt, master_seed=0)
            prepared = annotations_for(scene, TrialConfig())
            plans = [prepared.plan(g) for g in POKE_GUIDANCE_MODES]
            for plan in {p.point_px: p for p in plans if p is not None}.values():
                simulate_poke(scene, plan)
    assert len(contacts) > 100
    for scene, object_id, contact in contacts:
        assert_contact_dot_is_the_full_one(scene, object_id, contact)


def evaluated_primitives(monkeypatch) -> list:
    """Replace ``render._intersect_primitive_t`` by a wrapper that logs the
    tag of each primitive it evaluates."""
    tags = []
    original = render_module._intersect_primitive_t

    def wrapper(prim, o, d):
        tags.append(prim[-1])
        return original(prim, o, d)

    monkeypatch.setattr(render_module, "_intersect_primitive_t", wrapper)
    return tags


def test_the_jar_contact_cast_evaluates_one_primitive(monkeypatch):
    # the pr poke of the upright jar fires on the rim: of the five
    # primitives only the rim rises above the contact height at its radius
    scene = benchmark_scene("jar", 0, master_seed=0)
    plan = annotations_for(scene, TrialConfig()).plan("pr")
    outcome = simulate_poke(scene, plan)
    assert outcome.status in (SUCCESS, TOPPLE)
    tags = evaluated_primitives(monkeypatch)
    _contact_dot(scene, outcome.contact_object, outcome.contact_point)
    assert tags == ["rim"]


def test_a_side_lying_floored_frame_skips_the_cavity(monkeypatch):
    # the jar on its side, at the height its pr poke fires: the inner wall
    # and the cavity floor lie below the sensing plane, so neither is cast
    scene = benchmark_scene("jar", 8, master_seed=0)
    assert abs(scene.objects[0].pose.rotation[2, 2]) < 1e-12
    plan = annotations_for(scene, TrialConfig()).plan("pr")
    outcome = simulate_poke(scene, plan)
    assert outcome.status in (SUCCESS, TOPPLE)
    tags = evaluated_primitives(monkeypatch)
    heights, _, _ = _footprint_heights(scene, SENSOR, ray_point(scene, plan, outcome.stop_z),
                                       floor=outcome.stop_z)
    assert np.isfinite(heights).any()
    assert tags == ["bottom", "rim", "outer:0"]
    assert {p[-1] for p in compile_primitives(scene.objects[0])} \
        == {"bottom", "rim", "outer:0", "inner:0", "cavity_floor"}


def ray_point(scene, plan, z) -> np.ndarray:
    """The sensor centre at probe height ``z`` on ``plan``'s pixel ray: the
    ray's point at ``z``, with ``z`` itself as its height."""
    origin, direction = scene.camera.pixel_ray(plan.point_px)
    center = origin + (z - origin[2]) / direction[2] * direction
    center[2] = z
    return center


@pytest.mark.parametrize("name, attempt", [("jar", 0), ("mug", 5), ("champagne_cup", 0),
                                           ("rectangular_cup", 8)])
def test_probes_the_skip_passes_over_count_no_sensel(name, attempt):
    """Cast every coarse and fine probe height the skip passes over, along
    each guidance pixel's view ray, and check that none counts a sensel."""
    scene = benchmark_scene(name, attempt, master_seed=0)
    spec = SENSOR
    half = np.array([spec.area_x, spec.area_y]) / 2.0
    prepared = annotations_for(scene, TrialConfig())
    plans = [prepared.plan(g) for g in POKE_GUIDANCE_MODES]
    z_top = scene_top_z(scene.objects) + COARSE_STEP
    skipped = 0
    for px in sorted({plan.point_px for plan in plans if plan is not None}):
        origin, direction = scene.camera.pixel_ray(px)

        def center_at(z):
            center = origin + (z - origin[2]) / direction[2] * direction
            center[2] = z
            return center

        def count_at(z):
            heights, _, _ = _footprint_heights(scene, spec, center_at(z))
            image = frame_from_heights(heights, spec, center_at(z))
            return detect_contact(image, DEFAULT_VALUE_THRESHOLD, DEFAULT_COUNT_THRESHOLD)[1]

        def skips(z):
            c = center_at(z)[:2]
            return not rises_above(scene.objects, c - half, c + half, z + DEFAULT_VALUE_THRESHOLD)

        first_touch = None
        for z in march(z_top, COARSE_STEP, H_STOP):
            if skips(z):
                assert count_at(z) == 0, z
                skipped += 1
            elif first_touch is None and count_at(z) > 0:
                first_touch = z
        fine_start = z_top if first_touch is None else min(first_touch + COARSE_STEP, z_top)
        for z in march(fine_start, DESCENT_STEP, H_STOP):
            if skips(z):
                assert count_at(z) == 0, z
                skipped += 1
    assert skipped >= 5


def lattice_count(scene, spec, center) -> int:
    """Sensels of the coarse lattice that count at ``center``, each indented as
    frame_from_heights does and counted as detect_contact counts: indented by
    more than the value threshold."""
    xy = spec.lattice_offsets + center[:2]
    heights, _ = top_heights(scene.objects, xy, floor=center[2])
    pen = np.where(np.isfinite(heights), np.clip(heights - center[2], 0.0, spec.max_indent), 0.0)
    return int(np.count_nonzero(pen > DEFAULT_VALUE_THRESHOLD))


def frame_count(scene, spec, center) -> int:
    heights, _, _ = _footprint_heights(scene, spec, center, floor=center[2])
    image = frame_from_heights(heights, spec, center)
    return detect_contact(image, DEFAULT_VALUE_THRESHOLD, DEFAULT_COUNT_THRESHOLD)[1]


@pytest.mark.parametrize("name, attempt", [("jar", 0), ("mug", 5), ("champagne_cup", 0),
                                           ("rectangular_cup", 8), ("tumble_cup", 4)])
def test_the_lattice_decides_as_the_full_frame(name, attempt):
    """Along each guidance pixel's view ray, at every coarse height, a lattice
    sensel counts only where the full frame counts. The coarse descent casts
    the frame where no lattice sensel counts, so it decides as the frame."""
    scene = benchmark_scene(name, attempt, master_seed=0)
    spec = SENSOR
    prepared = annotations_for(scene, TrialConfig())
    plans = [prepared.plan(g) for g in POKE_GUIDANCE_MODES]
    touches = 0
    for px in sorted({plan.point_px for plan in plans if plan is not None}):
        origin, direction = scene.camera.pixel_ray(px)
        for z in march(scene_top_z(scene.objects) + COARSE_STEP, COARSE_STEP, H_STOP):
            center = origin + (z - origin[2]) / direction[2] * direction
            center[2] = z
            if lattice_count(scene, spec, center) > 0:
                assert frame_count(scene, spec, center) > 0, z
                touches += 1
    assert touches > 0


def full_frame_poke(scene, plan):
    """simulate_poke with a coarse descent that casts the full frame at every
    height the skip does not pass over, as it did before the lattice."""
    origin, direction = scene.camera.pixel_ray(plan.point_px)
    spec = harness.SENSOR
    top = scene_top_z(scene.objects)
    half = np.array([spec.area_x, spec.area_y]) / 2.0

    def probe(z):
        center = origin + (z - origin[2]) / direction[2] * direction
        center[2] = z
        if not rises_above(scene.objects, center[:2] - half, center[:2] + half,
                           z + DEFAULT_VALUE_THRESHOLD):
            return False, 0, None
        heights, ids, xy = _footprint_heights(scene, spec, center, floor=z)
        image = frame_from_heights(heights, spec, center)
        hit, count = detect_contact(image, DEFAULT_VALUE_THRESHOLD, DEFAULT_COUNT_THRESHOLD)
        return hit, count, (heights, ids, xy, image)

    z_top = top + COARSE_STEP
    first_touch = next((z for z in march(z_top, COARSE_STEP, H_STOP) if probe(z)[1] > 0), None)
    if first_touch is None:
        return PokeOutcome(status=MISS, reason="no_touch", stop_z=H_STOP)
    for z in march(min(first_touch + COARSE_STEP, z_top), DESCENT_STEP, H_STOP):
        hit, _, touched = probe(z)
        if hit:
            contact, cid = _contact(*touched)
            if cid == 0 or _contact_dot(scene, cid, contact) < CONTACT_DOT_MIN:
                return PokeOutcome(status=MISS, reason="steep_contact", stop_z=z)
            status = TOPPLE if poke_would_topple(scene, cid, contact, F_STOP) else SUCCESS
            return PokeOutcome(status=status, contact_point=contact, contact_object=cid, stop_z=z)
    return PokeOutcome(status=MISS, reason="no_fire", stop_z=H_STOP)


def assert_same_poke(got, expected):
    assert as_json([got]) == as_json([expected])
    if expected.contact_point is None:
        assert got.contact_point is None
    else:
        assert got.contact_point.tobytes() == expected.contact_point.tobytes()


@pytest.mark.parametrize("attempt", (0, 4, 8))
@pytest.mark.parametrize("name", OBJECT_NAMES)
def test_lattice_pokes_equal_full_frame_pokes(name, attempt):
    scene = benchmark_scene(name, attempt, master_seed=0)
    prepared = annotations_for(scene, TrialConfig())
    plans = [prepared.plan(g) for g in POKE_GUIDANCE_MODES]
    for plan in {plan.point_px: plan for plan in plans if plan is not None}.values():
        assert_same_poke(simulate_poke(scene, plan), full_frame_poke(scene, plan))


@pytest.mark.parametrize("attempt", (0, 4, 8))
@pytest.mark.parametrize("name", ("jar", "mug"))
def test_a_rebound_sensor_sets_every_probe(name, attempt, monkeypatch):
    # the lattice is the pad's own: every column a probe casts, the coarse
    # lattice's too, is a sensel column of the rebound pad at that height
    spec = TactileSensorSpec(res_x=40, res_y=30)
    monkeypatch.setattr(harness, "SENSOR", spec)
    scene = benchmark_scene(name, attempt, master_seed=0)
    plan = annotations_for(scene, TrialConfig()).plan("pr")
    casts = []
    original = harness.top_heights

    def wrapper(objects, xy, floor):
        casts.append((xy, floor))
        return original(objects, xy, floor=floor)

    monkeypatch.setattr(harness, "top_heights", wrapper)
    outcome = simulate_poke(scene, plan)
    monkeypatch.setattr(harness, "top_heights", original)
    assert {len(xy) for xy, _ in casts} == {len(spec.lattice_offsets), 30 * 40}
    for xy, floor in casts:
        grid = {tuple(c) for c in spec.sensel_offsets + ray_point(scene, plan, floor)[:2]}
        assert all(tuple(c) in grid for c in xy), floor
    assert_same_poke(outcome, full_frame_poke(scene, plan))


def test_a_poke_and_a_grasp_take_no_seed():
    # a stale seed argument raises instead of being dropped unread
    scene = benchmark_scene("jar", 0, master_seed=0)
    prepared = annotations_for(scene, TrialConfig())
    plan = prepared.plan("pr")
    grasp = run_grasp_trial(scene, TrialConfig(), 0, "tactile", prepared).grasp
    with pytest.raises(TypeError):
        simulate_poke(scene, plan, 0.004)
    with pytest.raises(TypeError):
        simulate_poke(scene, plan, seed=3)
    with pytest.raises(TypeError):
        prepared.poke(plan, 3)
    with pytest.raises(TypeError):
        simulate_grasp(scene, grasp, seed=3)


def cast_sizes(monkeypatch) -> list:
    """Replace ``harness.top_heights`` by a wrapper that logs how many columns
    each call casts."""
    sizes = []
    original = harness.top_heights

    def wrapper(objects, xy, *args, **kwargs):
        sizes.append(len(xy))
        return original(objects, xy, *args, **kwargs)

    monkeypatch.setattr(harness, "top_heights", wrapper)
    return sizes


def test_a_lattice_touch_casts_one_full_frame(monkeypatch):
    # the coarse lattice finds the first touch; only the contact probe of the
    # fine descent casts all 19,200 sensel columns
    scene = benchmark_scene("jar", 0, master_seed=0)
    plan = annotations_for(scene, TrialConfig()).plan("pr")
    sizes = cast_sizes(monkeypatch)
    outcome = simulate_poke(scene, plan)
    assert outcome.status in (SUCCESS, TOPPLE)
    frame = SENSOR.res_x * SENSOR.res_y
    assert sizes.count(frame) == 1
    assert set(sizes) == {len(SENSOR.lattice_offsets), frame}


def test_a_touch_between_lattice_sensels_falls_back_to_the_full_frame(monkeypatch):
    # a plate 0.15 mm thick, straight below the sensor, whose top lies under
    # sensel columns 7 and 8 alone, between lattice columns 4 and 12
    spec = SENSOR
    x = 8 * spec.pitch_x - spec.area_x / 2.0  # between the centres of columns 7 and 8
    plate = ObjectModel(id=1, shape=Box((0.00015, 0.008, 0.05)), mass=0.2,
                        pose=RigidTransform(np.eye(3), [x, 0.0, 0.0]))
    scene = Scene(camera=overhead_camera(), objects=(plate,))
    plan = PokePlan(point_px=(320, 240), ellipse=None, region_topology=SIMPLY_CONNECTED)
    center = np.array([0.0, 0.0, 0.042])  # the first coarse height that is cast
    assert lattice_count(scene, spec, center) == 0
    assert frame_count(scene, spec, center) > 0
    sizes = cast_sizes(monkeypatch)
    outcome = simulate_poke(scene, plan)
    assert outcome.status != MISS
    assert outcome.stop_z == pytest.approx(0.049)
    # the lattice and the full frame at the first touch, then the contact frame
    assert sizes == [len(spec.lattice_offsets), spec.res_x * spec.res_y,
                     spec.res_x * spec.res_y]
    assert_same_poke(outcome, full_frame_poke(scene, plan))


def test_contact_probe_carries_the_sensor_posed_at_the_contact():
    # the contact lies on a sensel column of the probe that fired, centred at
    # the view ray's point at the stop height
    scene = benchmark_scene("jar", 0, master_seed=0)
    plan = annotations_for(scene, TrialConfig()).plan("pr")
    outcome = simulate_poke(scene, plan)
    assert outcome.status in (SUCCESS, TOPPLE)
    center = ray_point(scene, plan, outcome.stop_z)
    grid = SENSOR.sensel_offsets + center[:2]
    assert np.any(np.all(grid == outcome.contact_point[:2], axis=1))


def test_a_flat_top_contact_is_the_footprint_centre():
    # every sensel over a flat box top indents alike: the contact is the
    # plateau sensel nearest its mean, not sensel (0, 0) about (7, 5) mm off
    box = ObjectModel(id=1, shape=Box((0.05, 0.05, 0.05)), mass=0.2,
                      pose=RigidTransform.identity())
    scene = Scene(camera=overhead_camera(), objects=(box,))
    plan = PokePlan(point_px=(320, 240), ellipse=None, region_topology=SIMPLY_CONNECTED)
    outcome = simulate_poke(scene, plan)
    assert outcome.status == SUCCESS
    assert outcome.contact_point[2] == pytest.approx(0.05)
    offset = np.abs(outcome.contact_point[:2] - ray_point(scene, plan, outcome.stop_z)[:2])
    assert offset[0] <= SENSOR.pitch_x and offset[1] <= SENSOR.pitch_y


def test_a_rim_contact_lands_on_the_rim():
    # the plateau of a rim poke is an arc of the rim, whose mean lies inside
    # the arc; the contact is a plateau sensel, so it stays on the rim
    scene = benchmark_scene("jar", 0, master_seed=0)
    outcome = run_poke_trial(scene, TrialConfig(), 0, "pr")
    assert outcome.status == SUCCESS
    jar = scene.objects[0]
    radius = float(np.hypot(*(outcome.contact_point[:2] - jar.pose.translation[:2])))
    assert jar.shape.max_radius - jar.wall_thickness <= radius <= jar.shape.max_radius
    assert outcome.contact_point[2] == pytest.approx(jar.shape.z_max)


@pytest.mark.parametrize("yaw", [0.3, 0.9, 2.0, 2.6, 4.0])
def test_a_side_lying_barrel_is_grasped_across_its_axis(yaw):
    # the mask ellipse's major axis runs along the barrel; the centroid grasp
    # closes across it only when the image angle is turned into a world
    # bearing, and the jar is longer than the gripper opens
    entry = catalog_entry("jar")
    scene = Scene(camera=default_camera(),
                  objects=(make_object(entry, SIDE, 0.01, -0.02, yaw),))
    plan = annotations_for(scene, TrialConfig()).plan("camera-mask")
    assert plan.region_topology == SIMPLY_CONNECTED
    top = 2.0 * entry.shape.max_radius
    grasp = heuristic_grasp(scene.camera.backproject_at_height(plan.point_px, top), plan,
                            scene.camera, GRIPPER)
    assert grasp.kind == "centroid"
    axis = rot_z(yaw) @ rot_x(np.pi / 2.0) @ np.array([0.0, 0.0, 1.0])
    closing = np.array([-np.sin(grasp.theta), np.cos(grasp.theta)])  # theta + pi / 2
    assert abs(float(closing @ axis[:2])) < np.sin(np.deg2rad(3.0))
    assert simulate_grasp(scene, grasp).status == SUCCESS


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


@pytest.mark.parametrize("tilt, on_line", [(0.0, False), (0.1, False), (0.5, True),
                                           (np.pi / 2, True), (np.pi, False)])
def test_the_adhesion_coin_is_drawn_on_a_line_support(tilt, on_line, monkeypatch):
    # a solid of revolution resting on its axis segment draws the coin, one on
    # its base or top disk does not; a tilt of 0.5 rad drew none before, when
    # the coin asked for a side-lying axis (|axis z| < 0.01) instead
    entry = catalog_entry("jar")
    target = ObjectModel(id=2, shape=entry.shape, mass=entry.mass,
                         wall_thickness=entry.wall_thickness,
                         pose=RigidTransform(rot_x(tilt), [1.0, 0.0, 0.05]))  # out of view
    scene = Scene(camera=default_camera(),
                  objects=(make_object(entry, UPRIGHT, 0.0, 0.0, 0.0, oid=1), target))
    assert len(harness._support(target)[0]) == (2 if on_line else 1)
    prepared = annotations_for(scene, TrialConfig())
    assert [ann.id for ann in prepared.anns] == [1]
    # a clean contact on the target, put in the poke memo
    prepared._pokes[prepared.plan("tactile").point_px] = PokeOutcome(
        status=SUCCESS, contact_point=np.array([1.0, 0.0, 0.1]), contact_object=2)
    monkeypatch.setattr(harness, "ADHESION_PROB", 1.0)
    out = run_grasp_trial(scene, TrialConfig(), 0, "tactile", prepared=prepared)
    assert (out.reason == "adhesion_disturbance") == on_line


class TestTippingStatics:
    """Closed-form tipping arms on disk, segment, face and edge supports."""

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

    @pytest.mark.parametrize("yaw", [0.0, 0.4])
    def test_polygon_edges_and_corners_are_inside(self, yaw):
        # a contact on a base edge or a corner cannot tip the box: no zero or
        # sub-ulp arm, no negative maximum force
        w, d, h = 0.05, 0.08, 0.1
        box = ObjectModel(id=1, shape=Box(size=(w, d, h)), mass=0.2,
                          pose=RigidTransform(rot_z(yaw), [0.01, 0.02, 0.0]))
        local = [(sx * w / 2, 0.0) for sx in (-1, 1)] + [(0.0, sy * d / 2) for sy in (-1, 1)] \
            + [(sx * w / 2, sy * d / 2) for sx in (-1, 1) for sy in (-1, 1)]
        for x, y in local:
            contact = box.pose.apply(np.array([x, y, 0.0]))[:2]
            assert tipping_arms(box, contact) == (True, 0.0, 0.0), (x, y)

    def test_edge_support(self):
        # a box tipped about world y onto its +x bottom edge, posed by hand: the
        # support is that edge's line, x = w/2 cos(a), y in [-d/2, d/2]
        w, d, h, a = 0.05, 0.08, 0.1, 0.3
        box = ObjectModel(id=1, shape=Box(size=(w, d, h)), mass=0.2,
                          pose=RigidTransform(rot_y(a), [0.0, 0.0, w / 2 * np.sin(a)]))
        edge_x = w / 2 * np.cos(a)
        com_x = h / 2 * np.sin(a)
        assert tipping_arms(box, np.array([edge_x + 0.8 * SIDE_INSIDE_TOL, 0.01])) == \
            (True, 0.0, 0.0)
        # beside the edge: pivot on the line, the mass centre edge_x - com_x behind it
        inside, d1, d2 = tipping_arms(box, np.array([edge_x + 0.02, 0.01]))
        assert not inside
        assert d1 == pytest.approx(edge_x - com_x, abs=1e-12)
        assert d2 == pytest.approx(0.02, abs=1e-12)
        # past the edge's end: the end corner is the pivot, half a depth from the mass centre
        inside, d1, d2 = tipping_arms(box, np.array([edge_x, d / 2 + 0.02]))
        assert not inside
        assert d1 == pytest.approx(d / 2, abs=1e-12)
        assert d2 == pytest.approx(0.02, abs=1e-12)


class TestSimulateGraspReasons:
    """One hand-built proposal per outcome, against an upright mug (outer
    radius 0.040, wall 0.0035, so the bore radius is 0.0365, the cavity
    floor sits at z = 0.0035 and the rim at z = 0.095) and an upright
    0.05 x 0.07 x 0.08 box. Edge proposals with theta = 0 close along
    world x: the fingers descend at x +- w/2, each sweeping y in
    +-finger_width/2 = +-0.01, to z = grasp.z - descend_offset = grasp.z - 0.02."""

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
        out = simulate_grasp(self.mug_scene(), self.edge(0.0, 0.076))
        assert (out.status, out.reason) == (FAILURE, "descent_collision")

    def test_closing_inside_the_bore_touches_nothing(self):
        # tips at x = +-0.03: the sweeps stay over the cavity floor
        # (rho <= hypot(0.03, 0.01) = 0.0316 < 0.0365, top z = 0.0035), and the
        # whole closing segment at z = 0.075 lies in the open bore
        assert np.hypot(0.03, 0.01) < self.r_in
        out = simulate_grasp(self.mug_scene(), self.edge(0.0, 0.06))
        assert (out.status, out.reason) == (FAILURE, "no_contact")

    def test_closing_at_the_top_face_starts_inside(self):
        # the closing height sits within 1e-9 below the box top (z = 0.08):
        # the top face does not rise above it, so the descent is clear, but
        # the segment's start x = 0.005 lies on the box (|x| <= 0.025)
        z = 0.08 + DESCEND_OFFSET - 5e-10
        out = simulate_grasp(self.box_scene(), self.edge(0.02, 0.03, z=z))
        assert (out.status, out.reason) == (FAILURE, "finger_inside_object")

    def test_off_centre_edge_grasp_is_a_localization_error(self):
        # tips at x = 0.03 (bore) and x = 0.07 (beside the mug): the segment
        # crosses the wall on [0.0365, 0.040], whose midpoint 0.03825 lies
        # 0.01175 from the grasp centre, beyond half a finger width (0.01)
        out = simulate_grasp(self.mug_scene(), self.edge(0.05, 0.04))
        assert (out.status, out.reason) == (FAILURE, "localization_error")
        step = 0.04 / 800  # spacing of the closing-segment samples
        assert out.localization_error == pytest.approx(0.05 - (self.r_in + self.r_out) / 2,
                                                       abs=step)
        assert out.localization_error >= GRIPPER.finger_width / 2

    def test_edge_grasp_across_the_rim_succeeds(self):
        # tips at x = 0.0283 (bore: rho <= 0.0300) and x = 0.0483 (beside):
        # the wall midpoint 0.03825 is 5e-5 from the centre
        out = simulate_grasp(self.mug_scene(), self.edge(0.0383, 0.02))
        assert (out.status, out.reason) == (SUCCESS, "")
        assert out.localization_error == pytest.approx(0.0383 - (self.r_in + self.r_out) / 2,
                                                       abs=0.02 / 800)

    @pytest.mark.parametrize("x", [0.004, -0.004])
    def test_both_sweeps_are_one_floored_query(self, x, monkeypatch):
        # one tip over the bore (|x| = 0.030) and one over the rim (0.038):
        # whichever finger reaches the rim, the one query of both fingers'
        # 50 columns finds the collision
        sizes = cast_sizes(monkeypatch)
        out = simulate_grasp(self.mug_scene(), self.edge(x, 0.068))
        assert (out.status, out.reason) == (FAILURE, "descent_collision")
        assert sizes == [50]

    def test_centroid_grasp_across_the_box_succeeds(self):
        # a centroid proposal closes perpendicular to theta, here along
        # world y: the tips at y = +-0.04 clear the box (|y| <= 0.035) and
        # the segment crosses it symmetrically about the centre
        grasp = GraspProposal(x=0.0, y=0.0, z=0.08, w=0.08, theta=0.0, kind="centroid")
        out = simulate_grasp(self.box_scene(), grasp)
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
    reference = annotations_for(scene, cfg)
    pixels = {reference.plan(g).point_px for g in POKE_GUIDANCE_MODES}
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
    assert prepared.plan("bbox").point_px == prepared.plan("mask").point_px
    shared = [run_poke_trial(scene, cfg, seed, mode, prepared=prepared)
              for mode, seed in (("bbox", 3), ("mask", 4))]
    assert as_json(shared) == as_json(fresh)
    assert len(pokes) == 1


def test_a_repeated_pixel_returns_the_memoized_outcome(monkeypatch):
    scene = benchmark_scene("jar", 0, master_seed=0)
    cfg = TrialConfig()
    pokes = counted(monkeypatch, "simulate_poke")
    prepared = annotations_for(scene, cfg)
    first, second, third = (run_poke_trial(scene, cfg, seed, "pr", prepared=prepared)
                            for seed in (5, 6, 7))
    assert len(pokes) == 1
    assert first.status in (SUCCESS, TOPPLE)
    assert second is first and third is first
    assert "seed" not in first.to_json()
    # the shared contact point cannot be changed through any one trial
    assert not first.contact_point.flags.writeable


def test_a_preparation_is_reused_for_its_own_scene_alone(monkeypatch):
    # a preparation belongs to its scene object: one made under another cfg
    # shares its memos, one made for an equal scene or a plain pair raises
    scene = benchmark_scene("jar", 0, master_seed=0)
    cfg = TrialConfig()
    fresh = as_json([run_poke_trial(scene, cfg, 1, "pr"), run_grasp_trial(scene, cfg, 2, "tactile")])
    own = annotations_for(scene, TrialConfig())
    pokes = counted(monkeypatch, "simulate_poke")
    plans = counted(monkeypatch, "poking_point")
    got = [run_poke_trial(scene, cfg, 1, "pr", prepared=own),
           run_grasp_trial(scene, cfg, 2, "tactile", prepared=own)]
    assert as_json(got) == fresh
    assert (len(pokes), len(plans)) == (1, 1)
    equal_scene = annotations_for(benchmark_scene("jar", 0, master_seed=0), cfg)
    for prepared in (equal_scene, tuple(own)):
        for trial, mode in ((run_poke_trial, "pr"), (run_grasp_trial, "tactile")):
            with pytest.raises(InvalidConfig, match="prepared"):
                trial(scene, cfg, 1, mode, prepared=prepared)
    buffers, anns = own
    assert buffers is own.buffers and anns is own.anns


@pytest.mark.parametrize("trial, mode", [(run_poke_trial, "pr"), (run_grasp_trial, "tactile")])
def test_a_trial_rejects_the_preparation_of_another_scene(trial, mode):
    # the jar's render would send the mug's pr poke to the jar's pixel
    jar, mug = (benchmark_scene(name, attempt, master_seed=0)
                for name, attempt in (("jar", 0), ("mug", 4)))
    with pytest.raises(InvalidConfig, match="prepared"):
        trial(mug, TrialConfig(), 0, mode, prepared=annotations_for(jar, TrialConfig()))


def test_a_preparation_plans_once_per_kind(monkeypatch):
    prepared = annotations_for(benchmark_scene("mug", 4, master_seed=0), TrialConfig())
    plans = counted(monkeypatch, "poking_point")
    got = {mode: prepared.plan(mode) for mode in POKE_GUIDANCE_MODES + GRASP_MODES}
    assert got["pr"] is got["tactile"] is got["camera-pr"]
    assert got["camera-mask"].ellipse is not None and got["bbox"].ellipse is None
    assert plans == ["poking_point"] * 2
    with pytest.raises(InvalidConfig, match="centre"):
        prepared.plan("centre")


def test_a_preparation_with_nothing_in_view_plans_none():
    prepared = annotations_for(Scene(camera=default_camera()), TrialConfig())
    assert prepared.anns == []
    assert [prepared.plan(mode) for mode in POKE_GUIDANCE_MODES + GRASP_MODES] == [None] * 6


def test_run_benchmark_drops_an_objects_preparations_after_it(monkeypatch):
    # the preparations, with their memoised pokes, held for a whole table
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


def test_camera_grasp_table_is_pinned():
    (table,) = pinned_tables("camera_grasp")
    assert len(table["trials"]) == 2 * 27
    assert _digest([table]) == golden_pins()["camera_grasp"]


def test_tactile_columns_are_pinned(monkeypatch):
    # the casting work is pinned too: a skip that passes over fewer probes,
    # or one more cast per descent, changes the count of sensel-column queries
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return top_heights(*args, **kwargs)

    monkeypatch.setattr(harness, "top_heights", counted)
    tables = pinned_tables("tactile_columns")
    pokes = next(tables)
    assert len(calls) == 152
    grasps = next(tables)
    assert len(calls) == 228
    assert [len(t["trials"]) for t in (pokes, grasps)] == [3 * 27, 27]
    assert _digest([pokes, grasps]) == golden_pins()["tactile_columns"]


def test_seed_0_poke_misses_name_their_reasons():
    # the pokes with no first touch are bbox-centre and mask-centroid pokes
    # of upright open objects, whose pad enters the mouth; pr's steep stops
    # are the six upright champagne-cup slots
    table = run_benchmark(benchmark_scene_set(master_seed=0), POKE_GUIDANCE_MODES, 12,
                          TrialConfig(), task="poke")
    counts = Counter((t["mode"], t["outcome"]["status"], t["outcome"]["reason"])
                     for t in table.trials)
    assert counts == {("bbox", SUCCESS, ""): 79, ("bbox", MISS, "no_touch"): 16,
                      ("bbox", MISS, "steep_contact"): 13,
                      ("mask", SUCCESS, ""): 82, ("mask", MISS, "no_touch"): 16,
                      ("mask", MISS, "steep_contact"): 10,
                      ("pr", SUCCESS, ""): 90, ("pr", TOPPLE, ""): 12,
                      ("pr", MISS, "steep_contact"): 6}


def test_camera_grasp_without_finite_depth_reports_no_depth(monkeypatch):
    # buffers with no finite depth on the mask, and no pixel drops to the
    # table depth
    scene = benchmark_scene("mug", 0, master_seed=0)
    buf = render(scene)
    ann = poking_region(buf, scene.camera)[0]
    depth = buf.depth.copy()
    depth[ann.mask] = np.inf
    blind = dataclasses.replace(buf, depth=depth)
    monkeypatch.setattr(harness, "DEPTH_DROPOUT", 0.0)
    cfg = TrialConfig()
    out = run_grasp_trial(scene, cfg, 0, "camera-mask", prepared=PreparedScene(scene, blind, [ann]))
    assert (out.status, out.reason) == (FAILURE, "no_depth")
    assert run_grasp_trial(scene, cfg, 0, "camera-mask").reason != "no_depth"
