import numpy as np
import pytest

from pokegrasp.catalog import benchmark_scene, benchmark_scene_set, default_camera
from pokegrasp.errors import ShapeMismatch
from pokegrasp.geometry import RigidTransform, rot_x
from pokegrasp.harness import POKE_GUIDANCE_MODES, SUCCESS, TOPPLE, TrialConfig, _contact_dot, \
    corrupt_depth, run_benchmark
from pokegrasp.render import RenderBuffers, render
from pokegrasp.scene import ObjectModel, RevolutionProfile, Scene


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
