import numpy as np
import pytest
from hypothesis import settings

from pokegrasp.geometry import RigidTransform, rot_x, rot_z
from pokegrasp.render import intersect_object
from pokegrasp.scene import Box, CameraModel, ObjectModel, RevolutionProfile, Scene

# every property test draws the same examples on every run: no random seed,
# no example database carried between runs and no timing deadline
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")


def overhead_camera(height=0.6, fx=600.0, fy=600.0, cx=320.0, cy=240.0,
                    width=640, height_px=480, tilt=0.0):
    """Camera looking straight down (+ optional tilt about world x toward +y)."""
    flip = np.diag([1.0, -1.0, -1.0])  # cam +z -> world -z, +x -> +x
    rot = rot_x(-tilt) @ flip
    return CameraModel(fx=fx, fy=fy, cx=cx, cy=cy, width=width, height=height_px,
                       pose=RigidTransform(rot, [0.0, height * np.tan(tilt), height]))


def straight_cup(radius=0.03, height=0.10, wall=0.003, mass=0.2, oid=1,
                 pose=None):
    shape = RevolutionProfile(points=((radius, 0.0), (radius, height)), open_top=True)
    return ObjectModel(id=oid, shape=shape, mass=mass, wall_thickness=wall,
                       pose=pose or RigidTransform.identity())


def unculled_render(scene):
    """Reference nearest-hit (depth, normals, instance) images: every pixel
    ray against the table and every object, with no bounding-volume
    culling. The table is the plane z = 0. The normals image holds the
    table's normal on the table and 0 where nothing is hit."""
    cam = scene.camera
    d = cam.pixel_directions()
    o = np.broadcast_to(cam.pose.translation, d.shape)
    with np.errstate(divide="ignore"):
        t_table = (0.0 - o[:, 2]) / d[:, 2]
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


@pytest.fixture
def down_cam():
    return overhead_camera()


@pytest.fixture
def cup_scene(down_cam):
    return Scene(camera=down_cam, objects=(straight_cup(),))
