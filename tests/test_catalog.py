import numpy as np
import pytest

from pokegrasp.catalog import CATALOG, SIDE, UPRIGHT, UPSIDE_DOWN, make_object
from pokegrasp.scene import Box
from pokegrasp.seeding import rng_for


def lowest_world_z(obj) -> float:
    """Minimum world z over the object's solid.

    World z is linear in the local point, so over a box it is reached at a
    corner, and over a solid of revolution at a profile point turned to the
    azimuth where the horizontal part of the local-to-world z row points.
    """
    rot, t = obj.pose.rotation, obj.pose.translation
    shape = obj.shape
    if isinstance(shape, Box):
        w, d, h = shape.size
        corners = np.array([[sx * w / 2, sy * d / 2, sz * h]
                            for sx in (-1, 1) for sy in (-1, 1) for sz in (0, 1)])
        return float(obj.pose.apply(corners)[:, 2].min())
    tilt = float(np.hypot(rot[2, 0], rot[2, 1]))
    return min(float(t[2] + rot[2, 2] * z - tilt * r) for r, z in shape.points)


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_every_pose_rests_on_the_table(entry):
    rng = rng_for(0, 0x7AB1E, CATALOG.index(entry))
    for orientation in (UPRIGHT, UPSIDE_DOWN, SIDE):
        for x, y, yaw in rng.uniform((-0.06, -0.06, 0.0), (0.06, 0.06, 2 * np.pi), size=(3, 3)):
            obj = make_object(entry, orientation, float(x), float(y), float(yaw))
            assert abs(lowest_world_z(obj)) <= 1e-12
