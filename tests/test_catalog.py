import numpy as np
import pytest

from pokegrasp.catalog import CATALOG, SIDE, UPRIGHT, UPSIDE_DOWN, benchmark_scene, make_object
from pokegrasp.errors import InvalidConfig
from pokegrasp.render import object_top_z
from pokegrasp.scene import Box
from pokegrasp.seeding import rng_for


def world_z_range(obj) -> tuple[float, float]:
    """Minimum and maximum world z over the object's solid.

    World z is linear in the local point, so over a box it is reached at a
    corner, and over a solid of revolution at a profile point turned to the
    azimuth where the horizontal part of the local-to-world z row points
    (or away from it).
    """
    rot, t = obj.pose.rotation, obj.pose.translation
    shape = obj.shape
    if isinstance(shape, Box):
        zs = obj.pose.apply(shape.corners())[:, 2]
        return float(zs.min()), float(zs.max())
    tilt = float(np.hypot(rot[2, 0], rot[2, 1]))
    return (min(float(t[2] + rot[2, 2] * z - tilt * r) for r, z in shape.points),
            max(float(t[2] + rot[2, 2] * z + tilt * r) for r, z in shape.points))


def seeded_poses(entry, stream):
    """Three seeded (x, y, yaw) placements of the entry in each orientation."""
    rng = rng_for(0, stream, CATALOG.index(entry))
    for orientation in (UPRIGHT, UPSIDE_DOWN, SIDE):
        for x, y, yaw in rng.uniform((-0.06, -0.06, 0.0), (0.06, 0.06, 2 * np.pi), size=(3, 3)):
            yield make_object(entry, orientation, float(x), float(y), float(yaw))


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_every_pose_rests_on_the_table(entry):
    for obj in seeded_poses(entry, 0x7AB1E):
        assert abs(world_z_range(obj)[0]) <= 1e-12


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_object_top_z_is_the_highest_point(entry):
    for obj in seeded_poses(entry, 0x70B):
        assert abs(object_top_z(obj) - world_z_range(obj)[1]) <= 1e-12


@pytest.mark.parametrize("attempt", (-1, True, 1.5))
def test_benchmark_scene_rejects_an_attempt_that_is_not_a_count(attempt):
    # -1 would mix in as 2**64 - 1 and take slot 11's orientation; True
    # would build attempt 1's scene
    with pytest.raises(InvalidConfig, match="attempt"):
        benchmark_scene("jar", attempt, master_seed=0)
