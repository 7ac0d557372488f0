"""Procedural desk-scale object set and benchmark scene construction.

Nine transparent-object stand-ins (cups, a vial, a jar, a mug, stemware,
a closed rectangular cup) modeled as revolution profiles and boxes. The
two disposable cups are deliberately light and tapered: a rim poke sits
outside their support circle, so the static tipping bound is a fraction
of a newton and pokes topple them, mirroring how thin drinkware behaves.

Scenes place one object per view at a seeded position/yaw and an
orientation drawn from the attempt slot: attempts 0-3 upright, 4-7 upside
down, 8-11 resting on the side for objects that can (straight barrels,
the box), else alternating upright/upside-down. The camera is a fixed
overhead view with a small tilt.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, check_count
from .geometry import RigidTransform, rot_x, rot_z
from .scene import Box, CameraModel, ObjectModel, RevolutionProfile, Scene
from .seeding import rng_for

UPRIGHT = "upright"
UPSIDE_DOWN = "upside_down"
SIDE = "side"

DEFAULT_RENDER_WIDTH = 320
DEFAULT_RENDER_HEIGHT = 240
DEFAULT_CAMERA_HEIGHT = 0.60
DEFAULT_CAMERA_TILT = np.deg2rad(12.0)
PLACEMENT_EXTENT = 0.06  # a benchmark object's centre lies within +- this in x and y, meters


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    shape: object
    mass: float
    wall_thickness: float
    side_capable: bool


def _cup(r_bottom, r_top, height, open_top=True, cavity_depth=None):
    return RevolutionProfile(points=((r_bottom, 0.0), (r_top, height)),
                             open_top=open_top, cavity_depth=cavity_depth)


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("big_disposable_cup", _cup(0.027, 0.045, 0.12), 0.007, 0.002, False),
    CatalogEntry("highball_cup", _cup(0.029, 0.029, 0.14), 0.22, 0.0025, True),
    CatalogEntry("rectangular_cup", Box(size=(0.055, 0.075, 0.095)), 0.16, 0.002, True),
    CatalogEntry("vial", _cup(0.0125, 0.0125, 0.055), 0.03, 0.002, False),
    CatalogEntry("jar", _cup(0.034, 0.034, 0.088), 0.30, 0.003, True),
    CatalogEntry("mug", _cup(0.040, 0.040, 0.095), 0.33, 0.0035, True),
    CatalogEntry("small_disposable_cup", _cup(0.020, 0.033, 0.085), 0.005, 0.0015, False),
    CatalogEntry("champagne_cup",
                 RevolutionProfile(points=((0.024, 0.0), (0.024, 0.004), (0.0045, 0.010),
                                           (0.0045, 0.090), (0.021, 0.125), (0.0225, 0.150)),
                                   open_top=True, cavity_depth=0.045),
                 0.14, 0.0015, False),
    CatalogEntry("tumble_cup", _cup(0.026, 0.031, 0.10), 0.24, 0.0025, False),
)

OBJECT_NAMES = tuple(e.name for e in CATALOG)


def catalog_entry(name: str) -> CatalogEntry:
    for e in CATALOG:
        if e.name == name:
            return e
    raise InvalidConfig(f"unknown object {name!r}; known: {', '.join(OBJECT_NAMES)}")


def default_camera(width: int = DEFAULT_RENDER_WIDTH, height: int = DEFAULT_RENDER_HEIGHT,
                   cam_height: float = DEFAULT_CAMERA_HEIGHT,
                   tilt: float = DEFAULT_CAMERA_TILT) -> CameraModel:
    """Overhead camera whose optical axis hits the table origin."""
    focal = 600.0 * width / 640.0
    flip = np.diag([1.0, -1.0, -1.0])
    rot = rot_x(-tilt) @ flip
    pos = np.array([0.0, cam_height * np.tan(tilt), cam_height])
    return CameraModel(fx=focal, fy=focal, cx=width / 2.0, cy=height / 2.0,
                       width=width, height=height, pose=RigidTransform(rot, pos))


def object_pose(shape, orientation: str, x: float, y: float, yaw: float) -> RigidTransform:
    """Resting pose for one of the three orientation states."""
    if orientation == UPRIGHT:
        return RigidTransform(rot_z(yaw), [x, y, 0.0])
    if orientation == UPSIDE_DOWN:
        return RigidTransform(rot_z(yaw) @ rot_x(np.pi), [x, y, shape.z_max])
    if orientation == SIDE:
        if isinstance(shape, Box):
            rest = shape.size[1] / 2.0
        else:
            rest = shape.max_radius
        return RigidTransform(rot_z(yaw) @ rot_x(np.pi / 2.0), [x, y, rest])
    raise InvalidConfig(f"unknown orientation {orientation!r}")


def orientation_for_attempt(entry: CatalogEntry, attempt: int) -> str:
    slot = attempt % 12
    if slot < 4:
        return UPRIGHT
    if slot < 8:
        return UPSIDE_DOWN
    if entry.side_capable:
        return SIDE
    return UPRIGHT if slot % 2 == 0 else UPSIDE_DOWN


def make_object(entry: CatalogEntry, orientation: str, x: float, y: float,
                yaw: float, oid: int = 1) -> ObjectModel:
    return ObjectModel(id=oid, shape=entry.shape, mass=entry.mass,
                       wall_thickness=entry.wall_thickness,
                       pose=object_pose(entry.shape, orientation, x, y, yaw))


def benchmark_scene(name: str, attempt: int, master_seed: int) -> Scene:
    """Seeded single-object scene for one benchmark attempt. Raises
    InvalidConfig unless ``attempt`` is an integer >= 0."""
    check_count(attempt, "attempt")
    entry = catalog_entry(name)
    obj_index = OBJECT_NAMES.index(name)
    rng = rng_for(master_seed, 0xC0FFEE, obj_index, attempt)
    x, y = rng.uniform(-PLACEMENT_EXTENT, PLACEMENT_EXTENT, size=2)
    yaw = rng.uniform(0.0, 2.0 * np.pi)
    orientation = orientation_for_attempt(entry, attempt)
    obj = make_object(entry, orientation, float(x), float(y), float(yaw))
    return Scene(camera=default_camera(), objects=(obj,))


def benchmark_scene_set(names=OBJECT_NAMES, attempts: int = 12,
                        master_seed: int = 0) -> dict[str, list[Scene]]:
    check_count(attempts, "attempts")
    return {n: [benchmark_scene(n, a, master_seed) for a in range(attempts)]
            for n in names}
