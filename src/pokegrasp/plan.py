"""Poking-point and heuristic-grasp planning.

The poking point is derived from the poking-region mask alone: fit an
ellipse to the region's external contour; poke at the ellipse center when
it falls on the region (simply-connected case, e.g. a closed top face),
else at the region pixel nearest the center (ring case, e.g. a vessel
rim) so the sensor lands on material instead of the opening.

The grasp proposal is a top-down parallel-jaw grasp [x, y, z, w, theta]:

* center on the region -> centroid grasp at the poked point, maximum
  width, oriented by the fitted ellipse angle;
* ring case -> compare the horizontal distance D between the poked rim
  point and the ellipse center (both taken at the contact height). If D
  exceeds half a finger width there is room to slot one finger inside the
  opening: edge grasp at the rim point with width 2*D along the
  center-to-rim bearing. Otherwise the object is small enough to span:
  centroid grasp at the center.

Angles are radians in [0, pi) measured from the x axis (image u axis for
ellipse angles, world x for bearings).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import EmptyMask, InvalidConfig, WidthOverflow
from .imgeo import Ellipse, find_external_contour, fit_ellipse, nearest_positive
from .scene import CameraModel

SIMPLY_CONNECTED = "simply-connected"
RING = "ring"


@dataclass(frozen=True)
class GripperSpec:
    maximum_gripper_width: float = 0.085
    finger_width: float = 0.020

    def __post_init__(self):
        if self.maximum_gripper_width <= 0 or self.finger_width <= 0:
            raise InvalidConfig("gripper dimensions must be positive")
        if self.finger_width >= self.maximum_gripper_width:
            raise InvalidConfig("finger_width must be smaller than the opening width")


@dataclass(frozen=True)
class GraspProposal:
    x: float
    y: float
    z: float
    w: float
    theta: float
    kind: str  # 'centroid' | 'edge'

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y, "z": self.z, "w": self.w,
                "theta": self.theta, "kind": self.kind}


@dataclass(frozen=True)
class PokePlan:
    point_px: tuple[int, int]            # (u, v) on the poking region
    ellipse: Optional[Ellipse]           # None for naive centroid guidance
    region_topology: str                 # SIMPLY_CONNECTED | RING


def _centroid_pixel(ellipse: Ellipse) -> tuple[int, int]:
    return int(round(ellipse.centroid[0])), int(round(ellipse.centroid[1]))


def _in_region(region: np.ndarray, px: tuple[int, int]) -> bool:
    u, v = px
    h, w = region.shape
    return 0 <= u < w and 0 <= v < h and bool(region[v, u])


def poking_point(region: np.ndarray) -> PokePlan:
    """Pixel-frame poking point for one poking-region mask."""
    region = np.asarray(region, dtype=bool)
    if not region.any():
        raise EmptyMask("poking region is empty")
    contour = find_external_contour(region)
    ellipse = fit_ellipse(contour)
    center_px = _centroid_pixel(ellipse)
    if _in_region(region, center_px):
        return PokePlan(point_px=center_px, ellipse=ellipse,
                        region_topology=SIMPLY_CONNECTED)
    point = nearest_positive(region, ellipse.centroid)
    return PokePlan(point_px=point, ellipse=ellipse, region_topology=RING)


def heuristic_grasp(poke_world: np.ndarray, region: np.ndarray, ellipse: Ellipse,
                    camera: CameraModel, gripper: GripperSpec) -> GraspProposal:
    """Top-down grasp proposal from a poked point and its region geometry.

    ``poke_world`` is the contact position; its z is the contact height at
    which the ellipse center is back-projected.
    """
    poke_world = np.asarray(poke_world, dtype=np.float64)
    region = np.asarray(region, dtype=bool)
    if _in_region(region, _centroid_pixel(ellipse)):
        return GraspProposal(x=float(poke_world[0]), y=float(poke_world[1]),
                             z=float(poke_world[2]),
                             w=gripper.maximum_gripper_width,
                             theta=ellipse.rotation_angle, kind="centroid")
    center_world = camera.backproject_at_height(ellipse.centroid, float(poke_world[2]))
    delta = poke_world[:2] - center_world[:2]
    dist = float(np.hypot(delta[0], delta[1]))
    if dist > 0.5 * gripper.finger_width:
        width = 2.0 * dist
        if width > gripper.maximum_gripper_width:
            raise WidthOverflow(width, gripper.maximum_gripper_width)
        bearing = float(np.arctan2(delta[1], delta[0])) % np.pi
        return GraspProposal(x=float(poke_world[0]), y=float(poke_world[1]),
                             z=float(poke_world[2]), w=width, theta=bearing,
                             kind="edge")
    return GraspProposal(x=float(center_world[0]), y=float(center_world[1]),
                         z=float(poke_world[2]),
                         w=gripper.maximum_gripper_width,
                         theta=ellipse.rotation_angle, kind="centroid")
