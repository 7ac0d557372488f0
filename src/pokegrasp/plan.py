"""Poking-point and heuristic-grasp planning.

The poking point is derived from the poking-region mask alone: fit an
ellipse to the region's boundary pixels; poke at the ellipse center when
it falls on the region (simply-connected case, e.g. a closed top face),
else at the region pixel nearest the center (ring case, e.g. a vessel
rim) so the sensor lands on material instead of the opening.

The grasp proposal is a top-down parallel-jaw grasp [x, y, z, w, theta],
planned from the poking point's plan, whose topology is decided once:

* simply-connected plan -> centroid grasp at the poked point, maximum
  width, oriented by the world bearing of the fitted ellipse's major axis;
* ring plan -> compare the horizontal distance D between the poked rim
  point and the ellipse center (both taken at the contact height). If D
  exceeds half a finger width there is room to slot one finger inside the
  opening: edge grasp at the rim point with width 2*D along the
  center-to-rim bearing. Otherwise the object is small enough to span:
  centroid grasp at the center.

A proposal's theta is a world bearing in [0, pi) from +x in both branches.
The camera mirrors and tilts image angles, so a centroid grasp takes the
bearing from the ellipse centre to the pixel one unit along its major
axis, both back-projected at the grasp height.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidConfig, WidthOverflow
from .imgeo import Ellipse, boundary_pixels, fit_ellipse, nearest_positive
from .scene import CameraModel

SIMPLY_CONNECTED = "simply-connected"
RING = "ring"


@dataclass(frozen=True)
class GripperSpec:
    maximum_gripper_width: float = 0.085
    finger_width: float = 0.020

    def __post_init__(self):
        # with a NaN finger_width the localization bound err >= 0.5 * nan is
        # never true, so every grasp that crosses the wall would succeed
        if not (math.isfinite(self.maximum_gripper_width) and math.isfinite(self.finger_width)):
            raise InvalidConfig("gripper dimensions must be finite")
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


def poking_point(region: np.ndarray) -> PokePlan:
    """Pixel-frame poking point for one poking-region mask.

    The ellipse is fitted to every boundary pixel of the region
    (``boundary_pixels``). Where its rounded centre lies on the region (a
    closed top face), that pixel is the poke: simply connected. Otherwise
    the region is a ring (a vessel rim), and the poke is the region pixel
    nearest the ellipse centre, ties going to the first in row-major order.
    Rounding sets that pick, since many inner-edge pixels are nearly as
    near: a sub-pixel move of the centre can flip it across the rim. Raises
    EmptyMask for an empty region, DegenerateInput where the fit fails.
    """
    region = np.asarray(region, dtype=bool)
    ellipse = fit_ellipse(boundary_pixels(region))
    u, v = (int(round(c)) for c in ellipse.centroid)
    h, w = region.shape
    if 0 <= u < w and 0 <= v < h and region[v, u]:
        return PokePlan(point_px=(u, v), ellipse=ellipse, region_topology=SIMPLY_CONNECTED)
    return PokePlan(point_px=nearest_positive(region, ellipse.centroid), ellipse=ellipse,
                    region_topology=RING)


def heuristic_grasp(poke_world: np.ndarray, plan: PokePlan, camera: CameraModel,
                    gripper: GripperSpec) -> GraspProposal:
    """Top-down grasp proposal from a poked point and the plan it was poked by.

    ``poke_world`` is the contact position; its z is the contact height at
    which the ellipse center is back-projected. ``plan`` is the
    ``poking_point`` of the poked region: its ``region_topology`` picks the
    branch and its ``ellipse`` gives the center and the major axis.
    Raises InvalidConfig for a plan with no ellipse (a bbox or mask guidance
    plan) and WidthOverflow when an edge grasp would open wider than the
    gripper.
    """
    ellipse = plan.ellipse
    if ellipse is None:
        raise InvalidConfig("heuristic_grasp needs a plan with a fitted ellipse")
    poke_world = np.asarray(poke_world, dtype=np.float64)
    x, y, z = (float(v) for v in poke_world)
    center = camera.backproject_at_height(ellipse.centroid, z)[:2]
    if plan.region_topology == RING:
        delta = poke_world[:2] - center
        dist = float(np.hypot(delta[0], delta[1]))
        if dist > 0.5 * gripper.finger_width:
            width = 2.0 * dist
            if width > gripper.maximum_gripper_width:
                raise WidthOverflow(width, gripper.maximum_gripper_width)
            bearing = float(np.arctan2(delta[1], delta[0])) % np.pi
            return GraspProposal(x=x, y=y, z=z, w=width, theta=bearing, kind="edge")
        x, y = float(center[0]), float(center[1])
    a = ellipse.rotation_angle
    tip = camera.backproject_at_height(np.add(ellipse.centroid, (np.cos(a), np.sin(a))), z)
    bearing = float(np.arctan2(tip[1] - center[1], tip[0] - center[0])) % np.pi
    return GraspProposal(x=x, y=y, z=z, w=gripper.maximum_gripper_width, theta=bearing,
                         kind="centroid")
