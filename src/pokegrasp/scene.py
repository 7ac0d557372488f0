"""Scene description: camera model and parametric objects on a table.

World frame is the table frame: the table is the plane z = 0 and +z is
up. This is a constant of the model, not a field of a scene; resting
poses, heights, thresholds and the sensor's approach all read it. Camera
frame follows the usual pinhole convention: +z along the view direction,
+x to the image right, +y down the image. ``CameraModel.pose`` maps
camera-frame points into the world.

Objects come in two shapes:

* ``RevolutionProfile`` -- a solid of revolution about the local +z axis,
  described by a polyline of (radius, height) pairs with strictly
  increasing heights. Open-top profiles get a cavity: the inner surface is
  the outer profile offset inward by ``wall_thickness`` and the cavity
  floor sits ``wall_thickness`` above the lowest profile point (or at
  ``height_of_rim - cavity_depth`` when ``cavity_depth`` is given). This
  is what produces ring-shaped rims on upright vessels. An object is built
  only where its floor lies strictly between the base and the rim and the
  offset wall stays off the axis (``_inner_polyline``), and it keeps that
  silhouette as ``ObjectModel.cavity``. A closed top takes no cavity depth.
* ``Box`` -- a solid cuboid spanning x in [-w/2, w/2], y in [-d/2, d/2],
  z in [0, h] in its local frame.

Both shapes give their local height range as ``z_min`` / ``z_max``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidConfig, InvalidGeometry, PointBehindCamera, RayParallelToPlane
from .geometry import RigidTransform

RAY_PARALLEL_TOL = 1e-12
T_EPS = 1e-9  # a ray's hits lie beyond this distance from its origin

# the pixel-ray grids and table depths of up to a few distinct cameras,
# keyed by camera values
_CAMERA_GRIDS_KEPT = 4
_CAMERA_GRIDS: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera with a rigid camera-to-world pose."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    pose: RigidTransform = field(default_factory=RigidTransform.identity)

    def __post_init__(self):
        # a NaN focal length passes the sign check and renders no finite depth
        if not all(math.isfinite(v) for v in (self.fx, self.fy, self.cx, self.cy)):
            raise InvalidConfig("focal lengths and principal point must be finite")
        if self.fx <= 0 or self.fy <= 0:
            raise InvalidConfig("focal lengths must be positive")
        if not all(isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                   for n in (self.width, self.height)):
            raise InvalidConfig("width and height must be integers")
        # this also rejects a width or height below 1
        if not (0 <= self.cx < self.width) or not (0 <= self.cy < self.height):
            raise InvalidConfig("principal point outside the image")

    def project(self, p_world: np.ndarray) -> tuple:
        """World point(s) -> continuous pixel (u, v): floats for a (3,)
        point, (N,) arrays for (N, 3) points.

        Raises PointBehindCamera when a camera-frame depth is <= 0.
        """
        pc = self.pose.inverse().apply(np.asarray(p_world, dtype=np.float64))
        z = pc[..., 2]
        if np.any(z <= 0.0):
            raise PointBehindCamera(f"camera-frame depth {np.min(z):.6g} <= 0")
        return (self.fx * pc[..., 0] / z + self.cx, self.fy * pc[..., 1] / z + self.cy)

    def pixel_ray(self, pixel: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
        """World-frame (origin, unit direction) of the ray through a pixel."""
        u, v = float(pixel[0]), float(pixel[1])
        d_cam = np.array([(u - self.cx) / self.fx, (v - self.cy) / self.fy, 1.0])
        d_world = self.pose.apply_vector(d_cam)
        d_world /= np.linalg.norm(d_world)
        return self.pose.translation.copy(), d_world

    def pixel_directions(self) -> np.ndarray:
        """Read-only (height*width, 3) unit world directions of the rays
        through the integer pixels, row-major over (v, u)."""
        return self._grids()[0]

    def table_depth(self) -> np.ndarray:
        """Read-only (height*width,) distance along each pixel ray to the
        table plane z = 0, in ``pixel_directions`` order; +inf where the ray
        runs parallel to the table or meets it no further than ``T_EPS``."""
        return self._grids()[1]

    def _grids(self) -> tuple[np.ndarray, np.ndarray]:
        """The pixel-ray grid and the table depth, computed once per camera:
        equal cameras, such as each scene's own copy of one, share them."""
        rot, origin = self.pose.rotation, self.pose.translation
        key = (self.fx, self.fy, self.cx, self.cy, self.width, self.height,
               rot.tobytes(), origin.tobytes())
        grids = _CAMERA_GRIDS.get(key)
        if grids is None:
            uu, vv = np.meshgrid(np.arange(self.width, dtype=np.float64),
                                 np.arange(self.height, dtype=np.float64))
            d_cam = np.stack([(uu - self.cx) / self.fx, (vv - self.cy) / self.fy,
                              np.ones_like(uu)], axis=-1)
            d = d_cam.reshape(-1, 3) @ rot.T
            d /= np.linalg.norm(d, axis=-1, keepdims=True)
            dz = d[:, 2]
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                t_table = (0.0 - origin[2]) / dz
            depth = np.where((np.abs(dz) > 1e-14) & (t_table > T_EPS), t_table, np.inf)
            grids = (d, depth)
            d.setflags(write=False)
            depth.setflags(write=False)
            if len(_CAMERA_GRIDS) >= _CAMERA_GRIDS_KEPT:
                _CAMERA_GRIDS.clear()  # one atomic step, unlike evicting a chosen key
            _CAMERA_GRIDS[key] = grids
        return grids

    def backproject_at_height(self, pixel: Sequence[float], height: float) -> np.ndarray:
        """Intersect the pixel ray with the horizontal plane z = ``height``."""
        origin, d = self.pixel_ray(pixel)
        if abs(d[2]) < RAY_PARALLEL_TOL:
            raise RayParallelToPlane(f"pixel {pixel} ray is horizontal")
        t = (height - origin[2]) / d[2]
        return origin + t * d


@dataclass(frozen=True)
class RevolutionProfile:
    """Solid of revolution about local +z, outer silhouette as (radius, height) pairs."""

    points: tuple[tuple[float, float], ...]
    open_top: bool = False
    cavity_depth: Optional[float] = None

    def __post_init__(self):
        pts = tuple((float(r), float(z)) for r, z in self.points)
        if len(pts) < 2:
            raise InvalidGeometry("profile needs at least two points")
        if not all(math.isfinite(v) for p in pts for v in p):
            raise InvalidGeometry("profile points must be finite")
        if self.cavity_depth is not None and not self.open_top:
            raise InvalidGeometry("a closed top has no cavity_depth")
        if self.cavity_depth is not None and not math.isfinite(self.cavity_depth):
            raise InvalidGeometry("cavity_depth must be finite")
        if any(r < 0 for r, _ in pts):
            raise InvalidGeometry("profile radii must be >= 0")
        heights = [z for _, z in pts]
        if any(b <= a for a, b in zip(heights, heights[1:])):
            raise InvalidGeometry("profile heights must be strictly increasing")
        object.__setattr__(self, "points", pts)

    @property
    def z_min(self) -> float:
        return self.points[0][1]

    @property
    def z_max(self) -> float:
        return self.points[-1][1]

    @property
    def top_radius(self) -> float:
        return self.points[-1][0]

    @property
    def bottom_radius(self) -> float:
        return self.points[0][0]

    @property
    def max_radius(self) -> float:
        return max(r for r, _ in self.points)

    def radius_at(self, z):
        """Outer radius at height(s) z (linear interpolation, clamped ends)."""
        zs = [p[1] for p in self.points]
        rs = [p[0] for p in self.points]
        return np.interp(z, zs, rs)


def _inner_polyline(profile: RevolutionProfile, wall: float) -> tuple[tuple[float, float], ...]:
    """Inner cavity silhouette: outer profile offset inward by the wall, from
    the cavity floor to the rim. Raises InvalidGeometry unless the floor lies
    strictly between the base and the rim (a ``cavity_depth`` in
    (0, z_max - z_min)) and every offset radius is positive."""
    if profile.cavity_depth is not None:
        cavity_z = profile.z_max - profile.cavity_depth
    else:
        cavity_z = profile.z_min + wall
    if not profile.z_min < cavity_z < profile.z_max:
        raise InvalidGeometry("cavity floor must lie between the base and the rim")
    pts = [(float(profile.radius_at(cavity_z)) - wall, cavity_z)]
    pts += [(r - wall, z) for r, z in profile.points if cavity_z < z < profile.z_max]
    pts.append((profile.top_radius - wall, profile.z_max))
    if any(r <= 0 for r, _ in pts):
        raise InvalidGeometry("cavity wall offset exceeds profile radius")
    return tuple(pts)


@dataclass(frozen=True)
class Box:
    """Solid cuboid: local x in [-w/2, w/2], y in [-d/2, d/2], z in [0, h]."""

    size: tuple[float, float, float]

    def __post_init__(self):
        w, d, h = (float(s) for s in self.size)
        if not all(math.isfinite(v) for v in (w, d, h)):
            raise InvalidGeometry("box dimensions must be finite")
        if min(w, d, h) <= 0:
            raise InvalidGeometry("box dimensions must be positive")
        object.__setattr__(self, "size", (w, d, h))

    @property
    def z_min(self) -> float:
        return 0.0

    @property
    def z_max(self) -> float:
        return self.size[2]

    def corners(self) -> np.ndarray:
        """The eight local corners, (8, 3)."""
        w, d, h = self.size
        return np.array([[sx * w / 2, sy * d / 2, sz * h]
                         for sx in (-1, 1) for sy in (-1, 1) for sz in (0, 1)])


Shape = Union[RevolutionProfile, Box]


@dataclass(frozen=True)
class ObjectModel:
    """A posed rigid object with mass, for rendering and contact simulation.
    An open-top solid of revolution keeps its ``_inner_polyline`` as
    ``cavity``, derived and not passed; any other shape has None."""

    id: int
    shape: Shape
    mass: float
    pose: RigidTransform = field(default_factory=RigidTransform.identity)
    wall_thickness: float = 0.002
    cavity: Optional[tuple[tuple[float, float], ...]] = field(init=False, repr=False)

    def __post_init__(self):
        # a fractional id renders as its integer part and is never found again
        if not isinstance(self.id, (int, np.integer)) or isinstance(self.id, bool) \
                or self.id < 1:
            raise InvalidConfig("object ids are integers that start at 1")
        # a NaN mass fails every tipping comparison: a light cup would never topple
        if not (math.isfinite(self.mass) and math.isfinite(self.wall_thickness)):
            raise InvalidConfig("mass and wall_thickness must be finite")
        if self.mass <= 0:
            raise InvalidConfig("mass must be positive")
        if self.wall_thickness <= 0:
            raise InvalidConfig("wall_thickness must be positive")
        open_top = isinstance(self.shape, RevolutionProfile) and self.shape.open_top
        object.__setattr__(self, "cavity", _inner_polyline(self.shape, self.wall_thickness)
                           if open_top else None)


@dataclass(frozen=True)
class Scene:
    """Camera and posed objects; the table is the plane z = 0."""

    camera: CameraModel
    objects: tuple[ObjectModel, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "objects", tuple(self.objects))
        ids = [o.id for o in self.objects]
        if len(set(ids)) != len(ids):
            raise InvalidConfig("object ids must be unique")

    def object_by_id(self, oid: int) -> ObjectModel:
        for o in self.objects:
            if o.id == oid:
                return o
        raise KeyError(oid)
