"""Poking-region ground truth from rendered buffers.

A poking region is the part of an object's visible surface that is (a)
near-parallel to the table (the z component of the unit surface normal at
or above a threshold, the table being the plane z = 0 with +z up) and (b)
high enough above the table that a flat sensor can touch it without
bottoming out. Both thresholds are configurable; the defaults keep rims
and top faces and reject walls and low inner floors.

``poking_region`` reads the object pixels and their normals that the
render kept (``RenderBuffers.pixels`` and ``pixel_normals``), computes the
heights only there, then scatters the result into the frame. Its output
is byte-equal to the full-frame composition of ``height_map``, the
instance masks, ``bbox_of`` and the z component of a normals image that
holds those normals at the object pixels.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, ShapeMismatch
from .imgeo import bbox_of
from .render import RenderBuffers
from .scene import CameraModel

HEIGHT_SENTINEL = -np.inf

DEFAULT_TAU_DOT = float(np.cos(np.deg2rad(10.0)))
DEFAULT_H_MIN = 0.02


@dataclass(frozen=True)
class InstanceAnnotation:
    """Per-object masks and tight bounding box for one rendered view."""

    id: int
    mask: np.ndarray            # (H, W) bool, full visible-surface mask
    poking_region: np.ndarray   # (H, W) bool, subset of mask (may be empty)
    bbox: tuple[int, int, int, int]  # inclusive (u_min, v_min, u_max, v_max)

    @property
    def area(self) -> int:
        return int(np.count_nonzero(self.mask))

    @property
    def poking_area(self) -> int:
        return int(np.count_nonzero(self.poking_region))


def pixel_ray_dz(depth: np.ndarray, camera: CameraModel) -> np.ndarray:
    """(H, W) world z component of the unit pixel-ray directions.

    Raises ShapeMismatch unless ``depth`` is an (H, W) image of the camera.
    """
    if depth.shape != (camera.height, camera.width):
        raise ShapeMismatch(f"depth shape {depth.shape} does not match the "
                            f"{camera.height}x{camera.width} camera")
    return camera.pixel_directions()[:, 2].reshape(depth.shape)


def surface_heights(depth: np.ndarray, dz: np.ndarray, camera_z: float) -> np.ndarray:
    """World z of the surface points at ``depth`` along rays of z component
    ``dz`` from a camera at height ``camera_z``; -inf where the depth is not
    finite. Elementwise, so a gathered set of pixels gets the values the
    full frame has there."""
    hit = np.isfinite(depth)
    z = camera_z + np.where(hit, depth, 0.0) * dz
    return np.where(hit, z, HEIGHT_SENTINEL)


def height_map(depth: np.ndarray, camera: CameraModel) -> np.ndarray:
    """World z of the surface point behind every pixel; -inf where no hit.

    The surface point is the camera origin plus depth along the pixel ray,
    so only its z component is needed here. Raises ShapeMismatch unless
    ``depth`` is an (H, W) image of the camera.
    """
    return surface_heights(depth, pixel_ray_dz(depth, camera), camera.pose.translation[2])


def poking_region(buffers: RenderBuffers, camera: CameraModel, *,
                  tau_dot: float = DEFAULT_TAU_DOT,
                  h_min: float = DEFAULT_H_MIN) -> list[InstanceAnnotation]:
    """Ground-truth annotations for every object visible in the buffers.

    A pixel joins its instance's poking region iff its normal's z component
    (its dot with the table normal +z) is >= tau_dot and its height above
    the table z = 0 is >= h_min. Instances with no visible pixels are
    omitted; instances whose poking region is empty are kept (empty
    region). Raises InvalidConfig for thresholds outside their ranges, also
    with nothing in view.
    """
    if not (0.0 < tau_dot <= 1.0):
        raise InvalidConfig("tau_dot must be in (0, 1]")
    # an infinite or NaN h_min would silently empty every region
    if not (0.0 <= h_min < np.inf):
        raise InvalidConfig("h_min must be finite and >= 0")
    instance = buffers.instance
    idx = buffers.pixels
    dots = buffers.pixel_normals[:, 2]
    dz = pixel_ray_dz(buffers.depth, camera).reshape(-1)[idx]
    heights = surface_heights(buffers.depth.reshape(-1)[idx], dz, camera.pose.translation[2])
    eligible = np.zeros(instance.shape, dtype=bool)
    eligible.reshape(-1)[idx] = (dots >= tau_dot) & (heights >= h_min)
    out = []
    for oid in np.unique(instance.reshape(-1)[idx]):
        mask = buffers.instance_mask(int(oid))
        if not mask.any():
            continue
        out.append(InstanceAnnotation(id=int(oid), mask=mask,
                                      poking_region=mask & eligible,
                                      bbox=bbox_of(mask)))
    return out
