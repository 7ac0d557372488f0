"""Poking-region ground truth from rendered buffers.

A poking region is the part of an object's visible surface that is (a)
near-parallel to the table (surface normal dotted with the table normal at
or above a threshold) and (b) high enough above the table that a flat
sensor can touch it without bottoming out. Both thresholds are
configurable; the defaults keep rims and top faces and reject walls and
low inner floors.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, ShapeMismatch
from .render import RenderBuffers
from .scene import CameraModel

DOT_SENTINEL = -2.0
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


def dot_product_map(normals: np.ndarray, table_normal: np.ndarray) -> np.ndarray:
    """Per-pixel normal . table_normal; -2 sentinel where nothing was hit.

    No-hit pixels are identified by their zero normal vector.
    """
    table_normal = np.asarray(table_normal, dtype=np.float64)
    if abs(np.linalg.norm(table_normal) - 1.0) > 1e-9:
        raise InvalidConfig("table_normal must be unit length")
    dots = normals @ table_normal
    # equal to np.linalg.norm(normals, axis=-1), in fewer full-frame passes
    nx, ny, nz = normals[..., 0], normals[..., 1], normals[..., 2]
    hit = np.sqrt(nx * nx + ny * ny + nz * nz) > 0.5
    return np.where(hit, dots, DOT_SENTINEL)


def pixel_ray_dz(depth: np.ndarray, camera: CameraModel) -> np.ndarray:
    """(H, W) world z component of the unit pixel-ray directions.

    Raises ShapeMismatch unless ``depth`` is an (H, W) image of the camera.
    """
    if depth.shape != (camera.height, camera.width):
        raise ShapeMismatch(f"depth shape {depth.shape} does not match the "
                            f"{camera.height}x{camera.width} camera")
    return camera.pixel_directions()[:, 2].reshape(depth.shape)


def height_map(depth: np.ndarray, camera: CameraModel) -> np.ndarray:
    """World z of the surface point behind every pixel; -inf where no hit.

    The surface point is the camera origin plus depth along the pixel ray,
    so only its z component is needed here. Raises ShapeMismatch unless
    ``depth`` is an (H, W) image of the camera.
    """
    dz = pixel_ray_dz(depth, camera)
    hit = np.isfinite(depth)
    z = camera.pose.translation[2] + np.where(hit, depth, 0.0) * dz
    return np.where(hit, z, HEIGHT_SENTINEL)


def bbox_of(mask: np.ndarray) -> tuple[int, int, int, int]:
    vs, us = np.nonzero(mask)
    return int(us.min()), int(vs.min()), int(us.max()), int(vs.max())


def poking_region(buffers: RenderBuffers, camera: CameraModel,
                  table_normal=(0.0, 0.0, 1.0),
                  tau_dot: float = DEFAULT_TAU_DOT,
                  h_min: float = DEFAULT_H_MIN) -> list[InstanceAnnotation]:
    """Ground-truth annotations for every object visible in the buffers.

    A pixel joins its instance's poking region iff dot >= tau_dot and
    height >= h_min. Instances with no visible pixels are omitted;
    instances whose poking region is empty are kept (empty region).
    """
    if not (0.0 < tau_dot <= 1.0):
        raise InvalidConfig("tau_dot must be in (0, 1]")
    if h_min < 0.0:
        raise InvalidConfig("h_min must be >= 0")
    dots = dot_product_map(buffers.normals, table_normal)
    heights = height_map(buffers.depth, camera)
    eligible = (dots >= tau_dot) & (heights >= h_min)
    out = []
    instance = buffers.instance
    for oid in np.unique(instance[instance != 0]):
        mask = buffers.instance_mask(int(oid))
        if not mask.any():
            continue
        out.append(InstanceAnnotation(id=int(oid), mask=mask,
                                      poking_region=mask & eligible,
                                      bbox=bbox_of(mask)))
    return out
