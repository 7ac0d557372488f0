"""Flat optical tactile sensor simulation and analysis.

The simulated "tactile image" is an indentation map: each sensel stores
how deep the nearest object surface penetrates the sensing plane, clamped
to [0, max_indent], with 0 meaning no contact. Contact detection by
image subtraction and the ring-arc alignment both operate on such maps
exactly as they would on thresholded photometric frames.

The sensor's local frame spans the sensing surface with x/y and has +z
along the outward surface normal; during poking the surface faces the
table, i.e. the pose rotation maps local +z to world -z. Sensel (i, j)
(row i, column j) sits at local (x_j, y_i, 0) with
x_j = (j + 0.5) * area_x / res_x - area_x / 2 and the analogous y_i.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInput, InsufficientContact, InvalidConfig, ResolutionMismatch
from .geometry import RigidTransform, rot_z
from .imgeo import find_external_contour, fit_ellipse
from scipy import ndimage

DEFAULT_AREA_X = 0.014
DEFAULT_AREA_Y = 0.0105
DEFAULT_RES_X = 160
DEFAULT_RES_Y = 120
DEFAULT_MAX_INDENT = 0.002
DEFAULT_VALUE_THRESHOLD = 0.0001
DEFAULT_COUNT_THRESHOLD = 40


def sensor_pose_at(center, yaw: float = 0.0) -> RigidTransform:
    """Pose of a downward-facing sensor whose surface center is ``center``."""
    flip = np.diag([1.0, -1.0, -1.0])  # local +z -> world -z, det +1
    return RigidTransform(rot_z(yaw) @ flip, np.asarray(center, dtype=np.float64))


@dataclass(frozen=True)
class TactileSensorSpec:
    area_x: float = DEFAULT_AREA_X
    area_y: float = DEFAULT_AREA_Y
    res_x: int = DEFAULT_RES_X
    res_y: int = DEFAULT_RES_Y
    pose: RigidTransform = field(default_factory=lambda: sensor_pose_at((0.0, 0.0, 0.1)))
    max_indent: float = DEFAULT_MAX_INDENT

    def __post_init__(self):
        # a NaN max_indent clips every indentation to NaN: no sensel counts
        if not all(math.isfinite(v) for v in (self.area_x, self.area_y, self.max_indent)):
            raise InvalidConfig("sensing area and max_indent must be finite")
        if self.area_x <= 0 or self.area_y <= 0:
            raise InvalidConfig("sensing area must be positive")
        if self.res_x < 16 or self.res_y < 16:
            raise InvalidConfig("resolutions must be >= 16")
        if self.max_indent <= 0:
            raise InvalidConfig("max_indent must be positive")
        down = self.pose.rotation @ np.array([0.0, 0.0, 1.0])
        if np.linalg.norm(down - np.array([0.0, 0.0, -1.0])) > 1e-6:
            raise InvalidConfig("sensing surface must be parallel to the table, facing down")

    @property
    def pitch_x(self) -> float:
        return self.area_x / self.res_x

    @property
    def pitch_y(self) -> float:
        return self.area_y / self.res_y

    def at_pose(self, pose: RigidTransform) -> "TactileSensorSpec":
        return TactileSensorSpec(self.area_x, self.area_y, self.res_x, self.res_y,
                                 pose, self.max_indent)

    def sensel_grid_local(self) -> np.ndarray:
        """Local (res_y * res_x, 3) sensel centers on the sensing plane."""
        xs = (np.arange(self.res_x) + 0.5) * self.pitch_x - self.area_x / 2.0
        ys = (np.arange(self.res_y) + 0.5) * self.pitch_y - self.area_y / 2.0
        xx, yy = np.meshgrid(xs, ys)
        return np.stack([xx, yy, np.zeros_like(xx)], axis=-1).reshape(-1, 3)

    @functools.cached_property
    def sensel_offsets(self) -> np.ndarray:
        """Read-only world offsets of the sensel centres from the centre of
        a sensor posed by ``sensor_pose_at`` (yaw 0); computed once per spec,
        so a probe adds only its centre."""
        offsets = self.sensel_grid_local() @ sensor_pose_at(np.zeros(3)).rotation.T
        offsets.setflags(write=False)
        return offsets

    def pixel_to_local(self, uv) -> np.ndarray:
        """Continuous sensel coordinates -> local metric point on the plane."""
        x = (float(uv[0]) + 0.5) * self.pitch_x - self.area_x / 2.0
        y = (float(uv[1]) + 0.5) * self.pitch_y - self.area_y / 2.0
        return np.array([x, y, 0.0])


@dataclass(frozen=True)
class TactileFrame:
    image: np.ndarray          # (res_y, res_x) indentation depth in meters
    pose: RigidTransform       # sensor pose at capture
    timestamp: int = 0

    @property
    def resolution(self) -> tuple[int, int]:
        return self.image.shape[1], self.image.shape[0]


def frame_from_heights(heights: np.ndarray, spec: TactileSensorSpec,
                       plane_z: float, timestamp: int = 0) -> TactileFrame:
    pen = np.clip(heights - plane_z, 0.0, spec.max_indent)
    pen = np.where(np.isfinite(heights), pen, 0.0)
    return TactileFrame(image=pen, pose=spec.pose, timestamp=timestamp)


def detect_contact(reference: TactileFrame, current: TactileFrame,
                   value_threshold: float = DEFAULT_VALUE_THRESHOLD,
                   count_threshold: int = DEFAULT_COUNT_THRESHOLD) -> tuple[bool, int]:
    """Image-subtraction contact test.

    positive_count = #pixels whose absolute difference exceeds
    value_threshold; contact iff positive_count > count_threshold.
    """
    if reference.image.shape != current.image.shape:
        raise ResolutionMismatch(f"{reference.image.shape} vs {current.image.shape}")
    diff = np.abs(current.image - reference.image)
    count = int(np.count_nonzero(diff > value_threshold))
    return count > count_threshold, count


def _inner_contact_contour(contact: np.ndarray) -> np.ndarray:
    """Contour points of the contact region's inner ring.

    When the contact region encloses a hole (a full ring in view), the
    hole's boundary is the inner ring. With only an arc in view there is
    no enclosed hole; the external contour of the arc is the best
    available stand-in.
    """
    background = ~contact
    labels, n = ndimage.label(background)  # 4-connectivity complements the 8-connected region
    hole_mask = None
    if n > 0:
        border_labels = set(np.unique(labels[0, :])) | set(np.unique(labels[-1, :])) \
            | set(np.unique(labels[:, 0])) | set(np.unique(labels[:, -1]))
        best_size = 0
        for lab in range(1, n + 1):
            if lab in border_labels:
                continue
            size = int(np.count_nonzero(labels == lab))
            if size > best_size:
                best_size = size
                hole_mask = labels == lab
    if hole_mask is not None:
        return find_external_contour(hole_mask)
    return find_external_contour(contact)


def tactile_align(frame: TactileFrame, spec: TactileSensorSpec) -> np.ndarray:
    """Rectified world-frame centroid of the contacted ring.

    Fits an ellipse to the inner contour of the contact region in the
    tactile image and maps its center through the sensel pitch and the
    sensor pose. The returned point lies on the sensing plane; only its
    horizontal components are meaningful as a grasp-center correction.
    """
    contact = frame.image > 0.0
    if np.count_nonzero(contact) < 5:
        raise InsufficientContact(f"{np.count_nonzero(contact)} contact pixels")
    contour = _inner_contact_contour(contact)
    if contour.shape[0] < 5:
        raise InsufficientContact(f"{contour.shape[0]} contour points")
    ellipse = fit_ellipse(contour)
    local = spec.pixel_to_local(ellipse.centroid)
    return frame.pose.apply(local)
