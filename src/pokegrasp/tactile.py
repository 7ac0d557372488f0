"""Flat optical tactile sensor simulation and analysis.

The simulated "tactile image" is an indentation map (``frame_from_heights``):
each sensel stores how deep the nearest object surface penetrates the
sensing plane, clamped to [0, max_indent], with 0 meaning no contact. The
untouched sensor reads all zeros, so a frame is already its difference
from the untouched image, and contact detection (``detect_contact``)
counts the sensels of one frame that depart from zero by more than a
threshold.

The sensor is pressed straight down: its sensing surface is parallel to
the table, faces it and has yaw 0, so it is placed by the world position
of the surface centre alone, whose z is the sensing plane. In the sensor's
own frame sensel (i, j) (row i, column j) sits at (x_j, y_i) with
x_j = (j + 0.5) * area_x / res_x - area_x / 2 and the analogous y_i. Facing
down mirrors the sensor's y axis, so the sensel lies at world offset
(x_j, -y_i) from the centre.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig

DEFAULT_AREA_X = 0.014
DEFAULT_AREA_Y = 0.0105
DEFAULT_RES_X = 160
DEFAULT_RES_Y = 120
DEFAULT_MAX_INDENT = 0.002
DEFAULT_VALUE_THRESHOLD = 0.0001
DEFAULT_COUNT_THRESHOLD = 40


@dataclass(frozen=True)
class TactileSensorSpec:
    area_x: float = DEFAULT_AREA_X
    area_y: float = DEFAULT_AREA_Y
    res_x: int = DEFAULT_RES_X
    res_y: int = DEFAULT_RES_Y
    max_indent: float = DEFAULT_MAX_INDENT

    def __post_init__(self):
        # a NaN max_indent clips every indentation to NaN: no sensel counts
        if not all(math.isfinite(v) for v in (self.area_x, self.area_y, self.max_indent)):
            raise InvalidConfig("sensing area and max_indent must be finite")
        if self.area_x <= 0 or self.area_y <= 0:
            raise InvalidConfig("sensing area must be positive")
        if not all(isinstance(r, (int, np.integer)) and not isinstance(r, bool)
                   for r in (self.res_x, self.res_y)):
            raise InvalidConfig("resolutions must be integers")
        if self.res_x < 16 or self.res_y < 16:
            raise InvalidConfig("resolutions must be >= 16")
        if self.max_indent <= 0:
            raise InvalidConfig("max_indent must be positive")

    @property
    def pitch_x(self) -> float:
        return self.area_x / self.res_x

    @property
    def pitch_y(self) -> float:
        return self.area_y / self.res_y

    @functools.cached_property
    def sensel_offsets(self) -> np.ndarray:
        """Read-only (res_y * res_x, 2) world offsets (x_j, -y_i) of the sensel
        centres from the sensor centre, row-major; computed once per spec, so
        a probe adds only its centre."""
        xs = (np.arange(self.res_x) + 0.5) * self.pitch_x - self.area_x / 2.0
        ys = (np.arange(self.res_y) + 0.5) * self.pitch_y - self.area_y / 2.0
        xx, yy = np.meshgrid(xs, -ys)
        offsets = np.stack([xx.ravel(), yy.ravel()], axis=1)
        offsets.setflags(write=False)
        return offsets

    @functools.cached_property
    def lattice_offsets(self) -> np.ndarray:
        """Read-only ``sensel_offsets`` of the lattice a coarse probe casts
        first, row-major: sensel (4, 4) of every 8 x 8 block, counted from
        sensel (0, 0); 15 x 20 of the default sensels, 0.7 mm apart."""
        grid = self.sensel_offsets.reshape(self.res_y, self.res_x, 2)
        offsets = np.ascontiguousarray(grid[4::8, 4::8]).reshape(-1, 2)
        offsets.setflags(write=False)
        return offsets


def frame_from_heights(heights: np.ndarray, spec: TactileSensorSpec,
                       center: np.ndarray) -> np.ndarray:
    """The indentation image, in meters, of the sensor centred at ``center``
    over sensel-column surface ``heights``: each sensel indents by its
    height above the sensing plane ``center[2]``."""
    pen = np.clip(heights - center[2], 0.0, spec.max_indent)
    return np.where(np.isfinite(heights), pen, 0.0)


def detect_contact(frame: np.ndarray,
                   value_threshold: float = DEFAULT_VALUE_THRESHOLD,
                   count_threshold: int = DEFAULT_COUNT_THRESHOLD) -> tuple[bool, int]:
    """Contact test on one indentation frame.

    positive_count = #sensels indented by more than value_threshold;
    contact iff positive_count > count_threshold.
    """
    count = int(np.count_nonzero(frame > value_threshold))
    return count > count_threshold, count
