"""Rigid transforms and small rotation helpers.

Conventions: rotations are 3x3 row-major matrices, translations 3-vectors,
all lengths in meters. A transform maps points from its source frame into
its target frame as ``R @ p + t``.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidGeometry

ORTHONORMAL_TOL = 1e-9


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=np.float64, copy=True)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class RigidTransform:
    """Proper rigid transform (rotation + translation), immutable."""

    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        r = _as_readonly(self.rotation)
        t = _as_readonly(self.translation)
        if r.shape != (3, 3) or t.shape != (3,):
            raise InvalidGeometry(f"bad transform shapes {r.shape}, {t.shape}")
        if not np.allclose(r.T @ r, np.eye(3), atol=ORTHONORMAL_TOL * 10):
            raise InvalidGeometry("rotation is not orthonormal")
        if np.linalg.det(r) < 0:
            raise InvalidGeometry("rotation has negative determinant (reflection)")
        object.__setattr__(self, "rotation", r)
        object.__setattr__(self, "translation", t)

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform()

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map points (shape (3,) or (N,3)) from source to target frame.

        The translation is added one coordinate column at a time: the same
        IEEE adds as broadcasting the (3,) vector, without the broadcast.
        """
        out = np.asarray(points, dtype=np.float64) @ self.rotation.T
        for i in range(3):
            out[..., i] += self.translation[i]
        return out

    def apply_vector(self, vectors: np.ndarray) -> np.ndarray:
        """Rotate direction vectors (no translation)."""
        v = np.asarray(vectors, dtype=np.float64)
        return v @ self.rotation.T

    def inverse(self) -> "RigidTransform":
        """The inverse transform: one object per transform, built (and
        checked) on the first call."""
        return self._inverse

    @functools.cached_property
    def _inverse(self) -> "RigidTransform":
        rt = self.rotation.T
        return RigidTransform(rt, -rt @ self.translation)


def rot_x(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
