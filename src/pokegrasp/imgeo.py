"""2-D binary-image geometry kernels used by the planners.

Pixel coordinates are (u, v) = (column, row) throughout; masks are indexed
``mask[v, u]``. A mask's boundary pixels are its positive pixels with a
4-neighbour outside it: the mask minus its 4-connected erosion, taken on
the mask's bounding window padded by one background pixel, in row-major
order. Every component and every hole contributes its boundary.

The ellipse fit is the direct least-squares conic fit constrained to
ellipses (Fitzgibbon, Pilu & Fisher, 1999), in the numerically stabilized
form that splits the 6x6 generalized eigenproblem into a 3x3 one
(quadratic vs. linear monomials). It is algebraic, so the order of its
points does not matter; it is non-iterative and recovers exact-ellipse
inputs to round-off.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, EmptyMask


@dataclass(frozen=True)
class Ellipse:
    """Geometric ellipse: center, semi-axes (a >= b), major-axis angle."""

    centroid: tuple[float, float]   # (u, v)
    semi_major: float
    semi_minor: float
    rotation_angle: float           # radians in [0, pi), from the +u axis

    def __post_init__(self):
        if not (self.semi_major >= self.semi_minor > 0):
            raise DegenerateInput("ellipse axes must satisfy a >= b > 0")
        angle = float(self.rotation_angle) % np.pi
        object.__setattr__(self, "rotation_angle", angle)


def bbox_of(mask: np.ndarray) -> tuple[int, int, int, int]:
    """Inclusive (u_min, v_min, u_max, v_max) of the positive pixels, read
    from ``any`` over the rows and the columns. Raises EmptyMask when the
    mask has no positive pixel."""
    rows = np.flatnonzero(mask.any(axis=1))
    if len(rows) == 0:
        raise EmptyMask("mask has no positive pixels")
    cols = np.flatnonzero(mask.any(axis=0))
    return int(cols[0]), int(rows[0]), int(cols[-1]), int(rows[-1])


def boundary_pixels(mask: np.ndarray) -> np.ndarray:
    """(N, 2) integer (u, v) of the mask's boundary pixels, in row-major
    order: the positive pixels with a 4-neighbour outside the mask. Raises
    EmptyMask when the mask has no positive pixel."""
    mask = np.asarray(mask, dtype=bool)
    u0, v0, u1, v1 = bbox_of(mask)
    pad = np.pad(mask[v0:v1 + 1, u0:u1 + 1], 1)
    inner = pad[1:-1, 1:-1]
    eroded = inner & pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:]
    vs, us = np.nonzero(inner & ~eroded)
    return np.column_stack([us + u0, vs + v0])


def nearest_positive(mask: np.ndarray, q) -> tuple[int, int]:
    """Positive pixel closest to q = (u, v); ties go to the smallest
    row-major index."""
    mask = np.asarray(mask, dtype=bool)
    vs, us = np.nonzero(mask)
    if len(vs) == 0:
        raise EmptyMask("mask has no positive pixels")
    qu, qv = float(q[0]), float(q[1])
    d2 = (us - qu) ** 2 + (vs - qv) ** 2
    i = int(np.argmin(d2))  # first minimum in row-major order
    return int(us[i]), int(vs[i])


def fit_ellipse(points) -> Ellipse:
    """Direct least-squares ellipse fit of >= 5 (u, v) points."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DegenerateInput(f"expected (N, 2) points, got {pts.shape}")
    if pts.shape[0] < 5:
        raise DegenerateInput("ellipse fit needs at least 5 points")
    mean = pts.mean(axis=0)
    x = pts[:, 0] - mean[0]
    y = pts[:, 1] - mean[1]
    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t = -np.linalg.solve(s3, s2.T)
        m = s1 + s2 @ t
        evals, evecs = np.linalg.eig(np.array([m[2] / 2.0, -m[1], m[0] / 2.0]))
    except np.linalg.LinAlgError as e:
        raise DegenerateInput("collinear or degenerate points") from e
    best = None
    for k in range(3):
        if abs(evals[k].imag) > 1e-8 * (abs(evals[k].real) + 1.0):
            continue
        a1 = evecs[:, k].real
        cond = 4.0 * a1[0] * a1[2] - a1[1] ** 2
        if cond > 0.0:
            best = a1
            break
    if best is None:
        raise DegenerateInput("no elliptical solution (points may be degenerate)")
    conic = np.concatenate([best, t @ best])
    return _conic_to_ellipse(conic, mean)


def _conic_to_ellipse(conic: np.ndarray, mean: np.ndarray) -> Ellipse:
    a, b, c, d, e, f = conic
    den = b * b - 4.0 * a * c
    if den >= 0.0:
        raise DegenerateInput("conic is not an ellipse")
    x0 = (2.0 * c * d - b * e) / den
    y0 = (2.0 * a * e - b * d) / den
    f0 = a * x0 * x0 + b * x0 * y0 + c * y0 * y0 + d * x0 + e * y0 + f
    scale = -f0
    if scale < 0.0:
        a, b, c, scale = -a, -b, -c, -scale
    half = (a + c) / 2.0
    spread = np.hypot((a - c) / 2.0, b / 2.0)
    lam_min = half - spread
    lam_max = half + spread
    if lam_min <= 0.0 or scale <= 0.0:
        raise DegenerateInput("conic is not a real ellipse")
    semi_major = float(np.sqrt(scale / lam_min))
    semi_minor = float(np.sqrt(scale / lam_max))
    # major axis = eigenvector of the smaller eigenvalue of [[a, b/2], [b/2, c]]
    vx, vy = b / 2.0, lam_min - a
    if abs(vx) < 1e-300 and abs(vy) < 1e-300:
        vx, vy = lam_min - c, b / 2.0
    if abs(vx) < 1e-300 and abs(vy) < 1e-300:
        angle = 0.0
    else:
        angle = float(np.arctan2(vy, vx)) % np.pi
    return Ellipse(centroid=(float(x0 + mean[0]), float(y0 + mean[1])),
                   semi_major=semi_major, semi_minor=semi_minor,
                   rotation_angle=angle)
