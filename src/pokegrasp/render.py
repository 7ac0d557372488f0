"""Analytic ray casting: depth / surface-normal / instance-id buffers.

Objects are compiled into local-frame primitives:

* frustum lateral surfaces (one per profile polyline segment),
* horizontal disks / annuli (caps, rims, cavity floors),
* boxes (slab intersection).

Transparent objects are rendered opaque: the buffers are geometry channels
(nearest-surface depth, unit world normal, instance id), not photometry.
Depth is the Euclidean distance along the pixel ray. Pixels that hit
nothing carry depth +inf, a zero normal and instance id 0; the table plane
is a hit with instance id 0 and finite depth.

Rays are cast through integer pixel coordinates (u, v) so that
``camera.project`` of a hit point returns the pixel it was rendered at.
Their directions come from ``CameraModel.pixel_directions``, one cached
grid shared with ``regions.height_map`` and ``harness.corrupt_depth``.

An object covers a small part of the frame, so a camera render first culls
the rays against a padded bounding sphere of each object (revolution
profiles: centred on the axis at mid-height; boxes: half the space
diagonal) and runs the primitive intersection only for the rays whose line
passes through the sphere ahead of the origin. The buffers are the same as
intersecting every ray.

``top_heights`` serves the tactile sensel columns, nearly all of which are
candidates, so it does not cull. It needs only the hit distance: it takes
the minimum over the per-primitive distances that ``intersect_object``
computes too, and skips the nearest-face gather and the normals.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidGeometry
from .geometry import RigidTransform
from .scene import Box, ObjectModel, RevolutionProfile, Scene

T_EPS = 1e-9
NO_HIT = np.inf


@dataclass(frozen=True)
class RenderBuffers:
    """Per-pixel geometry channels from a render pass."""

    depth: np.ndarray     # (H, W) float64, +inf where nothing was hit
    normals: np.ndarray   # (H, W, 3) float64 unit vectors, 0 where no hit
    instance: np.ndarray  # (H, W) int32, 0 = table or no hit

    @property
    def hit(self) -> np.ndarray:
        return np.isfinite(self.depth)

    def instance_mask(self, oid: int) -> np.ndarray:
        return (self.instance == oid) & self.hit


@dataclass(frozen=True)
class Hit:
    t: float
    normal: np.ndarray
    face: str


# ---------------------------------------------------------------------------
# primitive compilation (object local frame)
# ---------------------------------------------------------------------------

def _inner_polyline(profile: RevolutionProfile, wall: float) -> list[tuple[float, float]]:
    """Inner cavity silhouette: outer profile offset inward by the wall."""
    if profile.cavity_depth is not None:
        cavity_z = profile.z_max - profile.cavity_depth
    else:
        cavity_z = profile.z_min + wall
    if cavity_z >= profile.z_max:
        raise InvalidGeometry("cavity floor at or above the rim")
    pts = [(float(profile.radius_at(cavity_z)) - wall, cavity_z)]
    pts += [(r - wall, z) for r, z in profile.points if cavity_z < z < profile.z_max]
    pts.append((profile.top_radius - wall, profile.z_max))
    if any(r <= 0 for r, _ in pts):
        raise InvalidGeometry("cavity wall offset exceeds profile radius")
    return pts


def compile_primitives(obj: ObjectModel) -> list[tuple]:
    """Local-frame primitive list: ('frustum', r0, z0, r1, z1, tag),
    ('disk', zc, r_in, r_out, tag) or ('box', w, d, h, tag)."""
    shape = obj.shape
    prims: list[tuple] = []
    if isinstance(shape, Box):
        w, d, h = shape.size
        prims.append(("box", w, d, h, "box"))
        return prims
    pts = shape.points
    # disks precede frusta: where a ray grazes the circle shared by a cap and
    # a wall (equal t) the tie resolves to the horizontal cap's normal
    if shape.bottom_radius > 0:
        prims.append(("disk", shape.z_min, 0.0, shape.bottom_radius, "bottom"))
    if not shape.open_top:
        if shape.top_radius > 0:
            prims.append(("disk", shape.z_max, 0.0, shape.top_radius, "top"))
        for i, ((r0, z0), (r1, z1)) in enumerate(zip(pts, pts[1:])):
            prims.append(("frustum", r0, z0, r1, z1, f"outer:{i}"))
        return prims
    wall = obj.wall_thickness
    inner = _inner_polyline(shape, wall)
    prims.append(("disk", shape.z_max, shape.top_radius - wall, shape.top_radius, "rim"))
    prims.append(("disk", inner[0][1], 0.0, inner[0][0], "cavity_floor"))
    for i, ((r0, z0), (r1, z1)) in enumerate(zip(pts, pts[1:])):
        prims.append(("frustum", r0, z0, r1, z1, f"outer:{i}"))
    for i, ((r0, z0), (r1, z1)) in enumerate(zip(inner, inner[1:])):
        prims.append(("frustum", r0, z0, r1, z1, f"inner:{i}"))
    return prims


# ---------------------------------------------------------------------------
# vectorized primitive intersection
# ---------------------------------------------------------------------------

def _intersect_frustum(o, d, r0, z0, r1, z1):
    """Smallest positive t hitting the lateral surface; +inf where none."""
    k = (r1 - r0) / (z1 - z0)
    m = r0 + k * (o[:, 2] - z0)
    a = d[:, 0] ** 2 + d[:, 1] ** 2 - (k * d[:, 2]) ** 2
    b = 2.0 * (o[:, 0] * d[:, 0] + o[:, 1] * d[:, 1] - m * k * d[:, 2])
    c = o[:, 0] ** 2 + o[:, 1] ** 2 - m ** 2
    t_best = np.full(o.shape[0], NO_HIT)
    with np.errstate(divide="ignore", invalid="ignore"):
        lin = np.abs(a) < 1e-14
        disc = b * b - 4.0 * a * c
        sq = np.sqrt(np.maximum(disc, 0.0))
        roots = [
            np.where(lin, -c / b, (-b - sq) / (2.0 * a)),
            np.where(lin, NO_HIT, (-b + sq) / (2.0 * a)),
        ]
        solvable = np.where(lin, np.abs(b) > 1e-14, disc >= 0.0)
        for t in roots:
            z_hit = o[:, 2] + t * d[:, 2]
            rad = m + t * k * d[:, 2]
            ok = (solvable & np.isfinite(t) & (t > T_EPS)
                  & (z_hit >= z0 - 1e-12) & (z_hit <= z1 + 1e-12) & (rad >= 0.0))
            t_best = np.where(ok & (t < t_best), t, t_best)
    return t_best


def _frustum_normal(p, r0, z0, r1, z1):
    """Outward surface normal of the frustum at local points p (N,3)."""
    k = (r1 - r0) / (z1 - z0)
    rho = np.maximum(np.hypot(p[:, 0], p[:, 1]), 1e-12)
    n = np.stack([p[:, 0], p[:, 1], -k * rho], axis=-1)
    return n / np.linalg.norm(n, axis=-1, keepdims=True)


def _intersect_disk(o, d, zc, r_in, r_out):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (zc - o[:, 2]) / d[:, 2]
    x = o[:, 0] + t * d[:, 0]
    y = o[:, 1] + t * d[:, 1]
    rho2 = x * x + y * y
    ok = (np.abs(d[:, 2]) > 1e-14) & (t > T_EPS) & (rho2 >= r_in ** 2 - 1e-15) & (rho2 <= r_out ** 2 + 1e-15)
    return np.where(ok, t, NO_HIT)


def _intersect_box(o, d, w, dd, h):
    lo = np.array([-w / 2.0, -dd / 2.0, 0.0])
    hi = np.array([w / 2.0, dd / 2.0, h])
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (lo - o) / d
        t1 = (hi - o) / d
    t_lo = np.where(np.isnan(t0), -NO_HIT, np.minimum(t0, t1))
    t_hi = np.where(np.isnan(t1), NO_HIT, np.maximum(t0, t1))
    # rays parallel to a slab: hit only if origin is inside that slab
    par = np.abs(d) < 1e-14
    inside = (o >= lo) & (o <= hi)
    t_lo = np.where(par, np.where(inside, -NO_HIT, NO_HIT), t_lo)
    t_hi = np.where(par, np.where(inside, NO_HIT, -NO_HIT), t_hi)
    near_ax = np.argmax(t_lo, axis=1)
    t_near = np.max(t_lo, axis=1)
    t_far = np.min(t_hi, axis=1)
    ok = (t_near <= t_far + 1e-15) & (t_far > T_EPS)
    t = np.where(t_near > T_EPS, t_near, t_far)
    return np.where(ok, t, NO_HIT), near_ax


def _box_normal(d, near_ax):
    n = np.zeros((d.shape[0], 3))
    idx = np.arange(d.shape[0])
    n[idx, near_ax] = -np.sign(d[idx, near_ax])
    zero = n[idx, near_ax] == 0.0
    n[zero, near_ax[zero]] = 1.0
    return n


def _intersect_primitive_t(prim, o, d):
    kind = prim[0]
    if kind == "frustum":
        return _intersect_frustum(o, d, *prim[1:5])
    if kind == "disk":
        return _intersect_disk(o, d, *prim[1:4])
    if kind == "box":
        t, _ = _intersect_box(o, d, *prim[1:4])
        return t
    raise InvalidGeometry(f"unknown primitive {kind!r}")


def _primitive_normal(prim, o, d, t):
    p = o + t[:, None] * d
    kind = prim[0]
    if kind == "frustum":
        return _frustum_normal(p, *prim[1:5])
    if kind == "disk":
        n = np.zeros_like(p)
        n[:, 2] = 1.0
        return n
    _, near_ax = _intersect_box(o, d, *prim[1:4])
    return _box_normal(d, near_ax)


def _primitive_ts(obj: ObjectModel, origins: np.ndarray, dirs: np.ndarray):
    """Object-frame rays and the (n_primitives, n_rays) hit distances."""
    inv = obj.pose.inverse()
    o = inv.apply(origins)
    d = inv.apply_vector(dirs)
    prims = compile_primitives(obj)
    ts = np.stack([_intersect_primitive_t(p, o, d) for p in prims], axis=0)
    return prims, o, d, ts


def intersect_object(obj: ObjectModel, origins: np.ndarray, dirs: np.ndarray):
    """Nearest hit of many world-frame rays against one object.

    Returns (t, normal_world, face_index); t = +inf where the object is
    missed. Normals are geometric and oriented against the ray.
    """
    prims, o, d, ts = _primitive_ts(obj, origins, dirs)
    face = np.argmin(ts, axis=0)
    t = ts[face, np.arange(ts.shape[1])]
    normal = np.zeros_like(o)
    for i, prim in enumerate(prims):
        sel = (face == i) & np.isfinite(t)
        if not np.any(sel):
            continue
        normal[sel] = _primitive_normal(prim, o[sel], d[sel], t[sel])
    # orient against the ray, then carry into the world frame
    flip = np.sum(normal * d, axis=-1) > 0.0
    normal[flip] *= -1.0
    return t, obj.pose.apply_vector(normal), face


def ray_intersect(obj: ObjectModel, origin: Sequence[float], direction: Sequence[float]) -> Optional[Hit]:
    """Single-ray convenience wrapper; None when the object is missed."""
    direction = np.asarray(direction, dtype=np.float64)
    if abs(np.linalg.norm(direction) - 1.0) > 1e-9:
        raise InvalidGeometry("ray direction must be unit length")
    o = np.asarray(origin, dtype=np.float64)[None, :]
    d = direction[None, :]
    t, n, face = intersect_object(obj, o, d)
    if not np.isfinite(t[0]):
        return None
    tag = compile_primitives(obj)[int(face[0])][-1]
    return Hit(t=float(t[0]), normal=n[0], face=tag)


# ---------------------------------------------------------------------------
# scene rendering
# ---------------------------------------------------------------------------

def _bounding_sphere(obj: ObjectModel) -> tuple[np.ndarray, float]:
    """World centre and radius of a sphere enclosing the object's solid,
    padded so that rounding in the primitive tests cannot put a hit outside."""
    shape = obj.shape
    if isinstance(shape, Box):
        w, d, h = shape.size
        zc, radius = h / 2.0, 0.5 * float(np.sqrt(w * w + d * d + h * h))
    else:
        # the distance to the axis point is convex along each profile segment
        zc = (shape.z_min + shape.z_max) / 2.0
        radius = max(float(np.hypot(r, z - zc)) for r, z in shape.points)
    return obj.pose.apply(np.array([0.0, 0.0, zc])), radius * (1.0 + 1e-9) + 1e-9


def _cast(scene: Scene, origins: np.ndarray, dirs: np.ndarray):
    n = origins.shape[0]
    depth = np.full(n, NO_HIT)
    normal = np.zeros((n, 3))
    inst = np.zeros(n, dtype=np.int32)
    # table plane z = table_height, instance id 0
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_table = (scene.table_height - origins[:, 2]) / dz
    ok = (np.abs(dz) > 1e-14) & (t_table > T_EPS)
    depth = np.where(ok, t_table, depth)
    normal[ok] = np.where(dz[ok, None] < 0, [0.0, 0.0, 1.0], [0.0, 0.0, -1.0])
    for obj in scene.objects:
        # only rays whose line passes through the bounding sphere, ahead of
        # the origin, can hit the object; the rest would return t = inf
        center, radius = _bounding_sphere(obj)
        oc = center - origins
        along = np.einsum("ij,ij->i", oc, dirs)
        off2 = np.einsum("ij,ij->i", oc, oc) - along * along
        idx = np.flatnonzero((off2 <= radius * radius) & (along > -radius))
        t, nrm, _ = intersect_object(obj, origins[idx], dirs[idx])
        closer = t < depth[idx]
        hit = idx[closer]
        depth[hit] = t[closer]
        normal[hit] = nrm[closer]
        inst[hit] = obj.id
    return depth, normal, inst


def render(scene: Scene, threads: Optional[int] = None) -> RenderBuffers:
    """Render the camera view to depth / normal / instance buffers.

    ``threads`` defaults to the POKEGRASP_THREADS environment variable
    (else 1). Pixels are independent, so any thread count produces
    byte-identical buffers.
    """
    if threads is None:
        threads = max(1, int(os.environ.get("POKEGRASP_THREADS", "1")))
    cam = scene.camera
    d = cam.pixel_directions()
    o = np.broadcast_to(cam.pose.translation, d.shape)
    n = o.shape[0]
    if threads <= 1 or n < 4096:
        depth, normal, inst = _cast(scene, o, d)
    else:
        depth = np.full(n, NO_HIT)
        normal = np.zeros((n, 3))
        inst = np.zeros(n, dtype=np.int32)
        bounds = np.linspace(0, n, threads + 1, dtype=int)
        def work(i):
            lo, hi = bounds[i], bounds[i + 1]
            return lo, hi, _cast(scene, o[lo:hi], d[lo:hi])
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for lo, hi, (dp, nm, it) in pool.map(work, range(threads)):
                depth[lo:hi] = dp
                normal[lo:hi] = nm
                inst[lo:hi] = it
    shape = (cam.height, cam.width)
    return RenderBuffers(depth=depth.reshape(shape),
                         normals=normal.reshape(shape + (3,)),
                         instance=inst.reshape(shape))


# ---------------------------------------------------------------------------
# solid queries shared by the tactile and trial simulators
# ---------------------------------------------------------------------------

def top_heights(objects: Sequence[ObjectModel], xy: np.ndarray, z_start: float = 10.0):
    """Highest object surface under each (x, y) column.

    Returns (height, instance_id); -inf / 0 where no object is below.
    The table is deliberately excluded: callers decide what table contact
    means for them.
    """
    xy = np.asarray(xy, dtype=np.float64)
    n = xy.shape[0]
    origins = np.concatenate([xy, np.full((n, 1), z_start)], axis=1)
    dirs = np.broadcast_to(np.array([0.0, 0.0, -1.0]), (n, 3))
    best_t = np.full(n, NO_HIT)
    ids = np.zeros(n, dtype=np.int32)
    for obj in objects:
        _, _, _, ts = _primitive_ts(obj, origins, dirs)
        t = ts.min(axis=0)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        ids = np.where(closer, obj.id, ids)
    height = np.where(np.isfinite(best_t), z_start - best_t, -NO_HIT)
    return height, ids


def contains(obj: ObjectModel, points: np.ndarray) -> np.ndarray:
    """Boolean test: which world points lie inside the object's solid."""
    p = obj.pose.inverse().apply(np.atleast_2d(np.asarray(points, dtype=np.float64)))
    shape = obj.shape
    if isinstance(shape, Box):
        w, d, h = shape.size
        return ((np.abs(p[:, 0]) <= w / 2.0) & (np.abs(p[:, 1]) <= d / 2.0)
                & (p[:, 2] >= 0.0) & (p[:, 2] <= h))
    z = p[:, 2]
    rho = np.hypot(p[:, 0], p[:, 1])
    r_out = shape.radius_at(z)
    inside = (z >= shape.z_min) & (z <= shape.z_max) & (rho <= r_out)
    if shape.open_top:
        inner = _inner_polyline(shape, obj.wall_thickness)
        zi = np.array([q[1] for q in inner])
        ri = np.array([q[0] for q in inner])
        r_in = np.interp(z, zi, ri)
        in_cavity = (z > inner[0][1]) & (rho < r_in)
        inside &= ~in_cavity
    return inside
