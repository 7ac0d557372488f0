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
passes through the sphere ahead of the origin. Every pixel ray starts at
the camera centre, so the cull is one matrix-vector product of the ray
directions with the centre-to-sphere vector. The pad covers rounding in
that product too: it can only add or drop rays that miss, so the buffers
are the same as intersecting every ray.

``top_heights`` serves the tactile sensel columns. It needs only the hit
distance: it takes the minimum over the same per-primitive distances as
``intersect_object``, skips the nearest-face gather and the normals, and
casts the shared downward direction as one row. A query may name a
``floor``, such as a sensing plane: a column whose surface does not rise
above it reads -inf. An object whose top lies below the floor is skipped.
A solid of revolution with a vertical axis casts each primitive only on the
columns whose distance to the axis falls in the radial span where that
primitive rises above the floor, padded by 1e-9 in radius and in height.
The primitive that sets a column's top above the floor is always among
them, so every column above the floor reads the full query's height, byte
for byte. Boxes and side-lying or tilted solids cast every column.

``top_height_bound`` bounds ``top_heights`` over an axis-aligned rectangle
of columns without casting, the same bounding-volume idea applied to a
sensor footprint. For a solid of revolution with a vertical axis it keeps
the primitives whose radial range meets the rectangle's distances to the
axis and takes each one's highest point there; any other object
contributes its highest point, ``object_top_z``. ``harness.simulate_poke``
skips the probes whose footprint bound cannot reach the sensing plane.
The bound and the floored query read the primitives of a vertical-axis
solid from one place, ``_vertical_profile``.

The ray and column kernels work on 1-D per-axis arrays: they read the
columns ``o[:, a]`` and ``d[:, a]`` of their (n, 3) inputs and combine the
axes elementwise. No (n, 3) array is broadcast against a (3,) vector or
reduced along its length-3 axis; numpy runs either as n inner loops of
length 3. The box slab test folds its axes with ``np.maximum`` /
``np.minimum`` and picks the entry axis with a strict ``>``, the first
maximum that ``argmax`` returns. A dot product or squared norm is written
out left to right, the order in which numpy reduces the axis. The results
are therefore those of the (n, 3) forms, byte for byte. Primitives are
compiled once per (shape, wall thickness) and a pose's inverse once per
pose.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidGeometry
from .geometry import RigidTransform
from .scene import Box, ObjectModel, RevolutionProfile, Scene

T_EPS = 1e-9
NO_HIT = np.inf

# compiled primitives of up to this many distinct (shape, wall thickness) pairs
_PRIMITIVES_KEPT = 64
_PRIMITIVES: dict[tuple, tuple] = {}


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


def compile_primitives(obj: ObjectModel) -> tuple[tuple, ...]:
    """Local-frame primitives: ('frustum', r0, z0, r1, z1, tag),
    ('disk', zc, r_in, r_out, tag) or ('box', w, d, h, tag).

    Objects with equal shapes and wall thicknesses share one cached tuple.
    """
    key = (obj.shape, obj.wall_thickness)
    prims = _PRIMITIVES.get(key)
    if prims is None:
        prims = tuple(_compile_shape(obj.shape, obj.wall_thickness))
        if len(_PRIMITIVES) >= _PRIMITIVES_KEPT:
            _PRIMITIVES.clear()  # one atomic step, unlike evicting a chosen key
        _PRIMITIVES[key] = prims
    return prims


def _compile_shape(shape, wall: float) -> list[tuple]:
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


def _frustum_normal(x, y, r0, z0, r1, z1):
    """Outward unit normal (N,3) of the frustum at the local points whose
    coordinates are x, y (N,)."""
    k = (r1 - r0) / (z1 - z0)
    nz = -k * np.maximum(np.hypot(x, y), 1e-12)
    # summed in the order np.linalg.norm(axis=-1) sums the squares
    norm = np.sqrt(x * x + y * y + nz * nz)
    return np.stack([x / norm, y / norm, nz / norm], axis=-1)


def _intersect_disk(o, d, zc, r_in, r_out):
    with np.errstate(divide="ignore", invalid="ignore"):
        t = (zc - o[:, 2]) / d[:, 2]
    x = o[:, 0] + t * d[:, 0]
    y = o[:, 1] + t * d[:, 1]
    rho2 = x * x + y * y
    ok = (np.abs(d[:, 2]) > 1e-14) & (t > T_EPS) & (rho2 >= r_in ** 2 - 1e-15) & (rho2 <= r_out ** 2 + 1e-15)
    return np.where(ok, t, NO_HIT)


def _intersect_box(o, d, w, dd, h):
    """Slab test, one axis at a time: (t, near_ax), t = +inf where missed and
    near_ax the first axis of the entry slab."""
    for ax, (lo, hi) in enumerate(((-w / 2.0, w / 2.0), (-dd / 2.0, dd / 2.0), (0.0, h))):
        o_a, d_a = o[:, ax], d[:, ax]
        with np.errstate(divide="ignore", invalid="ignore"):
            t0 = (lo - o_a) / d_a
            t1 = (hi - o_a) / d_a
        t_lo = np.where(np.isnan(t0), -NO_HIT, np.minimum(t0, t1))
        t_hi = np.where(np.isnan(t1), NO_HIT, np.maximum(t0, t1))
        # rays parallel to a slab: hit only if origin is inside that slab
        par = np.abs(d_a) < 1e-14
        inside = (o_a >= lo) & (o_a <= hi)
        t_lo = np.where(par, np.where(inside, -NO_HIT, NO_HIT), t_lo)
        t_hi = np.where(par, np.where(inside, NO_HIT, -NO_HIT), t_hi)
        if ax == 0:
            t_near, t_far = t_lo, t_hi
            near_ax = np.zeros(t_lo.shape, dtype=np.intp)
        else:
            # strictly greater keeps the first of equal entries, as argmax does
            near_ax = np.where(t_lo > t_near, ax, near_ax)
            t_near = np.maximum(t_near, t_lo)
            t_far = np.minimum(t_far, t_hi)
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
    kind = prim[0]
    if kind == "frustum":
        return _frustum_normal(o[:, 0] + t * d[:, 0], o[:, 1] + t * d[:, 1], *prim[1:5])
    if kind == "disk":
        n = np.zeros_like(o)
        n[:, 2] = 1.0
        return n
    _, near_ax = _intersect_box(o, d, *prim[1:4])
    return _box_normal(d, near_ax)


def intersect_object(obj: ObjectModel, origins: np.ndarray, dirs: np.ndarray):
    """Nearest hit of many world-frame rays against one object.

    Returns (t, normal_world, face_index); t = +inf where the object is
    missed. Normals are geometric and oriented against the ray.
    """
    inv = obj.pose.inverse()
    o = inv.apply(origins)
    d = inv.apply_vector(dirs)
    prims = compile_primitives(obj)
    ts = np.stack([_intersect_primitive_t(p, o, d) for p in prims], axis=0)
    face = np.argmin(ts, axis=0)
    t = ts[face, np.arange(ts.shape[1])]
    normal = np.zeros_like(o)
    for i, prim in enumerate(prims):
        sel = (face == i) & np.isfinite(t)
        if not np.any(sel):
            continue
        normal[sel] = _primitive_normal(prim, o[sel], d[sel], t[sel])
    # orient against the ray, then carry into the world frame
    flip = normal[:, 0] * d[:, 0] + normal[:, 1] * d[:, 1] + normal[:, 2] * d[:, 2] > 0.0
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


def _cast(scene: Scene, origin: np.ndarray, dirs: np.ndarray):
    """Nearest hits of the rays ``origin + t * dirs`` that share one (3,)
    origin: the table plane (instance id 0), then every object."""
    n = dirs.shape[0]
    normal = np.zeros((n, 3))
    inst = np.zeros(n, dtype=np.int32)
    # table plane z = table_height, instance id 0
    dz = dirs[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        t_table = (scene.table_height - origin[2]) / dz
    ok = (np.abs(dz) > 1e-14) & (t_table > T_EPS)
    depth = np.where(ok, t_table, NO_HIT)
    normal[:, 2] = np.where(ok, np.where(dz < 0, 1.0, -1.0), 0.0)
    for obj in scene.objects:
        # only rays whose line passes through the bounding sphere, ahead of
        # the origin, can hit the object; the rest would return t = inf
        center, radius = _bounding_sphere(obj)
        oc = center - origin
        along = dirs @ oc
        off2 = oc @ oc - along * along
        idx = np.flatnonzero((off2 <= radius * radius) & (along > -radius))
        origins = np.empty((idx.size, 3))
        for i in range(3):
            origins[:, i] = origin[i]
        t, nrm, _ = intersect_object(obj, origins, dirs[idx])
        closer = t < depth[idx]
        hit = idx[closer]
        depth[hit] = t[closer]
        normal[hit] = nrm[closer]
        inst[hit] = obj.id
    return depth, normal, inst


def render(scene: Scene) -> RenderBuffers:
    """Render the camera view to depth / normal / instance buffers.

    Every pixel ray starts at the camera centre and runs along the cached
    ``CameraModel.pixel_directions`` grid.
    """
    cam = scene.camera
    depth, normal, inst = _cast(scene, cam.pose.translation, cam.pixel_directions())
    shape = (cam.height, cam.width)
    return RenderBuffers(depth=depth.reshape(shape),
                         normals=normal.reshape(shape + (3,)),
                         instance=inst.reshape(shape))


# ---------------------------------------------------------------------------
# solid queries shared by the tactile and trial simulators
# ---------------------------------------------------------------------------

def object_top_z(obj: ObjectModel) -> float:
    """World height of the object's highest point (for a solid of
    revolution, of the bounding cylinder of its widest radius)."""
    if isinstance(obj.shape, Box):
        w, d, h = obj.shape.size
        corners = np.array([[sx * w / 2, sy * d / 2, sz * h]
                            for sx in (-1, 1) for sy in (-1, 1) for sz in (0, 1)])
        return float(obj.pose.apply(corners)[:, 2].max())
    a_z = float((obj.pose.rotation @ np.array([0.0, 0.0, 1.0]))[2])
    spread = obj.shape.max_radius * math.sqrt(max(0.0, 1.0 - a_z * a_z))
    axis_top = max(obj.shape.z_min * a_z, obj.shape.z_max * a_z)
    return float(obj.pose.translation[2]) + axis_top + spread


def _vertical_profile(obj: ObjectModel) -> Optional[list[tuple[float, float, float, float]]]:
    """The primitives of a solid of revolution whose axis is vertical
    (upright or upside down), in ``compile_primitives`` order, as the
    profile segments ``(r0, h0, r1, h1)`` they sweep about the axis, where
    ``h`` is the height above the pose origin (a disk is a flat segment);
    None for a box or any other pose.
    """
    if isinstance(obj.shape, Box):
        return None
    rot = obj.pose.rotation
    # vertical up to rounding in the pose (upside down leaves ~1e-16): the
    # axis then drifts far less than the 1e-9 pads of the callers
    if math.hypot(rot[0, 2], rot[1, 2]) > 1e-12:
        return None
    up = 1.0 if rot[2, 2] > 0 else -1.0
    segments = []
    for prim in compile_primitives(obj):
        if prim[0] == "disk":
            _, zc, r_in, r_out, _ = prim
            segments.append((r_in, up * zc, r_out, up * zc))
        else:
            _, r0, z0, r1, z1, _ = prim
            segments.append((r0, up * z0, r1, up * z1))
    return segments


def top_height_bound(objects: Sequence[ObjectModel], xy_lo, xy_hi) -> float:
    """Upper bound on ``top_heights`` over the columns of the axis-aligned
    rectangle [xy_lo, xy_hi]; -inf when no object can lie under it.

    A solid of revolution whose axis is vertical (upright or upside down)
    is bounded by the profile segments whose radial range meets the
    rectangle's distances to the axis, each at its highest point over that
    overlap. Any other object contributes its ``object_top_z``.
    """
    lo = np.asarray(xy_lo, dtype=np.float64)
    hi = np.asarray(xy_hi, dtype=np.float64)
    bound = -NO_HIT
    for obj in objects:
        profile = _vertical_profile(obj)
        if profile is None:
            bound = max(bound, object_top_z(obj))
            continue
        axis = obj.pose.translation[:2]
        near = np.clip(axis, lo, hi) - axis
        far = np.maximum(np.abs(lo - axis), np.abs(hi - axis))
        # the pad also covers the squared-radius tolerance of _intersect_disk
        rho_lo = max(float(np.hypot(*near)) - 1e-9, 0.0)
        rho_hi = float(np.hypot(*far)) + 1e-9
        hs = []
        for r0, h0, r1, h1 in profile:
            a, b = max(min(r0, r1), rho_lo), min(max(r0, r1), rho_hi)
            if a > b:
                continue
            if r0 == r1:
                hs += [h0, h1]
            else:
                hs += [h0 + (r - r0) * (h1 - h0) / (r1 - r0) for r in (a, b)]
        if hs:
            bound = max(bound, float(obj.pose.translation[2]) + max(hs))
    return bound


def _radial_span_above(segment, h_floor: float) -> Optional[tuple[float, float]]:
    """Radii at which a profile segment ``(r0, h0, r1, h1)`` rises above
    ``h_floor``; None where it does not."""
    r0, h0, r1, h1 = segment
    if max(h0, h1) <= h_floor:
        return None
    if min(h0, h1) >= h_floor:
        return min(r0, r1), max(r0, r1)
    # the segment crosses the floor: from the crossing radius to its upper end
    r_cross = r0 + (h_floor - h0) * (r1 - r0) / (h1 - h0)
    r_top = r1 if h1 > h0 else r0
    return min(r_cross, r_top), max(r_cross, r_top)


def _column_ts(obj: ObjectModel, origins: np.ndarray, floor: float) -> np.ndarray:
    """Distance down each vertical column from ``origins`` to the object's
    top surface; +inf where the column misses the object.

    Under a finite ``floor`` a solid of revolution with a vertical axis
    evaluates a primitive only on the columns whose distance to the axis
    lies in the radial span where the primitive rises above the floor,
    padded by 1e-9 in radius and in height. The primitive that sets a
    column's top above the floor is then always evaluated there, so the
    minimum over the evaluated primitives is the full one. A column whose
    top does not rise above the floor may read a longer distance or +inf.
    """
    inv = obj.pose.inverse()
    o = inv.apply(origins)
    d = inv.apply_vector(np.array([[0.0, 0.0, -1.0]]))
    prims = compile_primitives(obj)
    profile = _vertical_profile(obj) if floor > -NO_HIT else None
    if profile is None:
        return np.min([_intersect_primitive_t(p, o, d) for p in prims], axis=0)
    rho2 = o[:, 0] * o[:, 0] + o[:, 1] * o[:, 1]
    h_floor = floor - float(obj.pose.translation[2]) - 1e-9
    t = np.full(o.shape[0], NO_HIT)
    for prim, segment in zip(prims, profile):
        span = _radial_span_above(segment, h_floor)
        if span is None:
            continue
        lo, hi = max(span[0] - 1e-9, 0.0), span[1] + 1e-9
        idx = np.flatnonzero((rho2 >= lo * lo) & (rho2 <= hi * hi))
        if idx.size:
            t[idx] = np.minimum(t[idx], _intersect_primitive_t(prim, o[idx], d))
    return t


def top_heights(objects: Sequence[ObjectModel], xy: np.ndarray, z_start: float = 10.0,
                floor: float = -NO_HIT):
    """Highest object surface under each (x, y) column.

    Returns (height, instance_id); -inf / 0 where no object surface rises
    above ``floor`` (by default, where no object is below). A column above
    the floor reads the same height as the full query. The table is
    deliberately excluded: callers decide what table contact means for
    them.
    """
    xy = np.asarray(xy, dtype=np.float64)
    n = xy.shape[0]
    origins = np.empty((n, 3))
    origins[:, 0] = xy[:, 0]
    origins[:, 1] = xy[:, 1]
    origins[:, 2] = z_start
    best_t = np.full(n, NO_HIT)
    ids = np.zeros(n, dtype=np.int32)
    for obj in objects:
        if object_top_z(obj) <= floor - 1e-9:
            continue
        t = _column_ts(obj, origins, floor)
        closer = t < best_t
        best_t = np.where(closer, t, best_t)
        ids = np.where(closer, obj.id, ids)
    height = np.where(np.isfinite(best_t), z_start - best_t, -NO_HIT)
    above = height > floor
    return np.where(above, height, -NO_HIT), np.where(above, ids, 0)


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
