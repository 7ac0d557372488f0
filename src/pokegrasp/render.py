"""Analytic ray casting: depth / instance-id buffers and the object pixels'
surface normals.

Objects are compiled into local-frame primitives:

* frustum lateral surfaces (one per profile polyline segment),
* horizontal disks / annuli (caps, rims, cavity floors),
* boxes (slab intersection).

Transparent objects are rendered opaque: the buffers are geometry channels
(nearest-surface depth, instance id, and the unit world normal at each
object pixel), not photometry. Depth is the Euclidean distance along the
pixel ray. Pixels that hit nothing carry depth +inf and instance id 0; the
table plane is a hit with instance id 0 and finite depth.

Rays are cast through integer pixel coordinates (u, v) so that
``camera.project`` of a hit point returns the pixel it was rendered at.
Their directions come from ``CameraModel.pixel_directions``, one cached
grid whose z column ``regions.pixel_ray_dz`` reads for the height and the
depth-corruption models.

An object covers a small part of the frame, so a camera render pays for
the object, not the frame:

* The table is the world plane z = 0 with normal +z (``scene``), so its
  depth depends only on the camera. ``CameraModel.table_depth`` caches it
  read-only with the pixel-ray grid, once per camera. A render's depth
  starts from a copy of it and its instance ids from zeros. Normals
  are kept only at the object pixels: each one's normal is that of the
  closest object there.
* Each object has one bounding volume, its local box (``[-R, R]^2 x
  [z_min, z_max]`` for a solid of revolution, the box itself for a
  ``Box``), padded by 1e-7 m past the tolerances of the primitive tests.
  Only the pixels of the box's window are considered: the columns and rows
  spanned by its eight corners' ``CameraModel.project``, padded by 1 px
  and clipped to the image. When a corner is not in front of the camera,
  the window is the whole frame. The window's rays are tested against the
  box with a slab test in the object frame, where all rays share one
  origin, and only the rays that meet it reach ``intersect_object``.

The solid lies inside the padded box, and a convex box wholly in front of
the camera projects inside its corners' bounding rectangle; the pixel pad
covers the rounding of the projection. A culled ray is therefore one that
``intersect_object`` would miss. A kept ray gives the same bytes whichever
other rays are cast with it, so the buffers are byte-equal to those of
intersecting every ray.

``top_heights`` serves the tactile sensel columns. It casts each column
down from ``column_start``, 1 cm above the highest object point
(``scene_top_z``), so every column starts above every object. It needs
only the hit distance: it takes the minimum over the same per-primitive
distances as ``intersect_object``, skips the nearest-face gather and the
normals, and casts the shared downward direction as one row. A query may
name a ``floor``, such as a sensing plane: a column whose surface does not
rise above it reads -inf. One cull rule, ``_rising_primitives``, names the
primitives of an object that can rise above the floor, and an object that
keeps none is skipped:

* for a solid of revolution with a vertical axis, the primitives whose
  profile segment rises above the floor, each cast only on the columns
  whose distance to the axis falls in the radial span where it does,
  padded by 1e-9 in radius and in height (on every column, with no
  gather, where the span holds them all);
* for a side-lying or tilted solid, the primitives whose world top, the
  bounding cylinder of ``object_top_z`` taken primitive by primitive, lies
  above the floor less 1e-9, each cast on every column;
* for a box, its one primitive, while its top (``object_top_z``) lies
  above the floor less 1e-9.

The primitive that sets a column's top above the floor, and every
primitive that ties with it, are always among them, so every column above
the floor reads the full query's height, byte for byte. The contact-normal
cast (``_column_normal``) applies the same rule to one column with the
contact height as the floor: the nearest face is the full cast's, and so
is its normal.

``rises_above`` applies the same rule to an axis-aligned rectangle of
columns without casting, and ``harness.simulate_poke`` skips a probe when
it finds nothing under the sensor footprint that can indent a sensel.

The ray and column kernels work on 1-D per-axis arrays: they read the
columns ``o[:, a]`` and ``d[:, a]`` of their (n, 3) inputs and combine the
axes elementwise. No (n, 3) array is broadcast against a (3,) vector or
reduced along its length-3 axis; numpy runs either as n inner loops of
length 3. The box slab test folds its axes with ``np.maximum`` /
``np.minimum`` and picks the entry axis with a strict ``>``, the first
maximum that ``argmax`` returns. A dot product or squared norm is written
out left to right, the order in which numpy reduces the axis. The results
are therefore those of the (n, 3) forms, byte for byte. Primitives and
their profile segments are compiled once per (shape, wall thickness), from
the cavity the object keeps (``ObjectModel.cavity``), and a pose's inverse
once per pose.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidGeometry, PointBehindCamera
from .scene import T_EPS, Box, CameraModel, ObjectModel, Scene

NO_HIT = np.inf

# compiled primitives, with their profile segments, of up to this many
# distinct (shape, wall thickness) pairs
_PRIMITIVES_KEPT = 64
_PRIMITIVES: dict[tuple, tuple] = {}

# pad of the local-box cull, past the height and squared-radius tolerances
# of the primitive tests
_BOX_PAD = 1e-7
# the eight corners of a box, as whether each takes the high coordinate
_CORNER_HIGH = np.array(list(itertools.product((False, True), repeat=3)))


@dataclass(frozen=True, eq=False)
class RenderBuffers:
    """Per-pixel geometry channels from a render pass; the fields cannot be
    rebound.

    * ``depth``: (H, W) float64, +inf where nothing was hit;
    * ``instance``: (H, W) int32, 0 = table or no hit;
    * ``pixels``: the object pixels, the ascending flat row-major indices
      where ``instance != 0``;
    * ``pixel_normals``: (n, 3) float64 unit world normals at ``pixels``,
      in their order.
    """

    depth: np.ndarray
    instance: np.ndarray
    pixels: np.ndarray
    pixel_normals: np.ndarray

    @property
    def hit(self) -> np.ndarray:
        return np.isfinite(self.depth)

    def instance_mask(self, oid: int) -> np.ndarray:
        return (self.instance == oid) & self.hit


# ---------------------------------------------------------------------------
# primitive compilation (object local frame)
# ---------------------------------------------------------------------------

def compile_primitives(obj: ObjectModel) -> tuple[tuple, ...]:
    """Local-frame primitives: ('frustum', r0, z0, r1, z1, tag),
    ('disk', zc, r_in, r_out, tag) or ('box', w, d, h, tag).

    Objects with equal shapes and wall thicknesses share one cached tuple.
    """
    return _compiled(obj)[0]


def _compiled(obj: ObjectModel) -> tuple[tuple, tuple]:
    """The cached ``(primitives, segments)`` of the object's (shape, wall
    thickness). A segment ``(r0, h0, r1, h1)`` is the profile that a
    primitive of a solid of revolution sweeps about the axis, at local
    heights (a disk is a flat segment); a box has none."""
    key = (obj.shape, obj.wall_thickness)
    entry = _PRIMITIVES.get(key)
    if entry is None:
        prims = tuple(_compile_shape(obj))
        segments = tuple((p[2], p[1], p[3], p[1]) if p[0] == "disk" else p[1:5]
                         for p in prims if p[0] != "box")
        entry = (prims, segments)
        if len(_PRIMITIVES) >= _PRIMITIVES_KEPT:
            _PRIMITIVES.clear()  # one atomic step, unlike evicting a chosen key
        _PRIMITIVES[key] = entry
    return entry


def _compile_shape(obj: ObjectModel) -> list[tuple]:
    shape, inner = obj.shape, obj.cavity
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
    prims.append(("disk", shape.z_max, inner[-1][0], shape.top_radius, "rim"))
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
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        lin = np.abs(a) < 1e-14
        # one shared direction (the sensel columns) makes a and lin single
        # values: only the branch lin selects is evaluated, and the linear
        # branch has no second root (np.where would fill it with NO_HIT)
        shared = lin.size == 1
        if shared and lin[0]:
            roots, solvable = [-c / b], np.abs(b) > 1e-14
        else:
            disc = b * b - 4.0 * a * c
            sq = np.sqrt(np.maximum(disc, 0.0))
            roots = [(-b - sq) / (2.0 * a), (-b + sq) / (2.0 * a)]
            if shared:
                solvable = disc >= 0.0
            else:
                roots = [np.where(lin, -c / b, roots[0]), np.where(lin, NO_HIT, roots[1])]
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
    if d.shape[0] == 1 and abs(d[0, 2]) <= 1e-14:
        # one shared direction parallel to the disk (a side-lying solid's
        # disks under the sensel columns): the ok mask below is all False
        return np.full(o.shape[0], NO_HIT)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
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
    return _intersect_primitives(obj, compile_primitives(obj), origins, dirs)


def _intersect_primitives(obj: ObjectModel, prims: Sequence[tuple], origins: np.ndarray,
                          dirs: np.ndarray):
    """``intersect_object`` against ``prims`` alone, a non-empty selection of
    the object's primitives in ``compile_primitives`` order; face_index
    indexes ``prims``."""
    inv = obj.pose.inverse()
    o = inv.apply(origins)
    d = inv.apply_vector(dirs)
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


# ---------------------------------------------------------------------------
# scene rendering
# ---------------------------------------------------------------------------

def _local_box(obj: ObjectModel) -> tuple[np.ndarray, np.ndarray]:
    """Low and high corners of an axis-aligned box enclosing the object's
    solid in its local frame, padded past the primitive tests' tolerances."""
    shape = obj.shape
    if isinstance(shape, Box):
        w, d, h = shape.size
        lo, hi = np.array([-w / 2.0, -d / 2.0, 0.0]), np.array([w / 2.0, d / 2.0, h])
    else:
        r = shape.max_radius
        lo, hi = np.array([-r, -r, shape.z_min]), np.array([r, r, shape.z_max])
    return lo - _BOX_PAD, hi + _BOX_PAD


def _pixel_window(cam: CameraModel, obj: ObjectModel) -> np.ndarray:
    """Flat row-major indices of the pixels the object's padded local box
    can project into: the window over its eight corners' columns and rows,
    padded by 1 px and clipped to the image; every pixel when a corner is
    not in front of the camera."""
    lo, hi = _local_box(obj)
    try:
        u, v = cam.project(obj.pose.apply(np.where(_CORNER_HIGH, hi, lo)))
    except PointBehindCamera:
        return np.arange(cam.height * cam.width)
    # a corner barely in front of the camera projects to a huge (even
    # infinite) pixel; clipping first keeps floor and ceil finite
    u = np.clip(u, -2.0, cam.width + 1.0)
    v = np.clip(v, -2.0, cam.height + 1.0)
    cols = np.arange(max(math.floor(u.min()) - 1, 0), min(math.ceil(u.max()) + 2, cam.width))
    rows = np.arange(max(math.floor(v.min()) - 1, 0), min(math.ceil(v.max()) + 2, cam.height))
    return (rows[:, None] * cam.width + cols).ravel()


def _box_survivors(obj: ObjectModel, origin: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Indices of the rays ``origin + t * dirs`` (t > 0) that meet the
    object's padded local box: a slab test in the object frame."""
    inv = obj.pose.inverse()
    o = inv.apply(origin)
    d = inv.apply_vector(dirs)
    lo, hi = _local_box(obj)
    t_near, t_far = -NO_HIT, NO_HIT
    for ax in range(3):
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            t0 = (lo[ax] - o[ax]) / d[:, ax]
            t1 = (hi[ax] - o[ax]) / d[:, ax]
        t_near = np.maximum(t_near, np.minimum(t0, t1))
        t_far = np.minimum(t_far, np.maximum(t0, t1))
    # NaN (a ray parallel to a padded face and in its plane) misses, as the
    # solid lies strictly inside the padded box
    return np.flatnonzero((t_near <= t_far) & (t_far > 0.0))


def render(scene: Scene) -> RenderBuffers:
    """Render the camera view to depth / instance buffers and the object
    pixels' normals.

    Every pixel ray starts at the camera centre and runs along the cached
    ``CameraModel.pixel_directions`` grid. It meets the table plane z = 0
    (instance id 0), then every object.
    """
    cam = scene.camera
    origin = cam.pose.translation
    dirs = cam.pixel_directions()
    depth = cam.table_depth().copy()
    inst = np.zeros(depth.size, dtype=np.int32)
    hits, normals = [], []
    for obj in scene.objects:
        # only rays in the box's pixel window that meet the box can hit the
        # object; the rest would return t = inf
        idx = _pixel_window(cam, obj)
        d = dirs[idx]
        keep = _box_survivors(obj, origin, d)
        if keep.size == 0:
            continue
        idx, d = idx[keep], d[keep]
        origins = np.empty((idx.size, 3))
        for i in range(3):
            origins[:, i] = origin[i]
        t, nrm, _ = intersect_object(obj, origins, d)
        closer = t < depth[idx]
        hit = idx[closer]
        depth[hit] = t[closer]
        inst[hit] = obj.id
        hits.append(hit)
        normals.append(nrm[closer])
    if len(hits) == 1:
        pixels, pixel_normals = hits[0], normals[0]
    else:
        # an object writes a pixel only where it is closer than every earlier
        # write, so a pixel keeps the normal of the last object that wrote it:
        # the first occurrence in the objects taken in reverse (the empty
        # leading arrays stand for a scene with no object cast)
        pixels, last = np.unique(np.concatenate([np.empty(0, dtype=np.intp)] + hits[::-1]),
                                 return_index=True)
        pixel_normals = np.concatenate([np.empty((0, 3))] + normals[::-1])[last]
    shape = (cam.height, cam.width)
    return RenderBuffers(depth.reshape(shape), inst.reshape(shape), pixels, pixel_normals)


# ---------------------------------------------------------------------------
# solid queries shared by the tactile and trial simulators
# ---------------------------------------------------------------------------

def object_top_z(obj: ObjectModel) -> float:
    """World height of the object's highest point (for a solid of
    revolution, of the bounding cylinder of its widest radius)."""
    if isinstance(obj.shape, Box):
        return float(obj.pose.apply(obj.shape.corners())[:, 2].max())
    a_z = float(obj.pose.rotation[2, 2])
    spread = obj.shape.max_radius * math.sqrt(max(0.0, 1.0 - a_z * a_z))
    axis_top = max(obj.shape.z_min * a_z, obj.shape.z_max * a_z)
    return float(obj.pose.translation[2]) + axis_top + spread


def scene_top_z(objects: Sequence[ObjectModel]) -> float:
    """Height of the highest object point, or of the table z = 0."""
    return max([0.0] + [object_top_z(obj) for obj in objects])


def column_start(objects: Sequence[ObjectModel]) -> float:
    """Height the downward column casts start from: 1 cm above
    ``scene_top_z``, so above every object."""
    return scene_top_z(objects) + 0.01


def rises_above(objects: Sequence[ObjectModel], xy_lo, xy_hi, floor: float) -> bool:
    """Whether a column of the axis-aligned rectangle [xy_lo, xy_hi] can
    rise above ``floor``: some object keeps a ``_rising_primitives`` entry
    with no radial span, or with one that meets the rectangle's distances
    to the object's axis. Where it is False, ``top_heights`` with that
    floor reads -inf on every column of the rectangle."""
    lo = np.asarray(xy_lo, dtype=np.float64)
    hi = np.asarray(xy_hi, dtype=np.float64)
    for obj in objects:
        spans = [span for _, span in _rising_primitives(obj, floor)]
        if None in spans:
            return True
        if spans:
            axis = obj.pose.translation[:2]
            near = float(np.hypot(*(np.clip(axis, lo, hi) - axis)))
            far = float(np.hypot(*np.maximum(np.abs(lo - axis), np.abs(hi - axis))))
            if any(span_lo <= far and near <= span_hi for span_lo, span_hi in spans):
                return True
    return False


def _rising_primitives(obj: ObjectModel, floor: float) -> list[tuple]:
    """The object's primitives that can rise above ``floor``, in
    ``compile_primitives`` order, each with the radial span ``(lo, hi)`` of
    the columns where it can, or None where any column can see it.

    A solid of revolution with a vertical axis keeps the primitives whose
    profile segment rises above the floor, with the radii where it does,
    padded by 1e-9 in radius and in height. Any other solid of revolution
    keeps the primitives whose world top, ``object_top_z``'s bounding
    cylinder taken over the primitive's own segment, lies above the floor
    less 1e-9. A box keeps its one primitive while ``object_top_z`` lies
    above the floor less 1e-9, and a floor of -inf keeps every primitive.
    """
    prims, segments = _compiled(obj)
    if floor == -NO_HIT:
        return [(prim, None) for prim in prims]
    if isinstance(obj.shape, Box):
        return [(prims[0], None)] if object_top_z(obj) > floor - 1e-9 else []
    rot = obj.pose.rotation
    tz = float(obj.pose.translation[2])
    # vertical up to rounding in the pose (upside down leaves ~1e-16): the
    # axis then drifts far less than the 1e-9 pads
    if math.hypot(rot[0, 2], rot[1, 2]) > 1e-12:
        a_z = float(rot[2, 2])
        spread = math.sqrt(max(0.0, 1.0 - a_z * a_z))
        return [(prim, None) for prim, (r0, h0, r1, h1) in zip(prims, segments)
                if tz + max(h0 * a_z, h1 * a_z) + max(r0, r1) * spread > floor - 1e-9]
    up = 1.0 if rot[2, 2] > 0 else -1.0
    h_floor = floor - tz - 1e-9
    rising = []
    for prim, (r0, h0, r1, h1) in zip(prims, segments):
        h0, h1 = up * h0, up * h1
        if max(h0, h1) <= h_floor:
            continue
        if min(h0, h1) >= h_floor:
            lo, hi = min(r0, r1), max(r0, r1)
        else:
            # the segment crosses the floor: from the crossing radius to its upper end
            r_cross = r0 + (h_floor - h0) * (r1 - r0) / (h1 - h0)
            r_top = r1 if h1 > h0 else r0
            lo, hi = min(r_cross, r_top), max(r_cross, r_top)
        rising.append((prim, (max(lo - 1e-9, 0.0), hi + 1e-9)))
    return rising


def _column_ts(obj: ObjectModel, origins: np.ndarray, floor: float) -> Optional[np.ndarray]:
    """Distance down each vertical column from ``origins`` to the object's
    top surface; +inf where the column misses the object, and None where no
    primitive is cast on any column.

    Each primitive of ``_rising_primitives`` is evaluated on the columns of
    its radial span, or on every column where it has none. The primitive
    that sets a column's top above the floor is then always evaluated there,
    so the minimum over the evaluated primitives is the full one. A column
    whose top does not rise above the floor may read a longer distance or
    +inf.
    """
    rising = _rising_primitives(obj, floor)
    if not rising:
        return None
    inv = obj.pose.inverse()
    o = inv.apply(origins)
    d = inv.apply_vector(np.array([[0.0, 0.0, -1.0]]))
    t = None
    rho2 = None
    for prim, span in rising:
        if span is not None:
            if rho2 is None:
                rho2 = o[:, 0] * o[:, 0] + o[:, 1] * o[:, 1]
                rho2_lo, rho2_hi = rho2.min(initial=np.inf), rho2.max(initial=-np.inf)
            lo2, hi2 = span[0] * span[0], span[1] * span[1]
            if not (lo2 <= rho2_lo and rho2_hi <= hi2):
                idx = np.flatnonzero((rho2 >= lo2) & (rho2 <= hi2))
                if idx.size:
                    if t is None:
                        t = np.full(o.shape[0], NO_HIT)
                    t[idx] = np.minimum(t[idx], _intersect_primitive_t(prim, o[idx], d))
                continue
        # the span, if any, holds every column
        t_prim = _intersect_primitive_t(prim, o, d)
        t = t_prim if t is None else np.minimum(t, t_prim)
    return t


def _column_normal(obj: ObjectModel, origin: np.ndarray, floor: float) -> np.ndarray:
    """World normal, oriented against the ray, where the downward column from
    the world point ``origin`` meets the object, cast against only the
    ``_rising_primitives`` of ``floor`` whose radial span, if any, holds the
    column. Where the column's top lies above ``floor``, the primitive that
    sets it and every primitive that ties with it are among them, so the
    nearest face and its normal are those of ``intersect_object``."""
    origins = origin[None, :]
    o = obj.pose.inverse().apply(origins)
    rho2 = o[0, 0] * o[0, 0] + o[0, 1] * o[0, 1]
    prims = [prim for prim, span in _rising_primitives(obj, floor)
             if span is None or span[0] * span[0] <= rho2 <= span[1] * span[1]]
    _, normal, _ = _intersect_primitives(obj, prims, origins, np.array([[0.0, 0.0, -1.0]]))
    return normal[0]


def top_heights(objects: Sequence[ObjectModel], xy: np.ndarray, floor: float = -NO_HIT):
    """Highest object surface under each (x, y) column, cast down from
    ``column_start(objects)``.

    Returns (height, instance_id); -inf / 0 where no object surface rises
    above ``floor`` (by default, where no object is below). A column above
    the floor reads the same height as the full query. The table is
    deliberately excluded: callers decide what table contact means for
    them.
    """
    xy = np.asarray(xy, dtype=np.float64)
    n = xy.shape[0]
    z_start = column_start(objects)
    origins = np.empty((n, 3))
    origins[:, 0] = xy[:, 0]
    origins[:, 1] = xy[:, 1]
    origins[:, 2] = z_start
    best_t, ids = None, None
    for obj in objects:
        t = _column_ts(obj, origins, floor)
        if t is None:
            continue
        if best_t is None:
            best_t, ids = t, np.int32(obj.id)
        else:
            closer = t < best_t
            best_t = np.where(closer, t, best_t)
            ids = np.where(closer, obj.id, ids)
    if best_t is None:
        return np.full(n, -NO_HIT), np.zeros(n, dtype=np.int32)
    # z_start - inf is -inf where no object is below
    height = z_start - best_t
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
    if obj.cavity is not None:
        ri, zi = np.array(obj.cavity).T
        inside &= ~((z > zi[0]) & (rho < np.interp(z, zi, ri)))
    return inside
