"""End-to-end trial simulation: pokes, grasps, and benchmark statistics.

A poke trial renders the scene, picks a guidance pixel (bounding-box
center, instance-mask centroid, or the poking-region planner), then
lowers the flat sensor along that pixel's view ray, parallel to the
table, until image-subtraction contact fires or the protective-stop
height is reached (miss). A contact on a light object whose static
tipping bound falls below the arm's stop force is a topple.

A grasp trial localizes the grasp either from tactile poking (contact
position, optionally rectified by the ring alignment) or from camera
depth corrupted by the transparent-surface model (pass-through dropout to
the background plus Gaussian noise on surviving pixels), then executes
the proposal against the true geometry: finger descent collision, a
two-sided wall crossing of the closing segment, and a bound on the
localization error against the crossing midpoint decide the outcome.

Everything is reproducible from (scene, mode, master seed, trial index);
per-trial seeds come from the splitmix64 mixer in `seeding`.

The trials on one scene share its `PreparedScene`: one render and one
poking-region pass, one plan per annotation region and one poke per
(pixel, calibration shift). A poke does not depend on the trial seed, which
is only stamped on its outcome, so the `pr` poke and the `tactile` grasp's
poke, or a `bbox` and a `mask` poke on the same pixel, lower the sensor
once.

The sensor is pressed straight down at yaw 0, so a probe places it by its
centre alone: the view-ray point at the probe height, shifted along world
x by the calibration error, with the probe height itself as its z.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (DegenerateInput, EmptyMask, InsufficientContact, InvalidConfig,
                     InvalidGeometry, WidthOverflow)
from .plan import RING, SIMPLY_CONNECTED, GraspProposal, GripperSpec, PokePlan, \
    heuristic_grasp, poking_point
from .regions import InstanceAnnotation, height_map, pixel_ray_dz, poking_region, \
    DEFAULT_H_MIN, DEFAULT_TAU_DOT
from .render import RenderBuffers, contains, intersect_object, object_top_z, render, \
    top_height_bound, top_heights
from .scene import Box, ObjectModel, Scene
from .seeding import mix
from .tactile import DEFAULT_COUNT_THRESHOLD, DEFAULT_VALUE_THRESHOLD, TactileFrame, \
    TactileSensorSpec, detect_contact, frame_from_heights, tactile_align

GRAVITY = 9.81

POKE_GUIDANCE_MODES = ("bbox", "mask", "pr")
GRASP_MODES = ("camera-mask", "camera-pr", "tactile")

SUCCESS = "success"
MISS = "miss"
TOPPLE = "topple"
FAILURE = "failure"

SIDE_INSIDE_TOL = 0.005  # contact-patch allowance on line supports, meters


@dataclass(frozen=True)
class TrialConfig:
    h_stop: float = 0.01
    f_stop: float = 0.5
    gripper: GripperSpec = field(default_factory=GripperSpec)
    calib_range: float = 0.0
    adhesion_prob: float = 0.1
    master_seed: int = 0
    sensor: TactileSensorSpec = field(default_factory=TactileSensorSpec)
    value_threshold: float = DEFAULT_VALUE_THRESHOLD
    count_threshold: int = DEFAULT_COUNT_THRESHOLD
    descent_step: float = 0.001
    coarse_step: float = 0.008
    descend_offset: float = 0.02
    depth_dropout: float = 0.7
    depth_sigma: float = 0.01
    tau_dot: float = DEFAULT_TAU_DOT
    h_min: float = DEFAULT_H_MIN
    use_tactile_align: bool = False
    # contacts on surfaces steeper than this (normal . table normal) jam the
    # arm laterally and trigger its protective stop instead of a clean poke
    contact_dot_min: float = float(np.cos(np.deg2rad(30.0)))

    def __post_init__(self):
        # every comparison with NaN is false: a NaN h_stop or step would end
        # the descent before its first probe and report every poke a miss
        for f in dataclasses.fields(self):
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise InvalidConfig(f"{f.name} must be finite")
        if self.h_stop < 0:
            raise InvalidConfig("h_stop must be >= 0")
        if self.f_stop <= 0:
            raise InvalidConfig("f_stop must be positive")
        if not (0.0 <= self.adhesion_prob <= 1.0):
            raise InvalidConfig("adhesion_prob must be in [0, 1]")
        if self.calib_range < 0:
            raise InvalidConfig("calib_range must be >= 0")
        # a non-positive step never leaves the descent loop, and a negative
        # threshold would count untouched sensels as contact
        if self.coarse_step <= 0:
            raise InvalidConfig("coarse_step must be positive")
        if self.descent_step <= 0:
            raise InvalidConfig("descent_step must be positive")
        if self.value_threshold < 0:
            raise InvalidConfig("value_threshold must be >= 0")
        if self.count_threshold < 0:
            raise InvalidConfig("count_threshold must be >= 0")
        # corrupt_depth draws the dropout mask and the depth noise from these
        if not (0.0 <= self.depth_dropout <= 1.0):
            raise InvalidConfig("depth_dropout must be in [0, 1]")
        if self.depth_sigma < 0:
            raise InvalidConfig("depth_sigma must be >= 0")


@dataclass(frozen=True)
class PokeOutcome:
    status: str  # success | miss | topple
    seed: int
    contact_point: Optional[np.ndarray] = None
    contact_object: int = 0
    stop_z: float = 0.0
    frame: Optional[TactileFrame] = None

    @property
    def contact_height(self) -> float:
        return float(self.contact_point[2])

    def to_json(self) -> dict:
        return {"status": self.status, "seed": self.seed,
                "contact_point": None if self.contact_point is None else self.contact_point.tolist(),
                "contact_object": self.contact_object, "stop_z": self.stop_z}


@dataclass(frozen=True)
class GraspOutcome:
    status: str  # success | failure
    seed: int
    reason: str = ""
    grasp: Optional[GraspProposal] = None
    localization_error: Optional[float] = None

    def to_json(self) -> dict:
        return {"status": self.status, "seed": self.seed, "reason": self.reason,
                "grasp": None if self.grasp is None else self.grasp.to_json(),
                "localization_error": self.localization_error}


# ---------------------------------------------------------------------------
# tipping statics
# ---------------------------------------------------------------------------

def tipping_max_force(weight: float, d1: float, d2: float) -> float:
    """Largest vertical poke force a resting object bears before rotating
    about its support edge: F = weight * d1 / d2 (torque balance, d1 the
    gravity arm and d2 the poke arm about the pivot)."""
    if d2 <= 0:
        raise InvalidGeometry("poke lever arm d2 must be positive")
    return weight * d1 / d2


def _support_geometry(obj: ObjectModel):
    """('circle', center_xy, r) | ('segment', p0_xy, p1_xy) | ('polygon', pts)."""
    rot = obj.pose.rotation
    if isinstance(obj.shape, Box):
        world = obj.pose.apply(obj.shape.corners())
        zmin = world[:, 2].min()
        base = world[world[:, 2] < zmin + 1e-6][:, :2]
        hull = _convex_hull(base)
        return ("polygon", hull)
    axis_z = float((rot @ np.array([0.0, 0.0, 1.0]))[2])
    bottom = obj.pose.apply(np.array([0.0, 0.0, obj.shape.z_min]))
    top = obj.pose.apply(np.array([0.0, 0.0, obj.shape.z_max]))
    if axis_z > 0.99:
        return ("circle", bottom[:2], obj.shape.bottom_radius)
    if axis_z < -0.99:
        return ("circle", top[:2], obj.shape.top_radius)
    return ("segment", bottom[:2], top[:2])


def _convex_hull(pts: np.ndarray) -> np.ndarray:
    pts = np.unique(np.round(pts, 12), axis=0)
    if len(pts) <= 2:
        return pts
    pts = pts[np.lexsort((pts[:, 1], pts[:, 0]))]

    def turn(o, a, b):  # z of the cross product (a - o) x (b - o)
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2 and turn(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def _closest_on_segment(p0, p1, c):
    d = p1 - p0
    denom = float(d @ d)
    t = 0.0 if denom == 0 else float(np.clip((c - p0) @ d / denom, 0.0, 1.0))
    return p0 + t * d


def tipping_arms(obj: ObjectModel, contact_xy: np.ndarray):
    """(inside_support, d1, d2) of a vertical poke at contact_xy.

    inside_support means the contact is over the support footprint and
    cannot generate a tipping moment. Otherwise d2 is the contact's
    horizontal distance to the nearest support-edge pivot and d1 the
    mass-center line's distance to the tipping axis through that pivot.
    """
    kind, *geom = _support_geometry(obj)
    c = np.asarray(contact_xy, dtype=np.float64)
    com = obj.pose.apply(_local_com(obj))[:2]
    if kind == "circle":
        center, r = geom
        delta = c - center
        rho = float(np.hypot(*delta))
        if rho <= r + 1e-12:
            return True, 0.0, 0.0
        u = delta / rho
        pivot = center + r * u
        return False, float(-(com - pivot) @ u), rho - r
    if kind == "segment":
        p0, p1 = geom
        pivot = _closest_on_segment(p0, p1, c)
        dist = float(np.hypot(*(c - pivot)))
        if dist <= SIDE_INSIDE_TOL:
            return True, 0.0, 0.0
        u = (c - pivot) / dist
        return False, float(-(com - pivot) @ u), dist
    (hull,) = geom
    if _point_in_polygon(c, hull):
        return True, 0.0, 0.0
    best = None
    for i in range(len(hull)):
        p = _closest_on_segment(hull[i], hull[(i + 1) % len(hull)], c)
        d = float(np.hypot(*(c - p)))
        if best is None or d < best[0]:
            best = (d, p)
    dist, pivot = best
    u = (c - pivot) / dist
    return False, float(-(com - pivot) @ u), dist


def _local_com(obj: ObjectModel) -> np.ndarray:
    return np.array([0.0, 0.0, (obj.shape.z_min + obj.shape.z_max) / 2.0])


def _point_in_polygon(p, poly) -> bool:
    if len(poly) < 3:
        return float(np.hypot(*(p - _closest_on_segment(poly[0], poly[-1], p)))) <= SIDE_INSIDE_TOL
    inside = False
    x, y = p
    for i in range(len(poly)):
        x0, y0 = poly[i]
        x1, y1 = poly[(i + 1) % len(poly)]
        if (y0 > y) != (y1 > y):
            xi = x0 + (y - y0) * (x1 - x0) / (y1 - y0)
            if x < xi:
                inside = not inside
    return inside


def poke_would_topple(scene: Scene, object_id: int, contact: np.ndarray,
                      f_stop: float) -> bool:
    obj = scene.object_by_id(object_id)
    inside, d1, d2 = tipping_arms(obj, contact[:2])
    if inside:
        return False
    return tipping_max_force(obj.mass * GRAVITY, d1, d2) < f_stop


# ---------------------------------------------------------------------------
# calibration error and depth corruption
# ---------------------------------------------------------------------------

def calibration_shift(cfg: TrialConfig, seed: int) -> float:
    """Uniform calibration error in [-calib_range, calib_range] along world
    x, added to everything executed from camera-frame coordinates; 0.0 when
    the configured range is zero."""
    if cfg.calib_range == 0.0:
        return 0.0
    rng = np.random.default_rng(mix(seed, 0x0CA11B))
    return float(rng.uniform(-cfg.calib_range, cfg.calib_range))


def corrupt_depth(buffers: RenderBuffers, scene: Scene, rng: np.random.Generator,
                  dropout: float, sigma: float) -> np.ndarray:
    """Transparent-surface depth model: object pixels read the background
    (table) depth with probability ``dropout``; survivors get Gaussian
    noise of scale ``sigma``. Table pixels are returned unchanged. Raises
    ShapeMismatch unless the buffers are (H, W) images of the camera."""
    cam = scene.camera
    dz = pixel_ray_dz(buffers.depth, cam)
    depth = buffers.depth.copy()
    obj_px = buffers.instance > 0
    if not obj_px.any():
        return depth
    with np.errstate(divide="ignore"):
        t_table = (scene.table_height - cam.pose.translation[2]) / dz
    drop = obj_px & (rng.random(depth.shape) < dropout) & (dz < 0)
    depth[drop] = t_table[drop]
    survive = obj_px & ~drop
    depth[survive] += rng.normal(0.0, sigma, size=int(survive.sum()))
    return depth


# ---------------------------------------------------------------------------
# poke simulation
# ---------------------------------------------------------------------------

def scene_top_z(scene: Scene) -> float:
    return max([scene.table_height] + [object_top_z(obj) for obj in scene.objects])


def _footprint_heights(scene: Scene, spec: TactileSensorSpec, center: np.ndarray,
                       floor: float = -np.inf, z_start: Optional[float] = None):
    """Sensel-column heights, ids and (x, y) of the sensor centred at
    ``center`` (only its x and y are read); the columns whose surface does
    not rise above ``floor`` read -inf / 0. The columns are cast down from
    ``z_start``, by default 1 cm above ``scene_top_z``."""
    if z_start is None:
        z_start = scene_top_z(scene) + 0.01
    offsets = spec.sensel_offsets
    xy = np.empty((offsets.shape[0], 2))
    xy[:, 0] = offsets[:, 0] + center[0]
    xy[:, 1] = offsets[:, 1] + center[1]
    heights, ids = top_heights(scene.objects, xy, z_start=z_start, floor=floor)
    shape = (spec.res_y, spec.res_x)
    return heights.reshape(shape), ids.reshape(shape), xy.reshape(shape + (2,))


def _contact_dot(scene: Scene, object_id: int, contact: np.ndarray) -> float:
    """Table-normal component of the contacted surface normal, from the
    same downward ray at the contact column that the probe cast."""
    origin = np.array([[contact[0], contact[1], scene_top_z(scene) + 0.01]])
    _, normal, _ = intersect_object(scene.object_by_id(object_id), origin,
                                    np.array([[0.0, 0.0, -1.0]]))
    return float(normal[0] @ scene.table_normal)


def simulate_poke(scene: Scene, plan: Optional[PokePlan], cfg: TrialConfig,
                  dx: float = 0.0, seed: int = 0) -> PokeOutcome:
    """Lower the sensor along the plan pixel's view ray until contact.

    The sensor centre at probe height z is the ray's point at z moved by
    ``dx`` along world x (the calibration error), with z itself as its
    height: the sensing plane the indentation is taken against. Success
    requires image-subtraction contact above the protective-stop
    height, and the contacted object must not tip at the stop force.

    A sensel indents by more than ``value_threshold`` only where an object
    surface rises above the plane by that much. The sensor has yaw 0, so its
    footprint is the axis-aligned rectangle centre +- (area_x, area_y) / 2,
    and ``top_height_bound`` bounds every surface under it. A probe whose
    plane sits at or above that bound minus ``value_threshold`` (plus 1e-9
    for rounding in the cast) counts no sensel and is skipped without
    casting; the descent still steps through its height.

    A probe that is cast passes its plane height as the ``top_heights``
    floor. A sensel whose column surface does not rise above the plane
    indents by 0 at any height, so it reads -inf / 0 without being cast; the
    contact sensel indents by more than 0 and keeps its cast height and id.
    """
    if plan is None:
        return PokeOutcome(status=MISS, seed=seed)
    cam = scene.camera
    origin, direction = cam.pixel_ray(plan.point_px)
    if direction[2] >= -1e-9:
        return PokeOutcome(status=MISS, seed=seed)
    shift = np.array([dx, 0.0, 0.0])

    def center_at(z: float) -> np.ndarray:
        t = (z - origin[2]) / direction[2]
        center = origin + t * direction + shift
        center[2] = z  # the ray's z at t can differ from z in the last bit
        return center

    spec = cfg.sensor
    reference = np.zeros((spec.res_y, spec.res_x))

    top = scene_top_z(scene)
    half = np.array([spec.area_x, spec.area_y]) / 2.0

    def probe(z: float):
        center = center_at(z)
        bound = top_height_bound(scene.objects, center[:2] - half, center[:2] + half)
        if z >= bound - cfg.value_threshold + 1e-9:
            return False, 0, None
        heights, ids, xy = _footprint_heights(scene, spec, center, floor=z, z_start=top + 0.01)
        frame = frame_from_heights(heights, spec, center)
        hit, count = detect_contact(reference, frame.image,
                                    cfg.value_threshold, cfg.count_threshold)
        return hit, count, (heights, ids, xy, frame)

    z_top = top + cfg.coarse_step
    z = z_top
    first_touch = None
    while z >= cfg.h_stop - 1e-12:
        _, count, _ = probe(z)
        if count > 0:
            first_touch = z
            break
        z -= cfg.coarse_step
    if first_touch is None:
        return PokeOutcome(status=MISS, seed=seed, stop_z=cfg.h_stop)
    z = min(first_touch + cfg.coarse_step, z_top)
    while z >= cfg.h_stop - 1e-12:
        hit, _, touched = probe(z)
        if hit:
            heights, ids, xy, frame = touched
            pen = frame.image
            idx = np.unravel_index(int(np.argmax(pen)), pen.shape)
            contact = np.array([xy[idx][0], xy[idx][1], heights[idx]])
            cid = int(ids[idx])
            if cid == 0:
                return PokeOutcome(status=MISS, seed=seed, stop_z=z)
            if _contact_dot(scene, cid, contact) < cfg.contact_dot_min:
                # pressing a steep surface (e.g. a wall through the opening)
                # jams the arm: protective stop, no usable contact
                return PokeOutcome(status=MISS, seed=seed, stop_z=z)
            status = TOPPLE if poke_would_topple(scene, cid, contact, cfg.f_stop) else SUCCESS
            return PokeOutcome(status=status, seed=seed, contact_point=contact,
                               contact_object=cid, stop_z=z, frame=frame)
        z -= cfg.descent_step
    return PokeOutcome(status=MISS, seed=seed, stop_z=cfg.h_stop)


# ---------------------------------------------------------------------------
# grasp simulation
# ---------------------------------------------------------------------------

def simulate_grasp(scene: Scene, grasp: GraspProposal, cfg: TrialConfig,
                   seed: int = 0) -> GraspOutcome:
    """Execute a proposal against true geometry.

    Success needs (i) both finger sweep prisms clear of the solid above
    the closing height, (ii) the closing segment to cross the object wall
    at two opposed points with both segment ends free, and (iii) the
    horizontal gap between the grasp center and the crossing midpoint to
    stay under half a finger pad span (= finger_width / 2).
    """
    close_angle = grasp.theta if grasp.kind == "edge" else grasp.theta + np.pi / 2.0
    u = np.array([np.cos(close_angle), np.sin(close_angle)])
    perp = np.array([-u[1], u[0]])
    center = np.array([grasp.x, grasp.y])
    z_exec = max(grasp.z - cfg.descend_offset, scene.table_height + 0.001)
    fw = cfg.gripper.finger_width
    spans = np.linspace(-fw / 2.0, fw / 2.0, 25)
    z_start = scene_top_z(scene) + 0.01
    for sign in (-1.0, 1.0):
        tip = center + sign * (grasp.w / 2.0) * u
        samples = tip[None, :] + spans[:, None] * perp[None, :]
        heights, _ = top_heights(scene.objects, samples, z_start=z_start)
        if np.any(heights > z_exec + 1e-9):
            return GraspOutcome(status=FAILURE, seed=seed, reason="descent_collision",
                                grasp=grasp)
    ts = np.linspace(-grasp.w / 2.0, grasp.w / 2.0, 801)
    pts = np.concatenate([center[None, :] + ts[:, None] * u[None, :],
                          np.full((ts.size, 1), z_exec)], axis=1)
    inside = np.zeros(ts.size, dtype=bool)
    for obj in scene.objects:
        inside |= contains(obj, pts)
    if not inside.any():
        return GraspOutcome(status=FAILURE, seed=seed, reason="no_contact", grasp=grasp)
    if inside[0] or inside[-1]:
        return GraspOutcome(status=FAILURE, seed=seed, reason="finger_inside_object",
                            grasp=grasp)
    first = int(np.argmax(inside))
    last = int(ts.size - 1 - np.argmax(inside[::-1]))
    midpoint = center + 0.5 * (ts[first] + ts[last]) * u
    err = float(np.hypot(*(center - midpoint)))
    if err >= 0.5 * fw:
        return GraspOutcome(status=FAILURE, seed=seed, reason="localization_error",
                            grasp=grasp, localization_error=err)
    return GraspOutcome(status=SUCCESS, seed=seed, grasp=grasp, localization_error=err)


# ---------------------------------------------------------------------------
# per-trial pipelines
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PreparedScene:
    """What the trials on one (scene, cfg) share: the render, the poking-region
    annotations and two memos filled as the trials run.

    Unpacks as ``(buffers, anns)``. A trial reads the memos only when it
    runs on this very ``scene`` and ``cfg`` object (see ``_owned``).
    """
    scene: Scene
    cfg: TrialConfig
    buffers: RenderBuffers
    anns: list
    _plans: dict = field(default_factory=dict, init=False, repr=False)
    _pokes: dict = field(default_factory=dict, init=False, repr=False)

    def __iter__(self):
        return iter((self.buffers, self.anns))

    def plan(self, region: str) -> Optional[PokePlan]:
        """``poking_point`` of the first annotation's ``region`` ("poking_region"
        or "mask"); None where it raises EmptyMask or DegenerateInput."""
        if region not in self._plans:
            self._plans[region] = _plan_or_none(getattr(self.anns[0], region))
        return self._plans[region]

    def poke(self, plan: Optional[PokePlan], dx: float, seed: int) -> PokeOutcome:
        """``simulate_poke`` of ``plan`` with ``dx``, once per (pixel, dx).

        A poke reads only the plan's pixel, and the seed only stamps its
        outcome, so a repeat is the first outcome restamped. Its arrays are
        made read-only, since every repeat shares them.
        """
        if plan is None:
            return simulate_poke(self.scene, plan, self.cfg, dx=dx, seed=seed)
        # bytes, not floats: -0.0 == 0.0, but the two may move a centre differently
        key = (plan.point_px, np.float64(dx).tobytes())
        memo = self._pokes.get(key)
        if memo is not None:
            return dataclasses.replace(memo, seed=seed)
        out = simulate_poke(self.scene, plan, self.cfg, dx=dx, seed=seed)
        if out.contact_point is not None:  # a contact outcome carries all three arrays
            out.contact_point.setflags(write=False)
            out.frame.image.setflags(write=False)
            out.frame.center.setflags(write=False)
        self._pokes[key] = out
        return out


def annotations_for(scene: Scene, cfg: TrialConfig) -> PreparedScene:
    buffers = render(scene)
    anns = poking_region(buffers, scene.camera, scene.table_normal,
                         tau_dot=cfg.tau_dot, h_min=cfg.h_min)
    return PreparedScene(scene, cfg, buffers, anns)


def _owned(scene: Scene, cfg: TrialConfig, prepared) -> PreparedScene:
    """The preparation a trial on (scene, cfg) runs on. One made for another
    scene or cfg object, or a plain ``(buffers, anns)`` pair, is wrapped
    afresh, so its memos are never read."""
    if prepared is None:
        return annotations_for(scene, cfg)
    if isinstance(prepared, PreparedScene) and prepared.scene is scene and prepared.cfg is cfg:
        return prepared
    buffers, anns = prepared
    return PreparedScene(scene, cfg, buffers, anns)


def _plan_or_none(region: np.ndarray) -> Optional[PokePlan]:
    try:
        return poking_point(region)
    except (EmptyMask, DegenerateInput):
        return None


def poke_pixel_for_guidance(ann: InstanceAnnotation, guidance: str) -> Optional[PokePlan]:
    """Plan for one guidance mode; None when planning is impossible."""
    if guidance == "pr":
        return _plan_or_none(ann.poking_region)
    if guidance == "mask":
        vs, us = np.nonzero(ann.mask)
        px = (int(round(us.mean())), int(round(vs.mean())))
    elif guidance == "bbox":
        u0, v0, u1, v1 = ann.bbox
        px = (int(round((u0 + u1) / 2.0)), int(round((v0 + v1) / 2.0)))
    else:
        raise InvalidConfig(f"unknown guidance {guidance!r}")
    topo = SIMPLY_CONNECTED if ann.mask[px[1], px[0]] else RING
    return PokePlan(point_px=px, ellipse=None, region_topology=topo)


def _is_side_lying_cylinder(obj: ObjectModel) -> bool:
    if isinstance(obj.shape, Box):
        return False
    a_z = float((obj.pose.rotation @ np.array([0.0, 0.0, 1.0]))[2])
    return abs(a_z) < 0.01


def run_poke_trial(scene: Scene, cfg: TrialConfig, seed: int, guidance: str,
                   prepared=None) -> PokeOutcome:
    prepared = _owned(scene, cfg, prepared)
    if not prepared.anns:
        return PokeOutcome(status=MISS, seed=seed)
    if guidance == "pr":
        plan = prepared.plan("poking_region")
    else:
        plan = poke_pixel_for_guidance(prepared.anns[0], guidance)
    return prepared.poke(plan, calibration_shift(cfg, seed), seed)


def run_grasp_trial(scene: Scene, cfg: TrialConfig, seed: int, mode: str,
                    prepared=None) -> GraspOutcome:
    if mode not in GRASP_MODES:
        raise InvalidConfig(f"unknown grasp mode {mode!r}")
    prepared = _owned(scene, cfg, prepared)
    buffers, anns = prepared
    if not anns:
        return GraspOutcome(status=FAILURE, seed=seed, reason="no_annotation")
    ann = anns[0]
    cam = scene.camera
    rng = np.random.default_rng(mix(seed, 0x9A59))
    dx = calibration_shift(cfg, seed)
    region_name = "mask" if mode == "camera-mask" else "poking_region"
    region = getattr(ann, region_name)
    plan = prepared.plan(region_name)
    if plan is None:
        return GraspOutcome(status=FAILURE, seed=seed, reason="planning_failed")

    if mode.startswith("camera"):
        corrupted = corrupt_depth(buffers, scene, rng, cfg.depth_dropout, cfg.depth_sigma)
        heights = height_map(corrupted, cam)
        sel = region & np.isfinite(heights)
        if not sel.any():
            return GraspOutcome(status=FAILURE, seed=seed, reason="no_depth")
        z_est = max(float(heights[sel].mean()), scene.table_height + 0.001)
        poke_v = cam.backproject_at_height(plan.point_px, z_est)
        try:
            proposal = heuristic_grasp(poke_v, region, plan.ellipse, cam, cfg.gripper)
        except WidthOverflow:
            return GraspOutcome(status=FAILURE, seed=seed, reason="width_overflow")
        executed = dataclasses.replace(proposal, x=proposal.x + dx)
        return simulate_grasp(scene, executed, cfg, seed=seed)

    # tactile localization: poke first
    poke = prepared.poke(plan, dx, seed)
    if poke.status != SUCCESS:
        return GraspOutcome(status=FAILURE, seed=seed, reason=f"poke_{poke.status}")
    target = scene.object_by_id(poke.contact_object)
    if _is_side_lying_cylinder(target) and rng.random() < cfg.adhesion_prob:
        return GraspOutcome(status=FAILURE, seed=seed, reason="adhesion_disturbance")
    z_c = poke.contact_height
    poke_v = cam.backproject_at_height(plan.point_px, z_c)
    try:
        proposal = heuristic_grasp(poke_v, region, plan.ellipse, cam, cfg.gripper)
    except WidthOverflow:
        return GraspOutcome(status=FAILURE, seed=seed, reason="width_overflow")
    if proposal.kind == "edge" or plan.region_topology == SIMPLY_CONNECTED:
        # anchored to the physically sensed contact point
        offset = np.array([proposal.x, proposal.y]) - poke_v[:2]
        cx, cy = poke.contact_point[:2] + offset
    elif cfg.use_tactile_align:
        try:
            rectified = tactile_align(poke.frame, cfg.sensor)
            cx, cy = float(rectified[0]), float(rectified[1])
        except (InsufficientContact, DegenerateInput):
            cx, cy = proposal.x + dx, proposal.y
    else:
        cx, cy = proposal.x + dx, proposal.y
    executed = dataclasses.replace(proposal, x=float(cx), y=float(cy), z=z_c)
    return simulate_grasp(scene, executed, cfg, seed=seed)


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchmarkResult:
    task: str
    rows: tuple  # (object, mode, successes, attempts)
    trials: tuple  # per-trial json-able dicts

    def successes(self, mode: str) -> int:
        return sum(r[2] for r in self.rows if r[1] == mode)

    def attempts(self, mode: str) -> int:
        return sum(r[3] for r in self.rows if r[1] == mode)

    def aggregate_rate(self, mode: str) -> float:
        att = self.attempts(mode)
        return self.successes(mode) / att if att else 0.0

    def to_csv(self) -> str:
        lines = ["object,mode,successes,attempts,rate"]
        for obj, mode, succ, att in self.rows:
            rate = succ / att if att else 0.0
            lines.append(f"{obj},{mode},{succ},{att},{rate:.4f}")
        for mode in dict.fromkeys(r[1] for r in self.rows):
            lines.append(f"average,{mode},{self.successes(mode)},{self.attempts(mode)},"
                         f"{self.aggregate_rate(mode):.4f}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {"task": self.task,
                "rows": [list(r) for r in self.rows],
                "trials": list(self.trials)}


def run_benchmark(scenes_by_object: dict, modes: Sequence[str],
                  attempts_per_object: int, cfg: TrialConfig,
                  task: str = "poke") -> BenchmarkResult:
    """Seeded success-rate table over objects x modes.

    One ``PreparedScene`` per (object, scene) is shared across modes: its
    render, its plans and its pokes. It is dropped once the object's last
    mode has run. Per-trial seeds are
    mix(master_seed, object_index, mode_index, attempt), with the mode's
    index in ``POKE_GUIDANCE_MODES`` / ``GRASP_MODES``, so a run over a
    subset of the modes reproduces the full table's trials.
    """
    if task not in ("poke", "grasp"):
        raise InvalidConfig(f"unknown task {task!r}")
    valid = POKE_GUIDANCE_MODES if task == "poke" else GRASP_MODES
    for m in modes:
        if m not in valid:
            raise InvalidConfig(f"unknown {task} mode {m!r}; expected one of {valid}")
    rows = []
    trials = []
    for oi, (name, scenes) in enumerate(scenes_by_object.items()):
        if attempts_per_object > 0 and not scenes:
            raise InvalidConfig(f"no scenes for object {name!r}")
        # only this object's trials read its preparations: drop them with it
        cache: dict = {}
        for mode in modes:
            succ = 0
            for attempt in range(attempts_per_object):
                slot = attempt % len(scenes)
                scene = scenes[slot]
                if slot not in cache:
                    cache[slot] = annotations_for(scene, cfg)
                seed = mix(cfg.master_seed, oi, valid.index(mode), attempt)
                if task == "poke":
                    out = run_poke_trial(scene, cfg, seed, mode, prepared=cache[slot])
                else:
                    out = run_grasp_trial(scene, cfg, seed, mode, prepared=cache[slot])
                ok = out.status == SUCCESS
                succ += int(ok)
                record = {"object": name, "mode": mode, "attempt": attempt,
                          "seed": seed, "outcome": out.to_json()}
                trials.append(record)
            if attempts_per_object > 0:
                rows.append((name, mode, succ, attempts_per_object))
    return BenchmarkResult(task=task, rows=tuple(rows), trials=tuple(trials))
