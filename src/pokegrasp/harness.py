"""End-to-end trial simulation: pokes, grasps, and benchmark statistics.

A poke trial renders the scene, picks a guidance pixel (bounding-box
center, instance-mask centroid, or the poking-region planner), then
lowers the flat sensor along that pixel's view ray, parallel to the
table, until the indentation frame shows contact or the protective-stop
height is reached (miss). A contact on a light object whose static
tipping bound falls below the arm's stop force is a topple. Every object
rests on one kind of support: a convex footprint of points within a radius
of a hull, which is a box's base corners, a side-lying solid's axis
segment, or an upright solid's axis point grown by its base radius. A
contact over the footprint cannot tip the object; one beside it pivots
about the footprint point nearest it.

A grasp trial localizes the grasp either from tactile poking (the
contact position) or from camera depth corrupted by the
transparent-surface model (pass-through dropout to the background plus
Gaussian noise on surviving pixels), then executes the proposal against
the true geometry: finger descent collision, a two-sided wall crossing of
the closing segment, and a bound on the localization error against the
crossing midpoint decide the outcome.

The robot setup is fixed and lives in module constants: the gripper
(``GRIPPER``), the tactile pad (``SENSOR``, with `tactile`'s contact
thresholds), the protective stop (``H_STOP``, ``F_STOP``, ``CONTACT_DOT_MIN``),
the descent strides, the depth model (``DEPTH_DROPOUT``, ``DEPTH_SIGMA``) and
the poking-region thresholds `regions` defaults to. ``TrialConfig`` holds
only what a run varies: the master seed, which ``run_benchmark`` mixes into
the trial seeds. The trials and their preparations take it positionally
and do not read it.

Everything is reproducible from (scene, mode, master seed, trial index);
per-trial seeds come from the splitmix64 mixer in `seeding`. Only a grasp
reads its seed, for the depth model or the adhesion coin; no outcome
carries one, since the benchmark record holds it. Every outcome names why
its trial ended in ``reason``: "" on a success or a topple.

The trials on one scene object share its `PreparedScene`, and a trial
takes no other: one render and one poking-region pass, one plan per kind
(``PreparedScene.plan``, the one place a mode's plan is made) and one poke
per pixel. A poke reads no seed, so the `pr` poke and the `tactile` grasp's
poke, or a `bbox` and a `mask` poke on the same pixel, share one outcome.

The table is the world plane z = 0 with +z up (`scene`): the protective
stop, the grasp floors and the depth model's background read heights from
it. The sensor is pressed straight down (-z) at yaw 0, so a probe places
it by its centre alone: the view-ray point at the probe height, with the
probe height itself as its z.

The descent is coarse, then fine. The coarse phase asks only whether any
sensel indents, so it casts ``SENSOR.lattice_offsets`` first, one sensel
column in every 8 x 8 block, and the full frame only where no lattice
sensel counts; ``detect_contact`` counts both. Each probe reads both from
``SENSOR``. A column's height does not depend on the other columns cast
with it, so a lattice touch is a touch of the full frame. The fine phase
casts full frames, and the one that fires is the contact frame. Every
column, the contact normal's too, is cast down from ``render.column_start``,
1 cm above the highest object point. The contact normal comes from the same
downward ray at the contact column, cast only against the primitives that
can rise above the contact height there; they hold the face that sets the
column's top, so the normal is that of a cast against every primitive.

A grasp's two finger sweeps, 25 columns each, are one ``top_heights``
query floored at the collision height: only a surface above it can collide,
and a column above the floor reads the full query's height.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import DegenerateInput, EmptyMask, InvalidConfig, InvalidGeometry, \
    WidthOverflow, check_count
from .plan import RING, SIMPLY_CONNECTED, GraspProposal, GripperSpec, PokePlan, \
    heuristic_grasp, poking_point
from .regions import InstanceAnnotation, pixel_ray_dz, poking_region, surface_heights
from .render import RenderBuffers, _column_normal, column_start, contains, render, \
    rises_above, scene_top_z, top_heights
from .scene import Box, ObjectModel, Scene
from .seeding import mix, rng_for
from .tactile import DEFAULT_VALUE_THRESHOLD, TactileSensorSpec, detect_contact, \
    frame_from_heights

GRAVITY = 9.81

POKE_GUIDANCE_MODES = ("bbox", "mask", "pr")
GRASP_MODES = ("camera-mask", "camera-pr", "tactile")

SUCCESS = "success"
MISS = "miss"
TOPPLE = "topple"
FAILURE = "failure"

SIDE_INSIDE_TOL = 0.005  # contact-patch allowance on line supports, meters


H_STOP = 0.01  # protective-stop height: the descent ends here, meters
F_STOP = 0.5  # the arm's stop force, newtons
GRIPPER = GripperSpec()
SENSOR = TactileSensorSpec()
ADHESION_PROB = 0.1  # chance that a poke disturbs a solid of revolution resting on a line
COARSE_STEP = 0.008  # descent strides, meters
DESCENT_STEP = 0.001
DESCEND_OFFSET = 0.02  # the fingers close this far below the grasp height, meters
DEPTH_DROPOUT = 0.7  # an object pixel reads the table depth with this probability
DEPTH_SIGMA = 0.01  # noise on the surviving object depths, meters
# contacts on surfaces steeper than this (the normal's z component) jam the
# arm laterally and trigger its protective stop instead of a clean poke
CONTACT_DOT_MIN = float(np.cos(np.deg2rad(30.0)))


@dataclass(frozen=True)
class TrialConfig:
    """What a benchmark run varies: the master seed, which the benchmark
    mixes into each trial's seed. A trial is passed its own seed."""
    master_seed: int = 0


@dataclass(frozen=True)
class PokeOutcome:
    status: str  # success | miss | topple
    reason: str = ""  # why a miss ended; "" otherwise
    contact_point: Optional[np.ndarray] = None
    contact_object: int = 0
    stop_z: float = 0.0

    @property
    def contact_height(self) -> float:
        return float(self.contact_point[2])

    def to_json(self) -> dict:
        return {"status": self.status, "reason": self.reason,
                "contact_point": None if self.contact_point is None else self.contact_point.tolist(),
                "contact_object": self.contact_object, "stop_z": self.stop_z}


@dataclass(frozen=True)
class GraspOutcome:
    status: str  # success | failure
    reason: str = ""
    grasp: Optional[GraspProposal] = None
    localization_error: Optional[float] = None

    def to_json(self) -> dict:
        return {"status": self.status, "reason": self.reason,
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


def _support(obj: ObjectModel):
    """(hull, radius, tol): the support footprint is every point within
    ``radius + tol`` of the convex polygon, segment or point ``hull``, an
    (n, 2) array of world (x, y) vertices in counter-clockwise order.

    A solid with |axis z| > 0.99 is its axis point grown by the base
    radius; any other solid is its axis segment; a box is its base corners.
    A line or point support (a solid's axis, a box on an edge or a corner)
    gets the contact-patch allowance ``SIDE_INSIDE_TOL``; a face or a disk
    gets 1e-12, so a contact on its edge is inside."""
    if isinstance(obj.shape, Box):
        world = obj.pose.apply(obj.shape.corners())
        base = world[world[:, 2] < world[:, 2].min() + 1e-6][:, :2]
        rel = base - base.mean(axis=0)
        hull = base[np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))]
        return hull, 0.0, 1e-12 if len(hull) >= 3 else SIDE_INSIDE_TOL
    axis_z = float(obj.pose.rotation[2, 2])
    bottom = obj.pose.apply(np.array([0.0, 0.0, obj.shape.z_min]))[:2]
    top = obj.pose.apply(np.array([0.0, 0.0, obj.shape.z_max]))[:2]
    if axis_z > 0.99:
        return bottom[None], obj.shape.bottom_radius, 1e-12
    if axis_z < -0.99:
        return top[None], obj.shape.top_radius, 1e-12
    return np.array([bottom, top]), 0.0, SIDE_INSIDE_TOL


def _closest_on_segment(p0, p1, c):
    d = p1 - p0
    denom = float(d @ d)
    t = 0.0 if denom == 0 else float(np.clip((c - p0) @ d / denom, 0.0, 1.0))
    return p0 + t * d


def tipping_arms(obj: ObjectModel, contact_xy: np.ndarray):
    """(inside_support, d1, d2) of a vertical poke at contact_xy.

    inside_support means the contact is over the support footprint
    (``_support``) and cannot generate a tipping moment. Otherwise the
    pivot is the footprint point nearest the contact: d2 is the contact's
    horizontal distance to it and d1 the mass-center line's distance to the
    tipping axis through it.
    """
    hull, radius, tol = _support(obj)
    c = np.asarray(contact_xy, dtype=np.float64)
    if len(hull) >= 3:
        # inside a convex counter-clockwise hull: left of every edge
        edge, rel = np.roll(hull, -1, axis=0) - hull, c - hull
        if np.all(edge[:, 0] * rel[:, 1] - edge[:, 1] * rel[:, 0] > 0):
            return True, 0.0, 0.0
    edges = zip(hull, np.roll(hull, -1, axis=0))
    nearest = min((_closest_on_segment(p, q, c) for p, q in edges),
                  key=lambda p: float(np.hypot(*(c - p))))
    dist = float(np.hypot(*(c - nearest)))
    if dist <= radius + tol:
        return True, 0.0, 0.0
    u = (c - nearest) / dist
    pivot = nearest + radius * u
    com = obj.pose.apply(_local_com(obj))[:2]
    return False, float(-(com - pivot) @ u), dist - radius


def _local_com(obj: ObjectModel) -> np.ndarray:
    return np.array([0.0, 0.0, (obj.shape.z_min + obj.shape.z_max) / 2.0])


def poke_would_topple(scene: Scene, object_id: int, contact: np.ndarray,
                      f_stop: float) -> bool:
    obj = scene.object_by_id(object_id)
    inside, d1, d2 = tipping_arms(obj, contact[:2])
    if inside:
        return False
    return tipping_max_force(obj.mass * GRAVITY, d1, d2) < f_stop


# ---------------------------------------------------------------------------
# depth corruption
# ---------------------------------------------------------------------------

def corrupt_depth(buffers: RenderBuffers, scene: Scene, seed: int,
                  dropout: float, sigma: float) -> np.ndarray:
    """Transparent-surface depth model: object pixels read the background
    (table) depth with probability ``dropout``; survivors get Gaussian
    noise of scale ``sigma``. The draws come from ``rng_for(seed)``. Table
    pixels are returned unchanged. Raises ShapeMismatch unless the buffers
    are (H, W) images of the camera, and InvalidConfig unless ``seed`` is
    an integer.

    The result is a copy of the depth frame with the object pixels'
    corrupted depths (``_corrupted_pixel_depths``) scattered into it."""
    pixel_depth, _ = _corrupted_pixel_depths(buffers, scene, seed, dropout, sigma)
    depth = buffers.depth.copy()
    depth.reshape(-1)[buffers.pixels] = pixel_depth
    return depth


def _corrupted_pixel_depths(buffers: RenderBuffers, scene: Scene, seed: int,
                            dropout: float, sigma: float):
    """``corrupt_depth`` at the object pixels alone: their corrupted depths
    and their rays' world z components, both in ``buffers.pixels`` order,
    with ``corrupt_depth``'s checks.

    The draws are those of one full-frame ``random`` array, then one normal
    per survivor in row-major order. ``rng_for`` gives a PCG64 generator,
    which spends one 64-bit output per double, so the uniforms from the
    first to the last object pixel are drawn and the outputs before and
    after them are skipped with ``advance``. The arithmetic runs on the
    object pixels only; it gives them the bytes that doing it over the
    whole frame gives."""
    rng = rng_for(seed)
    cam = scene.camera
    idx = buffers.pixels
    dz = pixel_ray_dz(buffers.depth, cam).reshape(-1)[idx]
    depth = buffers.depth.reshape(-1)[idx]
    if len(idx) == 0:
        return depth, dz
    first, last = int(idx[0]), int(idx[-1])
    rng.bit_generator.advance(first)
    uniform = rng.random(last - first + 1)
    rng.bit_generator.advance(buffers.depth.size - last - 1)
    drop = (uniform[idx - first] < dropout) & (dz < 0)
    depth[drop] = cam.table_depth()[idx[drop]]
    survive = ~drop
    depth[survive] += rng.normal(0.0, sigma, size=int(survive.sum()))
    return depth, dz


# ---------------------------------------------------------------------------
# poke simulation
# ---------------------------------------------------------------------------

def _footprint_heights(scene: Scene, spec: TactileSensorSpec, center: np.ndarray,
                       floor: float = -np.inf):
    """Sensel-column heights, ids and (x, y) of the sensor centred at
    ``center`` (only its x and y are read); the columns whose surface does
    not rise above ``floor`` read -inf / 0."""
    xy = _column_xy(spec.sensel_offsets, center)
    heights, ids = top_heights(scene.objects, xy, floor=floor)
    shape = (spec.res_y, spec.res_x)
    return heights.reshape(shape), ids.reshape(shape), xy.reshape(shape + (2,))


def _column_xy(offsets: np.ndarray, center: np.ndarray) -> np.ndarray:
    """World (x, y) of the sensel columns at ``offsets`` from ``center``."""
    xy = np.empty((offsets.shape[0], 2))
    xy[:, 0] = offsets[:, 0] + center[0]
    xy[:, 1] = offsets[:, 1] + center[1]
    return xy


def _contact_dot(scene: Scene, object_id: int, contact: np.ndarray) -> float:
    """Table-normal (+z) component of the contacted surface normal, from the
    same downward ray at the contact column that the probe cast, from
    ``render.column_start``. The ray is cast only against the primitives
    that can rise above the contact height there (``render._column_normal``);
    the normal is that of a cast against every primitive."""
    origin = np.array([contact[0], contact[1], column_start(scene.objects)])
    normal = _column_normal(scene.object_by_id(object_id), origin, float(contact[2]))
    return float(normal[2])


def _contact(heights: np.ndarray, ids: np.ndarray, xy: np.ndarray, image: np.ndarray):
    """Contact point and object id of a probe whose frame fired: those of
    the peak plateau's sensel nearest the plateau's mean, ties going to the
    first in row-major order, so a flat top is touched at the footprint
    centre and a rim contact stays on the rim (the pressed patch's centre,
    as GelSight locates it: Yuan, Dong & Adelson, 2017). Distances are
    sensel offsets times ``SENSOR``'s pitches: a symmetric plateau ties."""
    plateau = image == image.max()
    count = np.count_nonzero(plateau)
    rows, cols = np.arange(image.shape[0]), np.arange(image.shape[1])
    dy = SENSOR.pitch_y * (rows - rows @ plateau.sum(axis=1) / count)
    dx = SENSOR.pitch_x * (cols - cols @ plateau.sum(axis=0) / count)
    d2 = np.where(plateau, dy[:, None] ** 2 + dx ** 2, np.inf)
    idx = np.unravel_index(int(np.argmin(d2)), image.shape)
    return np.array([xy[idx][0], xy[idx][1], heights[idx]]), int(ids[idx])


def simulate_poke(scene: Scene, plan: Optional[PokePlan]) -> PokeOutcome:
    """Lower the sensor along the plan pixel's view ray until contact.

    The sensor centre at probe height z is the ray's point at z, with z
    itself as its height: the sensing plane the indentation is taken
    against. Success requires contact (``detect_contact`` on the frame)
    above the protective-stop height, and the contacted object must not tip
    at the stop force.

    A sensel indents by more than ``DEFAULT_VALUE_THRESHOLD`` only where its
    column rises above the plane by more than that. The sensor has yaw 0,
    so its footprint is the axis-aligned rectangle
    centre +- (area_x, area_y) / 2. A probe is skipped without casting, and
    counts no sensel, when ``rises_above`` finds no surface under that
    rectangle that can rise above the plane plus the threshold: the cull
    rule of the floored casts, whose 1e-9 pads cover their rounding. The
    descent still steps through the probe's height.

    A probe that is cast passes its plane height as the ``top_heights``
    floor. A sensel whose column surface does not rise above the plane
    indents by 0 at any height, so it reads -inf / 0 without being cast; the
    contact sensel indents by more than 0 and keeps its cast height and id.

    The coarse descent, in ``COARSE_STEP`` strides, looks for the first
    height at which any sensel counts. At each height it casts first the
    lattice of ``SENSOR.lattice_offsets``, 300 of the default 19,200
    sensels, with the same floor. A lattice sensel that ``detect_contact``
    counts, one that indents by more than the threshold, is a first touch.
    Only where none does is the full frame cast, and its count decides.
    ``top_heights`` gives a column the same bytes whichever other columns
    are cast with it, so the lattice counts a sensel only where the full
    frame counts it, and the first touch is the one a full-frame descent
    finds. The fine descent, in
    ``DESCENT_STEP`` strides from one coarse step above that height, casts
    full frames until ``detect_contact`` fires.
    """
    if plan is None:
        return PokeOutcome(status=MISS, reason="planning_failed")
    cam = scene.camera
    origin, direction = cam.pixel_ray(plan.point_px)
    if direction[2] >= -1e-9:
        return PokeOutcome(status=MISS, reason="ray_not_down")

    def center_at(z: float) -> np.ndarray:
        t = (z - origin[2]) / direction[2]
        center = origin + t * direction
        center[2] = z  # the ray's z at t can differ from z in the last bit
        return center

    top = scene_top_z(scene.objects)
    half = np.array([SENSOR.area_x, SENSOR.area_y]) / 2.0

    def skipped(center: np.ndarray) -> bool:
        return not rises_above(scene.objects, center[:2] - half, center[:2] + half,
                               center[2] + DEFAULT_VALUE_THRESHOLD)

    def probe(center: np.ndarray):
        """The full frame at ``center``: (hit, count, (heights, ids, xy, image))."""
        heights, ids, xy = _footprint_heights(scene, SENSOR, center, floor=center[2])
        image = frame_from_heights(heights, SENSOR, center)
        hit, count = detect_contact(image)
        return hit, count, (heights, ids, xy, image)

    def touches(z: float) -> bool:
        """Whether any sensel counts at ``z``: the lattice first, then,
        where no lattice sensel counts, the full frame."""
        center = center_at(z)
        if skipped(center):
            return False
        lattice = _column_xy(SENSOR.lattice_offsets, center)
        heights, _ = top_heights(scene.objects, lattice, floor=z)
        if detect_contact(frame_from_heights(heights, SENSOR, center))[1] > 0:
            return True
        return probe(center)[1] > 0

    z_top = top + COARSE_STEP
    z = z_top
    first_touch = None
    while z >= H_STOP - 1e-12:
        if touches(z):
            first_touch = z
            break
        z -= COARSE_STEP
    if first_touch is None:
        return PokeOutcome(status=MISS, reason="no_touch", stop_z=H_STOP)
    z = min(first_touch + COARSE_STEP, z_top)
    while z >= H_STOP - 1e-12:
        center = center_at(z)
        hit, _, touched = (False, 0, None) if skipped(center) else probe(center)
        if hit:
            contact, cid = _contact(*touched)
            if _contact_dot(scene, cid, contact) < CONTACT_DOT_MIN:
                # pressing a steep surface (e.g. a wall through the opening)
                # jams the arm: protective stop, no usable contact
                return PokeOutcome(status=MISS, reason="steep_contact", stop_z=z)
            status = TOPPLE if poke_would_topple(scene, cid, contact, F_STOP) else SUCCESS
            return PokeOutcome(status=status, contact_point=contact, contact_object=cid, stop_z=z)
        z -= DESCENT_STEP
    return PokeOutcome(status=MISS, reason="no_fire", stop_z=H_STOP)


# ---------------------------------------------------------------------------
# grasp simulation
# ---------------------------------------------------------------------------

def simulate_grasp(scene: Scene, grasp: GraspProposal) -> GraspOutcome:
    """Execute a proposal against true geometry.

    Success needs (i) both finger sweep prisms clear of the solid above
    the closing height, (ii) the closing segment to cross the object wall
    at two opposed points with both segment ends free, and (iii) the
    horizontal gap between the grasp center and the crossing midpoint to
    stay under half a finger pad span (= finger_width / 2).

    Both fingers' sweeps are one ``top_heights`` query, floored at the
    collision height: a column above the floor reads the full query's
    height, so the query finds a collision exactly where the full one does.
    """
    close_angle = grasp.theta if grasp.kind == "edge" else grasp.theta + np.pi / 2.0
    u = np.array([np.cos(close_angle), np.sin(close_angle)])
    perp = np.array([-u[1], u[0]])
    center = np.array([grasp.x, grasp.y])
    z_exec = max(grasp.z - DESCEND_OFFSET, 0.001)
    fw = GRIPPER.finger_width
    spans = np.linspace(-fw / 2.0, fw / 2.0, 25)
    tips = [center + sign * (grasp.w / 2.0) * u for sign in (-1.0, 1.0)]
    samples = np.concatenate([tip[None, :] + spans[:, None] * perp[None, :] for tip in tips])
    collision = z_exec + 1e-9
    heights, _ = top_heights(scene.objects, samples, floor=collision)
    if np.any(heights > collision):
        return GraspOutcome(status=FAILURE, reason="descent_collision", grasp=grasp)
    ts = np.linspace(-grasp.w / 2.0, grasp.w / 2.0, 801)
    pts = np.concatenate([center[None, :] + ts[:, None] * u[None, :],
                          np.full((ts.size, 1), z_exec)], axis=1)
    inside = np.zeros(ts.size, dtype=bool)
    for obj in scene.objects:
        inside |= contains(obj, pts)
    if not inside.any():
        return GraspOutcome(status=FAILURE, reason="no_contact", grasp=grasp)
    if inside[0] or inside[-1]:
        return GraspOutcome(status=FAILURE, reason="finger_inside_object", grasp=grasp)
    first = int(np.argmax(inside))
    last = int(ts.size - 1 - np.argmax(inside[::-1]))
    midpoint = center + 0.5 * (ts[first] + ts[last]) * u
    err = float(np.hypot(*(center - midpoint)))
    if err >= 0.5 * fw:
        return GraspOutcome(status=FAILURE, reason="localization_error",
                            grasp=grasp, localization_error=err)
    return GraspOutcome(status=SUCCESS, grasp=grasp, localization_error=err)


# ---------------------------------------------------------------------------
# per-trial pipelines
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class PreparedScene:
    """What the trials on one scene object share: the render, the
    poking-region annotations and two memos filled as the trials run.

    Unpacks as ``(buffers, anns)``. A trial takes it only for this very
    ``scene`` object (see ``_owned``).
    """
    scene: Scene
    buffers: RenderBuffers
    anns: list
    _plans: dict = field(default_factory=dict, init=False, repr=False)
    _pokes: dict = field(default_factory=dict, init=False, repr=False)

    def __iter__(self):
        return iter((self.buffers, self.anns))

    def plan(self, mode: str) -> Optional[PokePlan]:
        """The plan of a mode in ``POKE_GUIDANCE_MODES + GRASP_MODES`` on the
        first annotation, once per kind: the centre pixel of the bounding box
        ("bbox") or of the mask ("mask"), ``poking_point`` of the mask
        ("camera-mask"), or ``poking_point`` of the poking region ("pr",
        "tactile" and "camera-pr" share it). None where nothing is in view
        or ``poking_point`` raises EmptyMask or DegenerateInput. Raises
        InvalidConfig for an unknown mode."""
        if mode not in POKE_GUIDANCE_MODES + GRASP_MODES:
            raise InvalidConfig(f"unknown mode {mode!r}")
        kind = "pr" if mode in ("tactile", "camera-pr") else mode
        if kind not in self._plans:
            self._plans[kind] = _plan(self.anns[0], kind) if self.anns else None
        return self._plans[kind]

    def poke(self, plan: Optional[PokePlan]) -> PokeOutcome:
        """``simulate_poke`` of ``plan``, once per pixel.

        A poke reads only the plan's pixel and no seed, so a repeat returns
        the first outcome itself. Its contact point is made read-only, since
        every trial on the pixel shares it.
        """
        if plan is None:
            return simulate_poke(self.scene, plan)
        out = self._pokes.get(plan.point_px)
        if out is None:
            out = simulate_poke(self.scene, plan)
            if out.contact_point is not None:
                out.contact_point.setflags(write=False)
            self._pokes[plan.point_px] = out
        return out


def annotations_for(scene: Scene, cfg: TrialConfig) -> PreparedScene:
    """The render and poking-region pass of ``scene``; ``cfg`` is not read."""
    buffers = render(scene)
    anns = poking_region(buffers, scene.camera)
    return PreparedScene(scene, buffers, anns)


def _owned(scene: Scene, prepared: Optional[PreparedScene]) -> PreparedScene:
    """The preparation a trial on ``scene`` runs on: ``prepared``, or a fresh
    one where it is None. Raises InvalidConfig for anything but a
    ``PreparedScene`` of this very scene object."""
    if prepared is None:
        return annotations_for(scene, None)
    if not (isinstance(prepared, PreparedScene) and prepared.scene is scene):
        raise InvalidConfig("prepared must be annotations_for(scene, ...) of the trial's scene")
    return prepared


def _plan(ann: InstanceAnnotation, kind: str) -> Optional[PokePlan]:
    """``PreparedScene.plan``'s plan of ``kind`` on ``ann``."""
    if kind in ("pr", "camera-mask"):
        try:
            return poking_point(ann.poking_region if kind == "pr" else ann.mask)
        except (EmptyMask, DegenerateInput):
            return None
    if kind == "mask":
        vs, us = np.divmod(np.flatnonzero(ann.mask), ann.mask.shape[1])
        px = (int(round(us.mean())), int(round(vs.mean())))
    else:
        u0, v0, u1, v1 = ann.bbox
        px = (int(round((u0 + u1) / 2.0)), int(round((v0 + v1) / 2.0)))
    topo = SIMPLY_CONNECTED if ann.mask[px[1], px[0]] else RING
    return PokePlan(point_px=px, ellipse=None, region_topology=topo)


def run_poke_trial(scene: Scene, cfg: TrialConfig, seed: int, guidance: str,
                   prepared: Optional[PreparedScene] = None) -> PokeOutcome:
    """One poke of ``scene`` guided by ``guidance`` ("bbox", "mask" or "pr").
    Neither ``cfg`` nor ``seed`` is read. ``prepared`` is ``annotations_for``
    of this very ``scene`` object, or None for a fresh one; anything else
    raises InvalidConfig.

    The trial targets ``anns[0]``, the visible object with the lowest id, at
    the pixel of ``PreparedScene.plan(guidance)``.
    It ends as ``miss``, with the first reason that holds: ``no_annotation``
    (nothing in view), ``planning_failed`` (no plan: an empty or degenerate
    region), ``ray_not_down`` (the plan pixel's ray), ``no_touch`` (no
    sensel counts before ``H_STOP``), ``steep_contact`` (a surface steeper
    than ``CONTACT_DOT_MIN``) or ``no_fire`` (the fine descent never fires).
    A contact ends as ``topple`` when the object tips below ``F_STOP``, and
    as ``success`` otherwise, both with the reason "". Raises InvalidConfig
    for an unknown guidance.
    """
    if guidance not in POKE_GUIDANCE_MODES:
        raise InvalidConfig(f"unknown guidance {guidance!r}")
    prepared = _owned(scene, prepared)
    if not prepared.anns:
        return PokeOutcome(status=MISS, reason="no_annotation")
    return prepared.poke(prepared.plan(guidance))


def run_grasp_trial(scene: Scene, cfg: TrialConfig, seed: int, mode: str,
                    prepared: Optional[PreparedScene] = None) -> GraspOutcome:
    """One grasp of ``scene`` localized by ``mode`` (one of ``GRASP_MODES``).
    ``cfg`` is not read, and ``prepared`` is as ``run_poke_trial`` takes it.

    The trial targets ``anns[0]``, the visible object with the lowest id,
    and plans with ``PreparedScene.plan(mode)``: on its instance mask
    ("camera-mask") or its poking region.
    The grasp height comes from the corrupted depths of the region (the
    camera modes) or from a poke's contact (``tactile``). One proposal at
    the plan pixel back-projected to that height is executed as proposed,
    or, for ``tactile``, at the contact height and, where the proposal is an
    edge grasp or the region is simply connected, anchored to the contact.

    The failure reasons, in the order they are decided: ``no_annotation``,
    ``planning_failed``; ``no_depth`` (camera modes) or ``poke_miss``,
    ``poke_topple``, ``adhesion_disturbance`` (``tactile``);
    ``width_overflow``; then ``simulate_grasp``'s ``descent_collision``,
    ``no_contact``, ``finger_inside_object`` and ``localization_error``.
    Raises InvalidConfig for an unknown mode.
    """
    if mode not in GRASP_MODES:
        raise InvalidConfig(f"unknown grasp mode {mode!r}")
    prepared = _owned(scene, prepared)
    buffers, anns = prepared
    if not anns:
        return GraspOutcome(status=FAILURE, reason="no_annotation")
    cam = scene.camera
    trial_seed = mix(seed, 0x9A59)  # seeds the adhesion coin or the depth model
    plan = prepared.plan(mode)
    if plan is None:
        return GraspOutcome(status=FAILURE, reason="planning_failed")

    if mode == "tactile":
        poke = prepared.poke(plan)
        if poke.status != SUCCESS:
            return GraspOutcome(status=FAILURE, reason=f"poke_{poke.status}")
        target = scene.object_by_id(poke.contact_object)
        # a solid of revolution on a line support (its axis segment) can roll
        on_line = not isinstance(target.shape, Box) and len(_support(target)[0]) == 2
        if on_line and rng_for(trial_seed).random() < ADHESION_PROB:
            return GraspOutcome(status=FAILURE, reason="adhesion_disturbance")
        height = poke.contact_height
    else:
        # the region's pixels are object pixels, read in the same row-major order
        depth, dz = _corrupted_pixel_depths(buffers, scene, trial_seed, DEPTH_DROPOUT,
                                            DEPTH_SIGMA)
        region = anns[0].mask if mode == "camera-mask" else anns[0].poking_region
        in_region = region.reshape(-1)[buffers.pixels]
        heights = surface_heights(depth[in_region], dz[in_region], cam.pose.translation[2])
        heights = heights[np.isfinite(heights)]
        if not heights.size:
            return GraspOutcome(status=FAILURE, reason="no_depth")
        height = max(float(heights.mean()), 0.001)
    poke_v = cam.backproject_at_height(plan.point_px, height)
    try:
        proposal = heuristic_grasp(poke_v, plan, cam, GRIPPER)
    except WidthOverflow:
        return GraspOutcome(status=FAILURE, reason="width_overflow")
    # the camera modes execute the proposal as it is: its back-projected z
    # can differ from the height in the last bit
    if mode == "tactile":
        x, y = proposal.x, proposal.y
        if proposal.kind == "edge" or plan.region_topology == SIMPLY_CONNECTED:
            # proposed at poke_v's x, y: anchored to the sensed contact point
            x, y = poke.contact_point[:2]
        proposal = dataclasses.replace(proposal, x=float(x), y=float(y), z=height)
    return simulate_grasp(scene, proposal)


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
    check_count(attempts_per_object, "attempts_per_object")
    valid = POKE_GUIDANCE_MODES if task == "poke" else GRASP_MODES
    for m in modes:
        if m not in valid:
            raise InvalidConfig(f"unknown {task} mode {m!r}; expected one of {valid}")
    if len(set(modes)) != len(modes):
        raise InvalidConfig(f"modes repeat: {tuple(modes)}")
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
