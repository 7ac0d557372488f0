"""Workload inputs, the trial runner and the per-item records.

Every workload is built from the workload seed alone and drives the
program only through its public functions:

* ``tactile_loop`` -- the full default poke table (``bbox``, ``mask``,
  ``pr``) plus the ``tactile`` column of the grasp table: 9 objects x 12
  attempts, one render per scene shared by the 4 modes (108 renders, 432
  trials, every trial lowers the tactile sensor).
* ``camera_grasp`` -- the ``camera-mask`` and ``camera-pr`` grasp columns
  over the same scenes (108 renders, 216 trials, no tactile probes).
* ``seg_eval`` -- cluttered multi-object scenes rendered during set-up;
  the timed part is ``evaluate_ap`` plus PN/LPN ``mask_loss`` and
  ``mask_loss_grad`` per detection.

Trial seeds are ``mix(seed, object_index, mode_index, attempt)`` with the
mode index taken from the full ``POKE_GUIDANCE_MODES`` / ``GRASP_MODES``
tuples, so each record equals the matching ``run_benchmark`` record of the
headline tables. An item that raises is recorded with its exception type
and never stops the workload.
"""
from __future__ import annotations

import hashlib
import json
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from pokegrasp import catalog, harness, losses, metrics
from pokegrasp.scene import Box, Scene
from pokegrasp.seeding import mix

TABLE_COLUMNS = {
    "tactile_loop": (("poke", "bbox"), ("poke", "mask"), ("poke", "pr"), ("grasp", "tactile")),
    "camera_grasp": (("grasp", "camera-mask"), ("grasp", "camera-pr")),
}
WORKLOADS = ("seg_eval", "camera_grasp", "tactile_loop")  # cheapest first

SEG_TAG = 0x5E6E7A1  # seed domain of the seg_eval scenes and detections
SEG_IMAGES = 12
SEG_OBJECTS = (3, 5)  # inclusive range of objects per scene
SEG_EXTENT = (0.15, 0.10)  # half extents of the placement area, meters
SEG_GAP = 0.005  # clearance between object footprints, meters
PN = losses.LossConfig("pn")
LPN = losses.LossConfig("lpn")


@dataclass
class PassResult:
    """Records of one pass plus the first error seen per exception type."""

    records: list = field(default_factory=list)
    errors: dict = field(default_factory=dict)  # type name -> "message (file:line) at item"
    ap_report: dict | None = None

    def fail(self, exc: Exception, item: str) -> dict:
        name = type(exc).__name__
        if name not in self.errors:
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            where = f"{frame.filename.rsplit('/', 1)[-1]}:{frame.lineno}"
            self.errors[name] = f"{exc} ({where}) at {item}"
        return {"status": "error", "reason": name}

    @property
    def attempted(self) -> int:
        return len(self.records)

    @property
    def failed(self) -> int:
        return sum(r["outcome"]["status"] == "error" for r in self.records)

    def digest(self) -> str:
        return sha256_json({"items": self.records, "ap": self.ap_report})

    def breakdown(self) -> dict:
        """mode -> Counter of "status:reason" (errors as "error:<type>")."""
        out: dict = {}
        for r in self.records:
            o = r["outcome"]
            out.setdefault(r["mode"], Counter())[f"{o['status']}:{o.get('reason') or '-'}"] += 1
        return out

    def table(self) -> dict:
        """mode -> (successes, attempts)."""
        out: dict = {}
        for r in self.records:
            succ, att = out.get(r["mode"], (0, 0))
            out[r["mode"]] = (succ + (r["outcome"]["status"] == harness.SUCCESS), att + 1)
        return out


def sha256_json(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# table workloads
# ---------------------------------------------------------------------------

TABLE_ATTEMPTS = 12
# Attempts re-run to check a table pass that was not repeated in full: one
# upright, one upside-down and one side (or alternate) slot per object.
CHECK_ATTEMPTS = (0, 4, 8)


def table_digest(scenes_by_object: dict) -> str:
    h = hashlib.sha256()
    for name, scenes in scenes_by_object.items():
        h.update(name.encode())
        for scene in scenes:
            for obj in scene.objects:
                h.update(np.asarray(obj.pose.rotation).tobytes()
                         + np.asarray(obj.pose.translation).tobytes())
    return h.hexdigest()


def run_table(scenes_by_object: dict, attempts, columns, cfg, tracer=None) -> PassResult:
    """Run the (task, mode) columns over the scene of every object and attempt.

    One render per scene is shared by all columns. Records are ordered as
    ``harness.run_benchmark`` orders them: object, mode, attempt.
    """
    result = PassResult()
    rows = []
    for oi, (name, scenes) in enumerate(scenes_by_object.items()):
        for attempt in attempts:
            scene = scenes[attempt % len(scenes)]
            if tracer is not None:
                tracer.trial = f"{name}/{attempt}"
            try:
                prepared, prep_error = harness.annotations_for(scene, cfg), None
            except Exception as exc:  # recorded per trial below
                prepared, prep_error = None, exc
            for task, mode in columns:
                modes = harness.POKE_GUIDANCE_MODES if task == "poke" else harness.GRASP_MODES
                mi = modes.index(mode)
                seed = mix(cfg.master_seed, oi, mi, attempt)
                item = f"{name}/{attempt}/{mode}"
                if tracer is not None:
                    tracer.trial = item
                if prep_error is not None:
                    outcome = result.fail(prep_error, item)
                else:
                    trial = harness.run_poke_trial if task == "poke" else harness.run_grasp_trial
                    try:
                        outcome = trial(scene, cfg, seed, mode, prepared=prepared).to_json()
                    except Exception as exc:
                        outcome = result.fail(exc, item)
                rows.append(((oi, columns.index((task, mode)), attempt),
                             {"object": name, "mode": mode, "attempt": attempt,
                              "seed": seed, "outcome": outcome}))
    result.records = [r for _, r in sorted(rows, key=lambda kv: kv[0])]
    return result


# ---------------------------------------------------------------------------
# seg_eval
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SegImage:
    gts: tuple  # InstanceAnnotation with non-empty poking regions
    detections: tuple  # metrics.Detection
    loss_inputs: tuple  # (logits, target) full-image maps per detection


def _footprint_radius(entry) -> float:
    """Radius of the footprint of an upright or upside-down object."""
    if isinstance(entry.shape, Box):
        w, d, _ = entry.shape.size
        return float(np.hypot(w, d)) / 2.0
    return entry.shape.max_radius


def seg_scene(seed: int, index: int) -> Scene:
    """3-5 distinct catalog objects on non-overlapping seeded placements.

    Which objects appear, how many (3, 4, 5 cycling) and whether each
    stands upright or upside down follow the image index, as orientation
    follows the attempt slot in ``catalog.benchmark_scene``; positions and
    yaws are seeded. Every object then shows a poking region, and the work
    of a pass depends little on the seed.
    """
    rng = np.random.default_rng(mix(seed, SEG_TAG, index))
    count = SEG_OBJECTS[0] + index % (SEG_OBJECTS[1] - SEG_OBJECTS[0] + 1)
    placed: list = []
    objects = []
    for j in range(count):
        entry = catalog.CATALOG[(2 * index + j) % len(catalog.CATALOG)]
        orientation = (catalog.UPRIGHT, catalog.UPSIDE_DOWN)[(index + j) % 2]
        radius = _footprint_radius(entry)
        yaw = float(rng.uniform(0.0, 2.0 * np.pi))
        for _ in range(100):
            x, y = (float(v) for v in rng.uniform(-1.0, 1.0, size=2) * SEG_EXTENT)
            if all(np.hypot(x - px, y - py) > radius + pr + SEG_GAP for px, py, pr in placed):
                placed.append((x, y, radius))
                objects.append(catalog.make_object(entry, orientation, x, y, yaw,
                                                   oid=len(objects) + 1))
                break
    return Scene(camera=catalog.default_camera(), objects=tuple(objects))


def _shifted(mask: np.ndarray, dv: int, du: int) -> np.ndarray:
    out = np.zeros_like(mask)
    h, w = mask.shape
    out[max(dv, 0):h + min(dv, 0), max(du, 0):w + min(du, 0)] = \
        mask[max(-dv, 0):h + min(-dv, 0), max(-du, 0):w + min(-du, 0)]
    return out


def seg_image(seed: int, index: int, cfg) -> SegImage:
    """Render one scene; ground truth and seeded detections for it.

    The k-th ground-truth region yields one detection shifted by 1 + k % 3
    pixels in a seeded direction and dilated (k + 1) % 3 times; the image
    also gets as many seeded false-positive discs, all scored below the
    true detections. Loss inputs are full-image maps: noisy logits that
    favour the detection and the source region as target (empty for false
    positives).
    """
    buffers, anns = harness.annotations_for(seg_scene(seed, index), cfg)
    gts = tuple(a for a in anns if a.poking_area > 0)
    rng = np.random.default_rng(mix(seed, SEG_TAG, index, 1))
    shape = buffers.depth.shape
    pairs = []
    for k, gt in enumerate(gts):
        angle = float(rng.uniform(0.0, 2.0 * np.pi))
        step = 1 + k % 3
        mask = _shifted(gt.poking_region, round(step * np.sin(angle)), round(step * np.cos(angle)))
        if (k + 1) % 3:
            mask = ndimage.binary_dilation(mask, iterations=(k + 1) % 3)
        if mask.any():
            pairs.append((mask, gt.poking_region, float(rng.uniform(0.5, 1.0))))
    vv, uu = np.mgrid[0:shape[0], 0:shape[1]]
    for _ in gts:
        cv, cu = rng.uniform(0, 1, size=2) * shape
        r = float(rng.uniform(3.0, 12.0))
        mask = (vv - cv) ** 2 + (uu - cu) ** 2 <= r * r
        if mask.any():
            pairs.append((mask, np.zeros(shape, dtype=bool), float(rng.uniform(0.0, 0.5))))
    detections = tuple(metrics.Detection(mask=m, score=s, image_id=index) for m, _, s in pairs)
    loss_inputs = tuple((4.0 * (2.0 * mask - 1.0) + rng.normal(0.0, 1.5, size=shape), target)
                        for mask, target, _ in pairs)
    return SegImage(gts=gts, detections=detections, loss_inputs=loss_inputs)


def seg_inputs(seed: int, images: int = SEG_IMAGES) -> tuple:
    cfg = harness.TrialConfig(master_seed=seed)
    return tuple(seg_image(seed, i, cfg) for i in range(images))


def seg_digest(images) -> str:
    h = hashlib.sha256()
    for im in images:
        for g in im.gts:
            h.update(np.packbits(g.poking_region).tobytes())
        for d in im.detections:
            h.update(np.packbits(d.mask).tobytes() + np.float64(d.score).tobytes())
        for logits, target in im.loss_inputs:
            h.update(logits.tobytes() + np.packbits(target).tobytes())
    return h.hexdigest()


def run_seg(images, tracer=None) -> PassResult:
    """AP over all images, then PN/LPN mask loss and gradient per detection.

    Items are images: an image fails when its losses raise, and every image
    fails when ``evaluate_ap`` raises.
    """
    result = PassResult()
    if tracer is not None:
        tracer.trial = "evaluate_ap"
    try:
        report = metrics.evaluate_ap([im.detections for im in images], [im.gts for im in images])
        result.ap_report = report.to_json()
        ap_error = None
    except Exception as exc:
        ap_error = exc
    for i, im in enumerate(images):
        item = f"image/{i}"
        if tracer is not None:
            tracer.trial = item
        if ap_error is not None:
            outcome = result.fail(ap_error, item)
        else:
            try:
                values = []
                for logits, target in im.loss_inputs:
                    values.append([losses.mask_loss(logits, target, PN),
                                   losses.mask_loss(logits, target, LPN),
                                   float(losses.mask_loss_grad(logits, target, PN).sum()),
                                   float(losses.mask_loss_grad(logits, target, LPN).sum())])
                outcome = {"status": harness.SUCCESS, "losses": values}
            except Exception as exc:
                outcome = result.fail(exc, item)
        result.records.append({"image": i, "mode": "seg_eval", "outcome": outcome})
    return result


def seg_oracle(images) -> tuple[bool, dict]:
    """Ground truth scored as its own detections must give mAP == AP50 == 1."""
    dets = [[metrics.Detection(mask=g.poking_region, score=1.0, image_id=i) for g in im.gts]
            for i, im in enumerate(images)]
    report = metrics.evaluate_ap(dets, [im.gts for im in images])
    return report.mAP == 1.0 and report.ap50 == 1.0, report.to_json()


# ---------------------------------------------------------------------------
# dispatch by workload name
# ---------------------------------------------------------------------------

def set_up(workload: str, seed: int):
    """(inputs, SHA-256 of the inputs) of one set-up of the workload."""
    if workload == "seg_eval":
        inputs = seg_inputs(seed)
        return inputs, seg_digest(inputs)
    inputs = catalog.benchmark_scene_set(attempts=TABLE_ATTEMPTS, master_seed=seed)
    return inputs, table_digest(inputs)


def run_pass(workload: str, inputs, seed: int, tracer=None, attempts=None) -> PassResult:
    """One pass of the workload's timed part; ``attempts`` restricts a table pass."""
    if workload == "seg_eval":
        return run_seg(inputs, tracer)
    return run_table(inputs, attempts or range(TABLE_ATTEMPTS), TABLE_COLUMNS[workload],
                     harness.TrialConfig(master_seed=seed), tracer)
