"""Average-precision evaluation for poking-region instance segmentation.

Protocol (documented here because it is the report's contract):

* detections are matched per image, in descending score order, each to
  the not-yet-matched ground truth of highest mask IoU >= the threshold;
* the pooled detections (all images) are ranked by descending score, ties
  broken by insertion order, and precision-recall is integrated with
  101-point interpolation;
* the headline value averages AP over IoU thresholds 0.50:0.05:0.95;
* size buckets restrict ground truths by poking-region pixel area
  (small < 32^2 <= medium < 96^2 <= large). Out-of-bucket ground truths
  are ignored rather than counted: detections matched to them are dropped
  from the ranking, and unmatched detections whose own area falls outside
  the bucket are dropped too. A bucket with no ground truth reports N/A.

IoUs, areas and score order are computed once per image per
``evaluate_ap`` call, then read by every threshold and bucket.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import InvalidConfig, ShapeMismatch
from .regions import InstanceAnnotation

IOU_THRESHOLDS = tuple(np.round(np.arange(0.50, 0.96, 0.05), 2))
AREA_BUCKETS = {
    "all": (0.0, float("inf")),
    "small": (0.0, 32.0 ** 2),
    "medium": (32.0 ** 2, 96.0 ** 2),
    "large": (96.0 ** 2, float("inf")),
}
PR_SAMPLES = 101


@dataclass(frozen=True)
class Detection:
    mask: np.ndarray
    score: float
    image_id: int = 0

    def __post_init__(self):
        if not np.isfinite(self.score):
            raise InvalidConfig("detection score must be finite")
        if not np.any(self.mask):
            raise InvalidConfig("detection mask must be non-empty")

    @property
    def area(self) -> int:
        return int(np.count_nonzero(self.mask))


@dataclass(frozen=True)
class APReport:
    mAP: Optional[float]
    ap50: Optional[float]
    ap75: Optional[float]
    ap_small: Optional[float]
    ap_medium: Optional[float]
    ap_large: Optional[float]

    def to_json(self) -> dict:
        def enc(x):
            return "N/A" if x is None else x
        return {"mAP": enc(self.mAP), "AP50": enc(self.ap50), "AP75": enc(self.ap75),
                "AP_S": enc(self.ap_small), "AP_M": enc(self.ap_medium),
                "AP_L": enc(self.ap_large)}

    def to_csv(self) -> str:
        head = "metric,value"
        rows = [f"{k},{v}" for k, v in self.to_json().items()]
        return "\n".join([head] + rows) + "\n"


def mask_iou(a: np.ndarray, b: np.ndarray) -> float:
    """Intersection over union of two equally shaped binary masks."""
    a = np.asarray(a, dtype=bool)
    b = np.asarray(b, dtype=bool)
    if a.shape != b.shape:
        raise ShapeMismatch(f"{a.shape} vs {b.shape}")
    union = np.count_nonzero(a | b)
    if union == 0:
        return 0.0
    return float(np.count_nonzero(a & b) / union)


class _Image(NamedTuple):
    """One image's detections and ground truths, reduced to what matching reads."""

    scores: list[float]        # per detection
    order: list[int]           # detection indices by descending score
    ious: list[list[float]]    # [detection][ground truth] mask IoU
    det_areas: list[int]
    gt_areas: list[int]        # poking-region pixel areas


def _prepare(detections: Sequence[Sequence[Detection]],
             gts: Sequence[Sequence[InstanceAnnotation]]) -> list[_Image]:
    """Compute every IoU, area and score order once, for all thresholds and buckets."""
    if len(detections) != len(gts):
        raise ShapeMismatch("detections and ground truths must align per image")
    images = []
    for dets, g in zip(detections, gts):
        images.append(_Image(
            scores=[d.score for d in dets],
            order=sorted(range(len(dets)), key=lambda i: -dets[i].score),  # stable: ties keep input order
            ious=[[mask_iou(d.mask, a.poking_region) for a in g] for d in dets],
            det_areas=[d.area for d in dets],
            gt_areas=[a.poking_area for a in g]))
    return images


def _match_image(image: _Image, threshold: float, bucket: tuple[float, float]):
    """Greedy per-image matching. Returns (score, order, tp, ignored) rows."""
    lo, hi = bucket
    gt_ignored = [not (lo <= area < hi) for area in image.gt_areas]
    gt_taken = [False] * len(gt_ignored)
    rows = []
    for i in image.order:
        score = image.scores[i]
        best_j, best_iou = -1, -1.0
        best_ign_j, best_ign_iou = -1, -1.0
        for j, iou in enumerate(image.ious[i]):
            if gt_taken[j] or iou < threshold:
                continue
            # IoU ties go to the lowest ground-truth index (strict >)
            if gt_ignored[j]:
                if iou > best_ign_iou:
                    best_ign_j, best_ign_iou = j, iou
            elif iou > best_iou:
                best_j, best_iou = j, iou
        # prefer a countable ground truth; fall back to an ignored one
        if best_j >= 0:
            gt_taken[best_j] = True
            rows.append((score, i, True, False))
        elif best_ign_j >= 0:
            gt_taken[best_ign_j] = True
            rows.append((score, i, False, True))
        else:
            in_bucket = lo <= image.det_areas[i] < hi
            rows.append((score, i, False, not in_bucket))
    return rows, sum(1 for ig in gt_ignored if not ig)


def _ap_from_rows(rows, n_gt: int) -> Optional[float]:
    """101-point interpolated AP from pooled (score, order, tp, ignored) rows."""
    if n_gt == 0:
        return None
    kept = [(s, img, o, tp) for (s, img, o, tp, ig) in rows if not ig]
    kept.sort(key=lambda r: (-r[0], r[1], r[2]))  # score desc, insertion order
    tps = np.array([r[3] for r in kept], dtype=np.float64)
    if tps.size == 0:
        return 0.0
    tp_cum = np.cumsum(tps)
    fp_cum = np.cumsum(1.0 - tps)
    recall = tp_cum / n_gt
    precision = tp_cum / (tp_cum + fp_cum)
    # monotone envelope from the right, then sample 101 recall points
    precision = np.maximum.accumulate(precision[::-1])[::-1]
    samples = np.linspace(0.0, 1.0, PR_SAMPLES)
    idx = np.searchsorted(recall, samples, side="left")
    vals = np.where(idx < len(precision), precision[np.minimum(idx, len(precision) - 1)], 0.0)
    return float(np.mean(vals))


def _ap_at(images: Sequence[_Image], threshold: float,
          bucket: tuple[float, float]) -> Optional[float]:
    """Dataset AP at one IoU threshold and area bucket over prepared images."""
    rows = []
    n_gt = 0
    for img, image in enumerate(images):
        img_rows, img_gt = _match_image(image, threshold, bucket)
        rows.extend((s, img, o, tp, ig) for (s, o, tp, ig) in img_rows)
        n_gt += img_gt
    return _ap_from_rows(rows, n_gt)


def average_precision(detections: Sequence[Sequence[Detection]],
                      gts: Sequence[Sequence[InstanceAnnotation]],
                      threshold: float,
                      bucket: tuple[float, float] = AREA_BUCKETS["all"]) -> Optional[float]:
    """Dataset AP at one IoU threshold, restricted to one area bucket."""
    return _ap_at(_prepare(detections, gts), threshold, bucket)


def evaluate_ap(detections: Sequence[Sequence[Detection]],
                gts: Sequence[Sequence[InstanceAnnotation]]) -> APReport:
    """Full report: threshold-averaged AP, AP50/AP75 (the "all" bucket's
    entries at 0.50 and 0.75), and size-bucket APs."""
    images = _prepare(detections, gts)

    def sweep(bucket):
        return [_ap_at(images, t, AREA_BUCKETS[bucket]) for t in IOU_THRESHOLDS]

    def mean(vals):
        kept = [v for v in vals if v is not None]
        return float(np.mean(kept)) if kept else None

    every = sweep("all")
    return APReport(
        mAP=mean(every),
        ap50=every[IOU_THRESHOLDS.index(0.50)],
        ap75=every[IOU_THRESHOLDS.index(0.75)],
        ap_small=mean(sweep("small")),
        ap_medium=mean(sweep("medium")),
        ap_large=mean(sweep("large")),
    )
