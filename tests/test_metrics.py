import numpy as np
import pytest

from pokegrasp.errors import ShapeMismatch
from pokegrasp.metrics import (AREA_BUCKETS, IOU_THRESHOLDS, APReport, Detection,
                               average_precision, evaluate_ap, mask_iou)
from pokegrasp.regions import InstanceAnnotation


def ann_from_mask(mask, oid=1):
    vs, us = np.nonzero(mask)
    bbox = (int(us.min()), int(vs.min()), int(us.max()), int(vs.max()))
    return InstanceAnnotation(id=oid, mask=mask, poking_region=mask, bbox=bbox)


def block_mask(shape, v0, u0, h, w):
    m = np.zeros(shape, dtype=bool)
    m[v0:v0 + h, u0:u0 + w] = True
    return m


# ---------------------------------------------------------------------------
# Exhaustive oracle: naive matching loops + literal 101-point PR scan.
# Shares only the matching POLICY (greedy per image, score order, highest
# IoU >= threshold, lowest gt index on ties) with the implementation.
# ---------------------------------------------------------------------------

def oracle_iou(a, b):
    inter = np.count_nonzero(np.logical_and(a, b))
    union = np.count_nonzero(np.logical_or(a, b))
    return inter / union if union else 0.0


def oracle_ap(detections, gts, threshold):
    flags = []  # (score, image, index, is_tp)
    total_gt = 0
    for img, (dets, g) in enumerate(zip(detections, gts)):
        total_gt += len(g)
        order = sorted(range(len(dets)), key=lambda i: -dets[i].score)
        taken = set()
        for i in order:
            best_j = -1
            best = -1.0
            for j in range(len(g)):
                if j in taken:
                    continue
                iou = oracle_iou(dets[i].mask, g[j].poking_region)
                if iou >= threshold and iou > best:
                    best, best_j = iou, j
            if best_j >= 0:
                taken.add(best_j)
            flags.append((dets[i].score, img, i, best_j >= 0))
    if total_gt == 0:
        return None
    flags.sort(key=lambda r: (-r[0], r[1], r[2]))
    ap_sum = 0.0
    for k in range(101):
        r = k / 100.0
        best_p = 0.0
        tp = 0
        for rank, row in enumerate(flags, start=1):
            if row[3]:
                tp += 1
            if tp / total_gt >= r:
                best_p = max(best_p, tp / rank)
        ap_sum += best_p
    return ap_sum / 101.0


class TestMaskIou:
    def test_identical(self):
        m = block_mask((8, 8), 1, 1, 3, 3)
        assert mask_iou(m, m) == 1.0

    def test_disjoint(self):
        a = block_mask((8, 8), 0, 0, 2, 2)
        b = block_mask((8, 8), 5, 5, 2, 2)
        assert mask_iou(a, b) == 0.0

    def test_one_of_three(self):
        a = np.zeros((4, 4), dtype=bool)
        b = np.zeros((4, 4), dtype=bool)
        a[0, 0] = a[0, 1] = True
        b[0, 1] = b[0, 2] = True
        assert mask_iou(a, b) == pytest.approx(1.0 / 3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mask_iou(np.zeros((2, 2), dtype=bool), np.zeros((3, 3), dtype=bool))


class TestEvaluateAp:
    def perfect_setup(self):
        shape = (48, 48)
        gts, dets = [], []
        for img in range(3):
            m1 = block_mask(shape, 2, 2, 10, 10)
            m2 = block_mask(shape, 20, 20, 14, 14)
            gts.append([ann_from_mask(m1, 1), ann_from_mask(m2, 2)])
            dets.append([Detection(mask=m1, score=1.0, image_id=img),
                         Detection(mask=m2, score=1.0, image_id=img)])
        return dets, gts

    def test_perfect_detector_scores_one(self):
        dets, gts = self.perfect_setup()
        report = evaluate_ap(dets, gts)
        assert report.mAP == 1.0
        assert report.ap50 == 1.0
        assert report.ap75 == 1.0
        assert report.ap_small == 1.0   # 100 px < 32^2
        assert report.ap_medium is None  # no gt in [32^2, 96^2): 196 px is small too
        assert report.ap_large is None

    def test_empty_predictions_score_zero(self):
        _, gts = self.perfect_setup()
        report = evaluate_ap([[], [], []], gts)
        assert report.mAP == 0.0 and report.ap50 == 0.0 and report.ap75 == 0.0

    def test_three_detections_vs_oracle(self):
        shape = (32, 32)
        g1 = block_mask(shape, 2, 2, 8, 8)
        g2 = block_mask(shape, 18, 18, 8, 8)
        hit1 = block_mask(shape, 2, 2, 8, 9)       # IoU 8/9 with g1
        miss = block_mask(shape, 2, 20, 6, 6)      # overlaps nothing
        hit2 = block_mask(shape, 18, 17, 8, 9)     # high IoU with g2
        dets = [[Detection(hit1, 0.9), Detection(miss, 0.8), Detection(hit2, 0.7)]]
        gts = [[ann_from_mask(g1, 1), ann_from_mask(g2, 2)]]
        got = average_precision(dets, gts, 0.5)
        want = oracle_ap(dets, gts, 0.5)
        assert abs(got - want) < 1e-9

    def test_random_micro_scenes_match_oracle(self):
        rng = np.random.default_rng(99)
        for trial in range(20):
            shape = (24, 24)
            n_img = rng.integers(1, 3)
            dets, gts = [], []
            for img in range(n_img):
                n_gt = rng.integers(1, 4)
                g = []
                for k in range(n_gt):
                    m = block_mask(shape, rng.integers(0, 14), rng.integers(0, 14),
                                   rng.integers(3, 10), rng.integers(3, 10))
                    g.append(ann_from_mask(m, k + 1))
                n_det = rng.integers(0, 5)
                d = []
                for _ in range(n_det):
                    m = block_mask(shape, rng.integers(0, 14), rng.integers(0, 14),
                                   rng.integers(3, 10), rng.integers(3, 10))
                    d.append(Detection(mask=m, score=float(rng.random()), image_id=img))
                gts.append(g)
                dets.append(d)
            for thr in (0.3, 0.5, 0.75, 0.9):
                got = average_precision(dets, gts, thr)
                want = oracle_ap(dets, gts, thr)
                assert abs(got - want) < 1e-9, f"trial {trial} thr {thr}"

    def test_score_rank_invariance(self):
        dets, gts = self.perfect_setup()
        # degrade one detection so the ranking matters
        dets[1][0] = Detection(mask=block_mask((48, 48), 0, 30, 5, 5), score=0.9, image_id=1)
        base = evaluate_ap(dets, gts)
        def transform(d):
            return Detection(mask=d.mask, score=float(np.tanh(d.score) * 3 + 5), image_id=d.image_id)
        warped = [[transform(d) for d in img] for img in dets]
        out = evaluate_ap(warped, gts)
        assert out == base

    def test_duplicate_detection_never_raises_ap(self):
        dets, gts = self.perfect_setup()
        base = evaluate_ap(dets, gts)
        dets[0] = dets[0] + [Detection(mask=gts[0][0].poking_region, score=0.5, image_id=0)]
        dup = evaluate_ap(dets, gts)
        for a, b in zip(dup.to_json().values(), base.to_json().values()):
            if a != "N/A":
                assert a <= b + 1e-12

    def test_map_is_mean_of_thresholds(self):
        dets, gts = self.perfect_setup()
        dets[2] = []
        report = evaluate_ap(dets, gts)
        per_thr = [average_precision(dets, gts, t) for t in IOU_THRESHOLDS]
        assert abs(report.mAP - np.mean(per_thr)) < 1e-12

    def test_ap50_and_ap75_are_the_sweeps_entries(self):
        shape = (32, 32)
        g1 = block_mask(shape, 2, 2, 8, 8)
        g2 = block_mask(shape, 18, 18, 8, 8)
        loose = block_mask(shape, 2, 4, 8, 8)      # IoU 48/80 with g1
        tight = block_mask(shape, 18, 18, 8, 9)    # IoU 8/9 with g2
        dets = [[Detection(loose, 0.9), Detection(tight, 0.7)]]
        gts = [[ann_from_mask(g1, 1), ann_from_mask(g2, 2)]]
        report = evaluate_ap(dets, gts)
        assert report.ap50 == average_precision(dets, gts, 0.50)
        assert report.ap75 == average_precision(dets, gts, 0.75)
        assert report.ap50 > report.ap75

    def test_area_bucket_na(self):
        dets, gts = self.perfect_setup()
        report = evaluate_ap(dets, gts)
        assert report.ap_large is None
        assert report.to_json()["AP_L"] == "N/A"
        assert "AP_L,N/A" in report.to_csv()

    def test_misaligned_images_raise(self):
        dets, gts = self.perfect_setup()
        with pytest.raises(ShapeMismatch):
            evaluate_ap(dets[:2], gts)


def bucket_scenes(seed=5):
    """Seeded 128x128 scenes whose regions span the small, medium and large
    buckets. Detections are jittered copies of the ground truth plus false
    positives; image 1 has no ground truth and image 2 no detections."""
    rng = np.random.default_rng(seed)
    shape = (128, 128)
    sides = ((8, 30), (34, 90), (97, 120))  # small, medium, large square sides
    dets, gts = [], []
    for img in range(5):
        g = []
        if img != 1:
            for k in range(int(rng.integers(1, 4))):
                lo, hi = sides[(img + k) % 3]
                h, w = (int(x) for x in rng.integers(lo, hi + 1, size=2))
                v0, u0 = int(rng.integers(0, 129 - h)), int(rng.integers(0, 129 - w))
                g.append(ann_from_mask(block_mask(shape, v0, u0, h, w), k + 1))
        d = []
        if img != 2:
            for ann in g:
                vs, us = np.nonzero(ann.poking_region)
                h, w = vs.max() - vs.min() + 1, us.max() - us.min() + 1
                for _ in range(int(rng.integers(1, 3))):
                    dv, du = (int(x) for x in rng.integers(-(h // 4), h // 4 + 1, size=2))
                    v0 = int(np.clip(vs.min() + dv, 0, 128 - h))
                    u0 = int(np.clip(us.min() + du, 0, 128 - w))
                    d.append(Detection(block_mask(shape, v0, u0, h, w),
                                       float(rng.integers(0, 5)) / 4.0, img))
            for _ in range(int(rng.integers(1, 3))):
                lo, hi = sides[int(rng.integers(0, 3))]
                side = int(rng.integers(lo, hi + 1))
                v0, u0 = (int(x) for x in rng.integers(0, 129 - side, size=2))
                d.append(Detection(block_mask(shape, v0, u0, side, side),
                                   float(rng.integers(0, 5)) / 4.0, img))
        dets.append(d)
        gts.append(g)
    return dets, gts


class TestEvaluateApComposition:
    def test_fields_equal_average_precision_composition(self):
        for seed in (5, 6, 7):
            dets, gts = bucket_scenes(seed)
            areas = [a.poking_area for g in gts for a in g]
            assert min(areas) < 32 ** 2 <= max(areas) and max(areas) >= 96 ** 2

            def over_thresholds(bucket):
                vals = [average_precision(dets, gts, t, bucket) for t in IOU_THRESHOLDS]
                if all(v is None for v in vals):
                    return None
                return float(np.mean([v for v in vals if v is not None]))

            report = evaluate_ap(dets, gts)
            want = APReport(
                mAP=over_thresholds(AREA_BUCKETS["all"]),
                ap50=average_precision(dets, gts, 0.50, AREA_BUCKETS["all"]),
                ap75=average_precision(dets, gts, 0.75, AREA_BUCKETS["all"]),
                ap_small=over_thresholds(AREA_BUCKETS["small"]),
                ap_medium=over_thresholds(AREA_BUCKETS["medium"]),
                ap_large=over_thresholds(AREA_BUCKETS["large"]),
            )
            assert report == want, f"seed {seed}"
            assert all(v is not None for v in want.to_json().values())

    def test_each_iou_is_computed_once(self, monkeypatch):
        from pokegrasp import metrics
        dets, gts = bucket_scenes(5)
        calls = []

        def counted(a, b):
            calls.append(1)
            return mask_iou(a, b)

        monkeypatch.setattr(metrics, "mask_iou", counted)
        evaluate_ap(dets, gts)
        assert len(calls) == sum(len(d) * len(g) for d, g in zip(dets, gts)) > 0

    def test_detection_shape_mismatch_raises(self):
        dets, gts = bucket_scenes(5)
        dets[0] = dets[0] + [Detection(block_mask((64, 64), 2, 2, 8, 8), 0.5, 0)]
        with pytest.raises(ShapeMismatch):
            evaluate_ap(dets, gts)
