import math

import numpy as np
import pytest

from pokegrasp.errors import InvalidConfig, ShapeMismatch
from pokegrasp.losses import LossConfig, mask_loss, mask_loss_grad, pn_beta

ALL_CONFIGS = [LossConfig("vanilla"), LossConfig("pn"), LossConfig("lpn")]


def softplus(x):
    """log(1 + e^x) in the overflow-safe form."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def reference_mask_loss(logits, gt, cfg):
    """The loss in its one-line, allocating form."""
    pos, neg = softplus(-logits[gt]), softplus(logits[~gt])
    if cfg.variant == "vanilla":
        return float((np.sum(pos) + np.sum(neg)) / logits.size)
    n_pos = int(np.count_nonzero(gt))
    return float(pn_beta(n_pos, gt.size - n_pos, cfg.variant) * np.sum(pos) + np.sum(neg))


def reference_mask_loss_grad(logits, gt, cfg):
    """The gradient in its one-line, allocating form."""
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-logits))
    n_pos = int(np.count_nonzero(gt))
    beta = 1.0 if cfg.variant == "vanilla" else pn_beta(n_pos, gt.size - n_pos, cfg.variant)
    grad = np.where(gt, -beta * (1.0 - sig), sig)
    if cfg.variant == "vanilla":
        grad *= 1.0 / logits.size
    return grad


def as_bytes(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


# quiet NaNs with a payload, one of each sign
NANS = np.array([0x7FF8_0000_0000_0123, 0xFFF8_0000_000A_BCDE], dtype=np.uint64).view(np.float64)
SPECIALS = np.concatenate([[np.inf, -np.inf, 0.0, -0.0, 800.0, -800.0, 40.0, -40.0,
                            5e-324, -5e-324, 1e-310, -2.5, 0.7], NANS])


def special_maps():
    """Small (logits, gt) maps that carry every special value on positive
    and on negative pixels, one NaN alone in either class, and seeded
    mixes."""
    rows = np.stack([SPECIALS, SPECIALS])
    yield rows, np.array([[True], [False]]).repeat(SPECIALS.size, axis=1)
    yield rows, np.array([[False], [True]]).repeat(SPECIALS.size, axis=1)
    for nan in NANS:
        for positive in (True, False):
            yield np.array([[nan, 0.5], [-0.5, 1.0]]), np.array([[positive, True], [False, False]])
    for seed in range(10):
        rng = np.random.default_rng(seed)
        gt = rng.random((3, 5)) < 0.5
        gt[0, 0] = False  # lpn needs a negative pixel
        yield rng.choice(SPECIALS, size=(3, 5)), gt


def seeded_frame():
    """A 240 x 320 map like the segmentation benchmark's: noisy logits that
    favour a shifted copy of the target region."""
    rng = np.random.default_rng(24)
    gt = np.zeros((240, 320), dtype=bool)
    gt[90:150, 120:200] = True
    guess = np.roll(gt, (3, -2), axis=(0, 1))
    return 4.0 * (2.0 * guess - 1.0) + rng.normal(0.0, 1.5, size=gt.shape), gt


def brute_force_mask_loss(logits, gt, cfg):
    """Naive per-pixel double loop, independent of the vectorized path."""
    h, w = logits.shape
    n_pos = sum(1 for i in range(h) for j in range(w) if gt[i, j])
    n_neg = h * w - n_pos
    if cfg.variant == "vanilla":
        beta, scale = 1.0, 1.0 / (h * w)
    elif cfg.variant == "pn":
        beta, scale = (n_neg / n_pos if n_pos else 1.0), 1.0
    else:
        beta, scale = (math.log(n_neg / n_pos) if n_pos else 1.0), 1.0
    total = 0.0
    for i in range(h):
        for j in range(w):
            p = 1.0 / (1.0 + math.exp(-logits[i, j]))
            if gt[i, j]:
                total += -beta * math.log(p) * (scale if cfg.variant == "vanilla" else 1.0)
            else:
                total += -math.log(1.0 - p) * (scale if cfg.variant == "vanilla" else 1.0)
    return total


def finite_difference_grad(logits, gt, cfg, step=1e-5):
    g = np.zeros_like(logits)
    for idx in np.ndindex(logits.shape):
        up = logits.copy()
        dn = logits.copy()
        up[idx] += step
        dn[idx] -= step
        g[idx] = (mask_loss(up, gt, cfg) - mask_loss(dn, gt, cfg)) / (2 * step)
    return g


@pytest.mark.parametrize("variant", ["weighted", "focal", ""])
def test_unknown_variant_is_rejected(variant):
    with pytest.raises(InvalidConfig, match="unknown loss variant"):
        LossConfig(variant)


class TestPnBeta:
    def test_no_positives_gives_one(self):
        assert pn_beta(0, 100, "pn") == 1.0
        assert pn_beta(0, 100, "lpn") == 1.0

    def test_five_percent_positive(self):
        assert pn_beta(5, 95, "pn") == 19.0
        assert abs(pn_beta(5, 95, "lpn") - math.log(19.0)) < 1e-12

    def test_balanced(self):
        for n in (1, 7, 100):
            assert pn_beta(n, n, "pn") == 1.0
            assert pn_beta(n, n, "lpn") == 0.0

    def test_invalid_counts(self):
        with pytest.raises(InvalidConfig):
            pn_beta(0, 0, "pn")

    def test_lpn_needs_a_negative_pixel(self):
        # ln(0 / n_pos) would be -inf
        assert pn_beta(3, 0, "pn") == 0.0
        with pytest.raises(InvalidConfig, match="negative pixel"):
            pn_beta(3, 0, "lpn")


class TestMaskLoss:
    def test_saturated_correct_is_near_zero(self):
        logits = np.full((6, 6), 25.0)
        gt = np.ones((6, 6), dtype=bool)
        for cfg in ALL_CONFIGS[:2]:
            assert mask_loss(logits, gt, cfg) < 1e-8
        # an all-positive gt has no lpn beta: ln 0 = -inf
        for fn in (mask_loss, mask_loss_grad):
            with pytest.raises(InvalidConfig, match="negative pixel"):
                fn(logits, gt, LossConfig("lpn"))
        mixed_gt = np.zeros((6, 6), dtype=bool)
        mixed_gt[:3] = True
        mixed_logits = np.where(mixed_gt, 25.0, -25.0)
        for cfg in ALL_CONFIGS:
            assert mask_loss(mixed_logits, mixed_gt, cfg) < 1e-8

    def test_balanced_pn_equals_plain_sum(self):
        rng = np.random.default_rng(10)
        logits = rng.uniform(-3, 3, size=(4, 8))
        gt = np.zeros((4, 8), dtype=bool)
        gt[:2] = True  # 16 positives, 16 negatives
        pn = mask_loss(logits, gt, LossConfig("pn"))
        # the unweighted closed-form sum of -log p and -log(1 - p)
        plain = float(np.sum(softplus(-logits[gt])) + np.sum(softplus(logits[~gt])))
        assert pn == plain

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(7)
        logits = rng.uniform(-4, 4, size=(4, 4))
        gt = rng.random((4, 4)) < 0.4
        if not gt.any():
            gt[0, 0] = True
        for cfg in ALL_CONFIGS:
            expected = brute_force_mask_loss(logits, gt, cfg)
            assert abs(mask_loss(logits, gt, cfg) - expected) < 1e-12

    def test_nonnegative_when_negatives_dominate(self):
        rng = np.random.default_rng(3)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            logits = rng.uniform(-6, 6, size=(8, 8))
            gt = np.zeros((8, 8), dtype=bool)
            n_pos = rng.integers(1, 32)
            flat = rng.choice(64, size=n_pos, replace=False)
            gt.ravel()[flat] = True
            for cfg in ALL_CONFIGS:
                assert mask_loss(logits, gt, cfg) >= 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mask_loss(np.zeros((2, 2)), np.zeros((3, 2), dtype=bool), LossConfig("pn"))


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.variant)
@pytest.mark.parametrize("fn", [mask_loss, mask_loss_grad], ids=lambda f: f.__name__)
def test_an_empty_map_raises(fn, cfg):
    # vanilla divided by a zero pixel count: NaN for the loss, ZeroDivisionError for the gradient
    with pytest.raises(InvalidConfig, match="empty map"):
        fn(np.zeros((0, 4)), np.zeros((0, 4), dtype=bool), cfg)


class TestInPlaceKernels:
    """The kernels write into arrays they own; the bytes are those of the
    one-line reference forms, and the caller's inputs are never written."""

    @pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=lambda c: c.variant)
    def test_bytes_equal_the_reference(self, cfg):
        for logits, gt in [seeded_frame(), *special_maps()]:
            assert as_bytes(mask_loss(logits, gt, cfg)) == \
                as_bytes(reference_mask_loss(logits, gt, cfg))
            assert as_bytes(mask_loss_grad(logits, gt, cfg)) == \
                as_bytes(reference_mask_loss_grad(logits, gt, cfg))

    @pytest.mark.parametrize("kind", ["float64", "float32", "list"])
    def test_inputs_are_never_written(self, kind):
        for logits, gt in [seeded_frame(), *special_maps()]:
            if kind == "list":
                logits, gt = logits.tolist(), gt.tolist()
            else:
                logits = logits.astype(kind)
            before = (as_bytes(logits), np.asarray(gt).tobytes())
            for cfg in ALL_CONFIGS:
                for fn in (mask_loss, mask_loss_grad):
                    fn(logits, gt, cfg)
                    assert (as_bytes(logits), np.asarray(gt).tobytes()) == before


class TestMaskLossGrad:
    def test_finite_difference_agreement(self):
        worst = 0.0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            logits = rng.uniform(-4, 4, size=(8, 8))
            gt = rng.random((8, 8)) < rng.uniform(0.1, 0.9)
            cfg = ALL_CONFIGS[seed % len(ALL_CONFIGS)]
            analytic = mask_loss_grad(logits, gt, cfg)
            numeric = finite_difference_grad(logits, gt, cfg)
            rel = np.abs(analytic - numeric) / np.maximum(np.abs(numeric), 1e-3)
            worst = max(worst, rel.max())
        assert worst < 1e-5

    def test_saturated_gradient_vanishes(self):
        gt = np.zeros((4, 4), dtype=bool)
        gt[0] = True
        logits = np.where(gt, 25.0, -25.0)
        for cfg in ALL_CONFIGS:
            assert np.abs(mask_loss_grad(logits, gt, cfg)).max() < 1e-8

    def test_flipping_gt_flips_gradient_sign(self):
        rng = np.random.default_rng(0)
        logits = rng.uniform(-2, 2, size=(4, 4))
        gt = rng.random((4, 4)) < 0.5
        gt[1, 2] = True
        g1 = mask_loss_grad(logits, gt, LossConfig("pn"))
        gt2 = gt.copy()
        gt2[1, 2] = False
        g2 = mask_loss_grad(logits, gt2, LossConfig("pn"))
        assert g1[1, 2] < 0 < g2[1, 2]

    def test_summed_variants_are_the_unscaled_closed_form(self):
        # saturated logits give signed zeros; lpn on a mostly positive
        # instance has beta < 0
        logits = np.array([[40.0, -40.0, 0.3], [-1.5, 40.0, 2.0]])
        for gt in (np.array([[1, 0, 1], [0, 1, 0]], bool), np.array([[1, 1, 1], [1, 1, 0]], bool)):
            for cfg in ALL_CONFIGS[1:]:
                want = reference_mask_loss_grad(logits, gt, cfg)
                got = mask_loss_grad(logits, gt, cfg)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

