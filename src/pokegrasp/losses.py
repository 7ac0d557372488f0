"""Loss numerics for the segmentation head: deconvolution sizing,
classification / localization / mask losses and analytic mask gradients.

Mask-loss variants over a per-pixel activation map ``a`` and a binary
ground truth, with p = sigmoid(a):

* ``vanilla``  -- mean binary cross entropy over all pixels.
* ``weighted`` -- summed cross entropy, positive terms scaled by a fixed
  weight.
* ``pn``       -- summed cross entropy, positive terms scaled by
  beta = n_neg / n_pos computed per instance (1 when n_pos == 0).
* ``lpn``      -- same with beta = ln(n_neg / n_pos), which tames the huge
  weights tiny regions would otherwise get. Note ln gives beta = 0 for a
  balanced instance and beta < 0 when positives outnumber negatives; both
  are kept as-is unless ``clamp_beta_nonneg`` is set.

All reductions are plain float64 sums; everything here is pure and
reentrant.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .errors import InvalidConfig, ShapeMismatch

VARIANTS = ("vanilla", "weighted", "pn", "lpn")


@dataclass(frozen=True)
class LossConfig:
    variant: str
    fixed_weight: Optional[float] = None
    clamp_beta_nonneg: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"unknown loss variant {self.variant!r}")
        if self.variant == "weighted":
            if self.fixed_weight is None or self.fixed_weight <= 0:
                raise InvalidConfig("weighted variant needs fixed_weight > 0")


@dataclass(frozen=True)
class BoxOffsets:
    x: float
    y: float
    w: float
    h: float

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.w, self.h], dtype=np.float64)


def deconv_output_size(s_in: int, stride: int, s_filter: int, padding: int) -> int:
    """Transposed-convolution output size: stride*(S_i - 1) + S_f - 2*padding."""
    if s_in < 1 or stride < 1 or s_filter < 1 or padding < 0:
        raise InvalidConfig("deconvolution parameters out of range")
    out = stride * (s_in - 1) + s_filter - 2 * padding
    if out <= 0:
        raise InvalidConfig(f"deconvolution output size {out} <= 0")
    return out


def smooth_l1(x: np.ndarray) -> np.ndarray:
    """0.5 x^2 inside |x| < 1, |x| - 0.5 outside."""
    x = np.abs(np.asarray(x, dtype=np.float64))
    return np.where(x < 1.0, 0.5 * x * x, x - 0.5)


def _offsets(t: Union[BoxOffsets, Sequence[float]]) -> np.ndarray:
    if isinstance(t, BoxOffsets):
        return t.as_array()
    a = np.asarray(t, dtype=np.float64)
    if a.shape != (4,):
        raise ShapeMismatch(f"box offsets must have 4 components, got {a.shape}")
    return a


def smooth_l1_loc_loss(t, v) -> float:
    """Localization loss: sum of smooth-L1 over the 4 offset components."""
    return float(np.sum(smooth_l1(_offsets(t) - _offsets(v))))


def softmax_cross_entropy(scores, true_class: int) -> float:
    """Multinomial cross entropy of raw class scores (stable log-softmax)."""
    s = np.asarray(scores, dtype=np.float64)
    m = np.max(s)
    logz = m + math.log(np.sum(np.exp(s - m)))
    return float(logz - s[true_class])


def pn_beta(n_pos: int, n_neg: int, variant: str = "pn") -> float:
    """Positive-pixel weight: n_neg/n_pos (pn) or ln(n_neg/n_pos) (lpn);
    1 when there are no positive pixels."""
    if n_pos < 0 or n_neg < 0 or n_pos + n_neg < 1:
        raise InvalidConfig("pixel counts out of range")
    if variant not in ("pn", "lpn"):
        raise InvalidConfig(f"beta is defined for pn/lpn, not {variant!r}")
    if n_pos == 0:
        return 1.0
    ratio = n_neg / n_pos
    if variant == "pn":
        return ratio
    return math.log(ratio) if ratio > 0.0 else -math.inf


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow: max(x, 0) + log1p(e^{-|x|})
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _check_pair(logits: np.ndarray, gt: np.ndarray):
    logits = np.asarray(logits, dtype=np.float64)
    gt = np.asarray(gt, dtype=bool)
    if logits.shape != gt.shape:
        raise ShapeMismatch(f"logits {logits.shape} vs gt {gt.shape}")
    return logits, gt


def _beta_for(gt: np.ndarray, cfg: LossConfig) -> float:
    n_pos = int(np.count_nonzero(gt))
    n_neg = int(gt.size - n_pos)
    if cfg.variant == "weighted":
        beta = float(cfg.fixed_weight)
    else:
        beta = pn_beta(n_pos, n_neg, cfg.variant)
    if cfg.clamp_beta_nonneg:
        beta = max(beta, 0.0)
    return beta


def mask_loss(logits, gt, cfg: LossConfig) -> float:
    """Mask loss of one instance; see the module docstring for variants.

    -log p = softplus(-a) on positive pixels, -log(1-p) = softplus(a) on
    negative ones.
    """
    logits, gt = _check_pair(logits, gt)
    pos_terms = _softplus(-logits[gt])
    neg_terms = _softplus(logits[~gt])
    if cfg.variant == "vanilla":
        return float((np.sum(pos_terms) + np.sum(neg_terms)) / logits.size)
    beta = _beta_for(gt, cfg)
    return float(beta * np.sum(pos_terms) + np.sum(neg_terms))


def mask_loss_grad(logits, gt, cfg: LossConfig) -> np.ndarray:
    """Analytic d(mask_loss)/d(activation) per pixel.

    Positive pixels: -beta * (1 - sigmoid(a)); negative: sigmoid(a);
    both divided by the pixel count for the vanilla mean variant.
    """
    logits, gt = _check_pair(logits, gt)
    with np.errstate(over="ignore"):
        sig = 1.0 / (1.0 + np.exp(-logits))
    beta = 1.0 if cfg.variant == "vanilla" else _beta_for(gt, cfg)
    grad = np.where(gt, -beta * (1.0 - sig), sig)
    if cfg.variant == "vanilla":
        grad *= 1.0 / logits.size
    return grad


def total_loss(l_cls: float, l_loc: float, l_mask: float) -> float:
    """Multi-task total: unweighted sum of the three sub-losses."""
    return float(l_cls) + float(l_loc) + float(l_mask)
