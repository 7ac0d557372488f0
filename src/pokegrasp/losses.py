"""Mask-loss numerics for the poking-region segmentation head: the
per-instance mask loss and its analytic gradient.

Mask-loss variants over a per-pixel activation map ``a`` and a binary
ground truth, with p = sigmoid(a):

* ``vanilla``  -- mean binary cross entropy over all pixels.
* ``pn``       -- summed cross entropy, positive terms scaled by
  beta = n_neg / n_pos computed per instance (1 when n_pos == 0).
* ``lpn``      -- same with beta = ln(n_neg / n_pos), which tames the huge
  weights tiny regions would otherwise get. Note ln gives beta = 0 for a
  balanced instance and beta < 0 when positives outnumber negatives; both
  are kept as-is. With positives but no negative pixel, lpn raises
  InvalidConfig (ln 0 = -inf would make every gradient entry infinite), as
  every variant does for an empty map.

All reductions are plain float64 sums; everything here is pure and
reentrant. The functions never write the caller's ``logits`` or ``gt``;
they work in place on arrays they allocate (gathers, negations). Each step
is the ufunc of the allocating one-line form, operands in the same order,
so the bytes match: softplus adds its max first because the sum of two
NaNs is the first one (x86), so ``x += m`` would flip a NaN's sign bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig, ShapeMismatch

VARIANTS = ("vanilla", "pn", "lpn")


@dataclass(frozen=True)
class LossConfig:
    variant: str

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise InvalidConfig(f"unknown loss variant {self.variant!r}")


def pn_beta(n_pos: int, n_neg: int, variant: str = "pn") -> float:
    """Positive-pixel weight: n_neg/n_pos (pn) or ln(n_neg/n_pos) (lpn);
    1 when there are no positive pixels."""
    if n_pos < 0 or n_neg < 0 or n_pos + n_neg < 1:
        raise InvalidConfig("pixel counts out of range")
    if variant not in ("pn", "lpn"):
        raise InvalidConfig(f"beta is defined for pn/lpn, not {variant!r}")
    if variant == "lpn" and not n_neg:
        raise InvalidConfig("lpn needs a negative pixel: ln(0 / n_pos) is -inf")
    if n_pos == 0:
        return 1.0
    ratio = n_neg / n_pos
    return ratio if variant == "pn" else math.log(ratio)


def _softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x) = max(x, 0) + log1p(e^{-|x|}) without overflow,
    written into ``x``."""
    m = np.maximum(x, 0.0)
    np.abs(x, out=x)
    np.negative(x, out=x)
    np.exp(x, out=x)
    np.log1p(x, out=x)
    return np.add(m, x, out=x)


def _check_pair(logits: np.ndarray, gt: np.ndarray):
    logits = np.asarray(logits, dtype=np.float64)
    gt = np.asarray(gt, dtype=bool)
    if logits.shape != gt.shape:
        raise ShapeMismatch(f"logits {logits.shape} vs gt {gt.shape}")
    if not logits.size:
        raise InvalidConfig(f"empty map {logits.shape}")
    return logits, gt


def _beta_for(gt: np.ndarray, cfg: LossConfig) -> float:
    n_pos = int(np.count_nonzero(gt))
    return pn_beta(n_pos, int(gt.size - n_pos), cfg.variant)


def mask_loss(logits, gt, cfg: LossConfig) -> float:
    """Mask loss of one instance; see the module docstring for variants.

    -log p = softplus(-a) on positive pixels, -log(1-p) = softplus(a) on
    negative ones.
    """
    logits, gt = _check_pair(logits, gt)
    pos_terms = _softplus(np.negative(logits[gt]))
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
    beta = 1.0 if cfg.variant == "vanilla" else _beta_for(gt, cfg)
    # sigmoid(a) = 1 / (1 + e^-a); the explicit out keeps a 0-d map an array
    grad = np.negative(logits, out=np.empty_like(logits))
    with np.errstate(over="ignore"):
        np.exp(grad, out=grad)
    grad += 1.0
    np.divide(1.0, grad, out=grad)
    grad[gt] = -beta * (1.0 - grad[gt])
    if cfg.variant == "vanilla":
        grad *= 1.0 / logits.size
    return grad
