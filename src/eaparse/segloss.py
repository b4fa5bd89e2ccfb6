"""Segmentation losses with closed-form gradients.

All three losses operate on raw logits; softmax / sigmoid are applied
internally with the usual max-subtraction and ``log1p(exp(-|x|))``
stabilizations, so any finite logit magnitude is safe. Accumulation happens
in float64 and reductions walk pixels in row-major order, which keeps
results bit-stable across runs and thread counts.

Gradients are with respect to the logits and keep the input's shape;
entries outside the contributing mask are exactly zero, and the channel sum
of the cross-entropy gradient vanishes at every pixel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyMask, LabelOutOfRange, MissingGradient, ShapeMismatch
from .tensorio import ensure_binary_mask, ensure_label_map, ensure_logits


# eq=False: compared and hashed by identity, as the gradient array has no
# single truth value under ==
@dataclass(frozen=True, eq=False)
class LossResult:
    """A scalar loss, how many pixels produced it, and optionally its gradient."""

    loss: float
    contributing_pixels: int
    gradient: np.ndarray | None = None


@dataclass(frozen=True)
class LossWeights:
    """Multipliers for the edge-restricted and boundary-map loss terms."""

    lambda_edge: float = 1.0
    lambda_boundary: float = 1.0


def _check_labels(logits: np.ndarray, labels: np.ndarray) -> None:
    c = logits.shape[0]
    if logits.shape[1:] != labels.shape:
        raise ShapeMismatch(
            f"logits spatial shape {logits.shape[1:]} != labels shape {labels.shape}"
        )
    top = int(labels.max())
    if top >= c:
        raise LabelOutOfRange(f"label {top} out of range for {c} classes")


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits.astype(np.float64) - logits.max(axis=0, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=0, keepdims=True))


def softmax_cross_entropy(
    logits, labels, mask=None, *, want_gradient: bool = False
) -> LossResult:
    """Mean softmax cross-entropy over the pixels selected by ``mask``.

    ``mask=None`` selects every pixel. An all-zero mask raises EmptyMask: a
    mean over nothing has no value. The gradient is (softmax - onehot) / n
    inside the mask and zero elsewhere.
    """
    lg = ensure_logits(logits)
    lb = ensure_label_map(labels)
    _check_labels(lg, lb)
    if mask is None:
        m = np.ones(lb.shape, dtype=bool)
    else:
        m = ensure_binary_mask(mask).astype(bool)
        if m.shape != lb.shape:
            raise ShapeMismatch(f"mask shape {m.shape} != labels shape {lb.shape}")
    n = int(m.sum())
    if n == 0:
        raise EmptyMask("no pixels selected for cross-entropy")

    logp = _log_softmax(lg)
    picked = np.take_along_axis(logp, lb[None].astype(np.int64), axis=0)[0]
    loss = float(-(picked[m].sum()) / n)

    grad = None
    if want_gradient:
        grad = np.exp(logp)
        rows, cols = np.ogrid[: lb.shape[0], : lb.shape[1]]
        grad[lb.astype(np.int64), rows, cols] -= 1.0
        grad *= m[None] / n
    return LossResult(loss=loss, contributing_pixels=n, gradient=grad)


def edge_attention_loss(
    logits, labels, edge_mask, *, want_gradient: bool = False
) -> LossResult:
    """Cross-entropy restricted to a precomputed near-boundary band."""
    return softmax_cross_entropy(logits, labels, edge_mask, want_gradient=want_gradient)


def boundary_bce(edge_logit, boundary_gt, *, want_gradient: bool = False) -> LossResult:
    """Mean binary cross-entropy of a one-channel boundary prediction.

    Accepts the logit plane as (1, H, W) or plain (H, W). Uses
    max(x, 0) - x*y + log1p(exp(-|x|)) per pixel; the mean runs over the
    whole grid and the gradient, shaped like the input, is
    (sigmoid(x) - y) / (H*W).
    """
    raw = np.asarray(edge_logit)
    if raw.ndim == 3:
        if raw.shape[0] != 1:
            raise ShapeMismatch(f"boundary head must have one channel, got {raw.shape[0]}")
        x = ensure_logits(raw)[0].astype(np.float64)
    elif raw.ndim == 2:
        x = ensure_logits(raw[None])[0].astype(np.float64)
    else:
        raise ShapeMismatch(f"boundary logits must be (1, H, W) or (H, W), got {raw.shape}")
    y = ensure_binary_mask(boundary_gt)
    if y.shape != x.shape:
        raise ShapeMismatch(f"target shape {y.shape} != logits shape {x.shape}")
    yf = y.astype(np.float64)
    n = x.size

    per_pixel = np.maximum(x, 0.0) - x * yf + np.log1p(np.exp(-np.abs(x)))
    loss = float(per_pixel.sum() / n)

    grad = None
    if want_gradient:
        # sigmoid via exp(-|x|) only: never overflows
        e = np.exp(-np.abs(x))
        sig = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))
        grad = ((sig - yf) / n).reshape(raw.shape)
    return LossResult(loss=loss, contributing_pixels=n, gradient=grad)


def total_loss(
    seg: LossResult,
    edge_att: LossResult,
    bnd: LossResult,
    w: LossWeights = LossWeights(),
) -> LossResult:
    """Weighted sum seg + lambda_edge * edge_att + lambda_boundary * bnd.

    The per-term results must agree on gradient presence: either all three
    carry one or none does (MissingGradient otherwise). When present, the
    combined gradient covers the class logits (seg + lambda_edge *
    edge_att); the boundary head's gradient lives on a different grid and
    stays with its own LossResult. ``contributing_pixels`` is taken from
    ``seg``.
    """
    loss = seg.loss + w.lambda_edge * edge_att.loss + w.lambda_boundary * bnd.loss
    have = [r.gradient is not None for r in (seg, edge_att, bnd)]
    if any(have) and not all(have):
        raise MissingGradient("either all loss terms carry gradients or none may")
    grad = None
    if all(have):
        if seg.gradient.shape != edge_att.gradient.shape:
            raise ShapeMismatch(
                f"gradient shapes differ: {seg.gradient.shape} vs {edge_att.gradient.shape}"
            )
        grad = seg.gradient + w.lambda_edge * edge_att.gradient
    return LossResult(
        loss=float(loss), contributing_pixels=seg.contributing_pixels, gradient=grad
    )
