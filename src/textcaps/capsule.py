"""Capsule classification head: primary capsules, compression, dynamic routing.

At each feature-map position a learned 1x1 projection produces n_pc
capsules of dimension d (contiguous d-sized groups of the projection,
each squashed). The squash non-linearity rescales a vector to norm
|x|^2 / (1 + |x|^2) while preserving direction, so capsule lengths live
in [0, 1). A learned compression layer then forms each condensed capsule
as a weighted sum over all primary capsules (weights per output/input
pair), and dynamic routing with agreement updates maps condensed capsules
to one capsule per class. Class probabilities are the softmax of the
class-capsule norms; a mean-pool + dense + softmax baseline head covers
the no-capsule ablation arm. Every stage works on a batch: a single
document is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple, Union

import numpy as np

from .tensor import (
    Parameter,
    ShapeMismatchError,
    Tensor,
    div,
    l2_norm,
    softmax,
)


@dataclass(frozen=True)
class CapsuleHeadConfig:
    n_pc: int = 8
    n_cc: int = 128
    d: int = 16
    n_cls: int = 2
    routing_iterations: int = 3

    def __post_init__(self) -> None:
        if min(self.n_pc, self.n_cc, self.d, self.routing_iterations) < 1:
            raise ValueError("capsule head extents must all be >= 1")
        if self.n_cls < 2:
            raise ValueError("n_cls must be >= 2")


@dataclass
class RoutingState:
    """Final routing logits and couplings (couplings: softmax over classes)."""

    logits: Tensor
    couplings: Tensor
    coupling_history: List[Tensor] = field(default_factory=list)


def squash(x: Union[Tensor, np.ndarray]) -> Tensor:
    """Rescale vectors along the last axis: x * |x| / (1 + |x|^2).

    The norm of the result is |x|^2 / (1 + |x|^2) < 1 and the direction is
    unchanged; the zero vector maps to the zero vector (the |x| -> 0 limit).
    """
    t = x if isinstance(x, Tensor) else Tensor(x)
    rank1 = t.values.ndim == 1
    if rank1:
        t = t.reshape((1, t.values.shape[0]))
    d = t.shape[-1]
    norm = l2_norm(t, axis=-1)
    one = Tensor(np.ones(norm.shape))
    factor = div(norm, one + norm * norm)
    expanded = factor.reshape(norm.shape + (1,)) @ Tensor(np.ones((1, d)))
    out = t * expanded
    return out.reshape((d,)) if rank1 else out


def primary_capsules_batch(fm: Tensor, projection: Tensor,
                           config: CapsuleHeadConfig) -> Tensor:
    """(B, L, C) feature map -> (B, L * n_pc, d) squashed primary capsules."""
    b, l, c = fm.shape
    want = (c, config.n_pc * config.d)
    if projection.shape != want:
        raise ShapeMismatchError(
            f"primary projection shape {projection.shape} != {want}")
    grouped = (fm @ projection).reshape((b, l * config.n_pc, config.d))
    return squash(grouped)


def compress_batch(primary: Tensor, weights: Tensor) -> Tensor:
    """(B, count, d) -> (B, n_cc, d): condensed_j = sum_i w_ji * p_i."""
    _, count, _ = primary.shape
    if weights.values.ndim != 2 or weights.shape[1] != count:
        raise ShapeMismatchError(
            f"compression weights {weights.shape} incompatible with {count} primaries")
    return weights @ primary


def dynamic_routing_batch(condensed: Tensor, transform: Tensor,
                          config: CapsuleHeadConfig) -> Tuple[Tensor, RoutingState]:
    """Route (B, n_cc, d) condensed capsules to (B, n_cls, d) class capsules.

    Prediction vectors u_hat[b, j, k] = W[j, k] @ u[b, j]. Logits start at
    zero; each iteration takes couplings as the softmax of the logits over
    the class axis, forms the coupled sums, squashes them, and adds the
    agreement u_hat . v to the logits (skipped after the final iteration).
    """
    b, n_cc, d = condensed.shape
    want = (n_cc, config.n_cls, d, d)
    if transform.shape != want:
        raise ShapeMismatchError(f"routing transform {transform.shape} != {want}")
    if config.routing_iterations < 1:
        raise ValueError("routing_iterations must be >= 1")

    n_cls = config.n_cls
    w_t = transform.transpose((0, 1, 3, 2))
    u_hat = (condensed.reshape((b, n_cc, 1, 1, d)) @ w_t).reshape((b, n_cc, n_cls, d))

    logits = Tensor(np.zeros((b, n_cc, n_cls)))
    ones_d = Tensor(np.ones((1, d)))
    ones_cc = Tensor(np.ones((n_cc, 1)))
    history: List[Tensor] = []
    couplings = None
    v = None
    for iteration in range(config.routing_iterations):
        couplings = softmax(logits, axis=-1)
        history.append(couplings)
        weighted = couplings.reshape((b, n_cc, n_cls, 1)) @ ones_d
        s = (weighted * u_hat).sum(axis=1)
        v = squash(s)
        if iteration < config.routing_iterations - 1:
            v_rows = (ones_cc @ v.reshape((b, 1, n_cls * d))).reshape((b, n_cc, n_cls, d))
            agreement = (u_hat * v_rows).sum(axis=-1)
            logits = logits + agreement
    return v, RoutingState(logits=logits, couplings=couplings,
                           coupling_history=history)


def class_probabilities_batch(class_caps: Tensor) -> Tensor:
    """Softmax over the class-capsule norms: (B, n_cls, d) -> (B, n_cls)."""
    return softmax(l2_norm(class_caps, axis=-1), axis=-1)


def predict(p: Union[Tensor, np.ndarray]) -> int:
    """Index of the maximum probability; ties break toward the lower index."""
    values = p.values if isinstance(p, Tensor) else np.asarray(p)
    return int(np.argmax(values))


def baseline_head_batch(fm: Tensor, dense: Tensor) -> Tensor:
    """Mean-pool positions, one dense layer, softmax: the no-capsule head."""
    b, l, c = fm.shape
    if dense.values.ndim != 2 or dense.shape[0] != c:
        raise ShapeMismatchError(
            f"baseline dense weights {dense.shape} incompatible with {c} channels")
    pooled = fm.sum(axis=1).scale(1.0 / l)
    return softmax(pooled @ dense, axis=-1)


def init_capsule_head(config: CapsuleHeadConfig, positions: int, channels: int,
                      rng) -> Dict[str, Parameter]:
    """Glorot-uniform projection/compression/routing parameters."""
    from .encoders import _glorot

    count = positions * config.n_pc
    proj_shape = (channels, config.n_pc * config.d)
    params = {
        "head.primary.w": Parameter(
            Tensor(_glorot(rng, proj_shape[0], proj_shape[1], proj_shape)),
            "head.primary.w"),
        "head.compress.w": Parameter(
            Tensor(_glorot(rng, count, config.n_cc, (config.n_cc, count))),
            "head.compress.w"),
        "head.routing.w": Parameter(
            Tensor(_glorot(rng, config.d, config.d,
                           (config.n_cc, config.n_cls, config.d, config.d))),
            "head.routing.w"),
    }
    return params


def init_baseline_head(channels: int, n_cls: int, rng) -> Dict[str, Parameter]:
    from .encoders import _glorot

    return {
        "head.dense.w": Parameter(
            Tensor(_glorot(rng, channels, n_cls, (channels, n_cls))), "head.dense.w"),
    }
