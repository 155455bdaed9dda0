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
the no-capsule ablation arm. Both heads score N_CLASSES = 2 classes, the
labels 0 and 1 that the dataset format allows. Every stage works on a batch: a single
document is a batch of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import tensor
from .tensor import (
    ShapeMismatchError,
    Tensor,
    l2_norm,
    routing,
    softmax,
)


# Routing converges in a few iterations; the paper and Sabour et al. use 3.
MAX_ROUTING_ITERATIONS = 10

# Satire or not, positive or negative: documents carry label 0 or 1.
N_CLASSES = 2


@dataclass(frozen=True)
class CapsuleHeadConfig:
    n_pc: int = 8
    n_cc: int = 128
    d: int = 16
    routing_iterations: int = 3

    def __post_init__(self) -> None:
        if min(self.n_pc, self.n_cc, self.d, self.routing_iterations) < 1:
            raise ValueError("capsule head extents must all be >= 1")
        if self.routing_iterations > MAX_ROUTING_ITERATIONS:
            raise ValueError(f"routing_iterations must be <= {MAX_ROUTING_ITERATIONS}, "
                             f"got {self.routing_iterations}")


@dataclass
class RoutingState:
    """Final routing logits and each iteration's couplings (softmax over
    classes), the last being final: C-contiguous (B, n_cc, n_cls) arrays.

    Diagnostics only: plain arrays, off the tape.
    """

    logits: np.ndarray
    couplings: List[np.ndarray]


def _check_rank3(name: str, t: Tensor) -> None:
    if t.values.ndim != 3:
        raise ShapeMismatchError(f"{name} must be rank 3, got {t.shape}")


def primary_capsules_batch(fm: Tensor, projection: Tensor,
                           config: CapsuleHeadConfig) -> Tensor:
    """(B, L, C) feature map -> (B, L * n_pc, d) squashed primary capsules."""
    _check_rank3("primary capsule input", fm)
    b, l, _ = fm.shape
    grouped = (fm @ projection).reshape((b, l * config.n_pc, config.d))
    return tensor.squash(grouped)


def compress_batch(primary: Tensor, weights: Tensor) -> Tensor:
    """(B, count, d) -> (B, n_cc, d): condensed_j = sum_i w_ji * p_i."""
    _check_rank3("compression input", primary)
    return weights @ primary


def dynamic_routing_batch(condensed: Tensor, transform: Tensor,
                          config: CapsuleHeadConfig) -> Tuple[Tensor, RoutingState]:
    """Route (B, n_cc, d) condensed capsules through an (n_cc, n_cls, d, d)
    transform to (B, n_cls, d) class capsules.

    Prediction vectors u_hat[b, j, k] = W[j, k] @ u[b, j]. Logits start at
    zero; each iteration takes couplings as the softmax of the logits over
    the class axis, forms the coupled sums, squashes them, and adds the
    agreement u_hat . v to the logits (skipped after the final iteration).
    The whole routing is one ``routing`` primitive; the returned state holds
    arrays for inspection and is not differentiated.
    """
    _check_rank3("routing input", condensed)
    v, logits, couplings = routing(condensed, transform, config.routing_iterations)
    return v, RoutingState(logits=logits, couplings=couplings)


def class_probabilities_batch(class_caps: Tensor) -> Tensor:
    """Softmax over the class-capsule norms: (B, n_cls, d) -> (B, n_cls)."""
    return softmax(l2_norm(class_caps, axis=-1), axis=-1)


def mean_pool(fm: Tensor) -> Tensor:
    """Mean over the positions of a feature map: (B, L, C) -> (B, C)."""
    return fm.sum(axis=1).scale(1.0 / fm.shape[1])


def baseline_head_batch(fm: Tensor, dense: Tensor) -> Tensor:
    """Mean-pool positions, one dense layer, softmax: the no-capsule head."""
    return softmax(mean_pool(fm) @ dense, axis=-1)


def head_parameter_shapes(head: Optional[CapsuleHeadConfig], positions: int,
                          channels: int) -> Dict[str, Tuple[int, ...]]:
    """Every head parameter's name and shape, in initialisation order, over a
    (positions, channels) feature map; head=None is the baseline head."""
    if head is None:
        return {"head.dense.w": (channels, N_CLASSES)}
    return {
        "head.primary.w": (channels, head.n_pc * head.d),
        "head.compress.w": (head.n_cc, positions * head.n_pc),
        "head.routing.w": (head.n_cc, N_CLASSES, head.d, head.d),
    }
